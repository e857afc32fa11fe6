"""Composed conditional-expectation operator and its second-kind equation.

The operator maps a function f of the first stage to E[E[f(X1) | X2] | X1],
with the inner conditioning realized on a bin partition of the second
marginal.  On zero-mean functions it is a strict contraction whenever the
two stages share no common nontrivial information at grid scale; the hedge
component of the martingale-plus-marginal sensitivity solves
(I - K) h = rhs on that subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measure import Binning

NEUMANN_GATE = 0.999
SINGULAR_GATE = 1.0 - 1e-12
NEUMANN_TOL = 1e-12
NEUMANN_MAX_TERMS = 10_000
DUAL_PATH_TOL = 1e-8


class FredholmError(ValueError):
    """Operator assembly or solve failed a structural check."""


@dataclass(frozen=True)
class FredholmOperator:
    """Discrete kernel of E1 o E2 through bins.

    ``K[i, i'] = sum_b P(bin b | X1 = x1[i]) P(X1 = x1[i'] | bin b)``.
    Row sums equal one and ``w1`` is a left fixed vector, so K preserves
    both constants and the mu1-mean.
    """

    K: np.ndarray
    w1: np.ndarray
    m: int

    @property
    def n1(self) -> int:
        return self.w1.size

    def zero_mean_matrix(self) -> np.ndarray:
        """K restricted to zero-mean input: K - 1 w1^T."""
        return self.K - np.outer(np.ones(self.n1), self.w1)

    @cached_property
    def norm(self) -> float:
        """Operator norm of K on mu1-weighted zero-mean functions, computed once.

        K is self-adjoint in L2(mu1), so ``W^(1/2) K0 W^(-1/2)`` (W = diag(w1))
        is symmetric up to rounding; it annihilates sqrt(w1), the image of the
        constants, and its largest absolute eigenvalue is the norm.
        """
        d = np.sqrt(self.w1)
        M = (self.zero_mean_matrix() * (1.0 / d)[None, :]) * d[:, None]
        return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T)))))


def build_operator(bins: Binning, weights: np.ndarray | None = None) -> FredholmOperator:
    """Assemble the operator of the binned measure from its joint atom masses,
    or from nonnegative atom ``weights`` (n1, n2) with positive weight on
    every row and bin."""
    mu = bins.mu
    weights = mu.atom_masses() if weights is None else weights
    rows = np.repeat(np.arange(mu.n1), mu.n2)
    C = np.bincount(rows * bins.m + bins.index.ravel(), weights.ravel(),
                    mu.n1 * bins.m).reshape(mu.n1, bins.m)
    r, b = C.sum(axis=1), C.sum(axis=0)
    if np.any(r <= 0) or np.any(b <= 0):
        raise FredholmError("a row of atoms or a bin has zero weight")
    # P(bin | x1 = i) times P(x1 = i' | bin)
    K = (C / r[:, None]) @ (C / b[None, :]).T
    w1 = r / r.sum()
    if np.max(np.abs(K.sum(axis=1) - 1.0)) > 1e-12:
        raise FredholmError("operator rows do not sum to one")
    if np.max(np.abs(w1 @ K - w1)) > 1e-12:
        raise FredholmError("operator does not preserve the mu1-mean")
    return FredholmOperator(K, w1, bins.m)


def contraction_norm(op: FredholmOperator) -> float:
    """Operator norm of K on mu1-weighted zero-mean functions:
    :attr:`FredholmOperator.norm`."""
    return op.norm


def _check_zero_mean(op: FredholmOperator, rhs: np.ndarray) -> None:
    if abs(float(op.w1 @ rhs)) > 1e-10:
        raise FredholmError("right-hand side must have zero mu1-mean")


def solve(op: FredholmOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - K) h = rhs on the zero-mean subspace.

    Runs the Neumann series (when the contraction norm allows) and a direct
    solve of the projected system; the two must agree within 1e-8.  Raises
    when the norm is 1 to rounding (at least ``SINGULAR_GATE``): I - K0 is
    then singular on the zero-mean subspace, and a direct solve can return
    a huge h at a small residual.  ``solve_regularized`` answers there.
    """
    rhs = np.asarray(rhs, dtype=float)
    _check_zero_mean(op, rhs)
    if op.norm >= SINGULAR_GATE:
        raise FredholmError(f"contraction norm {op.norm!r} is 1 to rounding: "
                            "I - K is singular on zero-mean functions")
    K0 = op.zero_mean_matrix()
    n = op.n1
    try:
        h_direct = np.linalg.solve(np.eye(n) - K0, rhs)
    except np.linalg.LinAlgError:
        h_direct = None
    h_neumann = None
    if op.norm < NEUMANN_GATE:
        term = rhs.copy()
        acc = rhs.copy()
        for _ in range(NEUMANN_MAX_TERMS):
            term = K0 @ term
            acc += term
            if float(np.max(np.abs(term))) < NEUMANN_TOL:
                break
        h_neumann = acc
    if h_direct is None and h_neumann is None:
        raise FredholmError("Neumann series diverges and direct solve is singular")
    if h_direct is not None and h_neumann is not None:
        gap = float(np.max(np.abs(h_direct - h_neumann)))
        if gap > DUAL_PATH_TOL:
            raise FredholmError(f"Neumann and direct solves disagree by {gap:.3e}")
    h = h_direct if h_direct is not None else h_neumann
    return h - float(op.w1 @ h)


def solve_regularized(op: FredholmOperator, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solve of the projected system, for near-singular operators."""
    rhs = np.asarray(rhs, dtype=float)
    rhs = rhs - float(op.w1 @ rhs)
    K0 = op.zero_mean_matrix()
    h, *_ = np.linalg.lstsq(np.eye(op.n1) - K0, rhs, rcond=1e-10)
    return h - float(op.w1 @ h)
