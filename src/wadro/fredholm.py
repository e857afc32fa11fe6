"""Composed conditional-expectation operator and its second-kind equation.

The operator maps a function f of the first stage to E[E[f(X1) | X2] | X1],
with the inner conditioning realized on a bin partition of the second
marginal.  On zero-mean functions it is a strict contraction whenever the
two stages share no common nontrivial information at grid scale.  A
conditional constraint's hedge next to the second marginal solves
(diag(d) - C D_b^-1 C^T) h = d rhs, C its row-by-bin cross block (for the
martingale diag(r) K, with d = r on zero-mean functions when the first
marginal is pinned too): rank at most the bin count m, so the gates and the
one solve work on m x m matrices, minimum-norm past ``REGULARIZE_GATE``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from .measure import Binning, quantile_bins, sign_copy_measure

REGULARIZE_GATE = 0.999
# a block diag(r) - C D_b^-1 C^T whose r and b are not C's row and column sums
CrossBlock = namedtuple("CrossBlock", "C b r")


class FredholmError(ValueError):
    """Operator assembly or solve failed a structural check."""


def _below(B: np.ndarray, gate: float) -> bool:
    """Whether the symmetric B's eigenvalues are below ``gate``: one Cholesky."""
    try:
        np.linalg.cholesky(gate * np.eye(len(B)) - B)
    except np.linalg.LinAlgError:
        return False
    return True


class FredholmOperator:
    """Discrete kernel of E1 o E2 through bins, from the n1 x m row-by-bin weights C.

    ``K[i, i'] = sum_b P(bin b | X1 = x1[i]) P(X1 = x1[i'] | bin b)``, that is
    ``D_r^-1 C D_b^-1 C^T`` for row sums r and bin sums b.  The runtime works
    on the symmetric m x m ``B0 = Z^T Z - t t^T``, ``Z = D_r^-1/2 C D_b^-1/2``
    (``s`` = sqrt(r), kept for the solves) and ``t = sqrt(b / sum b)``, whose nonzero
    eigenvalues are K's on zero-mean functions; K is formed only on request.  K
    preserves constants and the mu1-mean (``w1``): in bin space both read ``B t = t``.
    """

    def __init__(self, C: np.ndarray):
        r, b = C.sum(axis=1), C.sum(axis=0)
        if (r <= 0).any() or (b <= 0).any():
            raise FredholmError("a row of atoms or a bin has zero weight")
        self.C, self.r, self.b, self.w1 = C, r, b, r / r.sum()
        self.s = np.sqrt(r)
        Z = self.Z = C / self.s[:, None] / np.sqrt(b)
        B, t = Z.T @ Z, np.sqrt(b / b.sum())
        if not abs(B @ t - t).max() <= 1e-12:
            raise FredholmError("operator does not preserve constants and the mu1-mean")
        self.B0 = np.subtract(B, t[:, None] * t, out=B)
        self._passed = np.inf       # the lowest gate the norm is known to be below

    @cached_property
    def K(self) -> np.ndarray:
        """The n1 x n1 kernel, for the checks."""
        return (self.C / self.r[:, None]) @ (self.C / self.b[None, :]).T

    def zero_mean_matrix(self) -> np.ndarray:
        """K restricted to zero-mean input: K - 1 w1^T."""
        return self.K - np.outer(np.ones_like(self.w1), self.w1)

    @cached_property
    def norm(self) -> float:
        """Operator norm of K on mu1-weighted zero-mean functions, computed once:
        K is self-adjoint in L2(mu1), and B0 shares its eigenvalues there."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self.B0))))

    def below(self, gate: float) -> bool:
        """Whether the norm is below ``gate``: one Cholesky of ``gate I - B0``,
        none once the norm is known to be below a gate no higher."""
        if gate < self._passed and _below(self.B0, gate):
            self._passed = gate
        return gate >= self._passed


def build_operator(bins: Binning, weights: np.ndarray | None = None) -> FredholmOperator:
    """Assemble the operator of the binned measure from its joint atom masses,
    or from nonnegative atom ``weights`` (n1, n2) with positive weight on
    every row and bin, summed in one pass into the (row, bin) cells."""
    return FredholmOperator(bins.cells(bins.mu.atom_masses() if weights is None else weights))


def contraction_norm(op: FredholmOperator) -> float:
    """Operator norm of K on mu1-weighted zero-mean functions:
    :attr:`FredholmOperator.norm`."""
    return op.norm


def counterexample_violation() -> float:
    """How far the contraction norm of ``sign_copy_measure(64)`` on 64
    quantile bins falls below 0.99, where the counterexample puts it at 1:
    0 if valid, NaN on a NaN."""
    return float(np.max([0.0, 0.99 - contraction_norm(build_operator(
        quantile_bins(sign_copy_measure(64), 64)))]))


def solve(op, rhs: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Solve ``(diag(d) - C D_b^-1 C^T) h = d rhs`` by Woodbury from the C and
    b of ``op``, a FredholmOperator or CrossBlock: ``h = rhs + D_d^-1/2 W y``,
    ``(I - B) y = W^T D_d^1/2 rhs``, ``B = W^T W``, ``W = D_d^-1/2 C D_b^-1/2``,
    for a positive semidefinite block.  d = None is the Fredholm operator's
    (I - K) h = rhs on zero-mean functions, for an rhs of zero mu1-mean against
    its own scale (floored at 1), with B0 for B.  Below ``REGULARIZE_GATE`` it
    is solved directly; past it, where a direct solve can return a huge h at a
    small residual, one eigendecomposition of B gives the L2(d) minimum-norm h,
    eigenvalues within 1e-10 of 1 dropped.
    """
    rhs = np.asarray(rhs, dtype=float)
    if d is None:
        if abs(float(op.w1 @ rhs)) > 1e-10 * max(1.0, float(op.w1 @ np.abs(rhs))):
            raise FredholmError("right-hand side must have zero mu1-mean")
        W, s, B, direct = op.Z, op.s, op.B0, op.below(REGULARIZE_GATE)
    else:
        s = np.sqrt(d)
        W = op.C / s[:, None] / np.sqrt(op.b)
        B = W.T @ W
        direct = _below(B, REGULARIZE_GATE)
    f = W.T @ (s * rhs)
    if direct:
        y = np.linalg.solve(np.eye(len(f)) - B, f)
    else:       # y = -v.f / lam on a dropped mode v takes rhs's part along W v out of h
        lam, V = np.linalg.eigh(B)
        y = V @ ((V.T @ f) / np.where(abs(1.0 - lam) > 1e-10, 1.0 - lam, -lam))
    h = rhs + (W @ y) / s
    return h if d is not None else h - float(op.w1 @ h)


def certificate(op: FredholmOperator, rhs: np.ndarray) -> tuple[float, float]:
    """Max-norm residual of h = ``solve(op, rhs)`` and h's distance from the
    Neumann sum of rhs, cut at 10,000 terms or a term below 1e-13.  Near norm
    1 the cut sum falls short of a right h: the series checks, never solves."""
    h = solve(op, rhs)
    K0 = op.zero_mean_matrix()
    term = neumann = np.asarray(rhs, dtype=float)
    for _ in range(10_000):
        term = K0 @ term
        neumann = neumann + term
        if float(np.max(np.abs(term))) < 1e-13:
            break
    residual = float(np.max(np.abs((np.eye(op.w1.size) - K0) @ h - rhs)))
    return residual, float(np.max(np.abs(neumann - h)))

