"""Reference values for the benchmark's output checks, from the definitions.

Nothing here imports wadro.  The quadrature grid, the quantile bins, the
American-put price and the four sensitivities are rebuilt with numpy from
their definitions, so a change to the program that alters its outputs shows
as a disagreement with these values.

A sensitivity is the minimum, over the hedging multipliers a constraint set
makes active, of the dual norm of the adapted gradient plus the hedge field

    G = min_u ( sum_ij mw_ij (|S1_ij + F1_ij|^p' + |S2_ij + F2_ij|^p') )^(1/p'),
    F1_ij = f1(x1_i) - h(x1_i),   F2_ij = f2(bin(x2_ij)) + h(x1_i),

where S = (E[g1 | X1], g2) is the adapted gradient, mw the atom masses and
p' = p / (p - 1).  ``martingale`` makes h active, ``marginal`` makes f1 and
f2 active and ``mart_marginal`` all three.  The objective is convex, so a
damped Newton method finds the minimum; at p = 2 it is a weighted least
squares problem that one Newton step solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MERGE_TOL = 1e-12          # pooled x2 atoms closer than this are one atom
TIE_TOL = 1e-12            # |exercise - continuation| at or below this continues
NEWTON_MAX_ITER = 200
ARMIJO = 1e-4

# active multipliers per constraint set, in the names of curve.csv's columns
SETS = {"G_ad": (), "G_ad_M": ("h",), "G_ad_m": ("f1", "f2"),
        "G_ad_Mm": ("f1", "f2", "h")}

# classical-ball sensitivities of the payoff x2 on any martingale measure,
# keyed by the constraint labels of oracle.json: moving x2 alone costs its
# full length, a martingale move splits it evenly between x1 and x2, and a
# pinned second marginal leaves nothing to gain
LINEAR_X2_CLOSED_FORMS = {"none": 1.0, "martingale": 2 ** -0.5,
                          "marginal2": 0.0, "both": 0.0}


class ConvergenceError(RuntimeError):
    """A reference computation did not converge."""


@dataclass(frozen=True)
class Grid:
    """Atoms (x1_i, x2_ij) with masses w1_i * q_ij."""

    x1: np.ndarray
    w1: np.ndarray
    x2: np.ndarray
    q: np.ndarray

    @property
    def mw(self) -> np.ndarray:
        return self.w1[:, None] * self.q


def _normal_quadrature(n: int):
    z, w = np.polynomial.hermite_e.hermegauss(n)
    return z, w / w.sum()


def black_scholes_grid(sigma: float, n1: int, n2: int) -> Grid:
    """Two-period Black-Scholes martingale on Gauss-Hermite nodes.

    Each period multiplies by exp(sigma Z) divided by its quadrature mean, so
    the conditional mean of X2 given X1 is X1 exactly on the grid.
    """
    z1, w1 = _normal_quadrature(n1)
    z2, w2 = _normal_quadrature(n2)
    e1 = np.exp(sigma * z1)
    e2 = np.exp(sigma * z2)
    x1 = e1 / (w1 @ e1)
    x2 = x1[:, None] * (e2 / (w2 @ e2))[None, :]
    return Grid(x1, w1, x2, np.tile(w2, (n1, 1)))


def quantile_bin_index(grid: Grid, m: int) -> tuple[np.ndarray, int]:
    """Bin of every atom under the quantile partition of the second marginal.

    The pooled second marginal merges atoms closer than MERGE_TOL.  For
    k = 1..m-1 a cut sits halfway between the last pooled atom whose
    cumulative mass is at most k/m and the atom after it; equal cuts count
    once.  Returns the (n1, n2) bin indices and the number of bins.
    """
    z = grid.x2.ravel()
    order = np.argsort(z, kind="stable")
    z = z[order]
    mass = grid.mw.ravel()[order]
    first = np.concatenate(([True], np.diff(z) > MERGE_TOL))
    atoms = z[first]
    cum = np.cumsum(np.bincount(np.cumsum(first) - 1, weights=mass))
    cuts = set()
    for k in range(1, m):
        below = int(np.count_nonzero(cum <= k / m))
        if 0 < below < atoms.size:
            cuts.add(0.5 * (atoms[below - 1] + atoms[below]))
    cuts = np.array(sorted(cuts))
    return np.searchsorted(cuts, grid.x2, side="right"), cuts.size + 1


@dataclass(frozen=True)
class PutValue:
    """Backward-induction value of the two-date put and its gradient field."""

    price: float
    g1: np.ndarray          # (n1, n2), constant along rows
    g2: np.ndarray          # (n1, n2)


def american_put_buyer(grid: Grid, K: float, rho: float) -> PutValue:
    """Put with intrinsic (K e^{-rho t} - x)^+ at t = 1, 2, buyer's side.

    Backward induction: the date-2 value is the intrinsic; at date 1 the
    buyer's value is the smaller of exercise and continuation, and ties
    continue.  The gradient is the payoff slope (-1 strictly inside the
    money, 0 elsewhere) on the branch each row takes.
    """
    k1, k2 = K * np.exp(-rho), K * np.exp(-2 * rho)
    ex = np.maximum(k1 - grid.x1, 0.0)
    cont = np.sum(grid.q * np.maximum(k2 - grid.x2, 0.0), axis=1)
    price = float(grid.w1 @ np.minimum(ex, cont))
    stop = (ex < cont) & (np.abs(ex - cont) > TIE_TOL)
    g1 = np.where(stop & (grid.x1 < k1), -1.0, 0.0)[:, None] + np.zeros_like(grid.x2)
    g2 = np.where(stop[:, None], 0.0, np.where(grid.x2 < k2, -1.0, 0.0))
    return PutValue(price, g1, g2)


class HedgeMap:
    """The linear map from active multipliers u to the hedge field (F1, F2)."""

    def __init__(self, binidx: np.ndarray, m: int, active: tuple):
        self.binidx = binidx
        self.m = m
        self.n1 = binidx.shape[0]
        sizes = {"f1": self.n1, "f2": m, "h": self.n1}
        self.blocks = {}
        start = 0
        for name in active:
            self.blocks[name] = slice(start, start + sizes[name])
            start += sizes[name]
        self.size = start

    def field(self, u: np.ndarray):
        F1 = np.zeros(self.binidx.shape)
        F2 = np.zeros(self.binidx.shape)
        if "f1" in self.blocks:
            F1 += u[self.blocks["f1"]][:, None]
        if "f2" in self.blocks:
            F2 += u[self.blocks["f2"]][self.binidx]
        if "h" in self.blocks:
            h = u[self.blocks["h"]][:, None]
            F1 -= h
            F2 += h
        return F1, F2

    def adjoint(self, G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`field` applied to per-atom values."""
        out = np.zeros(self.size)
        if "f1" in self.blocks:
            out[self.blocks["f1"]] = G1.sum(axis=1)
        if "f2" in self.blocks:
            out[self.blocks["f2"]] = np.bincount(self.binidx.ravel(), G2.ravel(), self.m)
        if "h" in self.blocks:
            out[self.blocks["h"]] = G2.sum(axis=1) - G1.sum(axis=1)
        return out

    def normal_matrix(self, D1: np.ndarray, D2: np.ndarray) -> np.ndarray:
        """A^T diag(D) A for per-atom weights D1 (on F1) and D2 (on F2)."""
        H = np.zeros((self.size, self.size))
        r1, r2 = D1.sum(axis=1), D2.sum(axis=1)
        b = self.blocks
        if "f1" in b:
            H[b["f1"], b["f1"]] = np.diag(r1)
        if "f2" in b:
            H[b["f2"], b["f2"]] = np.diag(np.bincount(self.binidx.ravel(), D2.ravel(), self.m))
        if "h" in b:
            H[b["h"], b["h"]] = np.diag(r1 + r2)
        if "f1" in b and "h" in b:
            H[b["f1"], b["h"]] = H[b["h"], b["f1"]] = -np.diag(r1)
        if "f2" in b and "h" in b:
            rows = np.repeat(np.arange(self.n1), self.binidx.shape[1])
            C = np.zeros((self.n1, self.m))
            np.add.at(C, (rows, self.binidx.ravel()), D2.ravel())
            H[b["h"], b["f2"]] = C
            H[b["f2"], b["h"]] = C.T
        return H


def dual_norm_minimum(mw, S1, S2, hedge: HedgeMap, pc: float) -> float:
    """min_u (sum mw (|S1+F1|^pc + |S2+F2|^pc))^(1/pc) by damped Newton.

    The multipliers are defined up to the shift (f1, f2, h) + (c, -c, c),
    which leaves the field unchanged; the least-squares step picks the
    minimum-norm Newton direction, which ignores that null direction.
    """
    if pc < 2:
        raise ValueError("the Newton reference needs p' >= 2 (p <= 2)")

    def objective(u):
        F1, F2 = hedge.field(u)
        R1, R2 = S1 + F1, S2 + F2
        return float(np.sum(mw * (np.abs(R1) ** pc + np.abs(R2) ** pc))), R1, R2

    u = np.zeros(hedge.size)
    phi, R1, R2 = objective(u)
    if hedge.size == 0:
        return phi ** (1.0 / pc)
    for _ in range(NEWTON_MAX_ITER):
        g = hedge.adjoint(pc * mw * np.sign(R1) * np.abs(R1) ** (pc - 1),
                          pc * mw * np.sign(R2) * np.abs(R2) ** (pc - 1))
        H = hedge.normal_matrix(pc * (pc - 1) * mw * np.abs(R1) ** (pc - 2),
                                pc * (pc - 1) * mw * np.abs(R2) ** (pc - 2))
        d = -np.linalg.lstsq(H, g, rcond=None)[0]
        decrement = -float(g @ d)
        if decrement <= 1e-30 * max(phi, 1e-300):
            return phi ** (1.0 / pc)
        t = 1.0
        while True:
            cand, C1, C2 = objective(u + t * d)
            if cand <= phi - ARMIJO * t * decrement or t < 1e-12:
                break
            t *= 0.5
        if cand >= phi:         # no further decrease representable
            return phi ** (1.0 / pc)
        u, phi, R1, R2 = u + t * d, cand, C1, C2
    raise ConvergenceError(f"Newton reference did not converge in {NEWTON_MAX_ITER} steps")


def curve_point(sigma: float, n: int, p: float, K: float, rho: float,
                sets=tuple(SETS)) -> dict:
    """Reference row of ``curve.csv`` for the Black-Scholes put on an n x n
    Gauss-Hermite grid with n requested bins, under the adapted p-ball."""
    grid = black_scholes_grid(sigma, n, n)
    binidx, m = quantile_bin_index(grid, n)
    put = american_put_buyer(grid, K, rho)
    S1 = np.sum(grid.q * put.g1, axis=1)[:, None] + np.zeros_like(grid.x2)
    pc = p / (p - 1.0)
    out = {"sigma": sigma, "price": put.price}
    for col in sets:
        out[col] = dual_norm_minimum(grid.mw, S1, put.g2, HedgeMap(binidx, m, SETS[col]), pc)
    step = 1e-4 * sigma
    up = american_put_buyer(black_scholes_grid(sigma + step, n, n), K, rho).price
    down = american_put_buyer(black_scholes_grid(sigma - step, n, n), K, rho).price
    out["vega"] = (up - down) / (2 * step)
    return out
