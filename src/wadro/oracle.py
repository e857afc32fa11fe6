"""Brute-force verification oracles.

Three independent routes confirm the closed-form sensitivities:

* linear-programming suprema over classical Wasserstein balls at finite
  radii (finite candidate support, internal dense simplex),
* an exact nested (bicausal) transport distance for small discrete laws,
* constraint-preserving feasible families built by Newton iteration, whose
  difference quotients lower-bound the sensitivity along the optimal
  direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fredholm
from .criterion import Criterion, value as criterion_value
from .measure import (MARTINGALE_RTOL, MERGE_TOL, Binning, GridMeasure, MeasureError,
                      marginal_2, quantile_bins)
from .simplex import InaccurateError, InfeasibleError, LPError, solve_lp

LP_VARIABLE_CAP = 5_000
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-11


class OracleError(ValueError):
    """Oracle misuse: oversized instance, bad support, degenerate fit."""


# ---------------------------------------------------------------------------
# measures with ragged conditional rows (outputs of the feasible families)

@dataclass(frozen=True)
class RaggedMeasure:
    """Two-period measure whose conditional rows have varying support sizes."""

    x1: np.ndarray
    w1: np.ndarray
    rows: tuple                         # (x2 row, q row) per first-stage atom

    def row_expectation(self, fn) -> np.ndarray:
        """v[i] = sum_j q_i[j] fn(x1[i], z_i[j]); rows differ in length, so loop."""
        return np.array([np.sum(q * fn(np.full_like(z, a), z))
                         for a, (z, q) in zip(self.x1, self.rows)])

    def martingale_residual(self) -> float:
        return max(abs(float(q @ z) - a) for a, (z, q) in zip(self.x1, self.rows))


# ---------------------------------------------------------------------------
# discrete ball suprema by linear programming

@dataclass(frozen=True)
class DiscreteBallProblem:
    """Supremum of a linear objective over a constrained Wasserstein ball.

    The candidate support for the perturbed law is finite; couplings are the
    LP variables.  Only the classical ball is expressible this way (the
    bicausality of the adapted ball is nonlinear in the coupling).
    """

    mu: GridMeasure
    target_support: np.ndarray          # (N_t, 2)
    radius: float
    p: float = 2.0
    martingale: bool = False
    marginal1: bool = False
    marginal2: bool = False
    objective: object = None            # callable (y1, y2) -> value, or (N_t,) array

    def __post_init__(self):
        tgt = np.atleast_2d(np.asarray(self.target_support, dtype=float))
        if tgt.shape[1] != 2 or not np.all(np.isfinite(tgt)):
            raise OracleError("target support must be finite pairs (y1, y2)")
        if self.radius < 0:
            raise OracleError("radius must be nonnegative")
        if not (self.p >= 1):
            raise OracleError("need p >= 1")
        object.__setattr__(self, "target_support", tgt)

    def objective_values(self) -> np.ndarray:
        if callable(self.objective):
            return np.asarray(self.objective(self.target_support[:, 0],
                                             self.target_support[:, 1]), dtype=float)
        vals = np.asarray(self.objective, dtype=float)
        if vals.shape != (self.target_support.shape[0],):
            raise OracleError("objective values must match the target support")
        return vals


def _snap_to(values: np.ndarray, atoms: np.ndarray, err: str) -> np.ndarray:
    """Index of the sorted ``atoms`` each value coincides with (1e-9 tolerance)."""
    idx = np.clip(np.searchsorted(atoms, values), 0, atoms.size - 1)
    left = np.clip(idx - 1, 0, atoms.size - 1)
    idx = np.where(np.abs(atoms[left] - values) < np.abs(atoms[idx] - values), left, idx)
    if np.max(np.abs(atoms[idx] - values)) > 1e-9:
        raise OracleError(f"target support has {err}")
    return idx


_AXIS_DIRS = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
_DIAG_DIRS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]) / np.sqrt(2.0)


def default_target_support(mu: GridMeasure, radii, marginal1=False,
                           marginal2=False) -> np.ndarray:
    """Atoms of mu plus unit-direction shifts at every requested radius.

    Shifts along both axes and the normalized diagonals.  Coordinates pinned
    by a marginal constraint are never shifted.  Points within rounding of
    each other (MERGE_TOL of the support's scale) are one target: each
    coordinate snaps onto its clusters (the second among points of equal
    first), whose atom coordinate, if any, stays exact.
    """
    dirs = np.vstack([_AXIS_DIRS, _DIAG_DIRS])
    if marginal1:
        dirs = dirs[dirs[:, 0] == 0.0]
    if marginal2:
        dirs = dirs[dirs[:, 1] == 0.0]
    atoms = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel()])
    pts = np.vstack([atoms] + [atoms + r * d for r in np.atleast_1d(radii) if r > 0 for d in dirs])
    tol = MERGE_TOL * max(1.0, float(np.max(np.abs(atoms))))
    is_atom = np.arange(len(pts)) < len(atoms)
    group = np.zeros(len(pts))
    for k in range(2):
        # a cluster: values of one group whose sorted gaps are at most tol;
        # each takes its first value, atoms' values coming first
        order = np.lexsort((pts[:, k], group))
        v, g = pts[order, k], group[order]
        cluster = np.cumsum((np.diff(v, prepend=-np.inf) > tol) | (np.diff(g, prepend=g[0]) != 0))
        rank = np.lexsort((~is_atom[order], cluster))
        pts[order, k] = v[rank[np.diff(cluster[rank], prepend=0) > 0]][cluster - 1]
        group = pts[:, 0]
    pts = pts[order]                    # sorted by (x1, x2), so repeats are neighbours
    return pts[np.r_[True, np.any(np.diff(pts, axis=0) != 0.0, axis=1)]]


BUDGET_ROW = 0                          # position of the transport budget in A_ub


def transport_lp(prob: DiscreteBallProblem) -> tuple[dict, float]:
    """The ball supremum as an LP in displacement form about mu.

    Returns ``(lp, v0)``: ``lp`` holds the keyword arguments of ``solve_lp``
    for  maximize c.x  subject to  A_eq x = b_eq, A_ub x <= b_ub, x >= 0,
    and the supremum is v0 plus the LP optimum.

    A coupling sends mass from the atoms of mu to candidate targets.  An
    atom's stay pair (the target at its own coordinates, cost 0) is no
    variable: it carries what the atom's moves leave, so the atom's mass row
    reads  sum of its moves <= m_a,  and mu's identity coupling, of value
    v0 = sum_a m_a f(a), is the origin.  A move earns f(t) - f(a), and each
    martingale or marginal row says that the moves leave mu's value of that
    constraint unchanged, so its right-hand side is exactly 0 once every atom
    has a stay pair.  An atom without one keeps the equality row
    sum_t x[a,t] = m_a, and its own share of each constraint goes to the
    right-hand side.  Row ``BUDGET_ROW`` of A_ub is the transport budget.
    Pairs with transport cost above the budget are pruned (they cannot carry
    enough mass to matter on the candidate support).  They are found by
    reach: a pair within the budget moves the first coordinate at most the
    budget's p-th root, so each atom tests the targets in that window only.

    Raises OracleError when mu misses a constraint it is asked to keep (a
    martingale residual above MARTINGALE_RTOL).
    """
    mu = prob.mu
    if prob.martingale:
        tol = MARTINGALE_RTOL * max(1.0, float(np.max(np.abs(mu.x1))))
        if mu.martingale_residual() > tol:
            raise OracleError(f"mu is not a martingale: residual {mu.martingale_residual():.3e} "
                              f"exceeds {tol:.3e}")
    atoms = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel()])
    masses = mu.atom_masses().ravel()
    tgt = prob.target_support
    fvals = prob.objective_values()
    budget = prob.radius ** prob.p
    na, nt = len(atoms), len(tgt)
    # each atom's window of first coordinates (see above); the margin covers
    # the rounding of the cost and of the window's ends
    order = np.argsort(tgt[:, 0], kind="stable")
    reach = (_budget_cap(budget) ** (1.0 / prob.p) * (1.0 + 1e-6)
             + 4.0 * np.spacing(np.max(np.abs(atoms)) + np.max(np.abs(tgt))))
    lo, hi = np.searchsorted(tgt[order, 0], atoms[:, :1] + [-reach, reach]).T
    src = np.repeat(np.arange(na), hi - lo)
    tcol = order[np.arange(src.size) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]
    src, tcol = np.divmod(np.sort(src * nt + tcol), nt)     # the order np.nonzero gives
    d1 = atoms[src, 0] - tgt[tcol, 0]
    d2 = atoms[src, 1] - tgt[tcol, 1]
    cost = (d1 * d1 + d2 * d2) ** (prob.p / 2.0)
    coincide = (d1 == 0.0) & (d2 == 0.0)
    stay_atoms, first = np.unique(src[coincide], return_index=True)
    stays = np.bincount(stay_atoms, minlength=na) > 0
    f_stay = np.zeros(na)
    f_stay[stay_atoms] = fvals[tcol[coincide][first]]
    keep = (cost <= _budget_cap(budget)) & ~coincide
    src, tcol, cost = src[keep], tcol[keep], cost[keep]
    moving = np.bincount(src, minlength=na) > 0
    if np.any(~(stays | moving)):
        raise InfeasibleError("some atom cannot reach any candidate target within the budget")
    nv = src.size
    if nv > LP_VARIABLE_CAP:
        raise OracleError(f"{nv} coupling variables exceed the {LP_VARIABLE_CAP} cap")
    cols = np.arange(nv)
    leaves = stays[src]                 # moves that take mass off a stay pair

    def family(row_t, val_t, row_a, val_a, nrows):
        """Constraint rows in which target t weighs val_t[t] in row row_t[t]
        and atom a weighs val_a[a] in row row_a[a] (-1: in none).  A move
        weighs its target's weight less its atom's when it leaves a stay
        pair; an atom without one owes its weight times its mass."""
        val_t = np.broadcast_to(val_t, row_t.shape)
        val_a = np.broadcast_to(val_a, row_a.shape)
        B = np.zeros((nrows, nv))
        B[row_t[tcol], cols] = val_t[tcol]
        B[row_a[src[leaves]], cols[leaves]] -= val_a[src[leaves]]
        owes = ~stays & (row_a >= 0)
        rhs = np.bincount(row_a[owes], weights=(val_a * masses)[owes], minlength=nrows)
        used = np.any(B != 0.0, axis=1) | (rhs != 0.0)
        return B[used], rhs[used]

    mass = np.zeros((atoms.shape[0], nv))
    mass[src, cols] = 1.0
    capped = stays & moving             # stay atoms with a move: mass row <= m_a
    eq = [(mass[~stays], masses[~stays])]
    if prob.martingale:
        # one conditional-mean row per first coordinate of the targets
        g1, row_t = np.unique(tgt[:, 0], return_inverse=True)
        at = np.minimum(np.searchsorted(g1, atoms[:, 0]), g1.size - 1)
        row_a = np.where(g1[at] == atoms[:, 0], at, -1)
        eq.append(family(row_t, tgt[:, 1] - tgt[:, 0], row_a, atoms[:, 1] - atoms[:, 0],
                         g1.size))
    if prob.marginal2:
        z, _ = marginal_2(mu)
        snap = _snap_to(tgt[:, 1], z, "second coordinates outside supp(mu2)")
        if np.unique(snap).size < z.size:
            raise InfeasibleError("candidate support misses part of supp(mu2)")
        eq.append(family(snap, 1.0, _snap_to(atoms[:, 1], z, "atoms outside supp(mu2)"),
                         1.0, z.size))
    if prob.marginal1:
        snap = _snap_to(tgt[:, 0], mu.x1, "first coordinates outside supp(mu1)")
        if np.unique(snap).size < mu.x1.size:
            raise InfeasibleError("candidate support misses part of supp(mu1)")
        eq.append(family(snap, 1.0, np.repeat(np.arange(mu.n1), mu.n2), 1.0, mu.n1))

    lp = {"c": fvals[tcol] - f_stay[src],
          "A_eq": np.vstack([B for B, _ in eq]), "b_eq": np.concatenate([b for _, b in eq]),
          "A_ub": np.vstack([cost, mass[capped]]),
          "b_ub": np.concatenate([[budget], masses[capped]])}
    return lp, float(masses @ f_stay)


def _budget_cap(budget):
    """The largest cost within the budget: 1e-9 of the budget above it, plus
    an absolute 1e-15 that admits the rounding-level costs of coincident
    atoms at radius 0."""
    return budget * (1.0 + 1e-9) + 1e-15


def dro_lp(prob: DiscreteBallProblem):
    """Solve the ball supremum LP; returns (optimal value, diagnostics).

    The value is mu's identity value v0 plus the optimal gain of the moves
    (see ``transport_lp``); an LP with no move left, as at radius 0, is
    answered by v0 without a solve.  Raises InaccurateError when the
    returned coupling overspends the budget by more than ``_budget_cap``
    admits, which is 1e-9 of the budget where the solver's own certificate
    allows FEAS_TOL of the largest of the budget and its costs.
    """
    lp, v0 = transport_lp(prob)
    x, gain, pivots = np.zeros(0), 0.0, 0
    if lp["c"].size:
        res = solve_lp(**lp, maximize=True)
        x, gain, pivots = res.x, res.fun, res.pivots
    info = {"variables": lp["c"].size, "pivots": pivots,
            "cost_used": float(lp["A_ub"][BUDGET_ROW] @ x),
            "budget": float(lp["b_ub"][BUDGET_ROW])}
    if not info["cost_used"] <= _budget_cap(info["budget"]):
        raise InaccurateError(f"returned point breaks the transport budget: cost "
                              f"{info['cost_used']:.6e} against {info['budget']:.6e}")
    return v0 + float(gain), info


def slope_estimate(radii, values):
    """Least-squares fit value ~ a + s r + c r^2; returns (s, fit residual)."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.size < 3:
        raise OracleError("slope estimation needs at least 3 radii")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise OracleError("nonfinite slope data")
    X = np.column_stack([np.ones_like(r), r, r ** 2])
    if np.linalg.matrix_rank(X) < 3:
        raise OracleError("degenerate design matrix (radii must be distinct)")
    coef, *_ = np.linalg.lstsq(X, v, rcond=None)
    resid = float(np.max(np.abs(X @ coef - v)))
    return float(coef[1]), resid


# ---------------------------------------------------------------------------
# exact nested distance for small discrete measures

def _wp_1d_pow(x, wx, y, wy, p):
    """Exact W_p^p between two weighted 1-D atom lists (quantile coupling)."""
    cx = np.cumsum(wx)
    cy = np.cumsum(wy)
    cuts = np.union1d(cx, cy)
    cuts = np.concatenate(([0.0], cuts[cuts > 0.0]))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    lens = np.diff(cuts)
    ix = np.minimum(np.searchsorted(cx, mids, side="left"), x.size - 1)
    iy = np.minimum(np.searchsorted(cy, mids, side="left"), y.size - 1)
    return float(np.sum(lens * np.abs(x[ix] - y[iy]) ** p))


def _optimal_transport_cost(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """min sum C * pi over couplings pi (row-major variables) of masses a and b."""
    n, m = C.shape
    A_eq = np.vstack([np.repeat(np.eye(n), m, axis=1), np.tile(np.eye(m), n)])
    return solve_lp(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b])).fun


def bicausal_distance(mu, nu, p: float = 2.0) -> float:
    """Adapted (nested) Wasserstein distance between two discrete laws.

    Inner conditional costs are exact 1-D quantile couplings; the outer
    first-stage coupling is a small transportation LP.
    """
    n, m = mu.x1.size, nu.x1.size
    if n * m > LP_VARIABLE_CAP:
        raise OracleError("first-stage coupling too large for the exact solver")
    C = np.empty((n, m))
    targets = tuple(zip(nu.x1, nu.rows))
    for i, (a, (xz, xq)) in enumerate(zip(mu.x1, mu.rows)):
        for k, (b, (yz, yq)) in enumerate(targets):
            C[i, k] = abs(a - b) ** p + _wp_1d_pow(xz, xq, yz, yq, p)
    return float(max(_optimal_transport_cost(C, mu.w1, nu.w1), 0.0) ** (1.0 / p))


def classical_distance(mu, nu, p: float = 2.0) -> float:
    """Classical W_p between the flattened atom clouds (exact small LP)."""
    def cloud(law):
        return (np.concatenate([np.column_stack([np.full(z.size, a), z])
                                for a, (z, _) in zip(law.x1, law.rows)]),
                np.concatenate([w * q for w, (_, q) in zip(law.w1, law.rows)]))

    (ax, am), (bx, bm) = cloud(mu), cloud(nu)
    n, m = am.size, bm.size
    if n * m > LP_VARIABLE_CAP:
        raise OracleError("flattened coupling too large for the exact solver")
    diff = ax[:, None, :] - bx[None, :, :]
    C = (diff ** 2).sum(axis=2) ** (p / 2.0)
    return float(max(_optimal_transport_cost(C, am, bm), 0.0) ** (1.0 / p))


# ---------------------------------------------------------------------------
# feasible families (numerical counterpart of the implicit-function step)

@dataclass
class FeasibleFamily:
    """Constraint-preserving measures nu_r approximating mu displaced by r*theta."""

    r_list: tuple
    measures: tuple
    multipliers: tuple       # dict per radius (lambda, h or a)
    residuals: tuple         # dict per radius
    warnings: tuple = ()


def taper_boundary(field2: np.ndarray) -> np.ndarray:
    """Zero the outermost atom layer (compact support inside the grid)."""
    out = np.array(field2, dtype=float)
    out[0, :] = 0.0
    out[-1, :] = 0.0
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def taper_endpoints(field1: np.ndarray) -> np.ndarray:
    out = np.array(field1, dtype=float)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _newton(residual_fn, v0, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER, fd_eps=1e-7):
    """Damped Newton with forward-difference Jacobian and lstsq steps."""
    v = np.array(v0, dtype=float)
    r = residual_fn(v)
    for it in range(max_iter):
        nr = float(np.max(np.abs(r))) if r.size else 0.0
        if nr <= tol:
            return v, nr, it, True
        J = np.empty((r.size, v.size))
        for j in range(v.size):
            vp = v.copy()
            vp[j] += fd_eps
            J[:, j] = (residual_fn(vp) - r) / fd_eps
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        scale = 1.0
        for _ in range(6):
            cand = v - scale * step
            rc = residual_fn(cand)
            if float(np.max(np.abs(rc))) < nr or scale < 1e-3:
                v, r = cand, rc
                break
            scale *= 0.5
        else:
            break
    return v, float(np.max(np.abs(r))), max_iter, float(np.max(np.abs(r))) <= tol


def feasible_family_general(mu: GridMeasure, theta, phi=(), psi=None,
                            r_list=(1e-2, 1e-3)) -> FeasibleFamily:
    """Solve for multipliers making mu displaced along theta satisfy the constraints.

    The displacement map is x -> x + r theta + sum_k lambda_k u_k with an
    extra second-coordinate correction d2psi * h(x1) when a conditional
    constraint is present; (lambda, h) solves the constraint equations by
    Newton iteration.
    """
    t1 = np.asarray(theta[0], dtype=float)
    t2 = np.asarray(theta[1], dtype=float)
    if t1.ndim == 2:
        t1 = t1[:, 0]
    if abs(t1[0]) > 0 or abs(t1[-1]) > 0 or np.max(np.abs(t2[0, :])) > 0 \
            or np.max(np.abs(t2[-1, :])) > 0 or np.max(np.abs(t2[:, 0])) > 0 \
            or np.max(np.abs(t2[:, -1])) > 0:
        raise OracleError("theta must vanish on the outermost atom layer")
    phi = tuple(phi)
    k = len(phi)
    if k == 0 and psi is None:
        raise OracleError("no constraints to solve for")
    a_grid = np.broadcast_to(mu.x1[:, None], mu.x2.shape)
    u_dirs = []
    for c in phi:
        d1 = np.asarray(c.d1(a_grid, mu.x2), dtype=float) + np.zeros_like(mu.x2)
        u1 = taper_endpoints(np.sum(mu.q * d1, axis=1))
        u2 = taper_boundary(np.asarray(c.d2(a_grid, mu.x2), dtype=float)
                            + np.zeros_like(mu.x2))
        u_dirs.append((u1, u2))
    psi_d2 = None
    if psi is not None:
        psi_d2 = taper_boundary(np.asarray(psi.d2(a_grid, mu.x2), dtype=float)
                                + np.zeros_like(mu.x2))
    nh = mu.n1 if psi is not None else 0

    base_phi = np.array([float(np.sum(mu.atom_masses() * c.fn(a_grid, mu.x2)))
                         for c in phi])

    def gamma(r, lam, h):
        x1n = mu.x1 + r * t1
        x2n = mu.x2 + r * t2
        for lk, (u1, u2) in zip(lam, u_dirs):
            x1n = x1n + lk * u1
            x2n = x2n + lk * u2
        if psi is not None:
            x2n = x2n + psi_d2 * h[:, None]
        return x1n, x2n

    def residual(r):
        def inner(v):
            lam, h = v[:k], v[k:]
            x1n, x2n = gamma(r, lam, h)
            out = []
            a_n = np.broadcast_to(x1n[:, None], x2n.shape)
            for idx, c in enumerate(phi):
                out.append(float(np.sum(mu.atom_masses() * c.fn(a_n, x2n))) - base_phi[idx])
            if psi is not None:
                out.extend(np.sum(mu.q * psi.fn(a_n, x2n), axis=1))
            return np.asarray(out)
        return inner

    measures, mults, resids, warns = [], [], [], []
    for r in r_list:
        v, res, its, ok = _newton(residual(r), np.zeros(k + nh))
        if not ok:
            warns.append(f"Newton did not converge at r={r:g} (residual {res:.3e}); family truncated")
            warnings.warn(warns[-1], RuntimeWarning, stacklevel=2)
            break
        lam, h = v[:k], v[k:]
        x1n, x2n = gamma(r, lam, h)
        try:
            nu = GridMeasure(x1n, mu.w1, x2n, mu.q)
        except MeasureError as exc:
            warns.append(f"displaced grid invalid at r={r:g}: {exc}")
            break
        measures.append(nu)
        norm = float(np.abs(lam).sum())
        if nh:
            norm += float(np.sqrt(np.sum(mu.w1 * h ** 2)))
        mults.append({"lambda": lam.copy(), "h": h.copy(), "norm": norm})
        resids.append({"constraint": res, "newton_iterations": its})
    return FeasibleFamily(tuple(r_list[:len(measures)]), tuple(measures),
                          tuple(mults), tuple(resids), tuple(warns))


def feasible_family_mart_marginal(mu: GridMeasure, theta2: np.ndarray,
                                  r_list=(1e-3, 5e-4),
                                  bins: Binning | None = None) -> FeasibleFamily:
    """Martingale couplings keeping both marginals of mu at quantile-grid
    resolution, close to mu displaced by (0, r theta2).

    The displaced second-stage cloud is rearranged onto the second marginal
    by the monotone coupling at the bin partition's resolution (atoms keep
    their displaced positions inside a bin; straddling mass splits at the
    bin boundary), which is the same sigma(X2) surrogate the sensitivity
    formulas use.  An additive shift a(X1) - E2[a(X1)] restores the
    conditional-mean identity: its Gateaux derivative at zero is exactly
    I - E1 o E2, so each Newton pass is one Fredholm solve, followed by an
    exact per-row position shift that zeroes the remaining martingale gap
    without touching bin masses.

    theta2 need not vanish on the boundary layer: the coupling is clip-safe
    up to the support edges, and zeroing the outermost layer would bias the
    realized direction by the full boundary mass.
    """
    theta2 = np.asarray(theta2, dtype=float)
    bins = bins if bins is not None else quantile_bins(mu, mu.n2)
    if bins.mu is not mu:
        raise OracleError("the binning was built for another measure")
    warns = []
    contraction = None
    op = None
    try:
        op = fredholm.build_operator(bins)
        contraction = fredholm.contraction_norm(op)
    except (fredholm.FredholmError, MeasureError) as exc:
        warns.append(f"contraction check failed: {exc}")
    if contraction is not None and contraction >= fredholm.NEUMANN_GATE:
        warns.append(f"informational-discrepancy contraction {contraction:.6f} >= "
                     f"{fredholm.NEUMANN_GATE}; construction may be ill-posed")
        warnings.warn(warns[-1], RuntimeWarning, stacklevel=2)

    mw = mu.atom_masses()
    mwf = mw.ravel()
    n1 = mu.n1
    row_of = np.arange(mwf.size) // mu.n2
    binmass = bins.mass
    bnd = np.cumsum(binmass)
    lo_edge = bins.edges[:-1]
    hi_edge = bins.edges[1:]
    width = hi_edge - lo_edge
    inset = 1e-12 * np.maximum(width, 1.0)

    def fragments(x2p):
        flat = x2p.ravel()
        order = np.argsort(flat, kind="stable")
        cum = np.cumsum(mwf[order])
        fa, fb, fm = _bin_couple(order, cum, bnd)
        pos = np.clip(flat[fa], lo_edge[fb] + inset[fb], hi_edge[fb] - inset[fb])
        return row_of[fa], fb, fm, pos

    def row_means(fr, fm, fp):
        return np.bincount(fr, fm * fp, n1) / mu.w1

    def solve_run(r):
        """Newton on a |-> conditional means of the rearranged cloud minus X1.

        One Fredholm solve per pass (the derivative at zero is I - E1 o E2);
        the response is continuous because within-bin positions move with a.
        """
        a = np.zeros(n1)
        base = mu.x2 + r * theta2
        fr, fb, fm, fp = fragments(base)
        g = row_means(fr, fm, fp) - mu.x1
        g -= float(mu.w1 @ g)
        res = float(np.max(np.abs(g)))
        its = 0
        for its in range(1, NEWTON_MAX_ITER + 1):
            if res <= 1e-12 or op is None:
                break
            if contraction is not None and contraction >= fredholm.NEUMANN_GATE:
                step = fredholm.solve_regularized(op, -g)
            else:
                step = fredholm.solve(op, -g)
            scale = 1.0
            improved = False
            for _ in range(8):
                a2 = a + scale * step
                cand = fragments(base + a2[:, None] - bins.e2(a2[:, None])[bins.index])
                g2 = row_means(cand[0], cand[2], cand[3]) - mu.x1
                g2 -= float(mu.w1 @ g2)
                res2 = float(np.max(np.abs(g2)))
                if res2 < res:
                    a, (fr, fb, fm, fp), g, res = a2, cand, g2, res2
                    improved = True
                    break
                scale *= 0.5
            if not improved:
                break
        return fr, fb, fm, fp, a, res, its

    measures, mults, resids = [], [], []
    for r in r_list:
        fr, fb, fm, fp, a, res, its = solve_run(r)
        if res > 1e-3 * max(1.0, float(np.max(np.abs(mu.x1)))):
            warns.append(f"mean-gap solve left residual {res:.3e} at r={r:g}; family truncated")
            warnings.warn(warns[-1], RuntimeWarning, stacklevel=2)
            break
        # exact martingale repair: per-row position shifts, clipped into bins;
        # iterate so fragments parked at bin edges hand the shift to the rest
        for _ in range(12):
            shift = mu.x1 - row_means(fr, fm, fp)
            if float(np.max(np.abs(shift))) <= 1e-14:
                break
            fp = np.clip(fp + shift[fr], lo_edge[fb] + inset[fb], hi_edge[fb] - inset[fb])
        rows = []
        for i in range(n1):
            sel = np.nonzero(fr == i)[0]
            order = np.argsort(fp[sel], kind="stable")
            z = fp[sel][order]
            q = fm[sel][order] / mu.w1[i]
            keep = np.empty(z.size, dtype=bool)
            keep[0] = True
            keep[1:] = np.diff(z) > 0.0
            grpz = np.cumsum(keep) - 1
            rows.append((z[keep], np.bincount(grpz, q)))
        nu = RaggedMeasure(mu.x1.copy(), mu.w1.copy(), tuple(rows))
        colmass = np.bincount(fb, fm, bins.m)
        measures.append(nu)
        mults.append({"a": a.copy(),
                      "a_norm": float(np.sqrt(np.sum(mu.w1 * a ** 2)))})
        resids.append({"martingale": nu.martingale_residual(),
                       "marginal2": float(np.max(np.abs(colmass - binmass))),
                       "newton_residual": res,
                       "newton_iterations": its})
    return FeasibleFamily(tuple(r_list[:len(measures)]), tuple(measures),
                          tuple(mults), tuple(resids), tuple(warns))


def _bin_couple(order, cloud_cum, bnd):
    """Fragments of the sorted cloud against consecutive bin-mass intervals.

    Returns (atom index, bin, mass) triples; atoms whose mass interval sits
    inside one bin stay whole, straddlers split at the bin boundaries.  The
    cuts are the cloud's cumulative masses and the bin boundaries below its
    total; mass beyond the last boundary stays in the last bin.
    """
    inner = bnd[:-1]
    cuts = np.union1d(cloud_cum, inner[inner < cloud_cum[-1]])
    cuts = cuts[cuts > 0.0]             # atoms of zero mass leave no fragment
    b = np.minimum(np.searchsorted(bnd, cuts), bnd.size - 1)
    return order[np.searchsorted(cloud_cum, cuts)], b, np.diff(cuts, prepend=0.0)


def family_slope(c: Criterion, mu, family: FeasibleFamily) -> float:
    """Difference quotient of the criterion along the family.

    With two radii r and r/2 in the list, Richardson extrapolation removes
    the first-order error in r.
    """
    base = criterion_value(c, mu)
    slopes = [(criterion_value(c, nu) - base) / r
              for r, nu in zip(family.r_list, family.measures)]
    if not slopes:
        raise OracleError("empty feasible family")
    if len(slopes) >= 2 and abs(family.r_list[1] * 2 - family.r_list[0]) < 1e-15:
        return 2.0 * slopes[1] - slopes[0]
    return slopes[-1]


# the constraint flags of each set the LP sandwich checks, by report label
FLAG_TABLE = {"none": {}, "martingale": {"martingale": True},
              "marginal2": {"marginal2": True},
              "both": {"martingale": True, "marginal2": True}}


def oracle_report(mu: GridMeasure, objective, r_list, reports: dict,
                  tolerance: float = 0.05) -> dict:
    """Run the LP sandwich against closed-form reports; JSON-ready output.

    ``reports`` maps a constraint label from {"none", "martingale",
    "marginal2", "both"} to the SensitivityReport whose value the fitted
    slope must match within ``tolerance`` (relative, with a 1e-6 floor).
    """
    r_arr = [float(r) for r in r_list]
    if len(r_arr) < 3:
        raise OracleError("slope estimation needs at least 3 radii")
    out = {"radii": r_arr, "constraint_sets": {}}
    # per-radius candidate supports keep the LPs small: the shifted copies at
    # scale r are exactly what the ball at radius r can use.  They depend on
    # the marginal2 flag and r only, so the sets share them
    supports = {(pinned, r): default_target_support(mu, [r], marginal2=pinned)
                for pinned in (False, True) for r in [0.0] + r_arr}
    for label, ref in reports.items():
        flags = FLAG_TABLE[label]
        pinned = flags.get("marginal2", False)
        vals, pivots, nvars, used = [], [], [], []
        v0, _ = dro_lp(DiscreteBallProblem(mu, supports[pinned, 0.0], 0.0, ref.metric.p,
                                           objective=objective, **flags))
        for r in r_arr:
            v, info = dro_lp(DiscreteBallProblem(mu, supports[pinned, r], r, ref.metric.p,
                                                 objective=objective, **flags))
            vals.append(v)
            pivots.append(info["pivots"])
            nvars.append(info["variables"])
            used.append(info["cost_used"] / info["budget"] if info["budget"] else None)
        slope, fit_res = slope_estimate([0.0] + r_arr, [v0] + vals)
        closed = ref.value
        scale = max(abs(closed), 1e-6)
        ok = abs(slope - closed) <= tolerance * scale
        out["constraint_sets"][label] = {
            "lp_values": vals, "value_at_zero": v0,
            "lp_pivots": pivots, "lp_variables": nvars, "budget_used": used,
            "slope": slope, "fit_residual": fit_res,
            "closed_form": closed, "pass": bool(ok),
            "monotone": bool(np.all(np.diff([v0] + vals) >= -1e-9)),
        }
    out["pass"] = all(v["pass"] for v in out["constraint_sets"].values())
    return out
