"""Brute-force verification oracles.

Three independent routes confirm the closed-form sensitivities:

* linear-programming suprema over classical Wasserstein balls at finite
  radii (finite candidate support, column-list LP, internal simplex),
* an exact nested (bicausal) transport distance for small discrete laws,
* constraint-preserving feasible families, whose difference quotients
  along the optimal direction realize the sensitivity: mu displaced and
  corrected by the hedge map (``feasible_family``), for every set of the
  adapted ball.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .criterion import Criterion, gradient_field, value as criterion_value
from .measure import MERGE_TOL, WEIGHT_TOL, Binning, GridMeasure, MeasureError, marginal_2
from .sensitivity import (W2, ConstraintSet, PointState, _HedgeMap, _norm, martingale_psi,
                          require_psi, solve_foc)
from .simplex import MAX_VARIABLES, InaccurateError, InfeasibleError, solve_lp

NEWTON_MAX_ITER = 50
NEWTON_RTOL = 1e-8
FAMILY_RADII = (2e-6, 1e-6)
FAMILY_RTOL = 1e-7


class OracleError(ValueError):
    """Oracle misuse: oversized instance, bad support, degenerate fit."""


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
    constraints: ConstraintSet = ConstraintSet()    # the perturbed law keeps them
    objective: object = None            # callable (y1, y2) -> values

    def __post_init__(self):
        tgt = np.atleast_2d(np.asarray(self.target_support, dtype=float))
        if tgt.shape[1] != 2 or not np.all(np.isfinite(tgt)):
            raise OracleError("target support must be finite pairs (y1, y2)")
        if self.radius < 0:
            raise OracleError("radius must be nonnegative")
        if not (self.p >= 1):
            raise OracleError("need p >= 1")
        if not callable(self.objective):
            raise OracleError("the objective must be a callable (y1, y2) -> values")
        object.__setattr__(self, "target_support", tgt)

    def objective_values(self) -> np.ndarray:
        return np.asarray(self.objective(*self.target_support.T), dtype=float)


def _snap_to(values: np.ndarray, atoms: np.ndarray, err: str) -> np.ndarray:
    """Index of the sorted ``atoms`` each value coincides with (1e-9 tolerance)."""
    idx = np.clip(np.searchsorted(atoms, values), 0, atoms.size - 1)
    left = np.clip(idx - 1, 0, atoms.size - 1)
    idx = np.where(np.abs(atoms[left] - values) < np.abs(atoms[idx] - values), left, idx)
    if np.max(np.abs(atoms[idx] - values)) > 1e-9:
        raise OracleError(f"target support has {err}")
    return idx


_DIRS = np.vstack([[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],       # axes, diagonals
                   np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]) / np.sqrt(2.0)])


def default_target_support(mu: GridMeasure, radii,
                           constraints: ConstraintSet = ConstraintSet()) -> np.ndarray:
    """Atoms of mu plus unit-direction shifts at every requested radius.

    Shifts along both axes and the normalized diagonals.  Coordinates pinned
    by a marginal constraint are never shifted.  Points within rounding of
    each other (MERGE_TOL of the support's scale) are one target: each
    coordinate snaps onto its clusters (the second among points of equal
    first), whose atom coordinate, if any, stays exact.
    """
    m1, m2 = constraints.marginal1, constraints.marginal2
    dirs = [d for d in _DIRS if not (m1 and d[0] or m2 and d[1])]     # pinned coordinates stay
    atoms = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel()])
    pts = np.vstack([atoms] + [atoms + r * d for r in np.atleast_1d(radii) if r > 0 for d in dirs])
    tol = MERGE_TOL * max(1.0, float(np.max(np.abs(atoms))))
    n = len(pts)
    late = n * (np.arange(n) >= len(atoms))         # puts a cluster's atoms first
    order, group = np.argsort(pts[:, 0], kind="stable"), np.zeros(n, dtype=np.intp)
    for k in range(2):
        # a cluster: sorted values of one group (for k = 1, of one first-coordinate
        # cluster) whose gaps are at most tol; it takes its first atom's value,
        # else its first point's.  Each second-coordinate cluster is one target.
        v, g = pts[order, k], group[order]
        new = (np.diff(v, prepend=-np.inf) > tol) | (np.diff(g, prepend=-1) != 0)
        x = v[np.minimum.reduceat(np.arange(n) + late[order], new.nonzero()[0]) % n]
        if k == 0:
            x1, group[order] = x, new.cumsum() - 1
            order = np.lexsort((pts[:, 1], group))
    return np.column_stack([x1[g[new]], x])


class Coupling:
    """The part of a ball LP that does not depend on its constraints (see
    ``transport_lp``): the moves (atom ``src``, target ``tcol``) within the
    budget in np.nonzero order, their ``cost`` and ``gain`` f(t) - f(a), the
    atoms with a stay pair (``stays``) or a move (``moving``), mu's ``atoms``
    and ``masses``, its identity value ``v0``, and the marginal rows' keys
    (``snap``).  Pairs above the budget cannot carry enough mass to matter on
    the candidate support and are dropped before sorting.
    """

    def __init__(self, prob: DiscreteBallProblem):
        mu, tgt = prob.mu, prob.target_support
        atoms = self.atoms = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel()])
        self.masses = mu.atom_masses().ravel()
        fvals = prob.objective_values()
        cap = _budget_cap(prob.radius ** prob.p)
        na, nt = len(atoms), len(tgt)
        # a pair within the budget moves the first coordinate at most the
        # budget's p-th root, so each atom tests the targets in that window;
        # the margin covers the rounding of the cost and of the window's ends
        order = np.argsort(tgt[:, 0], kind="stable")
        reach = (cap ** (1.0 / prob.p) * (1.0 + 1e-6)
                 + 4.0 * np.spacing(np.max(np.abs(atoms)) + np.max(np.abs(tgt))))
        lo, hi = np.searchsorted(tgt[order, 0], atoms[:, :1] + [-reach, reach]).T
        src = np.repeat(np.arange(na), hi - lo)
        tcol = order[np.arange(src.size) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]
        d = atoms.take(src, axis=0) - tgt.take(tcol, axis=0)
        cost = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) ** (prob.p / 2.0)
        near = np.flatnonzero(cost <= cap)      # a stay pair costs 0
        near = near[np.argsort(src[near] * nt + tcol[near])]    # the order np.nonzero gives
        coincide = ~np.any(d.take(near, axis=0), axis=1)
        src, tcol, cost = src[near], tcol[near], cost[near]
        stay_atoms, first = np.unique(src[coincide], return_index=True)
        self.stays = np.bincount(stay_atoms, minlength=na) > 0
        f_stay = np.zeros(na)
        f_stay[stay_atoms] = fvals[tcol[coincide][first]]
        self.src, self.tcol, self.cost = src[~coincide], tcol[~coincide], cost[~coincide]
        self.moving = np.bincount(self.src, minlength=na) > 0
        if np.any(~(self.stays | self.moving)):
            raise InfeasibleError("some atom cannot reach any candidate target within the budget")
        if self.src.size > MAX_VARIABLES:
            raise OracleError(f"{self.src.size} coupling variables exceed the {MAX_VARIABLES} cap")
        self.gain = fvals[self.tcol] - f_stay[self.src]
        self.v0 = float(self.masses @ f_stay)
        self.prob = prob
        self._snaps = {}

    def snap(self, k: int):
        """Each target's and each atom's index in supp(mu_k), k = 1 or 2, and
        its size; computed once per coordinate."""
        if k not in self._snaps:
            z = self.prob.mu.x1 if k == 1 else marginal_2(self.prob.mu)[0]
            where = f"outside supp(mu{k})"
            snap = _snap_to(self.prob.target_support[:, k - 1], z, f"coordinates {where}")
            if np.unique(snap).size < z.size:
                raise InfeasibleError(f"candidate support misses part of supp(mu{k})")
            self._snaps[k] = snap, _snap_to(self.atoms[:, k - 1], z, f"atoms {where}"), z.size
        return self._snaps[k]


def _ball(prob: DiscreteBallProblem):
    """What a coupling depends on: the problem less its constraints."""
    return id(prob.mu), id(prob.target_support), id(prob.objective), prob.radius, prob.p


def transport_lp(prob: DiscreteBallProblem,
                 coupling: Coupling | None = None) -> tuple[dict, float]:
    """The ball supremum as an LP in displacement form about mu.

    Returns ``(lp, v0)``: ``lp`` holds the keyword arguments of ``solve_lp``
    for  maximize c.x  subject to  A x = b on rows [0, n_eq),  A x <= b on
    the others,  x >= 0,  A as one entry (rows[k], cols[k], vals[k]) per
    nonzero.  The supremum is v0 plus the LP optimum.

    A coupling sends mass from the atoms of mu to candidate targets.  An
    atom's stay pair (the target at its own coordinates, cost 0) is no
    variable: it carries what the atom's moves leave, so the atom's mass row
    reads  sum of its moves <= m_a,  and mu's identity coupling, of value
    v0 = sum_a m_a f(a), is the origin.  A move earns f(t) - f(a), and each
    constraint row says that the moves leave mu's value of that constraint
    unchanged, so its right-hand side is exactly 0 once every atom has a stay
    pair.  An atom without one keeps the equality row sum_t x[a,t] = m_a, and
    its own share of each constraint goes to the right-hand side.  Row n_eq,
    the first <= row, is the transport budget.

    Each constraint of ``prob.constraints`` is one ``family``: ``cond_psi``
    (x2 - x1 for the martingale) weighs psi(t) in a row per first coordinate,
    a marginal 1 in a row per atom of mu's, a mean phi phi(t) in one row.  The
    pairs come from ``coupling`` (default: the problem's own), which problems
    that differ in their constraints only can share.  Raises OracleError, with
    the solve's message (``require_psi``), when mu breaks E[psi | X1] = 0, as
    its rows would then not hold at the origin, or when the coupling is
    another ball's.
    """
    mu, cs, psi = prob.mu, prob.constraints, prob.constraints.cond_psi
    require_psi(mu, psi, OracleError)
    coupling = Coupling(prob) if coupling is None else coupling
    if _ball(coupling.prob) != _ball(prob):
        raise OracleError("the coupling was built for another ball")
    atoms, masses, tgt = coupling.atoms, coupling.masses, prob.target_support
    src, tcol, stays = coupling.src, coupling.tcol, coupling.stays
    cols = np.arange(src.size)
    leaves = stays[src]                 # moves that take mass off a stay pair

    def atom_rows(sel):
        """One mass row per atom in sel, in which each of its moves weighs 1."""
        on = sel[src]
        return (np.cumsum(sel) - 1)[src[on]], cols[on], np.ones(on.sum()), masses[sel]

    def family(row_t, row_a, nrows, val_t=1.0, val_a=1.0):
        """Constraint rows in which target t weighs val_t[t] in row row_t[t]
        and atom a weighs val_a[a] in row row_a[a] (-1: in none).  A move
        weighs its target's weight less its atom's when it leaves a stay
        pair (one entry val_t - val_a when both share a row); an atom
        without one owes its weight times its mass.  Rows with no nonzero
        entry and rhs 0 are dropped."""
        val_t = np.broadcast_to(val_t, row_t.shape)
        val_a = np.broadcast_to(val_a, row_a.shape)
        r_t, r_a, v_a = row_t[tcol], row_a[src], val_a[src]
        shared = leaves & (r_a == r_t)
        apart = leaves & ~shared        # the atom's entry takes a row of its own
        r = np.concatenate([r_t, r_a[apart]])
        j = np.concatenate([cols, cols[apart]])
        v = np.concatenate([np.where(shared, val_t[tcol] - v_a, val_t[tcol]), -v_a[apart]])
        owes = ~stays & (row_a >= 0)
        rhs = np.bincount(row_a[owes], weights=(val_a * masses)[owes], minlength=nrows)
        nz = v != 0.0
        used = (np.bincount(r[nz], minlength=nrows) > 0) | (rhs != 0.0)
        return (np.cumsum(used) - 1)[r[nz]], j[nz], v[nz], rhs[used]

    eq = [atom_rows(~stays)]
    if psi is not None:
        # one conditional row per first coordinate of the targets
        g1, row_t = np.unique(tgt[:, 0], return_inverse=True)
        at = np.minimum(np.searchsorted(g1, atoms[:, 0]), g1.size - 1)
        row_a = np.where(g1[at] == atoms[:, 0], at, -1)
        eq.append(family(row_t, row_a, g1.size, psi.fn(*tgt.T), psi.fn(*atoms.T)))
    eq += [family(*coupling.snap(k)) for k, on in ((2, cs.marginal2), (1, cs.marginal1)) if on]
    eq += [family(np.zeros(len(tgt), np.intp), np.zeros(len(atoms), np.intp), 1,
                  phi.fn(*tgt.T), phi.fn(*atoms.T)) for phi in cs.mean_phi]
    # <= rows: the budget (row n_eq), then the mass rows of stay atoms that move
    blocks = [*eq, (np.zeros(cols.size, dtype=np.intp), cols, coupling.cost,
                    np.array([prob.radius ** prob.p])), atom_rows(stays & coupling.moving)]
    rows, cols, vals, b = map(np.concatenate, zip(*blocks))
    start = np.cumsum([0] + [blk[3].size for blk in blocks])
    rows += np.repeat(start[:-1], [blk[0].size for blk in blocks])
    lp = {"c": coupling.gain, "rows": rows, "cols": cols, "vals": vals, "b": b,
          "n_eq": int(start[len(eq)])}
    return lp, coupling.v0


def _budget_cap(budget):
    """The largest cost within the budget: 1e-9 of the budget above it, plus
    an absolute 1e-15 that admits the rounding-level costs of coincident
    atoms at radius 0."""
    return budget * (1.0 + 1e-9) + 1e-15


def dro_lp(prob: DiscreteBallProblem, basis=None, coupling: Coupling | None = None):
    """Solve the ball supremum LP; returns (optimal value, diagnostics).

    The value is mu's identity value v0 plus the optimal gain of the moves
    (see ``transport_lp``, which takes ``coupling``); an LP with no move left,
    as at radius 0, is answered by v0 without a solve.  ``basis`` is solve_lp's
    starting basis; the diagnostics carry its final one.  Raises
    InaccurateError when the returned coupling overspends the budget by more
    than ``_budget_cap`` admits, which is 1e-9 of the budget where the
    solver's own certificate allows FEAS_TOL of the largest of the budget
    and its costs.
    """
    lp, v0 = transport_lp(prob, coupling)
    x, gain, pivots, final = np.zeros(0), 0.0, 0, None
    if lp["c"].size:
        res = solve_lp(**lp, maximize=True, basis=basis)
        x, gain, pivots, final = res.x, res.fun, res.pivots, res.basis
    on = lp["rows"] == lp["n_eq"]       # the budget row's entries
    info = {"variables": lp["c"].size, "pivots": pivots, "basis": final,
            "cost_used": float(lp["vals"][on] @ x[lp["cols"][on]]),
            "budget": float(lp["b"][lp["n_eq"]])}
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
    coef, _, rank, _ = np.linalg.lstsq(X, v, rcond=None)    # rank as np.linalg.matrix_rank
    if rank < 3:
        raise OracleError("degenerate design matrix (radii must be distinct)")
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
    var = np.arange(n * m)
    return solve_lp(C.ravel(), np.concatenate([var // m, n + var % m]), np.tile(var, 2),
                    np.ones(2 * n * m), np.concatenate([a, b]), n + m).fun


def bicausal_distance(mu: GridMeasure, nu: GridMeasure, p: float = 2.0) -> float:
    """Adapted (nested) Wasserstein distance between two discrete laws.

    Inner conditional costs are exact 1-D quantile couplings; the outer
    first-stage coupling is a small transportation LP.
    """
    n, m = mu.x1.size, nu.x1.size
    if n * m > MAX_VARIABLES:
        raise OracleError("first-stage coupling too large for the exact solver")
    C = np.empty((n, m))
    for i in range(n):
        for k in range(m):
            C[i, k] = (abs(mu.x1[i] - nu.x1[k]) ** p
                       + _wp_1d_pow(mu.x2[i], mu.q[i], nu.x2[k], nu.q[k], p))
    return float(max(_optimal_transport_cost(C, mu.w1, nu.w1), 0.0) ** (1.0 / p))


def classical_distance(mu: GridMeasure, nu: GridMeasure, p: float = 2.0) -> float:
    """Classical W_p between the flattened atom clouds (exact small LP)."""
    def cloud(law):
        return (np.column_stack([np.repeat(law.x1, law.n2), law.x2.ravel()]),
                law.atom_masses().ravel())

    (ax, am), (bx, bm) = cloud(mu), cloud(nu)
    n, m = am.size, bm.size
    if n * m > MAX_VARIABLES:
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
    multipliers: tuple       # dict per radius: u and its correction's norm
    residuals: tuple         # dict per radius
    warnings: tuple = ()


def feasible_family(state: PointState, cs: ConstraintSet, theta,
                    r_list=FAMILY_RADII) -> FeasibleFamily:
    """Measures mu displaced by r theta + F(u_r) that keep every constraint of
    ``cs`` (adapted ball) at mu's value: a mean at its mean, a conditional one
    at 0 on every row (the hedge map refuses a mu that breaks it), the first
    marginal by x1 itself, and the second at the solve's bin resolution: each
    bin keeps its mass and its first moment.

    F is the sensitivity solve's hedge map, whose directions are the
    constraints' own derivatives.  Newton solves for u_r with the derivative
    at zero, the hedge map's residual of its own field: ``diag(1/w1, 1/mass,
    1/w1, 1) A^T diag(mw) A``, inverted by the hedge map's own block solve.
    A null direction of it (M+m1+m2's (f1 + c, f2 - c, h + c), see
    ``_HedgeMap._solve_u``) moves no atom, and the block solve leaves it out.  theta1
    must be a function of x1, as the adapted ball's directions are.  The
    messages start with the hedge map's.
    """
    mu = state.mu
    if not state.metric.adapted:
        raise OracleError("the displacement family needs the adapted ball")
    hedges = _HedgeMap(state, cs)
    bins = hedges.bins
    t1 = np.asarray(theta[0], dtype=float)
    t1 = np.broadcast_to(t1[:, None] if t1.ndim == 1 else t1, mu.x2.shape)
    if np.any(t1 != t1[:, :1]):
        raise OracleError("theta1 must be a function of x1 alone")
    t1, t2 = t1[:, 0], np.broadcast_to(np.asarray(theta[1], dtype=float), mu.x2.shape)
    psi = cs.cond_psi
    mw = mu.atom_masses()

    def constraints(x1, x2, f=np.asarray):     # f=np.abs: the magnitudes rounding scales with
        a = np.broadcast_to(x1[:, None], x2.shape)
        out = [f(x1)] if cs.marginal1 else []
        if bins is not None:
            out.append(bins.sums(mw * f(x2)) / bins.mass)
        if psi is not None:
            out.append(np.sum(mu.q * f(psi.fn(a, x2)), axis=1))
        return np.concatenate(out + [[np.sum(mw * f(c.fn(a, x2))) for c in cs.mean_phi]])

    sizes = [0 if v is None else v.size for v in hedges.u]
    weights = (mu.w1, None if bins is None else bins.mass, mu.w1, 1.0)

    def split(v):
        parts = np.split(v, np.cumsum(sizes)[:-1])
        return tuple(None if z is None else p for z, p in zip(hedges.u, parts))

    def newton(g):  # the derivative's inverse applied to the constraint gap g
        b = tuple(None if p is None else w * p for w, p in zip(weights, split(g)))
        return np.concatenate([z for z in hedges.solve(b, state.mw1, mw, hedges.op)
                               if z is not None])

    n = sum(sizes)      # as many constraints as multipliers
    target, scale = constraints(mu.x1, mu.x2), 1.0 + constraints(mu.x1, mu.x2, np.abs)
    measures, mults, resids, warns = [], [], [], list(hedges.warnings)
    for r in r_list:
        v, res = np.zeros(n), np.inf
        for its in range(NEWTON_MAX_ITER + 1):
            F = hedges.field(split(v))
            step = (r * t1 + F[0][:, 0], r * t2 + F[1])
            g = constraints(mu.x1 + step[0], mu.x2 + step[1]) - target
            new = float(np.max(np.abs(g) / scale, initial=0.0))
            if not new < res:   # run down to rounding (or NaN): keep the last iterate
                break
            res, u, (F1, F2), (d1, d2) = new, v, F, step
            if res == 0.0:
                break
            v = v - newton(g)
        # a residual res moves a difference quotient at r by about res / r
        if res > NEWTON_RTOL * r:
            warns.append(f"Newton stopped at r={r:g} with residual {res:.3e}; family truncated")
            break
        if bins is not None:
            # the outer bins are unbounded: an atom past mu's extremes stays in them
            moved = np.bincount(np.searchsorted(bins.edges[1:-1], (mu.x2 + d2).ravel(),
                                                side="right"), mw.ravel(), bins.m)
            shift = float(np.max(np.abs(moved - bins.mass) / bins.mass))
            if shift > WEIGHT_TOL:
                warns.append(f"atoms cross bin edges at r={r:g}: a bin's mass moves by "
                             f"{shift:.3e} of itself; family truncated")
                break
        try:
            nu = mu.displaced(d1, d2, 1.0)
        except MeasureError as exc:
            warns.append(f"displaced grid invalid at r={r:g}: {exc}")
            break
        measures.append(nu)
        mults.append({"u": u, "correction": _norm(state.mw1, mw, F1, F2)})
        resids.append({"constraint": res, "newton_iterations": its})
    return FeasibleFamily(tuple(r_list[:len(measures)]), tuple(measures),
                          tuple(mults), tuple(resids), tuple(warns))


def family_check(c: Criterion, state: PointState, cs: ConstraintSet, report) -> dict:
    """The displacement family along the report's direction T, JSON-ready.

    ``state`` holds the gradient of ``c`` and ``report`` is its solve for
    ``cs``.  Returns the Richardson slope ``2 s(r/2) - s(r)`` of the
    difference quotients s at ``FAMILY_RADII`` = (r, r/2), which removes
    their first-order error in r (NaN when the family is truncated), the
    largest constraint residual, the family's messages, and the slope's
    error against the report's value relative to max(value, |S|_L2(mu)),
    which ``FAMILY_RTOL`` bounds.
    """
    fam = feasible_family(state, cs, (report.T1, report.T2), FAMILY_RADII)
    slope = float("nan")
    if fam.r_list == FAMILY_RADII:
        base = criterion_value(c, state.mu)
        s = [(criterion_value(c, nu) - base) / r for r, nu in zip(fam.r_list, fam.measures)]
        slope = 2.0 * s[1] - s[0]
    scale = max(report.value, state.norm)
    return {"slope": slope, "error": abs(slope - report.value) / scale,
            "residual": max((res["constraint"] for res in fam.residuals), default=float("nan")),
            "warnings": list(fam.warnings)}


# the constraint sets the LP sandwich checks, by report label
ORACLE_SETS = {"none": ConstraintSet(), "martingale": ConstraintSet(cond_psi=martingale_psi()),
               "marginal2": ConstraintSet(marginal2=True),
               "both": ConstraintSet(marginal2=True, cond_psi=martingale_psi())}
SLOPE_RTOL = 0.05


def oracle_report(mu: GridMeasure, c: Criterion, r_list, bins: Binning | None = None) -> dict:
    """The LP sandwich for the linear criterion ``c``, JSON-ready: per set of
    ``ORACLE_SETS``, the slope of the LP suprema at radii 0 and ``r_list``
    must match the classical p = 2 closed form of the same ``ConstraintSet``,
    binned by ``bins`` (default: n2 quantile bins), within ``SLOPE_RTOL``
    (relative, with a 1e-6 floor).  Radius 0 takes no LP: its value is mu's
    own, the v0 of every coupling.  Each radius's LP starts from the basis the
    set's previous radius ended on."""
    r_arr = [float(r) for r in r_list]
    if len(r_arr) < 3:
        raise OracleError("slope estimation needs at least 3 radii")
    state = PointState(mu, gradient_field(c, mu), W2, bins)
    out = {"radii": r_arr, "constraint_sets": {}}
    # per-radius candidate supports keep the LPs small: the shifted copies at
    # scale r are exactly what the ball at radius r can use.  They depend on
    # the marginals and r only, so the sets share them and their couplings
    couplings = {}
    for label, cs in ORACLE_SETS.items():
        closed = solve_foc(state, cs).value
        vals, pivots, nvars, used, basis = [], [], [], [], None
        for r in r_arr:
            key = cs.marginal1, cs.marginal2, r
            if key not in couplings:
                couplings[key] = Coupling(DiscreteBallProblem(
                    mu, default_target_support(mu, [r], cs), r, W2.p, objective=c.f))
            v, info = dro_lp(replace(couplings[key].prob, constraints=cs), basis, couplings[key])
            basis = info["basis"]
            vals.append(v)
            pivots.append(info["pivots"])
            nvars.append(info["variables"])
            used.append(info["cost_used"] / info["budget"] if info["budget"] else None)
        v0 = couplings[cs.marginal1, cs.marginal2, r_arr[0]].v0
        slope, fit_res = slope_estimate([0.0] + r_arr, [v0] + vals)
        scale = max(abs(closed), 1e-6)
        ok = abs(slope - closed) <= SLOPE_RTOL * scale
        out["constraint_sets"][label] = {
            "lp_values": vals, "value_at_zero": v0,
            "lp_pivots": pivots, "lp_variables": nvars, "budget_used": used,
            "slope": slope, "fit_residual": fit_res,
            "closed_form": closed, "pass": bool(ok),
            "monotone": bool(np.all(np.diff([v0] + vals) >= -1e-9)),
        }
    out["pass"] = all(v["pass"] for v in out["constraint_sets"].values())
    return out
