"""First-order model-risk sensitivities and optimal hedging multipliers.

Every sensitivity is the infimum, over the active hedging multipliers u, of
the dual norm of the gradient field S plus the hedge field F(u): the
minimum of the convex Phi(u) = sum mw |S + F(u)|^p', p' = p / (p - 1).  One
hedge map F serves every constraint set: static hedges f1, f2 for the
marginals, mean multipliers lambda, and a dynamic hedge h for a conditional
constraint E[psi(X) | X1] = 0, entering with the weights (E1[d1 psi], d2 psi);
the martingale flag is psi = x2 - x1, with weights (-1, 1).  A globalized
Newton method minimizes Phi.  Each step solves the quadratic model by the
block elimination that is the p = 2 closed form, with the Hessian's per-atom
weights in place of the masses, and an Armijo line search accepts it; at
p = 2 the first step is exact.  For p > 2, |s|^p' is smoothed to
(s^2 + eps^2)^(p'/2) with eps driven toward zero.  Every report carries the
normalized optimal direction, a first-order-condition residual certificate
and whether it met FOC_TOL.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import fredholm
from .criterion import GradientField
from .measure import Binning, GridMeasure, MARTINGALE_RTOL, cond_exp_1, quantile_bins

FOC_TOL = 1e-8
FOC_MAX_ITER = 200
ARMIJO = 1e-4
STEP_MIN = 1e-10
SOLVED = 1e-6
EPS_SHRINK = 0.1
EPS_FLOOR = 1e-30
WEIGHT_FLOOR = 1e-12


class SensitivityError(ValueError):
    """Unusable constraint set or violated non-degeneracy assumption."""


@dataclass(frozen=True)
class Metric:
    """Ambiguity ball: classical or adapted p-Wasserstein."""

    ball: str
    p: float = 2.0

    def __post_init__(self):
        if self.ball not in ("wp", "wp_adapted"):
            raise SensitivityError(f"unknown ball {self.ball!r}")
        if not (self.p > 1):
            raise SensitivityError("the exponent must satisfy p > 1")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def adapted(self) -> bool:
        return self.ball == "wp_adapted"


W2 = Metric("wp", 2.0)
W2AD = Metric("wp_adapted", 2.0)


@dataclass(frozen=True)
class MeanConstraint:
    """Mean-type constraint: integral of fn against the perturbed law is kept."""

    fn: Callable
    d1: Callable
    d2: Callable
    name: str = "phi"


@dataclass(frozen=True)
class CondConstraint:
    """Conditional constraint E[psi(X) | X1] = 0 with partials d1, d2."""

    fn: Callable
    d1: Callable
    d2: Callable
    name: str = "psi"


def martingale_psi() -> CondConstraint:
    return CondConstraint(
        fn=lambda a, b: b - a,
        d1=lambda a, b: -np.ones_like(a),
        d2=lambda a, b: np.ones_like(b),
        name="x2-x1",
    )


@dataclass(frozen=True)
class ConstraintSet:
    """Constraints kept on the perturbed law.

    ``martingale`` is the conditional constraint ``martingale_psi()``,
    E[X2 - X1 | X1] = 0, whose hedge weights (-1, 1) are exact on either
    ball; ``cond_psi`` is any other conditional constraint (adapted ball
    only).  A set holds at most one conditional constraint, and mean or
    conditional constraints do not mix with the marginal flags.
    """

    martingale: bool = False
    marginal1: bool = False
    marginal2: bool = False
    mean_phi: tuple = ()
    cond_psi: CondConstraint | None = None

    def __post_init__(self):
        if self.martingale and self.cond_psi is not None:
            raise SensitivityError("the martingale flag is the conditional constraint x2 - x1; "
                                   "a set holds one conditional constraint")

    def label(self) -> str:
        parts = [name for flag, name in ((self.martingale, "M"), (self.marginal1, "m1"),
                                         (self.marginal2, "m2")) if flag]
        parts += [f"phi:{c.name}" for c in self.mean_phi]
        if self.cond_psi is not None:
            parts.append(f"psi:{self.cond_psi.name}")
        return "+".join(parts) if parts else "unconstrained"


@dataclass
class SensitivityReport:
    """Sensitivity value with multipliers, optimal direction and certificate."""

    value: float
    metric: Metric
    constraints: str
    T1: np.ndarray
    T2: np.ndarray
    foc_residual: float
    iterations: int
    converged: bool
    lambda_hat: np.ndarray | None = None
    h_hat: np.ndarray | None = None
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None
    bins: Binning | None = None
    warnings: tuple = ()


def n_map(v, p: float):
    """Duality map sgn(v) |v|^{p'-1}, applied componentwise; N(0) = 0."""
    if not (p > 1):
        raise SensitivityError("the exponent must satisfy p > 1")
    v = np.asarray(v, dtype=float)
    e = p / (p - 1.0) - 1.0
    out = np.sign(v) * np.power(np.abs(v), e, where=v != 0, out=np.zeros_like(v))
    return float(out) if out.ndim == 0 else out


def adapted_gradient(mu: GridMeasure, G: GradientField) -> GradientField:
    """Replace the first component by its conditional expectation given X1."""
    g1 = cond_exp_1(mu, G.g1)
    return GradientField(np.broadcast_to(g1[:, None], G.g1.shape).copy(), G.g2.copy())


class PointState:
    """What every constraint set's solve at one (mu, G, metric) reads.

    Built once and passed to ``solve_foc`` for each set: the gradient field
    in the ball's form (``S1``, ``S2``, read-only), the binning ``bins`` (the
    one passed in, else mu's quantile binning into n2 bins on first use) and
    mu's Fredholm operator ``op``, built on first use with its norm cached.
    """

    def __init__(self, mu: GridMeasure, G: GradientField, metric: Metric,
                 bins: Binning | None = None):
        self.mu, self.metric = mu, metric
        S = adapted_gradient(mu, G) if metric.adapted else G
        # read-only copies: the solves share them, and G stays the caller's
        self.S1, self.S2 = np.array(S.g1), np.array(S.g2)
        self.S1.flags.writeable = self.S2.flags.writeable = False
        if bins is not None:
            if bins.mu is not mu:
                raise SensitivityError("the binning was built for another measure")
            self.bins = bins

    @cached_property
    def bins(self) -> Binning:
        return quantile_bins(self.mu, self.mu.n2)

    @cached_property
    def op(self) -> fredholm.FredholmOperator:
        return fredholm.build_operator(self.bins)


def _norm(mw: np.ndarray, X1: np.ndarray, X2: np.ndarray, metric: Metric) -> float:
    """The ball's primal L^p norm of a per-atom pair."""
    q = metric.p
    if metric.adapted:
        val = np.sum(mw * (np.abs(X1) ** q + np.abs(X2) ** q))
    else:
        val = np.sum(mw * np.hypot(X1, X2) ** q)
    return float(val ** (1.0 / q))


def _direction(mw, S1, S2, metric: Metric):
    """Normalized optimal direction T = N_d(S)/c with unit primal norm, and c."""
    if metric.p == 2.0:         # N_d is the identity
        T1, T2 = S1, S2
    elif metric.adapted:
        T1, T2 = n_map(S1, metric.p), n_map(S2, metric.p)
    else:
        mag = np.hypot(S1, S2)
        fac = np.power(mag, metric.p_conj - 2.0, where=mag > 0, out=np.zeros_like(mag))
        T1, T2 = fac * S1, fac * S2
    c = _norm(mw, T1, T2, metric)
    if c == 0.0:
        return np.zeros_like(S1), np.zeros_like(S2), 0.0
    return T1 / c, T2 / c, c


class _HedgeMap:
    """Hedge map and Newton step for every constraint set.

    The multipliers ``u = (f1, f2, h, lam)`` (None when inactive) give the
    hedge field ``F1 = f1(x1) + c1 h(x1) + sum_a lam_a d1phi_a``,
    ``F2 = f2(bin(x2)) + c2 h(x1) + sum_a lam_a d2phi_a``.  h hedges the
    conditional constraint with the per-row weight ``c1 = E1[d1 psi]`` and
    the per-atom weight ``c2 = d2 psi``; the martingale is psi = x2 - x1,
    with c1 = -1 and the unit c2 left implicit (``c2`` None).  With the
    martingale and second-marginal flags, ``op`` is mu's Fredholm operator.
    """

    def __init__(self, state: PointState, cs: ConstraintSet):
        mu = self.mu = state.mu
        if cs.mean_phi or cs.cond_psi is not None:
            if cs.martingale or cs.marginal1 or cs.marginal2:
                raise SensitivityError(
                    "mean/conditional constraints cannot be mixed with marginal flags")
        if cs.martingale:
            _require_martingale(mu)
        self.cs = cs
        self.mw = mu.atom_masses()
        self.S1_0, self.S2_0 = state.S1, state.S2
        self.warnings: list[str] = []
        self.bins = self.op = None
        if cs.marginal2:
            self.bins = state.bins
            if cs.martingale:
                self.op = state.op
            if cs.martingale and cs.marginal1:
                contraction = fredholm.contraction_norm(self.op)
                if contraction >= fredholm.NEUMANN_GATE:
                    msg = (f"informational-discrepancy contraction {contraction:.6f} >= "
                           f"{fredholm.NEUMANN_GATE}; using regularized hedge solve")
                    warnings.warn(msg, RuntimeWarning, stacklevel=4)
                    self.warnings.append(msg)
        a = np.broadcast_to(mu.x1[:, None], mu.x2.shape)

        def partials(c):
            return (np.asarray(c.d1(a, mu.x2), dtype=float) + np.zeros_like(mu.x2),
                    np.asarray(c.d2(a, mu.x2), dtype=float) + np.zeros_like(mu.x2))

        self.phi = []
        for c in cs.mean_phi:
            p1, p2 = partials(c)
            if state.metric.adapted:
                p1 = np.broadcast_to(cond_exp_1(mu, p1)[:, None], p1.shape).copy()
            self.phi.append((p1, p2))
        self.c1 = self.c2 = None
        if cs.martingale:
            self.c1 = -np.ones(mu.n1)
        elif cs.cond_psi is not None:
            if not state.metric.adapted:
                raise SensitivityError("conditional constraints require the adapted ball")
            d1, self.c2 = partials(cs.cond_psi)
            self.c1 = cond_exp_1(mu, d1)
            if np.min(cond_exp_1(mu, self.c2 ** 2)) <= 1e-14:
                raise SensitivityError(
                    "E1[(d2 psi)^2] is degenerate on some atom (assumption A (iii) surrogate)")
            for p1, p2 in self.phi:
                if (np.max(np.abs(p1 + p2)) < 1e-12
                        and np.max(np.abs(p1 - p1[0, 0])) < 1e-12
                        and np.max(np.abs(self.c1[:, None] + self.c2)) < 1e-12):
                    raise SensitivityError(
                        "mean constraint spans the conditional-constraint direction "
                        "(non-redundancy assumption A (iv) violated)")
        # None, not an empty array, when inactive: every Newton step carries u
        self.u = (np.zeros(mu.n1) if cs.marginal1 else None,
                  np.zeros(self.bins.m) if cs.marginal2 else None,
                  None if self.c1 is None else np.zeros(mu.n1),
                  np.zeros(len(self.phi)) if self.phi else None)
        if self.phi:
            cond = np.linalg.cond(self._complement(self.mw, self.mw)[0])
            if not np.isfinite(cond) or cond > 1e12:
                raise SensitivityError(
                    "normal matrix is singular (positive-definiteness assumption violated)")

    def field(self, u):
        f1, f2, h, lam = u
        F1 = np.zeros_like(self.S1_0)
        F2 = np.zeros_like(self.S2_0)
        if f1 is not None:
            F1 += f1[:, None]
        if f2 is not None:
            F2 += f2[self.bins.index]
        if lam is not None:
            for la, (p1, p2) in zip(lam, self.phi):
                F1 += la * p1
                F2 += la * p2
        if h is not None:
            F1 += (self.c1 * h)[:, None]
            F2 += h[:, None] if self.c2 is None else self.c2 * h[:, None]
        return F1, F2

    def residual(self, T1, T2):
        comps = {}
        if self.cs.marginal1:
            comps["m1"] = cond_exp_1(self.mu, T1)
        if self.cs.marginal2:
            comps["m2"] = self.bins.e2(T2)
        if self.c1 is not None:
            comps["h"] = cond_exp_1(self.mu, T2 - T1 if self.c2 is None
                                    else self.c1[:, None] * T1 + self.c2 * T2)
        if self.phi:
            comps["phi"] = np.array([np.sum(self.mw * (p1 * T1 + p2 * T2)) for p1, p2 in self.phi])
        return comps

    def _solve_u(self, G1, G2, D1, D2, op):
        """The (f1, f2, h) block of ``A^T diag(D) A du = A^T G``; lam stays None.

        f2 eliminates bin by bin.  c1 is constant on each row, so f1 absorbs
        h's first component.  h is left with ``diag(d) - diag(r2) K_D``, K_D
        the conditional-expectation operator of the measure reweighted by D2
        (``op`` when the caller has it): with f1, ``r2 (I - K_D)`` on
        zero-mean functions.  f2 meets no h but the martingale's, whose c2 is
        one.
        """
        cs = self.cs
        g1, r1 = G1.sum(axis=1), D1.sum(axis=1)
        df1 = df2 = dh = None
        if cs.marginal2:
            b2 = self.bins.sums(D2)
            df2 = self.bins.sums(G2) / b2
        if self.c1 is not None:
            if self.c2 is None:
                rhs, r2 = G2.sum(axis=1), D2.sum(axis=1)
            else:
                rhs, r2 = np.sum(self.c2 * G2, axis=1), np.sum(D2 * self.c2 ** 2, axis=1)
            rhs = rhs + self.c1 * g1
            if cs.marginal2:
                rhs = rhs - np.sum(D2 * df2[self.bins.index], axis=1)
            if cs.marginal1:    # f1 takes c1 g1 and c1^2 r1 back out
                rhs, d = rhs - self.c1 * g1, r2
            else:
                d = self.c1 * self.c1 * r1 + r2
            if not cs.marginal2:
                dh = rhs / d
            else:
                if op is None:
                    op = fredholm.build_operator(self.bins, D2)
                if cs.marginal1:
                    rhs = rhs / d
                    rhs = rhs - float(op.w1 @ rhs)
                    if op.norm >= fredholm.NEUMANN_GATE:
                        dh = fredholm.solve_regularized(op, rhs)
                    else:
                        dh = fredholm.solve(op, rhs)
                else:
                    dh = np.linalg.solve(np.diag(d) - r2[:, None] * op.K, rhs)
                df2 = df2 - self.bins.sums(D2 * dh[:, None]) / b2
        if cs.marginal1:
            df1 = g1 / r1 if dh is None else g1 / r1 - self.c1 * dh
        return df1, df2, dh, None

    def _complement(self, D1, D2, op=None):
        """Schur complement of the (f1, f2, h) block in ``A^T diag(D) A``,
        and that block's solves against each mean constraint's column."""
        Z = [self._solve_u(D1 * p1, D2 * p2, D1, D2, op) for p1, p2 in self.phi]
        E = [self.field(z) for z in Z]
        S = np.array([[np.sum(D1 * q1 * (p1 - e1) + D2 * q2 * (p2 - e2))
                       for (p1, p2), (e1, e2) in zip(self.phi, E)] for q1, q2 in self.phi])
        return S, Z

    def correction(self, G1, G2, D1, D2, op=None):
        """Solve ``A^T diag(D) A du = A^T G`` for the hedge map A.

        D1, D2 are per-atom weights on F1, F2 and G1, G2 per-atom values; at
        D = mw this is the p = 2 closed form.  The mean multipliers border
        the (f1, f2, h) block: one block solve per mean constraint, then the
        k x k Schur complement.
        """
        du = self._solve_u(G1, G2, D1, D2, op)
        if not self.phi:
            return du
        S, Z = self._complement(D1, D2, op)
        F1, F2 = self.field(du)
        gl = [np.sum(p1 * (G1 - D1 * F1) + p2 * (G2 - D2 * F2)) for p1, p2 in self.phi]
        dlam = np.linalg.solve(S, gl)
        for la, z in zip(dlam, Z):
            du = _axpy(du, -la, z)
        return du[:3] + (dlam,)

    def multipliers(self):
        f1, f2, h, lam = self.u
        if h is not None and f1 is not None and f2 is not None:
            # zero-mean representative; the shift is absorbed by f1 and f2
            c = float(self.mu.w1 @ h)
            h, f1, f2 = h - c, f1 - c, f2 + c
        return {"f1": f1, "f2": f2, "h_hat": h, "lambda_hat": lam}


def _residual_norm(problem, comps) -> float:
    """Norm of the constraint operator applied to T.

    Per-atom and per-bin components are measured in the weighted L2 norms of
    the spaces the operator maps into (L^p(mu_1) and its bin analogue);
    finite-dimensional mean-constraint components in the max norm.
    """
    worst = 0.0
    w1 = problem.mu.w1
    for key, v in comps.items():
        if key == "phi":
            worst = max(worst, float(np.max(np.abs(v))))
        elif key == "m2":
            worst = max(worst, float(np.sqrt(np.sum(problem.bins.mass * v ** 2))))
        else:
            worst = max(worst, float(np.sqrt(np.sum(w1 * v ** 2))))
    return worst


def _objective(mw, S1, S2, metric: Metric, pc: float, eps: float) -> float:
    """Smoothed objective: sum mw psi(S), |s|^pc replaced by (s^2 + eps^2)^(pc/2)."""
    e2 = eps * eps
    if metric.adapted:
        return float(np.sum(mw * ((S1 * S1 + e2) ** (0.5 * pc) + (S2 * S2 + e2) ** (0.5 * pc))))
    return float(np.sum(mw * (S1 * S1 + S2 * S2 + e2) ** (0.5 * pc)))


def _newton_weights(mw, S1, S2, metric: Metric, pc: float, eps: float):
    """Per-atom gradient (G1, G2) and Hessian weights (D1, D2) of the smoothed objective.

    The classical ball's per-atom Hessian is a 2x2 block; the larger of its
    two eigenvalues serves as one scalar weight for both components, so the
    quadratic model majorizes the objective near S and its step descends.
    """
    if pc == 2.0:
        return 2.0 * mw * S1, 2.0 * mw * S2, 2.0 * mw, 2.0 * mw
    e2 = eps * eps

    def weights(sq):
        # gradient factor and radial second derivative of (sq + eps^2)^(pc/2),
        # floored so that no row or bin loses all weight to underflow
        v = sq + e2
        w = pc * mw * v ** (0.5 * pc - 1.0)
        return w, np.maximum(w * ((pc - 1.0) * sq + e2) / v, np.finfo(float).tiny)

    if metric.adapted:
        (w1, D1), (w2, D2) = weights(S1 * S1), weights(S2 * S2)
        return w1 * S1, w2 * S2, D1, D2
    w, radial = weights(S1 * S1 + S2 * S2)
    D = np.maximum(w, radial)
    return w * S1, w * S2, D, D


def _axpy(u, t, du):
    return tuple(None if a is None else a + t * b for a, b in zip(u, du))


def _run_foc(problem, metric: Metric, warm_start: bool = True) -> SensitivityReport:
    """Globalized Newton on the dual-norm objective, certified by the FOC residual.

    ``warm_start`` starts from the p = 2 closed form.  For p' < 2 the
    smoothing eps starts at the scale of the field and shrinks tenfold each
    time a Newton decrement shows the smoothed problem solved; for p' > 2 it
    stays at a floor that only keeps every row and bin at positive weight.
    """
    mw, pc = problem.mw, metric.p_conj
    scale = float(np.sqrt(np.sum(mw * (problem.S1_0 ** 2 + problem.S2_0 ** 2))))
    floor = (EPS_FLOOR if pc < 2.0 else WEIGHT_FLOOR) * scale
    eps = scale if pc < 2.0 else floor
    # the p = 2 weights are 2 mw, and scaling the weights leaves the Fredholm
    # operator bit for bit unchanged: mu's own serves every p = 2 step
    if warm_start:
        G1, G2, D1, D2 = _newton_weights(mw, problem.S1_0, problem.S2_0, metric, 2.0, 0.0)
        problem.u = _axpy(problem.u, -1.0, problem.correction(G1, G2, D1, D2, problem.op))
    converged = False
    for it in range(FOC_MAX_ITER + 1):
        F1, F2 = problem.field(problem.u)
        S1, S2 = problem.S1_0 + F1, problem.S2_0 + F2
        T1, T2, c = _direction(mw, S1, S2, metric)
        res = _residual_norm(problem, problem.residual(T1, T2))
        if res <= FOC_TOL:
            converged = True
            break
        if it == FOC_MAX_ITER:
            break
        G1, G2, D1, D2 = _newton_weights(mw, S1, S2, metric, pc, eps)
        du = problem.correction(G1, G2, D1, D2, problem.op if pc == 2.0 else None)
        t = 1.0
        if pc != 2.0:           # Armijo backtracking on the smoothed objective
            dF1, dF2 = problem.field(du)
            phi0 = _objective(mw, S1, S2, metric, pc, eps)
            slope = float(np.sum(G1 * dF1 + G2 * dF2))
            while _objective(mw, S1 - t * dF1, S2 - t * dF2, metric, pc, eps) \
                    > phi0 - ARMIJO * t * slope:
                t *= 0.5
                if t < STEP_MIN:
                    break
            if t < STEP_MIN:    # no decrease left at this smoothing
                if eps <= floor:
                    break
                eps = max(EPS_SHRINK * eps, floor)
                continue
            if slope <= SOLVED * phi0:      # smoothed problem solved: sharpen it
                eps = max(EPS_SHRINK * eps, floor)
        problem.u = _axpy(problem.u, -t, du)
    if not converged:
        msg = f"FOC iteration did not converge: residual {res:.3e} after {it} steps"
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
        problem.warnings.append(msg)
    # the dual norm of S from the last direction: |N_d(S)|_p = |S|_p'^(p' - 1)
    return SensitivityReport(
        value=c ** (metric.p - 1.0), metric=metric, constraints=problem.cs.label(),
        T1=T1, T2=T2, foc_residual=res, iterations=it, converged=converged,
        bins=problem.bins, warnings=tuple(problem.warnings), **problem.multipliers())


def _require_martingale(mu: GridMeasure) -> None:
    tol = MARTINGALE_RTOL * max(1.0, float(np.max(np.abs(mu.x1))))
    if not mu.is_martingale and mu.martingale_residual() > tol:
        raise SensitivityError("martingale constraint needs a martingale measure")


def solve_foc(state: PointState, constraints: ConstraintSet,
              warm_start: bool = True) -> SensitivityReport:
    """Minimize the dual norm over the active multipliers via the FOC.

    ``warm_start=False`` starts Newton from zero multipliers instead of the
    p = 2 closed form, which keeps the two starting points independent for
    cross-validation.
    """
    return _run_foc(_HedgeMap(state, constraints), state.metric, warm_start)


# the four constraint sets of the paper's study, by their command-line names
CONSTRAINT_SETS = {
    "unconstrained": ConstraintSet(),
    "martingale": ConstraintSet(martingale=True),
    "marginal": ConstraintSet(marginal1=True, marginal2=True),
    "mart_marginal": ConstraintSet(martingale=True, marginal1=True, marginal2=True),
}


def marginal_value_closed_form(mu: GridMeasure, G: GradientField, metric: Metric,
                               bins: Binning | None = None) -> float:
    """Variance-style p = 2 expression for the marginal-constrained value.

    Independent of the optimization path: centers each gradient component by
    its own conditional expectation and takes the L2 norm.
    """
    if metric.p != 2.0:
        raise SensitivityError("closed form is for p = 2")
    st = PointState(mu, G, metric, bins)
    mw = mu.atom_masses()
    c2 = st.S2 - st.bins.e2(st.S2)[st.bins.index]
    if metric.adapted:
        return float(np.sqrt(np.sum(mw * c2 ** 2)))
    c1 = st.S1 - cond_exp_1(mu, st.S1)[:, None]
    return float(np.sqrt(np.sum(mw * (c1 ** 2 + c2 ** 2))))


def report_to_json(report: SensitivityReport) -> dict:
    """JSON-ready dict: value, multipliers as tables, residuals."""
    def arr(x):
        return None if x is None else [float(v) for v in np.asarray(x).ravel()]

    return {
        "value": report.value,
        "metric": {"ball": report.metric.ball, "p": report.metric.p},
        "constraints": report.constraints,
        "foc_residual": report.foc_residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "lambda_hat": arr(report.lambda_hat),
        "h_hat": arr(report.h_hat),
        "f1": arr(report.f1),
        "f2": arr(report.f2),
        "warnings": list(report.warnings),
    }


def report_tables(report: SensitivityReport, mu: GridMeasure):
    """CSV-ready rows: (x1, h, f1) and (x2_bin_center, f2)."""
    n1 = mu.n1
    h = report.h_hat if report.h_hat is not None else np.full(n1, np.nan)
    f1 = report.f1 if report.f1 is not None else np.full(n1, np.nan)
    rows1 = [(float(mu.x1[i]), float(h[i]), float(f1[i])) for i in range(n1)]
    rows2 = []
    if report.f2 is not None and report.bins is not None:
        centers = report.bins.e2(mu.x2)
        rows2 = [(float(centers[b]), float(report.f2[b])) for b in range(report.bins.m)]
    return rows1, rows2
