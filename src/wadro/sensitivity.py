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
On the adapted ball the first components of S, of every hedge field and of
the Newton weights are functions of x1, held as (n1, 1) columns weighed by
the row masses: every sum over atoms splits into one per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import fredholm
from .criterion import GradientField, american_put, gradient_field
from .measure import Binning, GridMeasure, ModelSpec, build_model, cond_exp_1, quantile_bins

FOC_TOL = 1e-8
FOC_MAX_ITER = 200
ARMIJO = 1e-4
STEP_MIN = 1e-10
SOLVED = 1e-6
EPS_SHRINK = 0.1
EPS_FLOOR = 1e-30
WEIGHT_FLOOR = 1e-12
_TINY = np.finfo(float).tiny


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
        if not (self.p > 1 and self.p_conj > 1):     # p' rounds to 1 past about 1e16
            raise SensitivityError("the exponent and its conjugate p / (p - 1) must exceed 1")

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
    only).  A set holds at most one conditional constraint.  Mean constraints
    (a vanilla call is one) and ``cond_psi`` mix with every flag.
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

    @property
    def psi(self) -> CondConstraint | None:
        """The set's conditional constraint: the martingale's, else ``cond_psi``."""
        return martingale_psi() if self.martingale else self.cond_psi

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
    out = np.copysign(np.abs(v) ** (Metric("wp", p).p_conj - 1.0), np.asarray(v, dtype=float))
    return float(out) if out.ndim == 0 else out


def adapted_gradient(mu: GridMeasure, G: GradientField) -> GradientField:
    """Replace the first component by its conditional expectation given X1."""
    g1 = cond_exp_1(mu, G.g1)
    return GradientField(np.broadcast_to(g1[:, None], G.g1.shape).copy(), G.g2.copy())


class PointState:
    """What every constraint set's solve at one (mu, G, metric) reads.

    Built once and passed to ``solve_foc`` for each set: the gradient field
    in the ball's form (``S1``, ``S2``, read-only) with the masses ``mw1``,
    ``mw`` of its components and its L2(mu) norm ``norm``, shared by the sets,
    the binning ``bins`` (the one passed in, else mu's quantile binning into
    n2 bins on first use) and mu's Fredholm operator ``op``, built on first
    use.  The adapted ball's S1 = E1[g1] and mw1 are (n1, 1) columns.  A field
    of infinite norm raises SensitivityError.
    """

    def __init__(self, mu: GridMeasure, G: GradientField, metric: Metric,
                 bins: Binning | None = None):
        self.mu, self.metric, self.mw = mu, metric, mu.atom_masses()
        # read-only copies: the solves share them, and G stays the caller's
        self.S1, self.mw1 = ((cond_exp_1(mu, G.g1)[:, None], self.mw.sum(axis=1)[:, None])
                             if metric.adapted else (np.array(G.g1), self.mw))
        self.S2 = np.array(G.g2)
        self.S1.flags.writeable = self.S2.flags.writeable = self.mw1.flags.writeable = False
        self.norm = _norm(self.mw1, self.mw, self.S1, self.S2)
        if not np.isfinite(self.norm):
            raise SensitivityError(f"the gradient field's L2(mu) norm is {self.norm}, not finite")
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


def _dot(mw, X, Y) -> float:
    """sum mw X Y, in one pass with no temporary."""
    return float(np.einsum("ij,ij,ij->", mw, X, Y))


def _norm(mw1, mw, X1: np.ndarray, X2: np.ndarray) -> float:
    """The L2(mu) norm of a pair (X1, X2) with masses mw1, mw."""
    return (_dot(mw1, X1, X1) + _dot(mw, X2, X2)) ** 0.5


def _add(F, term, shape):
    """F + term as an array of ``shape``, in place into F, else (F None) a copy."""
    return np.positive(term, out=np.empty(shape)) if F is None else np.add(F, term, out=F)


def _direction(mw1, mw, S1, S2, metric: Metric):
    """Normalized optimal direction T = N_d(S)/c with unit primal norm, and c."""
    if metric.p == 2.0:         # N_d is the identity
        T1, T2 = S1, S2
    elif metric.adapted:
        T1, T2 = (np.copysign(abs(S) ** (metric.p_conj - 1.0), S) for S in (S1, S2))
    else:
        mag = np.hypot(S1, S2)
        fac = np.power(mag, metric.p_conj - 2.0, where=mag > 0, out=np.zeros_like(mag))
        T1, T2 = fac * S1, fac * S2
    c = (_dot(mw1, T1, S1) + _dot(mw, T2, S2)) ** (1.0 / metric.p)   # N_d(s) s = |N_d(s)|^p
    if c == 0.0:
        return np.zeros_like(S1), np.zeros_like(S2), 0.0
    return T1 / c, T2 / c, c


class _HedgeMap:
    """Hedge map and Newton step for every constraint set.

    The multipliers ``u = (f1, f2, h, lam)`` (None when inactive) give the
    hedge field ``F1 = f1(x1) + c1 h(x1) + sum_a lam_a d1phi_a``,
    ``F2 = f2(bin(x2)) + c2 h(x1) + sum_a lam_a d2phi_a``, written ``A u``.
    h hedges the conditional constraint with the per-row weight
    ``c1 = E1[d1 psi]`` and the per-atom weight ``c2 = d2 psi``; the
    martingale is psi = x2 - x1, with c1 = -1 and c2 = 1 (a unit c2 is held
    as None: no pass over the atoms).  ``adjoint`` is ``A^T`` and ``solve``
    inverts ``A^T diag(D) A``; at D = mu's masses, scaled by (1/w1, 1/bin
    mass, 1/w1, 1), that is the derivative of ``residual`` along the field.
    ``op`` is the h-f2 block at mu's masses.  On the adapted ball F1 and
    each d1phi are (n1, 1) columns, shaped as the state's S1.
    """

    def __init__(self, state: PointState, cs: ConstraintSet):
        mu = self.mu = state.mu
        if cs.martingale:
            _require_martingale(mu)
        self.cs = cs
        self.mw1, self.mw = state.mw1, state.mw
        self.warnings: list[str] = []

        def partials(c):
            a = np.broadcast_to(mu.x1[:, None], mu.x2.shape)
            return (np.asarray(c.d1(a, mu.x2), dtype=float) + np.zeros_like(mu.x2),
                    np.asarray(c.d2(a, mu.x2), dtype=float) + np.zeros_like(mu.x2))

        self.phi = []
        for c in cs.mean_phi:
            p1, p2 = partials(c)
            if state.metric.adapted:
                p1 = cond_exp_1(mu, p1)[:, None]
            self.phi.append((p1, p2))
        # qc2 = q c2: E1[c2 T] is a row dot
        self.c1, self.c2, self.qc2 = -np.ones(mu.n1) if cs.martingale else None, None, mu.q
        if cs.cond_psi is not None:
            if not state.metric.adapted:
                raise SensitivityError("conditional constraints require the adapted ball")
            d1, c2 = partials(cs.cond_psi)
            self.c1 = cond_exp_1(mu, d1)
            if np.min(np.einsum("ij,ij,ij->i", mu.q, c2, c2)) <= 1e-14:
                raise SensitivityError(
                    "E1[(d2 psi)^2] is degenerate on some atom (assumption A (iii) surrogate)")
            if not cs.marginal2 or np.any(c2 != 1.0):   # else the martingale's path
                self.c2, self.qc2 = c2, mu.q * c2
        self.bins, self.op, self.null = state.bins if cs.marginal2 else None, None, False
        if cs.marginal2 and self.c1 is not None:
            # with f1, a c2 of one nonzero value k2 on every bin gives a null direction
            self.k2, one = np.ones(self.bins.m), True
            if self.c2 is not None:     # some atom's c2 in each bin, then every atom's
                self.k2[self.bins.index] = self.c2
                one = np.all((self.k2[self.bins.index] == self.c2) & (self.c2 != 0))
            self.null = cs.marginal1 and one
            self.op = state.op if self.c2 is None else self._operator(self.mw)
            if self.null and not self.op.below(fredholm.REGULARIZE_GATE):
                self.warnings.append(f"informational-discrepancy contraction "
                                     f"{fredholm.contraction_norm(self.op):.6f} >= "
                                     f"{fredholm.REGULARIZE_GATE}; using regularized hedge solve")
        # None, not an empty array, when inactive: every Newton step carries u
        self.u = (np.zeros(mu.n1) if cs.marginal1 else None,
                  np.zeros(self.bins.m) if cs.marginal2 else None,
                  None if self.c1 is None else np.zeros(mu.n1),
                  np.zeros(len(self.phi)) if self.phi else None)
        if self.phi:
            # the Schur complement in the mean constraints' own scale: a least
            # eigenvalue near zero puts a combination of them in the span of
            # the other hedges (for one constraint it is a squared sine)
            g = np.array([_norm(self.mw1, self.mw, p1, p2) for p1, p2 in self.phi])
            S = self._complement(self.mw1, self.mw, self.op)[0]
            if not (np.all(g > 0) and np.linalg.eigvalsh((S + S.T) / (2 * np.outer(g, g)))[0]
                    > 1e-12):
                raise SensitivityError(
                    "normal matrix is singular: a mean constraint is spanned by the other "
                    "hedges (non-redundancy assumption A (iv) violated)")

    def field(self, u, base=(None, None)):
        """The hedge field ``A u`` plus ``base``, summed in place; a part no
        multiplier reaches is a read-only view of its base (or of 0)."""
        f1, f2, h, lam = u
        s1, s2 = self.mw1.shape, self.mw.shape
        F1, F2 = None, None if f2 is None else f2[self.bins.index]
        if f1 is not None:
            F1 = _add(F1, f1[:, None], s1)
        if h is not None:
            F1 = _add(F1, (self.c1 * h)[:, None], s1)
            F2 = _add(F2, h[:, None] if self.c2 is None else self.c2 * h[:, None], s2)
        for la, (p1, p2) in zip(() if lam is None else lam, self.phi):
            F1, F2 = _add(F1, la * p1, s1), _add(F2, la * p2, s2)
        return tuple(np.broadcast_to(0.0 if b is None else b, s) if F is None
                     else F if b is None else _add(F, b, s)
                     for F, b, s in ((F1, base[0], s1), (F2, base[1], s2)))

    def residual(self, T1, T2):
        comps, e1 = {}, cond_exp_1(self.mu, T1)
        if self.cs.marginal1:
            comps["m1"] = e1
        if self.cs.marginal2:
            comps["m2"] = self.bins.e2(T2)
        if self.c1 is not None:
            comps["h"] = self.c1 * e1 + np.einsum("ij,ij->i", self.qc2, T2)
        if self.phi:
            comps["phi"] = np.array([(self.mw1 * p1 * T1).sum() + (self.mw * p2 * T2).sum()
                                     for p1, p2 in self.phi])
        return comps

    def adjoint(self, G1, G2):
        """``A^T G`` for values G1, G2 shaped as F1, F2: per row (f1), per bin (f2),
        per row against (c1, c2) (h) and against each mean constraint (lam)."""
        g1 = G1.sum(axis=1)
        return (g1 if self.cs.marginal1 else None,
                self.bins.sums(G2) if self.cs.marginal2 else None,
                None if self.c1 is None else self._c2_rows(G2) + self.c1 * g1,
                np.array([(p1 * G1).sum() + (p2 * G2).sum() for p1, p2 in self.phi]) if self.phi
                else None)

    def _c2_rows(self, G):
        """Per row, sum_j c2 G: the row sum for the martingale's unit c2."""
        return G.sum(axis=1) if self.c2 is None else np.einsum("ij,ij->i", self.c2, G)

    def _operator(self, D2):
        """The h-f2 block at weights D2 for ``_solve_u``: the Fredholm operator
        of D2 for a unit c2, of D2 c2^2 with the null direction, else a
        CrossBlock, whose row sums r are not its C's."""
        if self.c2 is None:
            return fredholm.build_operator(self.bins, D2)
        W = D2 * self.c2
        if self.null:
            return fredholm.build_operator(self.bins, W * self.c2)
        return fredholm.CrossBlock(self.bins.cells(W), self.bins.sums(D2), self._c2_rows(W))

    def _solve_u(self, b, D1, D2, op):
        """The (f1, f2, h) block of ``A^T diag(D) A du = b``; lam stays None.

        f2 eliminates bin by bin and f1 absorbs h's first component (c1 is
        constant on each row).  h is left with ``diag(d) - C D_b^-1 C^T``, d the
        row sums r2 of D2 c2^2 (plus c1^2 r1 without f1), C the cross block of
        D2 c2 and b D2's bin sums, held by ``op`` and inverted by one
        ``fredholm.solve`` (without f2 the block is ``diag(d)``).  Where c2 is k2
        on every bin, f2 / k2 meets h as the martingale's f2 does at the weights
        D2 c2^2, and ``op`` is their Fredholm operator; with f1 the block is then
        r2 (I - K_D) on zero-mean functions, whose null direction (f1 - c1 c,
        f2 - k2 c, h + c) moves no atom.
        """
        g1, g2, rhs, _ = b
        r1 = D1.sum(axis=1)
        df1 = df2 = dh = None
        if self.cs.marginal2:
            b2 = self.bins.sums(D2) if op is None else op.b
            df2 = (self.k2 * g2 if self.null else g2) / b2
        if self.c1 is not None:
            if op is None:
                r2 = self._c2_rows(D2 if self.c2 is None else D2 * self.c2)
            else:
                r2, rhs = op.r, rhs - op.C @ df2
            if self.cs.marginal1:    # f1 takes c1 g1 and c1^2 r1 back out
                rhs, d = rhs - self.c1 * g1, r2
            else:
                d = self.c1 * self.c1 * r1 + r2
            dh = rhs / d
            if op is not None:      # with the null direction, the zero-mean form
                dh = (fredholm.solve(op, dh - float(op.w1 @ dh)) if self.null
                      else fredholm.solve(op, dh, d))
                df2 = df2 - (op.C.T @ dh) / b2
        if self.cs.marginal1:
            df1 = g1 / r1 if dh is None else g1 / r1 - self.c1 * dh
        return df1, self.k2 * df2 if self.null else df2, dh, None

    def _complement(self, D1, D2, op):
        """Schur complement of the (f1, f2, h) block in ``A^T diag(D) A``,
        and that block's solves against each mean constraint's column."""
        cols = [self.adjoint(D1 * p1, D2 * p2) for p1, p2 in self.phi]
        Z = [self._solve_u(b, D1, D2, op) for b in cols]
        return np.column_stack([b[3] - self._lam_rows(D1, D2, z) for b, z in zip(cols, Z)]), Z

    def _lam_rows(self, D1, D2, u):
        """The mean constraints' rows of ``A^T diag(D) A`` applied to u."""
        F1, F2 = self.field(u)
        return np.array([np.sum(p1 * D1 * F1) + np.sum(p2 * D2 * F2) for p1, p2 in self.phi])

    def solve(self, b, D1, D2, op=None):
        """Solve ``A^T diag(D) A du = b`` for weights D1, D2 shaped as F1, F2.

        At D = mw this is the p = 2 closed form.  The mean multipliers border
        the (f1, f2, h) block: one block solve per mean constraint, then the k x
        k Schur complement, all with ``op``, the h-f2 block at D2 (``self.op`` at
        mw), built here when the set has one and the caller none.
        """
        if op is None and self.op is not None:
            op = self._operator(D2)     # shared by the k + 1 block solves
        du = self._solve_u(b, D1, D2, op)
        if not self.phi:
            return du
        S, Z = self._complement(D1, D2, op)
        dlam = np.linalg.solve(S, b[3] - self._lam_rows(D1, D2, du))
        for la, z in zip(dlam, Z):
            du = _axpy(du, -la, z)
        return du[:3] + (dlam,)

    def multipliers(self):
        f1, f2, h, lam = self.u
        if self.null:   # the zero-mean representative; f1 and f2 absorb the shift
            c = float(self.mu.w1 @ h)
            h, f1, f2 = h - c, f1 + self.c1 * c, f2 + self.k2 * c
        return {"f1": f1, "f2": f2, "h_hat": h, "lambda_hat": lam}


def _residual_norm(problem, comps) -> float:
    """Norm of the constraint operator applied to T.

    Per-atom and per-bin components are measured in the weighted L2 norms of
    the spaces the operator maps into (L^p(mu_1) and its bin analogue), each
    one dot; finite-dimensional mean-constraint components in the max norm.
    """
    worst = 0.0
    for key, v in comps.items():
        w = problem.bins.mass if key == "m2" else problem.mu.w1
        norm = float(abs(v).max()) if key == "phi" else float(v @ (w * v)) ** 0.5
        worst = norm if norm > worst or norm != norm else worst     # a NaN stays
    return worst


def _smoothed(mw1, mw, S1, S2, metric: Metric, pc: float, eps: float):
    """Smoothed objective sum mw psi(S), |s|^pc replaced by v^(pc/2), v = s^2 +
    eps^2, with its gradient (G1, G2) and Hessian weights (D1, D2): one power of
    v per component gives the gradient factor w and the radial second derivative,
    floored so that no row or bin loses all weight to underflow.  The classical
    ball's per-atom Hessian is a 2x2 block; the larger of its two eigenvalues
    serves as one scalar weight for both components, so the quadratic model
    majorizes the objective near S and its step descends.
    """
    e2 = eps * eps

    def part(m, v):
        a = m * v ** (0.5 * pc - 1.0)
        w = pc * a
        return (a * v).sum(), w, np.maximum(w * ((2.0 - pc) * e2 / v + (pc - 1.0)), _TINY)

    if metric.adapted:
        (phi1, w1, D1), (phi2, w2, D2) = part(mw1, S1 * S1 + e2), part(mw, S2 * S2 + e2)
        return float(phi1 + phi2), (w1 * S1, w2 * S2, D1, D2)
    phi, w, radial = part(mw, S1 * S1 + S2 * S2 + e2)
    D = np.maximum(w, radial)
    return float(phi), (w * S1, w * S2, D, D)


def _axpy(u, t, du):
    return tuple(None if a is None else a + t * b for a, b in zip(u, du))


def _run_foc(problem, state: PointState, warm_start: bool = True) -> SensitivityReport:
    """Globalized Newton on the dual-norm objective, certified by the FOC residual.

    ``warm_start`` starts from the p = 2 closed form.  For p' < 2 the
    smoothing eps starts at the scale of the field and shrinks tenfold each
    time a Newton decrement shows the smoothed problem solved; for p' > 2 it
    stays at a floor that only keeps every row and bin at positive weight.
    S + F(u), the smoothed objective and its weights carry over from the accepted trial.
    """
    metric, mw1, mw, scale = state.metric, state.mw1, state.mw, state.norm
    pc = metric.p_conj
    floor = (EPS_FLOOR if pc < 2.0 else WEIGHT_FLOOR) * scale
    eps = scale if pc < 2.0 else floor
    # the p = 2 weights (mw S, mw) have the h-f2 block at mu's masses
    if warm_start:
        problem.u = _axpy(problem.u, -1.0, problem.solve(
            problem.adjoint(mw1 * state.S1, mw * state.S2), mw1, mw, problem.op))
    S1, S2 = problem.field(problem.u, (state.S1, state.S2))
    smooth = None           # the smoothed objective and its weights at S and eps
    converged = False
    for it in range(FOC_MAX_ITER + 1):
        T1, T2, c = _direction(mw1, mw, S1, S2, metric)
        res = _residual_norm(problem, problem.residual(T1, T2))
        if res <= FOC_TOL:
            converged = True
            break
        if it == FOC_MAX_ITER:
            break
        if pc == 2.0:
            du = problem.solve(problem.adjoint(mw1 * S1, mw * S2), mw1, mw, problem.op)
        else:
            phi0, (G1, G2, D1, D2) = smooth or _smoothed(mw1, mw, S1, S2, metric, pc, eps)
            du = problem.solve(problem.adjoint(G1, G2), D1, D2)
        dF1, dF2 = problem.field(du)
        t, trial = 1.0, (S1 - dF1, S2 - dF2)
        if pc != 2.0:           # Armijo backtracking on the smoothed objective
            slope = float(np.vdot(G1, dF1) + np.vdot(G2, dF2))
            while (smooth := _smoothed(mw1, mw, *trial, metric, pc, eps))[0] \
                    > phi0 - ARMIJO * t * slope:
                t *= 0.5
                if t < STEP_MIN:
                    break
                trial = S1 - t * dF1, S2 - t * dF2
            if t < STEP_MIN:    # no decrease left at this smoothing
                if eps <= floor:
                    break
                eps, smooth = max(EPS_SHRINK * eps, floor), None
                continue
            if slope <= SOLVED * phi0:      # smoothed problem solved: sharpen it
                eps, smooth = max(EPS_SHRINK * eps, floor), None
        problem.u = _axpy(problem.u, -t, du)
        S1, S2 = trial
    if not converged:
        problem.warnings.append(
            f"FOC iteration did not converge: residual {res:.3e} after {it} steps")
    # the dual norm of S from the last direction: |N_d(S)|_p = |S|_p'^(p' - 1)
    return SensitivityReport(
        value=c ** (metric.p - 1.0), metric=metric, constraints=problem.cs.label(),
        T1=np.broadcast_to(T1, T2.shape), T2=T2, foc_residual=res, iterations=it,
        converged=converged, bins=problem.bins, warnings=tuple(problem.warnings),
        **problem.multipliers())


def _require_martingale(mu: GridMeasure) -> None:
    if not mu.is_martingale and mu.martingale_residual() > mu.martingale_tol:
        raise SensitivityError("martingale constraint needs a martingale measure")


def solve_foc(state: PointState, constraints: ConstraintSet,
              warm_start: bool = True) -> SensitivityReport:
    """Minimize the dual norm over the active multipliers via the FOC.

    ``warm_start=False`` starts Newton from zero multipliers instead of the
    p = 2 closed form, which keeps the two starting points independent for
    cross-validation.
    """
    return _run_foc(_HedgeMap(state, constraints), state, warm_start)


# the four constraint sets of the paper's study, by their command-line names
CONSTRAINT_SETS = {
    "unconstrained": ConstraintSet(),
    "martingale": ConstraintSet(martingale=True),
    "marginal": ConstraintSet(marginal1=True, marginal2=True),
    "mart_marginal": ConstraintSet(martingale=True, marginal1=True, marginal2=True),
}


def chain_violation(values) -> float:
    """How far the values of ``CONSTRAINT_SETS``, in its order, break the chain
    Mm <= min(M, m) <= max(M, m) <= unconstrained: 0 if valid, NaN on a NaN."""
    unc, mart, marg, both = values
    return float(np.max([0.0, both - np.min([mart, marg]), np.max([mart, marg]) - unc]))


def closed_form_error(mu: GridMeasure) -> float:
    """Largest error of the analytic suite on the adapted p = 2 ball: the field
    (0, 1) has the values (1, 2^-1/2, 0, 0) over ``CONSTRAINT_SETS``, and (1, 1)
    the value sqrt(2) on its first two sets, unconstrained and martingale."""
    errors = []
    for (a, b), expected in (((0.0, 1.0), (1.0, 2 ** -0.5, 0.0, 0.0)),
                             ((1.0, 1.0), (2 ** 0.5, 2 ** 0.5))):
        G = GradientField(np.full_like(mu.x2, a), np.full_like(mu.x2, b))
        state = PointState(mu, G, W2AD)
        errors += [solve_foc(state, cs).value - t
                   for cs, t in zip(CONSTRAINT_SETS.values(), expected)]
    return float(np.max(np.abs(errors)))    # NaN if any value is NaN


def marginal_value_closed_form(mu: GridMeasure, G: GradientField, metric: Metric,
                               bins: Binning | None = None) -> float:
    """Variance-style p = 2 expression for the marginal-constrained value.

    Independent of the optimization path: centers each gradient component by
    its own conditional expectation and takes the L2 norm.
    """
    if metric.p != 2.0:
        raise SensitivityError("closed form is for p = 2")
    st = PointState(mu, G, metric, bins)
    c1 = 0 * st.S1 if metric.adapted else st.S1 - cond_exp_1(mu, st.S1)[:, None]
    return _norm(st.mw1, st.mw, c1, st.S2 - st.bins.e2(st.S2)[st.bins.index])


def marginal_path_violation(metric: Metric = W2AD) -> float:
    """How far the marginal set's Newton value and ``marginal_value_closed_form``
    differ beyond 1e-10 for the buyer's American put on Black-Scholes sigma
    0.5, 32 x 32 with 32 quantile bins: 0 if valid, NaN on a NaN."""
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))
    G, bins = gradient_field(american_put(side="buyer"), mu), quantile_bins(mu, 32)
    gap = (solve_foc(PointState(mu, G, metric, bins), CONSTRAINT_SETS["marginal"]).value
           - marginal_value_closed_form(mu, G, metric, bins))
    return float(np.max([0.0, abs(gap) - 1e-10]))


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
