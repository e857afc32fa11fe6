"""Criteria on two-period measures: linear payoffs and two-period stopping.

A criterion exposes its value on a grid measure and the gradient field of
its first variation on atoms, which is what every sensitivity formula
consumes.  The American put with strike ``K`` and discount rate ``rho`` is
the built-in stopping example; its payoff kink is handled by an explicit
subgradient rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import GridMeasure, ModelSpec, build_model

KINDS = ("linear", "stop_buyer", "stop_seller")
KINK_RULES = ("zero_at_kink", "left_derivative")
DERIV_CHECK_TOL = 1e-6
TIE_TOL = 1e-12
TIE_MASS_WARN = 1e-8


class CriterionError(ValueError):
    """Ill-formed criterion or misuse of a stopping-only operation."""


@dataclass(frozen=True)
class StoppingRule:
    """First-stage decision per x1 atom; ties are resolved to continue."""

    stop_at_1: np.ndarray          # bool (n1,)
    tie_at: np.ndarray             # int indices with |l1 - E1[l2]| <= tie_tol
    tie_mass: float


@dataclass(frozen=True)
class GradientField:
    """Gradient of the first variation on atoms, components (n1, n2), and its
    diagnostics (stopping ties of mass above TIE_MASS_WARN)."""

    g1: np.ndarray
    g2: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        g1 = np.asarray(self.g1, dtype=float)
        g2 = np.asarray(self.g2, dtype=float)
        if g1.shape != g2.shape or g1.ndim != 2:
            raise CriterionError("gradient components must share an (n1, n2) shape")
        if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
            raise CriterionError("gradient field has non-finite entries")
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)


@dataclass(frozen=True)
class Criterion:
    """Payoff functional with the derivative data the sensitivities need.

    ``linear`` criteria carry f(x1, x2) and its partials; stopping criteria
    carry the per-stage intrinsic values l1, l2 with one-sided derivatives
    and the locations of their kinks.
    """

    kind: str
    name: str = ""
    f: Callable | None = None
    d1f: Callable | None = None
    d2f: Callable | None = None
    l1: Callable | None = None
    dl1: Callable | None = None
    l2: Callable | None = None
    dl2: Callable | None = None
    kinks1: tuple = ()
    kinks2: tuple = ()
    kink_rule: str = "zero_at_kink"
    tie_tol: float = TIE_TOL

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CriterionError(f"unknown criterion kind {self.kind!r}")
        if self.kink_rule not in KINK_RULES:
            raise CriterionError(f"unknown kink rule {self.kink_rule!r}")
        if self.kind == "linear":
            if not all(callable(g) for g in (self.f, self.d1f, self.d2f)):
                raise CriterionError("linear criterion needs f, d1f, d2f")
        else:
            if not all(callable(g) for g in (self.l1, self.dl1, self.l2, self.dl2)):
                raise CriterionError("stopping criterion needs l1, dl1, l2, dl2")
        _check_derivatives(self)


def _fd_probe(kinks: tuple) -> np.ndarray:
    pts = np.linspace(0.15, 2.6, 13)
    if kinks:
        keep = np.min(np.abs(pts[:, None] - np.asarray(kinks)[None, :]), axis=1) > 0.05
        pts = pts[keep]
    return pts


def _check_derivatives(c: Criterion, h: float = 1e-6) -> None:
    """Central finite differences must match away from declared kinks."""
    if c.kind == "linear":
        a = _fd_probe(())
        b = a[::-1] + 0.3
        fd1 = (c.f(a + h, b) - c.f(a - h, b)) / (2 * h)
        fd2 = (c.f(a, b + h) - c.f(a, b - h)) / (2 * h)
        ok1 = np.max(np.abs(fd1 - c.d1f(a, b))) <= DERIV_CHECK_TOL
        ok2 = np.max(np.abs(fd2 - c.d2f(a, b))) <= DERIV_CHECK_TOL
        if not (ok1 and ok2):
            raise CriterionError("payoff partials disagree with finite differences")
    else:
        for fn, dfn, kinks, label in ((c.l1, c.dl1, c.kinks1, "l1"),
                                      (c.l2, c.dl2, c.kinks2, "l2")):
            a = _fd_probe(kinks)
            fd = (fn(a + h) - fn(a - h)) / (2 * h)
            if np.max(np.abs(fd - dfn(a))) > DERIV_CHECK_TOL:
                raise CriterionError(f"{label} derivative disagrees with finite differences")


def linear_criterion(f, d1f, d2f, name: str = "linear") -> Criterion:
    return Criterion(kind="linear", name=name, f=f, d1f=d1f, d2f=d2f)


def american_put(K: float = 1.3, rho: float = 0.05, side: str = "buyer",
                 kink_rule: str = "zero_at_kink") -> Criterion:
    """American put with intrinsic (e^{-rho t} K - x)^+ at t = 1, 2."""
    if side not in ("buyer", "seller"):
        raise CriterionError(f"side must be buyer or seller, got {side!r}")
    strikes = (K * np.exp(-rho), K * np.exp(-2 * rho))

    def _payoff(strike):
        return lambda x: np.maximum(strike - np.asarray(x, dtype=float), 0.0)

    def _slope(strike):
        if kink_rule == "zero_at_kink":
            return lambda x: np.where(np.asarray(x, dtype=float) < strike, -1.0, 0.0)
        return lambda x: np.where(np.asarray(x, dtype=float) <= strike, -1.0, 0.0)

    return Criterion(
        kind="stop_buyer" if side == "buyer" else "stop_seller",
        name=f"american_put(K={K},rho={rho},{side})",
        l1=_payoff(strikes[0]), dl1=_slope(strikes[0]),
        l2=_payoff(strikes[1]), dl2=_slope(strikes[1]),
        kinks1=(strikes[0],), kinks2=(strikes[1],),
        kink_rule=kink_rule,
    )


_LINEAR_PRESETS = {
    "x1": (lambda a, b: a, lambda a, b: np.ones_like(a), lambda a, b: np.zeros_like(a)),
    "x2": (lambda a, b: b, lambda a, b: np.zeros_like(a), lambda a, b: np.ones_like(a)),
    "x1+x2": (lambda a, b: a + b, lambda a, b: np.ones_like(a), lambda a, b: np.ones_like(a)),
    "x2-x1": (lambda a, b: b - a, lambda a, b: -np.ones_like(a), lambda a, b: np.ones_like(a)),
    "x2^2": (lambda a, b: b ** 2, lambda a, b: np.zeros_like(a), lambda a, b: 2 * b),
}


def preset(name: str) -> Criterion:
    """Parse CLI criterion names: ``linear:x2``, ``american_put:K=...,rho=...,side=...``."""
    head, _, arg = name.partition(":")
    if head == "linear":
        if arg not in _LINEAR_PRESETS:
            raise CriterionError(
                f"unknown linear payoff {arg!r}; choose from {sorted(_LINEAR_PRESETS)}")
        f, d1, d2 = _LINEAR_PRESETS[arg]
        return linear_criterion(f, d1, d2, name=f"linear:{arg}")
    if head == "american_put":
        kwargs = {"K": 1.3, "rho": 0.05, "side": "buyer"}
        if arg:
            for piece in arg.split(","):
                if not piece:
                    continue
                key, _, val = piece.partition("=")
                key = key.strip()
                if key == "K":
                    kwargs["K"] = float(val)
                elif key == "rho":
                    kwargs["rho"] = float(val)
                elif key == "side":
                    kwargs["side"] = val.strip()
                else:
                    raise CriterionError(f"unknown american_put option {key!r}")
        return american_put(**kwargs)
    raise CriterionError(f"unknown criterion preset {name!r}")


def _stage_values(c: Criterion, mu: GridMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(l1 on x1 atoms, E1[l2] per row) for stopping criteria."""
    return c.l1(mu.x1), mu.row_expectation(lambda a, z: c.l2(z))


def value(c: Criterion, mu: GridMeasure) -> float:
    """Criterion value on a grid measure."""
    if c.kind == "linear":
        return float(mu.w1 @ mu.row_expectation(c.f))
    ell1, cont = _stage_values(c, mu)
    agg = np.minimum if c.kind == "stop_buyer" else np.maximum
    return float(mu.w1 @ agg(ell1, cont))


def buyer_seller_violation() -> float:
    """How far the buyer's value of the default American put exceeds the
    seller's, beyond 1e-12 of rounding, on Black-Scholes sigma 0.1, 0.5 and 1
    (24 x 24) and Bachelier sigma 1 (16 x 16): 0 if valid, NaN on a NaN."""
    models = [ModelSpec("black_scholes", s, 24, 24) for s in (0.1, 0.5, 1.0)]
    excess = [value(american_put(side="buyer"), mu) - value(american_put(side="seller"), mu)
              for mu in map(build_model, models + [ModelSpec("bachelier", 1.0, 16, 16)])]
    return float(np.max([0.0, *(e - 1e-12 for e in excess)]))


def stopping_rule(c: Criterion, mu: GridMeasure) -> StoppingRule:
    """First-stage rule consistent with the min/max in :func:`value`."""
    if c.kind == "linear":
        raise CriterionError("stopping_rule requires a stopping criterion")
    ell1, cont = _stage_values(c, mu)
    tie = np.abs(ell1 - cont) <= c.tie_tol
    if c.kind == "stop_buyer":
        stop = (ell1 < cont) & ~tie
    else:
        stop = (ell1 > cont) & ~tie
    return StoppingRule(stop, np.nonzero(tie)[0], float(np.sum(mu.w1[tie])))


def gradient_field(c: Criterion, mu: GridMeasure) -> GradientField:
    """Gradient of the first variation on atoms.

    For stopping criteria the first component lives on the stopped rows and
    the second on the continued ones, mirroring which branch of the min/max
    each row's value takes.
    """
    if c.kind == "linear":
        a = np.broadcast_to(mu.x1[:, None], mu.x2.shape)
        return GradientField(np.asarray(c.d1f(a, mu.x2), dtype=float) + np.zeros_like(mu.x2),
                             np.asarray(c.d2f(a, mu.x2), dtype=float) + np.zeros_like(mu.x2))
    rule = stopping_rule(c, mu)
    stop = rule.stop_at_1[:, None]
    g1 = np.where(stop, c.dl1(mu.x1)[:, None], 0.0) + np.zeros_like(mu.x2)
    g2 = np.where(stop, 0.0, c.dl2(mu.x2))
    msg = f"stopping ties carry mass {rule.tie_mass:.3e}; sensitivity may be ill-posed"
    return GradientField(g1, g2, (msg,) if rule.tie_mass > TIE_MASS_WARN else ())


def exercise_mass(c: Criterion, mu: GridMeasure) -> float:
    """Total first-stage mass on which the rule stops at time 1."""
    rule = stopping_rule(c, mu)
    return float(np.sum(mu.w1[rule.stop_at_1]))


def vega(spec: ModelSpec, c: Criterion, h: float | None = None) -> float:
    """Central difference of the value along the volatility parameter."""
    if h is None:
        h = 1e-4 * spec.sigma
    if not (h > 0):
        raise CriterionError("vega step must be positive")
    if spec.sigma - h <= 0:
        raise CriterionError("sigma - h must stay positive")
    up = build_model(ModelSpec(spec.family, spec.sigma + h, spec.n1, spec.n2, spec.quadrature))
    dn = build_model(ModelSpec(spec.family, spec.sigma - h, spec.n1, spec.n2, spec.quadrature))
    return float((value(c, up) - value(c, dn)) / (2 * h))
