import itertools
import math

import numpy as np
import pytest

from wadro import fredholm
from wadro.criterion import GradientField, american_put, gradient_field, preset
from wadro.measure import (GridMeasure, ModelSpec, build_model,
                           canonical_test_measure, quantile_bins)
from wadro.sensitivity import (CONSTRAINT_SETS, CondConstraint, ConstraintSet,
                               MeanConstraint, Metric, PointState, SensitivityError,
                               W2, W2AD, adapted_gradient, marginal_value_closed_form,
                               martingale_psi, n_map, report_tables, report_to_json,
                               solve_foc)

UNC, MART, MARG, BOTH = CONSTRAINT_SETS.values()


def _const_field(mu, a, b):
    return GradientField(np.full_like(mu.x2, a), np.full_like(mu.x2, b))


def _primal_norm(mu, rep):
    p = rep.metric.p
    mw = mu.atom_masses()
    if rep.metric.adapted:
        val = np.sum(mw * (np.abs(rep.T1) ** p + np.abs(rep.T2) ** p))
    else:
        val = np.sum(mw * np.hypot(rep.T1, rep.T2) ** p)
    return val ** (1.0 / p)


def test_n_map_examples():
    assert n_map(-3.0, 2.0) == -3.0
    assert abs(n_map(8.0, 4.0) - 2.0) <= 1e-12
    pair = n_map(np.array([3.0, -4.0]), 2.0)
    assert np.allclose(pair, [3.0, -4.0])
    assert n_map(0.0, 1.5) == 0.0
    with pytest.raises(SensitivityError):
        n_map(1.0, 1.0)


def test_adapted_gradient():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    G = _const_field(mu, 2.0, 5.0)
    Ga = adapted_gradient(mu, G)
    assert np.allclose(Ga.g1, 2.0) and np.allclose(Ga.g2, 5.0)
    G = GradientField(mu.x2.copy(), np.zeros_like(mu.x2))
    Ga = adapted_gradient(mu, G)
    assert np.max(np.abs(Ga.g1 - mu.x1[:, None])) <= 1e-13
    Gp = gradient_field(american_put(side="buyer"),
                        build_model(ModelSpec("black_scholes", 1.0, 16, 16)))
    Gap = adapted_gradient(build_model(ModelSpec("black_scholes", 1.0, 16, 16)), Gp)
    assert np.max(np.abs(Gap.g1 - Gap.g1[:, :1])) == 0.0


@pytest.mark.parametrize("metric", [W2, W2AD])
def test_unconstrained_constant_field(metric):
    mu = canonical_test_measure()
    rep = solve_foc(PointState(mu, _const_field(mu, 1.0, 1.0), metric), UNC)
    assert abs(rep.value - math.sqrt(2.0)) <= 1e-12
    rep0 = solve_foc(PointState(mu, _const_field(mu, 0.0, 0.0), metric), UNC)
    assert rep0.value == 0.0
    assert np.all(rep0.T1 == 0.0) and np.all(rep0.T2 == 0.0)


def test_martingale_closed_forms():
    mu = canonical_test_measure()
    rep = solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), W2AD), MART)
    assert abs(rep.value - 2 ** -0.5) <= 1e-12
    assert np.allclose(rep.h_hat, -0.5, atol=1e-12)
    rep2 = solve_foc(PointState(mu, _const_field(mu, 3.0, 3.0), W2AD), MART)
    assert abs(rep2.value - 3.0 * math.sqrt(2.0)) <= 1e-12
    assert np.allclose(rep2.h_hat, 0.0, atol=1e-12)


def test_martingale_rejects_nonmartingale():
    mu = GridMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                     np.array([[1.0, 2.0], [3.0, 4.0]]), np.full((2, 2), 0.5))
    with pytest.raises(SensitivityError):
        solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), W2AD), MART)


def test_martingale_below_unconstrained_for_put():
    mu = build_model(ModelSpec("bachelier", 1.0, 32, 32))
    G = gradient_field(american_put(side="buyer"), mu)
    state = PointState(mu, G, W2AD)
    assert solve_foc(state, MART).value <= solve_foc(state, UNC).value + 1e-12


def test_marginal_closed_forms():
    mu = canonical_test_measure()
    rep = solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), W2AD), MARG)
    assert abs(rep.value) <= 1e-12
    assert np.allclose(rep.f2, -1.0, atol=1e-12)
    # product measure with the x2 - x1 gradient: constants absorb everything
    x1 = np.linspace(-1.0, 1.0, 4)
    row = np.linspace(-2.0, 2.0, 5)
    prod = GridMeasure(x1, np.full(4, 0.25), np.tile(row, (4, 1)), np.full((4, 5), 0.2))
    rep2 = solve_foc(PointState(prod, _const_field(prod, -1.0, 1.0), W2), MARG)
    assert abs(rep2.value) <= 1e-12


def test_marginal_dual_path_equivalence():
    for metric in (W2, W2AD):
        mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))
        G = gradient_field(american_put(side="buyer"), mu)
        bins = quantile_bins(mu, 32)
        a = solve_foc(PointState(mu, G, metric, bins), MARG).value
        b = marginal_value_closed_form(mu, G, metric, bins)
        assert abs(a - b) <= 1e-10


def test_mart_marginal_trivial_and_ordering():
    mu = canonical_test_measure()
    rep = solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), W2AD), BOTH)
    assert abs(rep.value) <= 1e-12
    assert np.allclose(rep.h_hat, 0.0, atol=1e-12)
    assert np.allclose(rep.f2, -1.0, atol=1e-12)

    bs = build_model(ModelSpec("black_scholes", 0.5, 64, 64))
    G = gradient_field(american_put(side="buyer"), bs)
    bins = quantile_bins(bs, 64)
    state = PointState(bs, G, W2AD, bins)
    both, mart, marg = (solve_foc(state, cs).value for cs in (BOTH, MART, MARG))
    assert both <= min(mart, marg) + 1e-8


def test_mart_marginal_zero_mean_representative():
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    G = gradient_field(american_put(side="buyer"), mu)
    rep = solve_foc(PointState(mu, G, W2AD), BOTH)
    assert abs(float(mu.w1 @ rep.h_hat)) <= 1e-10


def test_general_mean_constraint_absorbs():
    mu = canonical_test_measure()
    phi = MeanConstraint(lambda a, b: a, lambda a, b: np.ones_like(a),
                         lambda a, b: np.zeros_like(b), "mean_x1")
    rep = solve_foc(PointState(mu, _const_field(mu, 1.0, 0.0), W2),
                    ConstraintSet(mean_phi=(phi,)))
    assert abs(rep.lambda_hat[0] + 1.0) <= 1e-12
    assert abs(rep.value) <= 1e-12


def test_general_orthogonal_constraint_is_inert():
    mu = canonical_test_measure()
    phi = MeanConstraint(lambda a, b: a, lambda a, b: np.ones_like(a),
                         lambda a, b: np.zeros_like(b), "mean_x1")
    G = _const_field(mu, 0.0, 1.0)      # (0,1) orthogonal to (1,0)
    state = PointState(mu, G, W2)
    rep = solve_foc(state, ConstraintSet(mean_phi=(phi,)))
    assert abs(rep.lambda_hat[0]) <= 1e-12
    assert abs(rep.value - solve_foc(state, UNC).value) <= 1e-12


def test_general_psi_reproduces_martingale():
    mu = build_model(ModelSpec("black_scholes", 0.5, 24, 24))
    G = gradient_field(american_put(side="buyer"), mu)
    state = PointState(mu, G, W2AD)
    via_psi = solve_foc(state, ConstraintSet(cond_psi=martingale_psi()))
    direct = solve_foc(state, MART)
    assert abs(via_psi.value - direct.value) <= 1e-10
    assert np.max(np.abs(via_psi.h_hat - direct.h_hat)) <= 1e-9


def test_general_redundancy_and_singularity_rejected():
    mu = canonical_test_measure()
    jphi = MeanConstraint(lambda a, b: b - a, lambda a, b: -np.ones_like(a),
                          lambda a, b: np.ones_like(b), "mean_x2_minus_x1")
    with pytest.raises(SensitivityError):
        solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), W2AD),
                  ConstraintSet(mean_phi=(jphi,), cond_psi=martingale_psi()))
    phi = MeanConstraint(lambda a, b: a, lambda a, b: np.ones_like(a),
                         lambda a, b: np.zeros_like(b), "mean_x1")
    with pytest.raises(SensitivityError):
        solve_foc(PointState(mu, _const_field(mu, 1.0, 0.0), W2),
                  ConstraintSet(mean_phi=(phi, phi)))


def test_constraint_set_validation():
    with pytest.raises(SensitivityError):
        ConstraintSet(martingale=True,
                      cond_psi=CondConstraint(lambda a, b: b - 2 * a,
                                              lambda a, b: -2 * np.ones_like(a),
                                              lambda a, b: np.ones_like(b), "bad"))
    # the martingale flag is the conditional constraint x2 - x1, so naming it
    # twice is refused too
    with pytest.raises(SensitivityError):
        ConstraintSet(martingale=True, cond_psi=martingale_psi())
    assert ConstraintSet(cond_psi=martingale_psi()).label() == "psi:x2-x1"


def test_solve_foc_p15_against_golden_section():
    # symmetric two-point conditional law: the optimal h minimizes
    # |h|^{p'} + |1+h|^{p'} atom by atom
    x1 = np.array([-1.0, 1.0])
    mu = GridMeasure(x1, np.array([0.4, 0.6]),
                     np.column_stack([x1 - 0.5, x1 + 0.5]), np.full((2, 2), 0.5),
                     is_martingale=True)
    metric = Metric("wp_adapted", 1.5)
    rep = solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), metric),
                    ConstraintSet(martingale=True))
    pc = metric.p_conj

    def obj(h):
        return abs(h) ** pc + abs(1.0 + h) ** pc

    lo, hi = -1.0, 0.0
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fa, fb = obj(a), obj(b)
    for _ in range(200):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv * (hi - lo)
            fa = obj(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv * (hi - lo)
            fb = obj(b)
    h_star = 0.5 * (lo + hi)
    assert np.max(np.abs(rep.h_hat - h_star)) <= 1e-6
    assert abs(rep.value - (2 * 0.5 * obj(h_star)) ** (1.0 / pc)) <= 1e-8


def test_solve_foc_zero_gradient_short_circuits():
    mu = canonical_test_measure()
    rep = solve_foc(PointState(mu, _const_field(mu, 0.0, 0.0), W2AD),
                    ConstraintSet(martingale=True))
    assert rep.value == 0.0 and rep.iterations == 0 and rep.converged


@pytest.mark.parametrize("family,sigma", [("bachelier", 1.0), ("black_scholes", 0.5)])
def test_report_certificates_and_normalization(family, sigma):
    mu = build_model(ModelSpec(family, sigma, 32, 32))
    G = gradient_field(american_put(side="buyer"), mu)
    bins = quantile_bins(mu, 32)
    state = PointState(mu, G, W2AD, bins)
    reports = [solve_foc(state, cs) for cs in CONSTRAINT_SETS.values()]
    reports.append(solve_foc(PointState(mu, G, Metric("wp_adapted", 1.5)), MART))
    for rep in reports:
        assert rep.value >= 0.0
        assert rep.foc_residual <= 1e-8
        if rep.value > 0:
            assert abs(_primal_norm(mu, rep) - 1.0) <= 1e-10


def test_solve_foc_never_silent_on_hard_exponents():
    # for p > 2 the duality map is non-Lipschitz at zeros of the dual field;
    # the solver must either converge or say so in the report
    mu = build_model(ModelSpec("bachelier", 1.0, 32, 32))
    G = gradient_field(american_put(side="buyer"), mu)
    with np.errstate(all="ignore"):
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            rep = solve_foc(PointState(mu, G, Metric("wp_adapted", 3.0)),
                            ConstraintSet(martingale=True))
    assert rep.foc_residual <= 1e-8 or rep.warnings
    assert rep.foc_residual <= 1e-6


def test_positive_homogeneity():
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    G = gradient_field(american_put(side="buyer"), mu)
    s = 3.5
    Gs = GradientField(s * G.g1, s * G.g2)
    for metric, cs in itertools.product((W2AD, Metric("wp_adapted", 1.5)), (MART, BOTH)):
        rep1 = solve_foc(PointState(mu, G, metric), cs)
        rep2 = solve_foc(PointState(mu, Gs, metric), cs)
        assert abs(rep2.value - s * rep1.value) <= 1e-10 * max(1.0, s)
        assert np.max(np.abs(rep2.h_hat - s * rep1.h_hat)) <= 1e-9


def test_mart_marginal_with_underflowing_atom_masses():
    # w1 * q underflows to 0 on some atoms, as on large Gauss-Hermite grids
    base = build_model(ModelSpec("black_scholes", 0.5, 16, 16))
    w1 = base.w1.copy()
    w1[0] = 1e-315
    w1[1:] /= w1[1:].sum()
    mu = GridMeasure(base.x1, w1, base.x2, base.q, is_martingale=True)
    assert np.any(mu.atom_masses() == 0.0)
    G = gradient_field(american_put(side="buyer"), mu)
    for p in (2.0, 1.5, 1.1, 3.0):
        rep = solve_foc(PointState(mu, G, Metric("wp_adapted", p), quantile_bins(mu, 16)), BOTH)
        assert rep.converged and np.isfinite(rep.value), p


def test_p2_mart_marginal_builds_one_operator(monkeypatch):
    # the warm start's weights 2 mw give mu's own operator bit for bit, so
    # the solve reuses it and its norm instead of building a second one
    calls = {"operator": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fredholm, "FredholmOperator",
                        counted("operator", fredholm.FredholmOperator))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))
    rep = solve_foc(PointState(mu, gradient_field(american_put(side="buyer"), mu), W2AD,
                               quantile_bins(mu, 32)), BOTH)
    assert rep.converged and rep.iterations == 0
    assert calls == {"operator": 1, "eigvalsh": 1}


def test_point_state_refuses_another_measures_binning():
    mu, other = canonical_test_measure(), canonical_test_measure()
    with pytest.raises(SensitivityError, match="another measure"):
        PointState(mu, _const_field(mu, 0.0, 1.0), W2AD, quantile_bins(other, 5))


def test_adapted_below_classical_at_p2():
    mu = build_model(ModelSpec("black_scholes", 1.0, 32, 32))
    G = gradient_field(american_put(side="buyer"), mu)
    adapted, classical = (solve_foc(PointState(mu, G, m), UNC).value for m in (W2AD, W2))
    assert adapted <= classical + 1e-10


def test_report_serialization():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    G = gradient_field(american_put(side="buyer"), mu)
    rep = solve_foc(PointState(mu, G, W2AD), BOTH)
    blob = report_to_json(rep)
    assert blob["value"] == rep.value
    assert blob["converged"] is True
    assert blob["metric"]["ball"] == "wp_adapted"
    assert len(blob["h_hat"]) == mu.n1
    rows1, rows2 = report_tables(rep, mu)
    assert len(rows1) == mu.n1
    assert len(rows2) == rep.bins.m


def test_metric_validation():
    with pytest.raises(SensitivityError):
        Metric("wp", 1.0)
    with pytest.raises(SensitivityError):
        Metric("l2", 2.0)
    m = Metric("wp", 3.0)
    assert abs(m.p_conj * (m.p - 1.0) - m.p) <= 1e-12


def test_unconstrained_adapted_vs_pushforward_slope():
    # the optimal direction is adapted, so mu displaced along it stays a
    # valid lower-bound family: its difference quotient approaches the value
    mu = build_model(ModelSpec("black_scholes", 0.1, 64, 64))
    G = gradient_field(american_put(side="buyer"), mu)
    rep = solve_foc(PointState(mu, G, W2AD), UNC)
    c = american_put(side="buyer")
    from wadro.criterion import value as crit_value

    def quotient(r):
        nu = mu.displaced(rep.T1[:, 0], rep.T2, r)
        return (crit_value(c, nu) - crit_value(c, mu)) / r

    r1, r2 = 1e-3, 5e-4
    slope = (r1 * quotient(r2) - r2 * quotient(r1)) / (r1 - r2)
    assert abs(slope - rep.value) <= 0.05 * rep.value


def test_monotone_chain_general_p():
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    G = gradient_field(american_put(side="buyer"), mu)
    bins = quantile_bins(mu, 16)
    for ball in ("wp_adapted", "wp"):
        for p in (1.5, 3.0):
            m = Metric(ball, p)
            state = PointState(mu, G, m, bins)
            reps = [solve_foc(state, cs) for cs in CONSTRAINT_SETS.values()]
            assert all(r.converged and r.foc_residual <= 1e-8 for r in reps), (ball, p)
            unc, mart, marg, both = (r.value for r in reps)
            assert both <= min(mart, marg) + 1e-8
            assert min(mart, marg) <= unc + 1e-8


def _random_martingale(rng, n):
    x1 = np.sort(1.0 + rng.uniform(-0.5, 0.5, n))
    q = rng.dirichlet(np.full(n, 4.0), size=n)
    off = np.sort(rng.uniform(-0.6, 0.6, (n, n)), axis=1)
    off -= np.sum(q * off, axis=1, keepdims=True)
    return GridMeasure(x1, rng.dirichlet(np.full(n, 4.0)), x1[:, None] + off, q,
                       is_martingale=True)


def test_value_is_an_infimum_over_multipliers():
    # every multiplier choice u bounds the value: G <= Phi(u)^(1/p')
    rng = np.random.default_rng(7)
    for _ in range(4):
        mu = _random_martingale(rng, 6)
        G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
        bins = quantile_bins(mu, 6)
        bidx = bins.index
        mw = mu.atom_masses()
        for metric in (Metric("wp_adapted", 1.5), W2AD, Metric("wp_adapted", 3.0),
                       Metric("wp", 1.5), Metric("wp", 3.0)):
            pc = metric.p_conj
            S1 = adapted_gradient(mu, G).g1 if metric.adapted else G.g1
            for cs in (ConstraintSet(martingale=True),
                       ConstraintSet(marginal1=True, marginal2=True),
                       ConstraintSet(martingale=True, marginal1=True, marginal2=True)):
                rep = solve_foc(PointState(mu, G, metric, bins), cs)
                assert rep.converged, (metric, cs.label())
                for _ in range(5):
                    f1 = rng.normal(size=mu.n1) * cs.marginal1
                    f2 = rng.normal(size=bins.m) * cs.marginal2
                    h = rng.normal(size=mu.n1) * cs.martingale
                    R1 = S1 + f1[:, None] - h[:, None]
                    R2 = G.g2 + f2[bidx] + h[:, None]
                    if metric.adapted:
                        phi = np.sum(mw * (np.abs(R1) ** pc + np.abs(R2) ** pc))
                    else:
                        phi = np.sum(mw * np.hypot(R1, R2) ** pc)
                    assert rep.value <= phi ** (1.0 / pc) + 1e-12


def test_fredholm_value_against_direct_minimization():
    # independent oracle: minimize the squared dual norm over (f1, f2, h)
    # with a generic optimizer; the closed form must match and never exceed it
    scipy_opt = pytest.importorskip("scipy.optimize")
    from wadro.measure import cond_exp_1

    mu = build_model(ModelSpec("black_scholes", 0.7, 10, 10))
    G = gradient_field(american_put(side="buyer"), mu)
    bins = quantile_bins(mu, 10)
    rep = solve_foc(PointState(mu, G, W2AD, bins), BOTH)
    mw = mu.atom_masses()
    bidx = bins.assign(mu.x2.ravel()).reshape(mu.x2.shape)
    g1d = cond_exp_1(mu, G.g1)[:, None]
    n1, m = mu.n1, bins.m

    def objective(v):
        f1, f2, h = v[:n1], v[n1:n1 + m], v[n1 + m:]
        S1 = g1d + f1[:, None] - h[:, None]
        S2 = G.g2 + f2[bidx] + h[:, None]
        return float(np.sum(mw * (S1 ** 2 + S2 ** 2)))

    res = scipy_opt.minimize(objective, np.zeros(2 * n1 + m), method="L-BFGS-B",
                             options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-14})
    direct = math.sqrt(res.fun)
    assert rep.value <= direct + 1e-12
    assert abs(direct - rep.value) <= 1e-6


def test_bordered_system_against_direct_minimization():
    scipy_opt = pytest.importorskip("scipy.optimize")
    from wadro.measure import cond_exp_1

    mu = build_model(ModelSpec("black_scholes", 0.7, 10, 10))
    G = gradient_field(american_put(side="buyer"), mu)
    phi = MeanConstraint(lambda a, b: b * b, lambda a, b: np.zeros_like(a),
                         lambda a, b: 2 * b, "second_moment")
    mw = mu.atom_masses()
    g1d = cond_exp_1(mu, G.g1)[:, None]
    p2 = 2 * mu.x2
    for metric in (W2AD, Metric("wp_adapted", 1.5)):
        rep = solve_foc(PointState(mu, G, metric),
                        ConstraintSet(mean_phi=(phi,), cond_psi=martingale_psi()))
        assert rep.converged
        pc = metric.p_conj

        def objective(v):
            lam, h = v[0], v[1:]
            S1 = g1d - h[:, None]
            S2 = G.g2 + lam * p2 + h[:, None]
            return float(np.sum(mw * (np.abs(S1) ** pc + np.abs(S2) ** pc)))

        res = scipy_opt.minimize(objective, np.zeros(1 + mu.n1), method="L-BFGS-B",
                                 options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-14})
        direct = res.fun ** (1.0 / pc)
        assert rep.value <= direct + 1e-12
        assert abs(direct - rep.value) <= 1e-6
        assert abs(res.x[0] - rep.lambda_hat[0]) <= 1e-4
