import math
from statistics import NormalDist

import numpy as np
import pytest

from wadro.criterion import (Criterion, CriterionError, american_put,
                             exercise_mass, gradient_field, linear_criterion,
                             preset, stopping_rule, value, vega)
from wadro.measure import GridMeasure, ModelSpec, build_model, cond_exp_1, quantile_bins
from wadro.oracle import feasible_family_mart_marginal
from wadro.sensitivity import CONSTRAINT_SETS, W2AD, PointState, solve_foc


def test_linear_value_is_mean_for_martingales():
    mu = build_model(ModelSpec("black_scholes", 0.4, 24, 24))
    c = preset("linear:x2")
    assert abs(value(c, mu) - float(mu.w1 @ mu.x1)) <= 1e-12


def test_zero_intrinsic_stops_at_zero_value():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    zero = Criterion(kind="stop_buyer", name="zero",
                     l1=lambda x: np.zeros_like(x), dl1=lambda x: np.zeros_like(x),
                     l2=lambda x: np.zeros_like(x), dl2=lambda x: np.zeros_like(x))
    assert value(zero, mu) == 0.0


def _lognormal_put(s, strike, sigma):
    nd = NormalDist()
    d1 = (math.log(s / strike) + 0.5 * sigma ** 2) / sigma
    d2 = d1 - sigma
    return strike * nd.cdf(-d2) - s * nd.cdf(-d1)


def test_put_value_against_monte_carlo():
    # oracle: draw X1, price the continuation with the exact lognormal put
    sigma, K, rho = 0.1, 1.3, 0.05
    mu = build_model(ModelSpec("black_scholes", sigma, 64, 64))
    c = american_put(K=K, rho=rho, side="buyer")
    grid_value = value(c, mu)
    rng = np.random.default_rng(20240817)
    z = rng.standard_normal(1_000_000)
    x1 = np.exp(-0.5 * sigma ** 2 + sigma * z)
    ell1 = np.maximum(K * math.exp(-rho) - x1, 0.0)
    strike2 = K * math.exp(-2 * rho)
    cont = np.array([_lognormal_put(s, strike2, sigma) for s in
                     np.exp(-0.5 * sigma ** 2 + sigma * np.linspace(-5, 5, 2001))])
    cont_interp = np.interp(x1, np.exp(-0.5 * sigma ** 2 + sigma * np.linspace(-5, 5, 2001)), cont)
    samples = np.minimum(ell1, cont_interp)
    mc = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(grid_value - mc) <= 3.0 * se + 1e-6


def test_stopping_rule_matches_value_branches():
    mu = build_model(ModelSpec("black_scholes", 1.0, 32, 32))
    for side in ("buyer", "seller"):
        c = american_put(side=side)
        rule = stopping_rule(c, mu)
        ell1 = c.l1(mu.x1)
        cont = cond_exp_1(mu, c.l2(mu.x2))
        branch = np.where(rule.stop_at_1, ell1, cont)
        assert abs(float(mu.w1 @ branch) - value(c, mu)) <= 1e-12


def _random_grid_measure(rng, n1, n2):
    """Rows around the put's strikes, so both stopping branches are taken."""
    x1 = 0.6 + np.cumsum(rng.uniform(0.2, 1.0, n1)) * (1.4 / n1)
    x2 = (x1[:, None] - 0.5 + np.cumsum(rng.uniform(0.1, 1.0, (n1, n2)), axis=1) / n2)
    return GridMeasure(x1, rng.dirichlet(np.ones(n1)), x2,
                       rng.dirichlet(np.ones(n2), size=n1))


def _rows(mu):
    return [(mu.x1[i], mu.w1[i], mu.x2[i], mu.q[i]) for i in range(mu.n1)]


def _loop_stage_values(c, rows):
    """(l1 on x1 atoms, E1[l2] per row), one row at a time."""
    ell1 = c.l1(np.asarray([a for a, _, _, _ in rows]))
    cont = np.array([np.sum(q * c.l2(z)) for _, _, z, q in rows])
    return ell1, cont


def _loop_value(c, rows):
    if c.kind == "linear":
        acc = 0.0
        for a, w, z, q in rows:
            acc += w * np.sum(q * c.f(np.full_like(z, a), z))
        return float(acc)
    ell1, cont = _loop_stage_values(c, rows)
    agg = np.minimum if c.kind == "stop_buyer" else np.maximum
    return float(np.asarray([w for _, w, _, _ in rows]) @ agg(ell1, cont))


@pytest.mark.parametrize("n1, n2", [(1, 3), (5, 7), (33, 17), (40, 300), (128, 128)])
def test_put_value_and_rule_match_row_loop(n1, n2):
    mu = _random_grid_measure(np.random.default_rng(n1 * n2), n1, n2)
    for side in ("buyer", "seller"):
        c = american_put(side=side)
        assert value(c, mu) == _loop_value(c, _rows(mu))
        ell1, cont = _loop_stage_values(c, _rows(mu))
        tie = np.abs(ell1 - cont) <= c.tie_tol
        stop = ((ell1 < cont) if side == "buyer" else (ell1 > cont)) & ~tie
        rule = stopping_rule(c, mu)
        assert np.array_equal(rule.stop_at_1, stop)
        assert np.array_equal(rule.tie_at, np.nonzero(tie)[0])


@pytest.mark.parametrize("name", ["linear:x1", "linear:x2-x1", "linear:x2^2"])
def test_linear_value_matches_row_loop(name):
    # the rows are weighted by one dot product instead of a running sum, so
    # the two agree to the rounding bound of summing n1 terms
    mu = _random_grid_measure(np.random.default_rng(5), 128, 128)
    c = preset(name)
    a = np.broadcast_to(mu.x1[:, None], mu.x2.shape)
    terms = mu.w1 * np.sum(mu.q * c.f(a, mu.x2), axis=1)
    tol = 2 * mu.n1 * np.finfo(float).eps * float(np.sum(np.abs(terms)))
    assert abs(value(c, mu) - _loop_value(c, _rows(mu))) <= tol


def test_ragged_value_matches_row_loop():
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16))
    put = american_put(side="buyer")
    bins = quantile_bins(mu, 8)
    state = PointState(mu, gradient_field(put, mu), W2AD, bins)
    direction = solve_foc(state, CONSTRAINT_SETS["mart_marginal"]).T2
    nu = feasible_family_mart_marginal(mu, direction, r_list=(1e-2,), bins=bins).measures[0]
    rows = [(a, w, z, q) for a, w, (z, q) in zip(nu.x1, nu.w1, nu.rows)]
    assert any(z.size != mu.n2 for _, _, z, _ in rows)
    for c in (put, american_put(side="seller"), preset("linear:x2"), preset("linear:x2^2")):
        assert abs(value(c, nu) - _loop_value(c, rows)) <= 1e-15


def test_stopping_rule_never_stops_for_huge_intrinsic():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    c = Criterion(kind="stop_buyer", name="huge",
                  l1=lambda x: np.full_like(np.asarray(x, float), 1e9),
                  dl1=lambda x: np.zeros_like(np.asarray(x, float)),
                  l2=lambda x: np.abs(x), dl2=lambda x: np.sign(x), kinks2=(0.0,))
    rule = stopping_rule(c, mu)
    assert not rule.stop_at_1.any()


def test_exercise_region_active_at_high_vol():
    mu = build_model(ModelSpec("black_scholes", 1.0, 64, 64))
    assert exercise_mass(american_put(side="buyer"), mu) > 0.1


def test_ties_resolved_to_continue_with_warning():
    mu = build_model(ModelSpec("bachelier", 1.0, 6, 6))
    c = Criterion(kind="stop_buyer", name="tied",
                  l1=lambda x: np.full_like(np.asarray(x, float), 2.0),
                  dl1=lambda x: np.zeros_like(np.asarray(x, float)),
                  l2=lambda x: np.full_like(np.asarray(x, float), 2.0),
                  dl2=lambda x: np.zeros_like(np.asarray(x, float)))
    with pytest.warns(RuntimeWarning):
        rule = stopping_rule(c, mu)
    assert not rule.stop_at_1.any()
    assert rule.tie_at.size == mu.n1


def test_gradient_field_linear_sum():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    G = gradient_field(preset("linear:x1+x2"), mu)
    assert np.all(G.g1 == 1.0) and np.all(G.g2 == 1.0)


def test_gradient_field_flat_region_is_zero():
    mu = build_model(ModelSpec("black_scholes", 1.0, 32, 32))
    c = american_put(side="buyer")
    G = gradient_field(c, mu)
    strike1 = 1.3 * math.exp(-0.05)
    strike2 = 1.3 * math.exp(-0.1)
    flat = (mu.x1[:, None] > strike1) & (mu.x2 > strike2)
    assert np.all(G.g1[flat] == 0.0)
    assert np.all(G.g2[flat] == 0.0)


def test_gradient_stage1_measurable():
    mu = build_model(ModelSpec("black_scholes", 1.0, 16, 16))
    G = gradient_field(american_put(side="buyer"), mu)
    assert np.max(np.abs(G.g1 - G.g1[:, :1])) == 0.0


def _bump(x, lo, hi):
    t = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return np.sin(np.pi * t) ** 2


@pytest.mark.parametrize("name,sigma,family", [
    ("linear:x2^2", 0.8, "bachelier"),
    ("american_put:side=buyer", 0.1, "black_scholes"),
    ("american_put:side=seller", 1.0, "black_scholes"),
])
def test_gateaux_derivative_matches_gradient(name, sigma, family):
    # Richardson-extrapolated difference quotient along a smooth displacement
    mu = build_model(ModelSpec(family, sigma, 64, 64))
    c = preset(name)
    G = gradient_field(c, mu)
    theta2 = _bump(mu.x2, np.quantile(mu.x2, 0.1), np.quantile(mu.x2, 0.9))
    predicted = float(np.sum(mu.atom_masses() * G.g2 * theta2))

    def quotient(r):
        return (value(c, mu.displaced(0.0, theta2, r)) - value(c, mu)) / r

    r1, r2 = 1e-3, 1e-4
    est = (r1 * quotient(r2) - r2 * quotient(r1)) / (r1 - r2)
    scale = max(abs(predicted), 1e-3)
    assert abs(est - predicted) <= 1e-3 * scale + 1e-4


def test_vega_linear_payoffs():
    spec = ModelSpec("bachelier", 1.0, 32, 32)
    assert abs(vega(spec, preset("linear:x2"))) <= 1e-12
    assert abs(vega(spec, preset("linear:x2^2")) - 4.0) <= 1e-6


def test_vega_put_positive_and_guard():
    spec = ModelSpec("black_scholes", 0.5, 32, 32)
    c = american_put(side="buyer")
    assert vega(spec, c) > 0.0
    with pytest.raises(CriterionError):
        vega(spec, c, h=0.5)


def test_buyer_below_seller():
    for sigma in (0.1, 0.5, 1.0):
        mu = build_model(ModelSpec("black_scholes", sigma, 24, 24))
        assert value(american_put(side="buyer"), mu) <= value(
            american_put(side="seller"), mu) + 1e-12


def test_seller_value_monotone_in_payoff():
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    base = american_put(side="seller")
    lifted = Criterion(kind="stop_seller", name="lifted",
                       l1=base.l1, dl1=base.dl1,
                       l2=lambda x: base.l2(x) + 0.1,
                       dl2=base.dl2, kinks1=base.kinks1, kinks2=base.kinks2)
    assert value(lifted, mu) >= value(base, mu)


def test_derivative_self_check_rejects_lies():
    with pytest.raises(CriterionError):
        linear_criterion(lambda a, b: a * b,
                         lambda a, b: np.zeros_like(a),    # wrong partial
                         lambda a, b: a)


def test_preset_parsing():
    c = preset("american_put:K=1.1,rho=0.02,side=seller")
    assert c.kind == "stop_seller"
    assert abs(c.l1(np.array([0.0]))[0] - 1.1 * math.exp(-0.02)) <= 1e-12
    with pytest.raises(CriterionError):
        preset("linear:cosh")
    with pytest.raises(CriterionError):
        preset("butterfly")


def test_kink_rule_variants():
    strike1 = 1.3 * math.exp(-0.05)
    zero = american_put(side="buyer", kink_rule="zero_at_kink")
    left = american_put(side="buyer", kink_rule="left_derivative")
    at = np.array([strike1])
    assert zero.dl1(at)[0] == 0.0
    assert left.dl1(at)[0] == -1.0
    with pytest.raises(CriterionError):
        american_put(kink_rule="midpoint")
