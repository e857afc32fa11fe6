import numpy as np
import pytest

from lattice import pinned
from wadro.criterion import american_put, gradient_field, preset, value
from wadro.measure import (GridMeasure, ModelSpec, build_model,
                           canonical_test_measure, quantile_bins)
from wadro.oracle import (DiscreteBallProblem, OracleError, bicausal_distance,
                          classical_distance, default_target_support, dro_lp,
                          family_slope, feasible_family_general,
                          feasible_family_mart_marginal, oracle_report,
                          slope_estimate, taper_boundary)
from wadro.sensitivity import (CONSTRAINT_SETS, ConstraintSet, MeanConstraint, PointState,
                               W2, W2AD, solve_foc)
from wadro import oracle
from wadro.simplex import InaccurateError, InfeasibleError, LPResult, solve_lp


def _obj_y2(y1, y2):
    return y2


def test_dro_lp_zero_radius_recovers_value():
    mu = canonical_test_measure()
    tgt = default_target_support(mu, [0.1])
    v, _ = dro_lp(DiscreteBallProblem(mu, tgt, 0.0, 2.0, objective=_obj_y2))
    assert abs(v - value(preset("linear:x2"), mu)) <= 1e-10


def test_dro_lp_rejects_budget_overspend(monkeypatch):
    # the solver's own check bounds the budget row to 1e-9 of the largest of
    # the budget and its costs; dro_lp bounds it to 1e-9 of the budget
    mu = canonical_test_measure()
    prob = DiscreteBallProblem(mu, default_target_support(mu, [0.1]), 0.1, 2.0,
                               objective=_obj_y2)
    v, info = dro_lp(prob)
    assert info["cost_used"] <= info["budget"] * (1.0 + 1e-9)
    assert info["cost_used"] >= info["budget"] * (1.0 - 1e-9)     # the budget binds

    def overspend(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        return LPResult(x=res.x * (1.0 + 1e-7), fun=res.fun, pivots=res.pivots)

    monkeypatch.setattr(oracle, "solve_lp", overspend)
    with pytest.raises(InaccurateError, match="transport budget"):
        dro_lp(prob)


def test_dro_lp_kantorovich_bound_p1():
    mu = canonical_test_measure()
    r = 0.15
    tgt = default_target_support(mu, [r])
    v, _ = dro_lp(DiscreteBallProblem(mu, tgt, r, 1.0, objective=_obj_y2))
    base = value(preset("linear:x2"), mu)
    assert v <= base + r + 1e-9        # objective is 1-Lipschitz in y


def test_dro_lp_monotone_in_radius_shared_support():
    x1 = np.array([0.9, 1.0, 1.1])
    off = np.array([-0.1, 0.0, 0.1])
    mu = GridMeasure(x1, np.array([0.25, 0.5, 0.25]),
                     x1[:, None] + off[None, :],
                     np.tile([0.25, 0.5, 0.25], (3, 1)), is_martingale=True)
    radii = [0.02, 0.05, 0.1]
    tgt = default_target_support(mu, radii)
    vals = []
    for r in radii:
        v, _ = dro_lp(DiscreteBallProblem(mu, tgt, r, 2.0, martingale=True,
                                          objective=_obj_y2))
        vals.append(v)
    assert np.all(np.diff(vals) >= -1e-10)


def test_dro_lp_martingale_slope_matches_closed_form():
    # spec example: 3x3 measure, objective y2, slope vs the martingale closed form
    x1 = np.array([0.9, 1.0, 1.1])
    off = np.array([-0.1, 0.0, 0.1])
    mu = GridMeasure(x1, np.array([0.25, 0.5, 0.25]),
                     x1[:, None] + off[None, :],
                     np.tile([0.25, 0.5, 0.25], (3, 1)), is_martingale=True)
    G = gradient_field(preset("linear:x2"), mu)
    closed = solve_foc(PointState(mu, G, W2), CONSTRAINT_SETS["martingale"]).value
    radii = [0.05, 0.1, 0.2]
    vals = []
    for r in radii:
        tgt = default_target_support(mu, [r])
        v, _ = dro_lp(DiscreteBallProblem(mu, tgt, r, 2.0, martingale=True,
                                          objective=_obj_y2))
        vals.append(v)
    base = value(preset("linear:x2"), mu)
    slope, _ = slope_estimate([0.0] + radii, [base] + vals)
    assert abs(slope - closed) <= 0.05 * closed


def test_dro_lp_marginal_support_mismatch():
    mu = canonical_test_measure()
    bad = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel() + 0.003])
    with pytest.raises(OracleError):
        dro_lp(DiscreteBallProblem(mu, bad, 0.1, 2.0, marginal2=True,
                                   objective=_obj_y2))


def test_dro_lp_rejects_measure_off_its_constraint():
    # the displacement form takes mu's own martingale residual as 0, so mu
    # must keep the constraint the LP keeps
    mu = canonical_test_measure()
    off = GridMeasure(mu.x1, mu.w1, mu.x2 + 1e-6, mu.q)
    tgt = default_target_support(off, [0.1])
    dro_lp(DiscreteBallProblem(mu, default_target_support(mu, [0.1]), 0.1,
                               2.0, martingale=True, objective=_obj_y2))
    with pytest.raises(OracleError, match="not a martingale"):
        dro_lp(DiscreteBallProblem(off, tgt, 0.1, 2.0, martingale=True, objective=_obj_y2))


def test_dro_lp_infeasible_when_budget_too_small():
    mu = canonical_test_measure()
    atoms = {(a, z) for a, row in zip(mu.x1, mu.x2) for z in row}
    tgt = default_target_support(mu, [0.1])
    tgt = tgt[[tuple(t) not in atoms for t in tgt]]            # drop the atoms
    assert tgt.shape[0] == default_target_support(mu, [0.1]).shape[0] - mu.n1 * mu.n2
    with pytest.raises(InfeasibleError):
        dro_lp(DiscreteBallProblem(mu, tgt, 1e-4, 2.0, objective=_obj_y2))


def test_slope_estimate_exact_fits():
    r = np.array([0.0, 0.05, 0.1, 0.2])
    s, resid = slope_estimate(r, 2.0 + 3.0 * r)
    assert abs(s - 3.0) <= 1e-12 and resid <= 1e-12
    s, _ = slope_estimate(r, 1.0 + 0.5 * r - 2.0 * r ** 2)
    assert abs(s - 0.5) <= 1e-10
    with pytest.raises(OracleError):
        slope_estimate([0.0, 0.1], [1.0, 1.1])
    with pytest.raises(OracleError):
        slope_estimate([0.1, 0.1, 0.1], [1.0, 1.0, 1.0])


def test_bicausal_zero_and_translation():
    mu = build_model(ModelSpec("bachelier", 1.0, 5, 5))
    assert bicausal_distance(mu, mu, 2.0) <= 1e-9
    delta = 0.23
    nu = GridMeasure(mu.x1 + delta, mu.w1, mu.x2 + delta, mu.q)
    for p in (1.5, 2.0, 3.0):
        d = bicausal_distance(mu, nu, p)
        assert abs(d - 2.0 ** (1.0 / p) * delta) <= 1e-8


def test_bicausal_displacement_bound():
    mu = build_model(ModelSpec("bachelier", 1.0, 5, 6))
    theta2 = np.cos(mu.x2)
    r = 0.05
    nu = mu.displaced(0.0, theta2, r)
    d = bicausal_distance(mu, nu, 2.0)
    norm = float(np.sqrt(np.sum(mu.atom_masses() * theta2 ** 2)))
    assert d <= r * norm + 1e-9


def test_bicausal_dominates_classical():
    mu = build_model(ModelSpec("bachelier", 1.0, 4, 5))
    nu = build_model(ModelSpec("bachelier", 1.2, 4, 5))
    assert bicausal_distance(mu, nu, 2.0) >= classical_distance(mu, nu, 2.0) - 1e-9


def test_bicausal_triangle_inequality():
    rng = np.random.default_rng(42)
    for _ in range(4):
        ms = []
        for _k in range(3):
            x1 = np.sort(rng.uniform(-1, 1, 3))
            while np.min(np.diff(x1)) < 0.05:
                x1 = np.sort(rng.uniform(-1, 1, 3))
            w1 = rng.dirichlet(np.ones(3) * 5)
            x2 = np.sort(rng.uniform(-2, 2, (3, 4)), axis=1)
            x2 += np.arange(4) * 1e-3   # enforce strict increase
            q = rng.dirichlet(np.ones(4) * 5, size=3)
            ms.append(GridMeasure(x1, w1, x2, q))
        a, b, c = ms
        dab = bicausal_distance(a, b, 2.0)
        dbc = bicausal_distance(b, c, 2.0)
        dac = bicausal_distance(a, c, 2.0)
        assert dac <= dab + dbc + 1e-9


def test_target_support_snaps_rounding_misses_onto_atoms():
    # on the canned grid 0.8 + 0.1 misses the atom 0.9 by 1e-16; such a
    # shift is that atom.  Two shifts that miss each other so, as
    # (0.8, 0.6000000000000001) + (0.1, 0) and (0.9, 0.7) + (0, -0.1) do, are
    # one target.  The supports are then those of a lattice whose sums are
    # exact (steps of 1/8 instead of 1/10)
    mu = canonical_test_measure()
    steps = np.arange(-2.0, 3.0)
    x1 = 1.0 + 0.125 * steps
    exact = GridMeasure(x1, mu.w1, x1[:, None] + 0.125 * steps[None, :], mu.q,
                        is_martingale=True)
    atoms = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel()])
    for flags in ({}, {"martingale": True}, {"marginal1": True}, {"marginal2": True}):
        for r in (0.1, 0.2):
            tgt = default_target_support(mu, [r], **pinned(flags))
            gap = np.max(np.abs(tgt[:, None, :] - atoms[None, :, :]), axis=2).min(axis=1)
            assert np.all((gap == 0.0) | (gap > 1e-9)), (flags, r)
            apart = np.max(np.abs(tgt[:, None, :] - tgt[None, :, :]), axis=2)
            assert np.all(apart[np.triu_indices(len(tgt), 1)] > 1e-9), (flags, r)
            assert tgt.shape == default_target_support(exact, [1.25 * r], **pinned(flags)).shape
    assert [len(default_target_support(mu, [r])) for r in (0.1, 0.2)] == [145, 165]


def test_oracle_report_sandwich():
    mu = canonical_test_measure()
    G = gradient_field(preset("linear:x2"), mu)
    state = PointState(mu, G, W2)
    reports = {label: solve_foc(state, ConstraintSet(**flags))
               for label, flags in oracle.FLAG_TABLE.items()}
    rep = oracle_report(mu, _obj_y2, [0.02, 0.05, 0.1, 0.2], reports)
    assert rep["pass"]
    for res in rep["constraint_sets"].values():
        assert res["monotone"]
    with pytest.raises(OracleError):
        oracle_report(mu, _obj_y2, [0.0], reports)


def _mean_x2_constraint():
    return MeanConstraint(lambda a, b: b, lambda a, b: np.zeros_like(a),
                          lambda a, b: np.ones_like(b), "mean_x2")


def test_feasible_family_general_zero_direction():
    mu = build_model(ModelSpec("bachelier", 1.0, 12, 12))
    fam = feasible_family_general(mu, (np.zeros(12), np.zeros_like(mu.x2)),
                                  phi=[_mean_x2_constraint()], r_list=(1e-2,))
    assert len(fam.measures) == 1
    assert abs(fam.multipliers[0]["lambda"][0]) <= 1e-12
    assert np.max(np.abs(fam.measures[0].x2 - mu.x2)) <= 1e-12


def test_feasible_family_general_constraint_residuals():
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    theta2 = taper_boundary(np.exp(-0.5 * mu.x2 ** 2))     # e2-bump
    fam = feasible_family_general(mu, (np.zeros(16), theta2),
                                  phi=[_mean_x2_constraint()],
                                  r_list=(1e-2, 1e-3))
    assert len(fam.measures) == 2
    for res, nu in zip(fam.residuals, fam.measures):
        assert res["constraint"] <= 1e-10
        gap = abs(float(np.sum(nu.atom_masses() * nu.x2))
                  - float(np.sum(mu.atom_masses() * mu.x2)))
        assert gap <= 1e-10


def test_feasible_family_general_neutral_direction_is_second_order():
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    bump = taper_boundary(np.exp(-0.5 * mu.x2 ** 2))
    bump -= float(np.sum(mu.atom_masses() * bump)) * np.ones_like(bump) \
        * (bump > -np.inf)                                  # recenter crudely
    bump = taper_boundary(bump)
    # orthogonalize against the constraint gradient exactly
    g = np.ones_like(mu.x2)
    inner = float(np.sum(mu.atom_masses() * bump * g))
    sq = float(np.sum(mu.atom_masses() * taper_boundary(g) ** 2))
    theta2 = taper_boundary(bump - inner / sq * taper_boundary(g))
    check = float(np.sum(mu.atom_masses() * theta2))
    assert abs(check) <= 1e-12
    fam = feasible_family_general(mu, (np.zeros(16), theta2),
                                  phi=[_mean_x2_constraint()],
                                  r_list=(1e-2, 1e-3))
    lam_big = abs(fam.multipliers[0]["lambda"][0])
    lam_small = abs(fam.multipliers[1]["lambda"][0])
    assert lam_big <= 5.0 * 1e-2 ** 2 + 1e-12               # O(r^2)
    assert lam_small <= 5.0 * 1e-3 ** 2 + 1e-12


def test_feasible_family_general_requires_interior_support():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    with pytest.raises(OracleError):
        feasible_family_general(mu, (np.zeros(8), np.ones_like(mu.x2)),
                                phi=[_mean_x2_constraint()])


def test_mart_marginal_family_zero_direction():
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16, "equally_weighted"))
    fam = feasible_family_mart_marginal(mu, np.zeros_like(mu.x2), r_list=(1e-3,))
    nu = fam.measures[0]
    assert np.max(np.abs(fam.multipliers[0]["a"])) <= 1e-12
    put = american_put(side="buyer")
    assert abs(value(put, nu) - value(put, mu)) <= 1e-12
    assert fam.residuals[0]["martingale"] <= 1e-12


def test_mart_marginal_family_optimal_direction():
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32, "equally_weighted"))
    put = american_put(side="buyer")
    G = gradient_field(put, mu)
    bins = quantile_bins(mu, 32)
    rep = solve_foc(PointState(mu, G, W2AD, bins), CONSTRAINT_SETS["mart_marginal"])
    fam = feasible_family_mart_marginal(mu, rep.T2, r_list=(1e-3, 5e-4), bins=bins)
    assert len(fam.measures) == 2
    for res, mult, r in zip(fam.residuals, fam.multipliers, fam.r_list):
        assert res["martingale"] <= 1e-8
        assert res["marginal2"] <= 1e-8
        # T2 satisfies the FOC, so the first-stage shift is o(r)
        assert mult["a_norm"] <= 0.1 * r
    slope = family_slope(put, mu, fam)
    assert abs(slope - rep.value) <= 0.02 * rep.value
    # adapted distance to the displaced measure stays O(r)
    for r, nu in zip(fam.r_list, fam.measures):
        d = bicausal_distance(mu.displaced(0.0, rep.T2, r), nu, 2.0)
        assert d <= 5.0 * r


def test_mart_marginal_family_generic_direction_linear_shift():
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16, "equally_weighted"))
    theta2 = np.sin(mu.x2)
    fam = feasible_family_mart_marginal(mu, theta2, r_list=(1e-2, 1e-3))
    assert len(fam.measures) == 2
    ratios = [m["a_norm"] / r for m, r in zip(fam.multipliers, fam.r_list)]
    assert all(rt <= 2.0 for rt in ratios)                  # ||a_r|| <= C r


def test_mart_marginal_family_flags_sign_copy():
    from wadro.measure import sign_copy_measure
    mu = sign_copy_measure(32)
    theta2 = taper_boundary(np.sin(mu.x2))
    with pytest.warns(RuntimeWarning):
        fam = feasible_family_mart_marginal(mu, theta2, r_list=(1e-3,))
    assert any("contraction" in w for w in fam.warnings)


def test_dro_lp_concave_in_budget():
    # LP optimum is concave in the right-hand side, hence in b = r^p
    x1 = np.array([0.9, 1.0, 1.1])
    off = np.array([-0.1, 0.0, 0.1])
    mu = GridMeasure(x1, np.array([0.25, 0.5, 0.25]),
                     x1[:, None] + off[None, :],
                     np.tile([0.25, 0.5, 0.25], (3, 1)), is_martingale=True)
    radii = [0.02, 0.05, 0.08, 0.11]
    tgt = default_target_support(mu, radii)
    vals = []
    for r in radii:
        v, _ = dro_lp(DiscreteBallProblem(mu, tgt, r, 2.0, objective=_obj_y2))
        vals.append(v)
    b = np.array(radii) ** 2
    slopes = np.diff(vals) / np.diff(b)
    assert np.all(np.diff(slopes) <= 1e-8)
