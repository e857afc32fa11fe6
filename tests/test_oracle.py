import dataclasses

import numpy as np
import pytest

from lattice import LP_SETS, lp_bytes
from report_sweep import PHI, constraint_sets
from wadro.criterion import american_put, gradient_field, preset, value
from wadro.measure import MERGE_TOL, GridMeasure, ModelSpec, build_model, canonical_test_measure
from wadro.oracle import (Coupling, DiscreteBallProblem, OracleError, bicausal_distance,
                          classical_distance, default_target_support, dro_lp,
                          family_check, feasible_family, oracle_report, slope_estimate,
                          transport_lp)
from wadro.sensitivity import (CONSTRAINT_SETS, CondConstraint, ConstraintSet, MeanConstraint,
                               Metric, PointState, SensitivityError, W2, W2AD, martingale_psi,
                               solve_foc)
from wadro import oracle
from wadro.simplex import InaccurateError, InfeasibleError, solve_lp


def _obj_y2(y1, y2):
    return y2


def _obj_spread(y1, y2):
    return y2 + (y2 - y1) ** 2


def _three_by_three():
    x1, w = np.array([0.9, 1.0, 1.1]), np.array([0.25, 0.5, 0.25])
    return GridMeasure(x1, w, x1[:, None] + [-0.1, 0.0, 0.1], np.tile(w, (3, 1)),
                       is_martingale=True)


def _scaled_martingale_psi():
    """(x2 - x1)(1 + x1^2): the martingale's rows, each scaled by a positive factor."""
    return CondConstraint(lambda a, b: (b - a) * (1.0 + a * a),
                          lambda a, b: 2.0 * a * (b - a) - 1.0 - a * a,
                          lambda a, b: 1.0 + a * a + 0.0 * b, "scaled")


def test_dro_lp_zero_radius_recovers_value():
    mu = canonical_test_measure()
    tgt = default_target_support(mu, [0.1])
    v, _ = dro_lp(DiscreteBallProblem(mu, tgt, 0.0, 2.0, objective=_obj_y2))
    assert abs(v - value(preset("linear:x2"), mu)) <= 1e-10


def test_problem_refuses_an_objective_that_is_not_callable():
    mu = canonical_test_measure()
    tgt = default_target_support(mu, [0.1])
    for objective in (None, _obj_y2(*tgt.T)):
        with pytest.raises(OracleError, match="callable"):
            DiscreteBallProblem(mu, tgt, 0.1, 2.0, objective=objective)


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
        return dataclasses.replace(res, x=res.x * (1.0 + 1e-7))

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
    mu = _three_by_three()
    radii = [0.02, 0.05, 0.1]
    tgt = default_target_support(mu, radii)
    vals = []
    for r in radii:
        v, _ = dro_lp(DiscreteBallProblem(mu, tgt, r, 2.0, CONSTRAINT_SETS["martingale"],
                                          objective=_obj_y2))
        vals.append(v)
    assert np.all(np.diff(vals) >= -1e-10)


def test_dro_lp_martingale_slope_matches_closed_form():
    # spec example: 3x3 measure, objective y2, slope vs the martingale closed form
    mu = _three_by_three()
    G = gradient_field(preset("linear:x2"), mu)
    closed = solve_foc(PointState(mu, G, W2), CONSTRAINT_SETS["martingale"]).value
    radii = [0.05, 0.1, 0.2]
    vals = []
    for r in radii:
        tgt = default_target_support(mu, [r])
        v, _ = dro_lp(DiscreteBallProblem(mu, tgt, r, 2.0, CONSTRAINT_SETS["martingale"],
                                          objective=_obj_y2))
        vals.append(v)
    base = value(preset("linear:x2"), mu)
    slope, _ = slope_estimate([0.0] + radii, [base] + vals)
    assert abs(slope - closed) <= 0.05 * closed


def test_dro_lp_marginal_support_mismatch():
    mu = canonical_test_measure()
    bad = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel() + 0.003])
    with pytest.raises(OracleError):
        dro_lp(DiscreteBallProblem(mu, bad, 0.1, 2.0, LP_SETS["marginal2"], objective=_obj_y2))


def test_dro_lp_rejects_measure_off_its_constraint():
    # the displacement form takes mu's own martingale residual as 0, so mu
    # must keep the constraint the LP keeps
    mu = canonical_test_measure()
    off = GridMeasure(mu.x1, mu.w1, mu.x2 + 1e-6, mu.q)
    tgt = default_target_support(off, [0.1])
    mart = CONSTRAINT_SETS["martingale"]
    dro_lp(DiscreteBallProblem(mu, default_target_support(mu, [0.1]), 0.1, 2.0, mart,
                               objective=_obj_y2))
    with pytest.raises(OracleError, match="not a martingale"):
        dro_lp(DiscreteBallProblem(off, tgt, 0.1, 2.0, mart, objective=_obj_y2))
    # another conditional constraint: mu off its rows is refused the same way
    scaled = ConstraintSet(cond_psi=_scaled_martingale_psi())
    dro_lp(DiscreteBallProblem(mu, default_target_support(mu, [0.1]), 0.1, 2.0, scaled,
                               objective=_obj_y2))
    with pytest.raises(OracleError, match="not on E\\[scaled"):
        dro_lp(DiscreteBallProblem(off, tgt, 0.1, 2.0, scaled, objective=_obj_y2))
    # a psi that is NaN on mu's atoms keeps nothing
    nan = CondConstraint(lambda a, b: np.full_like(b, np.nan), None, None, "nan")
    with pytest.raises(OracleError, match="residual nan"):
        dro_lp(DiscreteBallProblem(mu, tgt, 0.1, 2.0, ConstraintSet(cond_psi=nan),
                                   objective=_obj_y2))


def _moved(prob, x, fn, per_y1):
    """How much the LP point x moves the sum of fn over the law, per first
    coordinate of the pairs (per_y1) or in all; every atom has a stay pair."""
    cpl = Coupling(prob)
    t, a = prob.target_support[cpl.tcol], cpl.atoms[cpl.src]
    keys = np.r_[t[:, 0], a[:, 0]] if per_y1 else np.zeros(2 * x.size)
    return np.bincount(np.unique(keys, return_inverse=True)[1], np.r_[x * fn(*t.T), -x * fn(*a.T)])


def test_transport_lp_rows_come_with_the_set():
    # the martingale is the conditional constraint x2 - x1: as cond_psi it is
    # the same LP, and scaled by 1 + x1^2 > 0 the same value.  Each row of a
    # set holds at the optimum, which is no better than without the rows:
    # psi for every first coordinate (the canned rows' conditional variance
    # is 0.012, which the payoff (y2 - y1)^2 would raise), a mean constraint
    # phi in all
    mu, phi = canonical_test_measure(), _mean_x2_sq_constraint()
    variance = CondConstraint(lambda a, b: (b - a) ** 2 - 0.012, lambda a, b: 2.0 * (a - b),
                              lambda a, b: 2.0 * (b - a), "variance")
    for r in (0.05, 0.1, 0.2):
        tgt = default_target_support(mu, [r])

        def problem(cs, f=_obj_y2):
            return DiscreteBallProblem(mu, tgt, r, 2.0, cs, objective=f)

        mart = CONSTRAINT_SETS["martingale"]
        (lp, v0), (same, _) = (transport_lp(problem(cs)) for cs in
                               (mart, ConstraintSet(cond_psi=martingale_psi())))
        assert lp_bytes(lp) == lp_bytes(same), r
        value = v0 + solve_lp(**lp, maximize=True).fun
        scaled = dro_lp(problem(ConstraintSet(cond_psi=_scaled_martingale_psi())))[0]
        assert abs(scaled - value) <= 1e-12 * abs(value), r
        for cs, fn, per_y1 in ((mart, mart.psi.fn, True),
                               (ConstraintSet(cond_psi=variance), variance.fn, True),
                               (ConstraintSet(mean_phi=(phi,)), phi.fn, False),
                               (dataclasses.replace(mart, mean_phi=(phi,)), phi.fn, False)):
            prob = problem(cs, _obj_spread)
            lp, v0 = transport_lp(prob)
            res = solve_lp(**lp, maximize=True)
            assert np.max(np.abs(_moved(prob, res.x, fn, per_y1))) <= 1e-12, (cs, r)
            without = dataclasses.replace(cs, cond_psi=None, mean_phi=())
            assert v0 + res.fun <= dro_lp(problem(without, _obj_spread))[0] + 1e-12, (cs, r)


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
    # repeated radii: rank 2 is degenerate however many points; 3 distinct fit
    for radii in ([0.0, 0.1, 0.1, 0.0], [0.0, 0.0, 0.2, 0.2, 0.2], [0.05, 0.05, 0.05, 0.1]):
        r = np.array(radii)
        with pytest.raises(OracleError, match="degenerate design matrix"):
            slope_estimate(r, 2.0 + 3.0 * r)
    r = np.array([0.0, 0.1, 0.1, 0.2, 0.2])
    assert abs(slope_estimate(r, 1.0 + 0.5 * r - 2.0 * r ** 2)[0] - 0.5) <= 1e-10


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
    for label, cs in LP_SETS.items():
        for r in (0.1, 0.2):
            tgt = default_target_support(mu, [r], cs)
            gap = np.max(np.abs(tgt[:, None, :] - atoms[None, :, :]), axis=2).min(axis=1)
            assert np.all((gap == 0.0) | (gap > 1e-9)), (label, r)
            apart = np.max(np.abs(tgt[:, None, :] - tgt[None, :, :]), axis=2)
            assert np.all(apart[np.triu_indices(len(tgt), 1)] > 1e-9), (label, r)
            assert tgt.shape == default_target_support(exact, [1.25 * r], cs).shape
    assert [len(default_target_support(mu, [r])) for r in (0.1, 0.2)] == [145, 165]


def test_oracle_report_sandwich():
    mu = canonical_test_measure()
    rep = oracle_report(mu, preset("linear:x2"), [0.02, 0.05, 0.1, 0.2])
    assert rep["pass"]
    for res in rep["constraint_sets"].values():
        assert res["monotone"]
    with pytest.raises(OracleError):
        oracle_report(mu, preset("linear:x2"), [0.0])


def _mean_x2_sq_constraint():
    return MeanConstraint(lambda a, b: b * b, lambda a, b: np.zeros_like(a),
                          lambda a, b: 2.0 * b, "mean_x2^2")


def _family_state(mu):
    return PointState(mu, gradient_field(american_put(side="buyer"), mu), W2AD)


def test_feasible_family_zero_direction():
    mu = build_model(ModelSpec("bachelier", 1.0, 12, 12))
    cs = ConstraintSet(martingale=True, marginal1=True, mean_phi=(_mean_x2_sq_constraint(),))
    fam = feasible_family(_family_state(mu), cs, (0.0, 0.0), r_list=(1e-2,))
    assert len(fam.measures) == 1 and not fam.warnings
    assert np.max(np.abs(fam.multipliers[0]["u"])) <= 1e-12
    assert fam.multipliers[0]["correction"] <= 1e-12
    assert np.max(np.abs(fam.measures[0].x2 - mu.x2)) <= 1e-12
    # M+m1+m2 on a grid whose atoms reach 3e12: the identity, bit for bit
    mu = build_model(ModelSpec("black_scholes", 1.0, 64, 64))
    fam = feasible_family(_family_state(mu), CONSTRAINT_SETS["mart_marginal"], (0.0, 0.0))
    assert fam.r_list == oracle.FAMILY_RADII and not fam.warnings
    for nu in fam.measures:
        assert all(np.array_equal(getattr(nu, k), getattr(mu, k)) for k in ("x1", "w1", "x2", "q"))
    # a grid row moves as one: theta1 may not vary along it, and the
    # classical ball's directions do
    with pytest.raises(OracleError, match="function of x1"):
        feasible_family(_family_state(mu), cs, (mu.x2, 0.0))
    with pytest.raises(OracleError, match="adapted ball"):
        feasible_family(PointState(mu, gradient_field(american_put(), mu), W2), cs, (0.0, 0.0))


def test_feasible_family_constraint_residuals():
    # a direction reaching the outermost atoms, which the hedge map's
    # corrections carry as well as the inner ones
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    theta = (np.sin(mu.x1), np.exp(-0.5 * mu.x2 ** 2))
    cs = ConstraintSet(martingale=True, mean_phi=(_mean_x2_sq_constraint(),))
    fam = feasible_family(_family_state(mu), cs, theta, r_list=(1e-2, 1e-3))
    assert len(fam.measures) == 2 and not fam.warnings
    for res, nu in zip(fam.residuals, fam.measures):
        assert res["constraint"] <= 1e-14
        assert nu.martingale_residual() <= 1e-14
        gap = float(np.sum(nu.atom_masses() * nu.x2 ** 2) - np.sum(mu.atom_masses() * mu.x2 ** 2))
        assert abs(gap) <= 1e-13
    # the first marginal is held by x1 itself
    cs = ConstraintSet(marginal1=True, cond_psi=martingale_psi())
    nu = feasible_family(_family_state(mu), cs, theta, r_list=(1e-2,)).measures[0]
    assert np.max(np.abs(nu.x1 - mu.x1)) <= 1e-15 and nu.martingale_residual() <= 1e-14
    # M+m1+m2 along a generic direction: each bin keeps its mass and first
    # moment, and the family stays within O(r) of mu in the adapted distance
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16, "equally_weighted"))
    state = _family_state(mu)
    fam = feasible_family(state, CONSTRAINT_SETS["mart_marginal"], (0.0, np.sin(mu.x2)))
    assert fam.r_list == oracle.FAMILY_RADII and not fam.warnings
    moment = state.bins.sums(mu.atom_masses() * mu.x2)
    for r, nu in zip(fam.r_list, fam.measures):
        assert np.max(np.abs(nu.x1 - mu.x1)) <= 1e-15 and nu.martingale_residual() <= 1e-14
        b = np.searchsorted(state.bins.edges[1:-1], nu.x2.ravel(), side="right")
        nw = nu.atom_masses().ravel()
        assert np.max(np.abs(np.bincount(b, nw, state.bins.m) - state.bins.mass)) <= 1e-15
        assert np.max(np.abs(np.bincount(b, nw * nu.x2.ravel(), state.bins.m) - moment)) <= 1e-15
        assert bicausal_distance(mu, nu, 2.0) <= 2.0 * r


def test_feasible_family_truncates_where_atoms_cross_bin_edges():
    # at r = 1e-5 an atom carrying 1.6 % of its bin's mass moves into the
    # next bin, so the binned second marginal is lost; at FAMILY_RADII not
    mu = build_model(ModelSpec("black_scholes", 0.5, 64, 64, "equally_weighted"))
    state = _family_state(mu)
    cs = ConstraintSet(martingale=True, marginal2=True)
    rep = solve_foc(state, cs)
    fam = feasible_family(state, cs, (rep.T1, rep.T2), (1e-5, 5e-6))
    assert fam.r_list == () and len(fam.warnings) == 1
    assert fam.warnings[0].startswith("atoms cross bin edges at r=1e-05")
    fam = feasible_family(state, cs, (rep.T1, rep.T2))
    assert fam.r_list == oracle.FAMILY_RADII and not fam.warnings


def test_feasible_family_neutral_direction_is_second_order():
    # a direction orthogonal to the constraint's gradient 2 x2 keeps it to
    # first order: the correction is O(r^2), against O(r) for a generic one
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    mw = mu.atom_masses()
    bump = np.exp(-0.5 * (mu.x2 - 0.5) ** 2)
    neutral = bump - float(np.sum(mw * bump * mu.x2) / np.sum(mw * mu.x2 ** 2)) * mu.x2
    assert abs(float(np.sum(mw * neutral * mu.x2))) <= 1e-15
    cs = ConstraintSet(mean_phi=(_mean_x2_sq_constraint(),))
    state, r_list = _family_state(mu), (1e-2, 1e-3)
    for theta2, order in ((neutral, 2), (bump, 1)):
        fam = feasible_family(state, cs, (0.0, theta2), r_list)
        # correction / r^order is the same at both radii, 1e-2 and 1e-3
        big, small = (m["correction"] / r ** order for m, r in zip(fam.multipliers, r_list))
        assert abs(small / big - 1.0) <= 0.05 and big > 0.0, order


FAMILY_GRIDS = {"gauss_hermite": ("black_scholes", 0.5, "gauss_hermite"),
                "equally_weighted": ("black_scholes", 0.5, "equally_weighted"),
                "bachelier-0.1-gauss_hermite": ("bachelier", 0.1, "gauss_hermite")}
# psi = x2^2 - x1^2 next to the second marginal, which the family checks below
# take one grid and exponent at a time
PSI_M2_LABELS = ("m2+psi:x2^2-x1^2", "m1+m2+psi:x2^2-x1^2")


@pytest.mark.parametrize("family, sigma, quadrature, converged", [
    ("black_scholes", 0.5, "gauss_hermite", 48), ("black_scholes", 0.5, "equally_weighted", 48),
    ("bachelier", 0.1, "gauss_hermite", 48)],    # values near 3e-6 against |S| near 1
    ids=["gauss_hermite", "equally_weighted", "bachelier-0.1-gauss_hermite"])
def test_family_check_realizes_every_adapted_value(family, sigma, quadrature, converged):
    # the family along the report's own direction T has the report's value as
    # its slope, on every adapted set the sweep computes (psi next to m2:
    # the test below)
    mu = build_model(ModelSpec(family, sigma, 16, 16, quadrature))
    c = american_put(side="buyer")
    sets = [cs for label, cs in constraint_sets().items() if label not in PSI_M2_LABELS]
    assert len(sets) == 17
    checked = 0
    for p in (1.5, 2.0, 3.0):
        state = PointState(mu, gradient_field(c, mu), Metric("wp_adapted", p))
        for cs in sets:
            try:
                rep = solve_foc(state, cs)
            except SensitivityError:    # M+m1+m2 fixes E[x1 x2]: assumption A (iv)
                assert cs.label() == "M+m1+m2+phi:x1*x2"
                continue
            if rep.converged:
                out = family_check(c, state, cs, rep)
                assert out["error"] <= oracle.FAMILY_RTOL and not out["warnings"], (p, cs.label())
                assert out["residual"] <= 1e-12
                checked += 1
    assert checked == converged


# At p = 1.5 on Bachelier sigma 0.1 both values are 3.4e-6 against |S| = 1,
# and T reaches 8.7e10 on an atom of mass 2e-17 (row mass 1.3e-7): at
# r = 2e-6 no hedge restores that row's psi constraint, so the family does
# not exist at FAMILY_RADII.  Its difference quotients at r = 5e-9 and
# 2.5e-9 (3.42e-6, 3.38e-6) agree with the value to the rounding of the
# criterion over r, about 1e-7, so the radii, not the value, are at fault.
NO_FAMILY_AT_FAMILY_RADII = pytest.mark.xfail(
    strict=True, reason="the family does not exist at FAMILY_RADII along this direction")


@pytest.mark.parametrize("grid, p", [
    pytest.param(grid, p, marks=NO_FAMILY_AT_FAMILY_RADII
                 if (grid, p) == ("bachelier-0.1-gauss_hermite", 1.5) else ())
    for grid in FAMILY_GRIDS for p in (1.5, 2.0, 3.0)])
def test_family_check_realizes_psi_next_to_marginal2(grid, p):
    # the report of psi = x2^2 - x1^2 next to m2, with and without m1,
    # converges, and the family along its T has the report's value as its slope
    family, sigma, quadrature = FAMILY_GRIDS[grid]
    mu = build_model(ModelSpec(family, sigma, 16, 16, quadrature))
    c = american_put(side="buyer")
    state = PointState(mu, gradient_field(c, mu), Metric("wp_adapted", p))
    for label in PSI_M2_LABELS:
        cs = constraint_sets()[label]
        rep = solve_foc(state, cs)
        assert rep.converged, label
        out = family_check(c, state, cs, rep)
        assert out["error"] <= oracle.FAMILY_RTOL and not out["warnings"], (label, out)
        assert out["residual"] <= 1e-12


@pytest.mark.parametrize("family", ["black_scholes", "bachelier"])
def test_family_check_realizes_mart_marginal2_mean_at_general_p(family):
    # M+m2 with a mean constraint away from p = 2, where each Newton step
    # builds the reweighted operator that its k + 1 block solves share
    mu = build_model(ModelSpec(family, 0.5, 16, 16))
    c = american_put(side="buyer")
    cs = ConstraintSet(martingale=True, marginal2=True, mean_phi=(PHI,))
    for p in (1.5, 3.0):
        state = PointState(mu, gradient_field(c, mu), Metric("wp_adapted", p))
        rep = solve_foc(state, cs)
        assert rep.converged and rep.iterations > 0, p
        out = family_check(c, state, cs, rep)
        assert out["error"] <= oracle.FAMILY_RTOL and not out["warnings"], p


def test_dro_lp_concave_in_budget():
    # LP optimum is concave in the right-hand side, hence in b = r^p
    mu = _three_by_three()
    radii = [0.02, 0.05, 0.08, 0.11]
    tgt = default_target_support(mu, radii)
    vals = []
    for r in radii:
        v, _ = dro_lp(DiscreteBallProblem(mu, tgt, r, 2.0, objective=_obj_y2))
        vals.append(v)
    b = np.array(radii) ** 2
    slopes = np.diff(vals) / np.diff(b)
    assert np.all(np.diff(slopes) <= 1e-8)


def _brute_force_support(mu, radii, cs):
    """default_target_support from its definition by O(N^2) comparisons: the
    clusters of a coordinate are the connected components of "within tol"
    (for the second coordinate, among points of one first-coordinate
    cluster), each at its smallest atom value, else its smallest value."""
    dirs = np.vstack([[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
                      np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]) / np.sqrt(2.0)])
    dirs = [d for d in dirs if not (cs.marginal1 and d[0]) and not (cs.marginal2 and d[1])]
    atoms = np.array([(a, z) for a, row in zip(mu.x1, mu.x2) for z in row])
    pts = np.vstack([atoms] + [atoms + r * d for r in radii if r > 0 for d in dirs])
    is_atom = np.arange(len(pts)) < len(atoms)
    tol = MERGE_TOL * max(1.0, np.abs(atoms).max())

    def snapped(values, linked):
        near = (np.abs(values[:, None] - values[None, :]) <= tol) & linked
        label = np.arange(len(values))
        while True:             # each point takes the smallest label of its component
            new = np.where(near, label[None, :], len(values)).min(axis=1)
            if np.array_equal(new, label):
                break
            label = new
        out = np.empty_like(values)
        for c in np.unique(label):
            members = label == c
            out[members] = values[members & is_atom if np.any(members & is_atom) else members].min()
        return out, label

    x1, group = snapped(pts[:, 0], True)
    x2, _ = snapped(pts[:, 1], group[:, None] == group[None, :])
    return np.unique(np.column_stack([x1, x2]), axis=0), pts, tol


def _planted_measure(rng, n, r):
    """An n x n grid r apart in [-1, 1] (so tol = MERGE_TOL), each coordinate
    moved by a multiple of MERGE_TOL: the shifts by r land within MERGE_TOL of
    other atoms, or just beyond it."""
    offsets = MERGE_TOL * np.array([0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 2.0, -2.0])
    base = r * (np.arange(n) - (n - 1) / 2)
    x1 = base + rng.choice(offsets, n)
    x2 = (base[:, None] + base[None, :]) / 2 + rng.choice(offsets, (n, n))
    x2 += rng.choice([0.0, r / 2], (n, 1))      # rows offset by r / 2 link with the diagonals
    return GridMeasure(x1, np.full(n, 1.0 / n), x2, np.full((n, n), 1.0 / n))


def test_default_target_support_equals_brute_force_clustering():
    # planted coordinates MERGE_TOL apart merge and those just beyond it do
    # not, in chains too; the canned measure's 0.1 grid meets its shifts at
    # rounding distance
    rng = np.random.default_rng(28)
    cases = [(_planted_measure(rng, 5, r), radii) for r in (0.1, 0.2, 0.25)
             for radii in ([r], [r / 2, r], [r, 2 * r, 0.0])]
    cases += [(canonical_test_measure(), radii) for radii in ([0.1], [0.05, 0.2], [0.3])]
    merged = kept = 0
    for mu, radii in cases:
        for m1, m2 in ((False, False), (True, False), (False, True), (True, True)):
            cs = ConstraintSet(marginal1=m1, marginal2=m2)
            got = default_target_support(mu, radii, cs)
            ref, pts, tol = _brute_force_support(mu, radii, cs)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (radii, m1, m2)
            gaps = np.abs(pts[:, None, 0] - pts[None, :, 0])
            merged += np.count_nonzero((gaps > 0) & (gaps <= tol))
            kept += np.count_nonzero((gaps > tol) & (gaps <= 3 * tol))
    assert merged > 0 and kept > 0
