import itertools
import math
import warnings

import numpy as np
import pytest

from wadro import fredholm
from wadro.criterion import Criterion, GradientField, american_put, gradient_field
from wadro.measure import (Binning, GridMeasure, ModelSpec, build_model, cond_exp_1,
                           canonical_test_measure, quantile_bins, sign_copy_measure)
from report_sweep import PHI, PSI_SQ
from wadro.oracle import feasible_family
from wadro.sensitivity import (CONSTRAINT_SETS, CondConstraint, ConstraintSet,
                               MeanConstraint, Metric, PointState, SensitivityError,
                               W2, W2AD, _HedgeMap, _residual_norm, adapted_gradient,
                               chain_violation,
                               marginal_path_violation, martingale_psi, n_map,
                               report_tables, report_to_json, solve_foc)

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
    # selfcheck checks the adapted ball; the classical one is checked here only
    assert marginal_path_violation() == 0.0
    assert marginal_path_violation(W2) == 0.0


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


def test_conditional_constraint_refusals():
    mu = canonical_test_measure()
    with pytest.raises(SensitivityError, match="require the adapted ball"):
        solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), W2),
                  ConstraintSet(cond_psi=martingale_psi()))
    # d2 psi vanishes on the first row, so h has nothing to hedge there with
    flat = CondConstraint(lambda a, b: (a > mu.x1[0]) * (b - a),
                          lambda a, b: -1.0 * (a > mu.x1[0]),
                          lambda a, b: 1.0 * (a > mu.x1[0]), "flat")
    with pytest.raises(SensitivityError, match=r"E1\[\(d2 psi\)\^2\] is degenerate"):
        solve_foc(PointState(mu, _const_field(mu, 0.0, 1.0), W2AD),
                  ConstraintSet(cond_psi=flat))


@pytest.mark.parametrize("cs", [
    ConstraintSet(martingale=True, marginal1=True, marginal2=True),
    ConstraintSet(martingale=True, marginal2=True, mean_phi=(PHI,)),
    ConstraintSet(marginal1=True, mean_phi=(PHI,), cond_psi=PSI_SQ),
    ConstraintSet(martingale=True, mean_phi=(PHI,))], ids=ConstraintSet.label)
def test_block_solve_inverts_the_constraint_derivative(cs):
    # the feasible family's Newton step: b, the derivative residual(F(u))
    # weighted by (w1, bin mass, w1, 1), is A^T diag(mw) A u, so solve(b) at
    # D = mw has u's field; M+m1+m2's null direction (f1 + c, f2 - c, h + c)
    # moves no atom
    rng = np.random.default_rng(0)
    for family, n in (("black_scholes", 16), ("bachelier", 24)):
        mu = build_model(ModelSpec(family, 0.5, n, n))
        hedges = _HedgeMap(PointState(mu, _const_field(mu, 0.0, 1.0), W2AD), cs)
        u = tuple(None if z is None else rng.standard_normal(z.shape) for z in hedges.u)
        F1, F2 = hedges.field(u)
        res, mass = hedges.residual(F1, F2), None if hedges.bins is None else hedges.bins.mass
        b = tuple(None if z is None else w * res[k]
                  for z, k, w in zip(u, ("m1", "m2", "h", "phi"), (mu.w1, mass, mu.w1, 1.0)))
        G1, G2 = hedges.field(hedges.solve(b, hedges.mw, hedges.mw, hedges.op))
        scale = np.max(np.abs(F1)) + np.max(np.abs(F2))
        assert np.max(np.abs(G1 - F1)) + np.max(np.abs(G2 - F2)) <= 1e-12 * scale, family


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


@pytest.mark.parametrize("metric", [Metric("wp_adapted", 1.5), W2AD, W2],
                         ids=["adapted-1.5", "adapted-2", "classical-2"])
def test_gradient_of_infinite_norm_is_refused(metric):
    # a field of (0, 1e300) squares to inf: every set refuses it by name, where
    # three reported the value inf as converged at residual 0 and M+m1+m2
    # raised about a right-hand side's mean
    mu = build_model(ModelSpec("black_scholes", 0.5, 8, 8))
    for cs in CONSTRAINT_SETS.values():
        with pytest.raises(SensitivityError, match=r"gradient field's L2\(mu\) norm is inf"):
            solve_foc(PointState(mu, _const_field(mu, 0.0, 1e300), metric), cs)


def test_residual_norm_keeps_a_nan():
    # a NaN in any component, first or last, makes the norm NaN, which no
    # tolerance test passes; max() alone kept the other components' norm
    mu = build_model(ModelSpec("black_scholes", 0.5, 8, 8))
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu), W2AD)
    for cs, keys in ((ConstraintSet(martingale=True, marginal2=True, mean_phi=(PHI,)),
                      ["m2", "h", "phi"]),
                     (ConstraintSet(marginal1=True, marginal2=True, mean_phi=(PHI,)),
                      ["m1", "m2", "phi"])):
        problem = _HedgeMap(state, cs)
        comps = problem.residual(state.S1, state.S2)
        assert list(comps) == keys and np.isfinite(_residual_norm(problem, comps))
        for key in keys:
            bad = dict(comps, **{key: comps[key].copy()})
            bad[key][-1] = np.nan
            assert math.isnan(_residual_norm(problem, bad)), key


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
        rep = solve_foc(PointState(mu, G, Metric("wp_adapted", 3.0)),
                        ConstraintSet(martingale=True))
    assert rep.foc_residual <= 1e-8 or rep.warnings
    assert rep.foc_residual <= 1e-6


def test_diagnostics_are_on_the_result_not_raised():
    # every library diagnostic travels on the object it returns, nowhere else
    flat = lambda x: np.full_like(np.asarray(x, float), 2.0)     # noqa: E731
    tied = Criterion(kind="stop_buyer", name="tied", l1=flat, l2=flat,
                     dl1=lambda x: np.zeros_like(np.asarray(x, float)),
                     dl2=lambda x: np.zeros_like(np.asarray(x, float)))
    mu = build_model(ModelSpec("black_scholes", 0.1, 16, 16))
    sign = sign_copy_measure(32)
    sign_bins = quantile_bins(sign, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slow = solve_foc(PointState(mu, gradient_field(american_put(), mu),
                                    Metric("wp_adapted", 6.0), quantile_bins(mu, 16)), BOTH)
        sign_state = PointState(sign, _const_field(sign, 0.0, 1.0), W2AD, sign_bins)
        copy = solve_foc(sign_state, BOTH)
        fam = feasible_family(sign_state, BOTH, (0.0, np.sin(sign.x2)), r_list=(1e-3,))
        G = gradient_field(tied, build_model(ModelSpec("bachelier", 1.0, 6, 6)))
    assert not slow.converged
    assert any("FOC iteration did not converge" in w for w in slow.warnings)
    assert any("contraction" in w for w in copy.warnings)
    assert any("contraction" in w for w in fam.warnings) and len(fam.measures) == 1
    assert any("stopping ties carry mass" in w for w in G.warnings)


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


def _count_operators_and_eigenproblems(monkeypatch) -> dict:
    calls = {"operator": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fredholm, "FredholmOperator",
                        counted("operator", fredholm.FredholmOperator))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    return calls


def test_p2_mart_marginal_builds_one_operator(monkeypatch):
    # the warm start's weights (mw S, mw) give mu's own operator, so the
    # solve reuses it instead of building a second one; its gates are
    # Choleskys, so no eigenproblem runs
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))     # hermegauss is an eigenproblem
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu), W2AD,
                       quantile_bins(mu, 32))
    calls = _count_operators_and_eigenproblems(monkeypatch)
    rep = solve_foc(state, BOTH)
    assert rep.converged and rep.iterations == 0
    assert calls == {"operator": 1, "eigvalsh": 0}


def test_p2_mart_marginal_sums_the_atoms_into_bins_twice(monkeypatch):
    # the block solve reads the weights' row, bin and row-by-bin sums from
    # their operator: the grid is summed into the bins once by the adjoint
    # and once by the residual, and into the (row, bin) cells by the one
    # operator build
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu), W2AD,
                       quantile_bins(mu, 32))
    calls = _count_operators_and_eigenproblems(monkeypatch)
    lengths, bincount = [], np.bincount

    def counted(x, *args, **kwargs):
        if np.size(x) == mu.n1 * mu.n2:
            lengths.append(kwargs.get("minlength", args[1] if len(args) > 1 else 0))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    rep = solve_foc(state, BOTH)
    assert rep.converged and rep.iterations == 0 and calls["operator"] == 1
    m = state.bins.m
    assert lengths.count(m) <= 2 and lengths.count(mu.n1 * m) == 1 and len(lengths) <= 3


def test_general_p_newton_steps_sum_no_weights_into_bins(monkeypatch):
    # every Binning.sums of a p = 1.5 M+m1+m2 solve is an adjoint (the warm
    # start's and one per step) or a residual (one per iterate): each step's
    # weights are summed into the bins by their operator alone
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu),
                       Metric("wp_adapted", 1.5), quantile_bins(mu, 32))
    calls, sums = [], Binning.sums

    def counted(self, values):
        calls.append(np.shape(values))
        return sums(self, values)

    monkeypatch.setattr(Binning, "sums", counted)
    rep = solve_foc(state, BOTH)
    assert rep.converged and rep.iterations > 0
    assert len(calls) == 2 * (rep.iterations + 1)


def test_general_p_newton_step_builds_one_operator_and_one_cholesky(monkeypatch):
    # each p = 1.5 M+m1+m2 Newton step builds one reweighted operator and
    # its solve gates it with one Cholesky.  mu's own operator, which the
    # warm start solves with, is built and gated before the count
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu),
                       Metric("wp_adapted", 1.5), quantile_bins(mu, 32))
    assert state.op.below(fredholm.REGULARIZE_GATE)
    calls = _count_operators_and_eigenproblems(monkeypatch)
    choleskys, cholesky = [], np.linalg.cholesky

    def counted(a):
        choleskys.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rep = solve_foc(state, BOTH)
    assert rep.converged and rep.iterations > 0
    assert calls == {"operator": rep.iterations, "eigvalsh": 0}
    assert len(choleskys) == rep.iterations


def test_no_runtime_solve_forms_the_dense_kernel(monkeypatch):
    # Bachelier sigma = 0.1, 64x64, classical ball, p = 3: many M+m1+m2
    # Newton steps reweight the operator past REGULARIZE_GATE, where the
    # bin-space solve answers with the minimum-norm h and no n1 x n1 K
    mu = build_model(ModelSpec("bachelier", 0.1, 64, 64))
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu), Metric("wp", 3.0))
    past, below = [], fredholm.FredholmOperator.below

    def recorded(op, gate):
        passed = below(op, gate)
        past.append(gate == fredholm.REGULARIZE_GATE and not passed)
        return passed

    def refused(op):
        raise AssertionError("the n1 x n1 kernel was formed")

    monkeypatch.setattr(fredholm.FredholmOperator, "below", recorded)
    monkeypatch.setattr(fredholm.FredholmOperator, "K", property(refused))
    rep = solve_foc(state, BOTH)
    assert sum(past) >= 10 and rep.iterations > 10 and np.isfinite(rep.value)


def test_cond_exp_1_of_a_column_reads_no_grid():
    # a function of x1 alone is weighed by the row sums of q that the measure
    # holds: with every (n1, n2) array of the measure taken away it still
    # gives the per-atom sum
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16))
    col = np.random.default_rng(3).standard_normal((16, 1))
    expected = np.sum(mu.q * col, axis=1)
    for grid in ("x2", "q", "_masses"):
        object.__setattr__(mu, grid, None)
    got = cond_exp_1(mu, col)
    assert got.shape == (16,) and np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(col))


def test_general_p_newton_steps_solve_no_eigenproblem(monkeypatch):
    # every p != 2 Newton step builds a reweighted operator and gates its
    # solve without the norm
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32))
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu),
                       Metric("wp_adapted", 1.5), quantile_bins(mu, 32))
    calls = _count_operators_and_eigenproblems(monkeypatch)
    rep = solve_foc(state, BOTH)
    assert rep.converged and rep.iterations > 0
    assert calls["operator"] >= rep.iterations and calls["eigvalsh"] == 0


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


@pytest.mark.parametrize("p", [1e16, 1e308, math.inf, math.nan])
def test_metric_refuses_an_exponent_whose_conjugate_is_not_above_one(p):
    # p' = p / (p - 1) rounds to 1 from p ~ 1e16 on (and is NaN at p = inf),
    # where the direction's |s|^(p' - 1) reads |0|^0 = 1; 1e4 still solves
    with pytest.raises(SensitivityError, match="conjugate"):
        Metric("wp_adapted", p)
    assert Metric("wp_adapted", 1e4).p_conj > 1.0


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


def test_chain_violation_is_the_excess_on_each_link():
    # values in the order of CONSTRAINT_SETS: unconstrained, M, m, Mm
    assert chain_violation([1.0, 0.75, 0.5, 0.25]) == 0.0
    assert chain_violation([1.0, 0.75, 0.5, 0.625]) == 0.125    # Mm above min(M, m)
    assert chain_violation([1.0, 1.25, 0.5, 0.25]) == 0.25      # max(M, m) above unconstrained
    for i in range(4):      # a NaN anywhere fails every bound
        values = [1.0, 0.75, 0.5, 0.25]
        values[i] = float("nan")
        assert np.isnan(chain_violation(values)), i


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
            assert chain_violation([r.value for r in reps]) <= 1e-8, (ball, p)


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


def _call(K):
    """The vanilla call (x2 - K)^+ as a mean constraint."""
    return MeanConstraint(lambda a, b: np.maximum(b - K, 0.0), lambda a, b: np.zeros_like(a),
                          lambda a, b: (b > K).astype(float), f"call:{K:.4g}")


def _strikes(mu, bins):
    """Three strikes halfway between pooled atoms, and one that splits a bin
    and one that falls between bins, both near the middle of the sorted atoms."""
    z = np.unique(mu.x2)
    mids = 0.5 * (z[1:] + z[:-1])
    inner = [0.5 * (z[k] + z[k + 1]) for k in range(z.size - 1)
             if bins.assign(z[k]) == bins.assign(z[k + 1])]
    return ([float(mids[int(f * mids.size)]) for f in (0.3, 0.5, 0.7)],
            float(inner[len(inner) // 2]), float(bins.edges[bins.m // 2]))


def _least_squares(mu, state, cs, bins):
    """Explicit p = 2 oracle: a weighted least-squares solve on the assembled
    hedge columns (per-atom pairs on F1, F2).  Returns the optimal S + F and
    S, both scaled by the square roots w of the atom masses, and w; the value
    is the norm of the first."""
    rows = np.eye(mu.n1)[:, :, None] * np.ones(mu.n2)
    zero = np.zeros_like(mu.x2)
    cols = []
    if cs.marginal1:
        cols += [(r, zero) for r in rows]
    if cs.marginal2:
        cols += [(zero, (bins.index == b).astype(float)) for b in range(bins.m)]
    if cs.martingale:
        cols += [(-r, r) for r in rows]
    if cs.cond_psi is not None:
        a = np.broadcast_to(mu.x1[:, None], mu.x2.shape)
        c1 = cond_exp_1(mu, cs.cond_psi.d1(a, mu.x2))
        cols += [(c1[i] * r, cs.cond_psi.d2(a, mu.x2) * r) for i, r in enumerate(rows)]
    for c in cs.mean_phi:
        p1 = c.d1(np.broadcast_to(mu.x1[:, None], mu.x2.shape), mu.x2) + zero
        if state.metric.adapted:
            p1 = cond_exp_1(mu, p1)[:, None] + zero
        cols.append((p1, c.d2(mu.x1[:, None], mu.x2) + zero))
    w = np.sqrt(mu.atom_masses()).ravel()
    A = np.array([np.concatenate([w * c1.ravel(), w * c2.ravel()]) for c1, c2 in cols]).T
    s = np.concatenate([w * (state.S1 + zero).ravel(), w * state.S2.ravel()])
    return s + A @ np.linalg.lstsq(A, -s, rcond=None)[0], s, w


@pytest.mark.parametrize("family,sigma", [("black_scholes", 0.5), ("bachelier", 0.3)])
@pytest.mark.parametrize("metric", [W2, W2AD], ids=["wp", "wp_adapted"])
def test_mean_constraints_mix_with_flags_at_p2(family, sigma, metric):
    # calls next to the martingale and marginal flags, and psi next to the
    # marginals, against least squares on the explicitly assembled hedge
    # columns; on 32 x 32 the psi sets with m2, by value: there atoms of mass
    # below 1e-23 leave the least-squares field loose to 1e-12 of |S|
    for n in (16, 32):
        mu = build_model(ModelSpec(family, sigma, n, n))
        bins = quantile_bins(mu, n)
        state = PointState(mu, gradient_field(american_put(side="buyer"), mu), metric, bins)
        calls, split, _ = _strikes(mu, bins)
        sets = []
        if n == 16:
            sets += [ConstraintSet(martingale=True, mean_phi=tuple(map(_call, calls[:k])))
                     for k in (1, 2, 3)]
            sets += [ConstraintSet(marginal1=True, marginal2=True, mean_phi=(_call(split),)),
                     ConstraintSet(martingale=True, marginal1=True, marginal2=True,
                                   mean_phi=(_call(split),))]
        if n == 16 and metric.adapted:
            sets += [ConstraintSet(marginal1=True, cond_psi=PSI_SQ),
                     ConstraintSet(marginal1=True, cond_psi=PSI_SQ, mean_phi=(_call(calls[1]),))]
        if metric.adapted:
            sets += [ConstraintSet(marginal2=True, cond_psi=PSI_SQ),
                     ConstraintSet(marginal1=True, marginal2=True, cond_psi=PSI_SQ),
                     ConstraintSet(marginal1=True, marginal2=True, cond_psi=PSI_SQ,
                                   mean_phi=(_call(calls[2]),))]
        for cs in sets:
            rep = solve_foc(state, cs)
            r, s, w = _least_squares(mu, state, cs, bins)
            value = np.linalg.norm(r)
            assert rep.converged, cs.label()
            assert abs(rep.value - value) <= 1e-12 * value, cs.label()
            ours = rep.value * np.concatenate([w * rep.T1.ravel(), w * rep.T2.ravel()])
            # S + F is of the gradient's size, and so is its rounding
            assert n == 32 or np.linalg.norm(ours - r) <= 1e-12 * np.linalg.norm(s), cs.label()


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("metric", ["wp", "wp_adapted"])
def test_value_does_not_increase_as_strikes_are_added(p, metric):
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16))
    bins = quantile_bins(mu, 16)
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu), Metric(metric, p),
                       bins)
    calls, split, _ = _strikes(mu, bins)
    strikes = [calls[1], calls[0], split, calls[2]]
    values = []
    for k in range(len(strikes) + 1):
        rep = solve_foc(state, ConstraintSet(martingale=True,
                                             mean_phi=tuple(map(_call, strikes[:k]))))
        assert rep.converged
        values.append(rep.value)
    assert all(b <= a + 1e-9 * a for a, b in zip(values, values[1:])), values
    assert values[-1] < values[0]


def test_redundant_mean_constraints_name_assumption_a_iv():
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16))
    bins = quantile_bins(mu, 16)
    state = PointState(mu, gradient_field(american_put(side="buyer"), mu), W2AD, bins)
    _, _, between = _strikes(mu, bins)
    mean_x1 = MeanConstraint(lambda a, b: a, lambda a, b: np.ones_like(a),
                             lambda a, b: np.zeros_like(b), "x1")
    # phi = x1 is spanned by f1, a call struck between bins by f2
    for phi in (mean_x1, _call(between)):
        with pytest.raises(SensitivityError, match=r"A \(iv\)"):
            solve_foc(state, ConstraintSet(martingale=True, marginal1=True, marginal2=True,
                                           mean_phi=(phi,)))
