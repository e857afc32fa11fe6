"""Acceptance gate: one test per criterion, each printing a pass line.

Closed forms are cross-validated against brute-force oracles (LP ball
suprema, constraint-preserving families, sign-copy counterexample) at the
tolerances pinned below.
"""

import time

import numpy as np

from wadro import fredholm
from wadro.cli import hedge_jump_stats
from wadro.criterion import american_put, exercise_mass, gradient_field, preset
from wadro.measure import (ModelSpec, build_model, canonical_test_measure,
                           cond_exp_1, quantile_bins, sign_copy_measure)
from wadro.oracle import FAMILY_RTOL, family_check, oracle_report
from wadro.sensitivity import (CONSTRAINT_SETS, ConstraintSet, Metric, PointState, W2AD,
                               chain_violation, closed_form_error, martingale_psi, solve_foc)
from wadro.criterion import GradientField

SIGMA_GRID = np.exp(np.linspace(np.log(0.05), np.log(1.5), 20))


def _report(name, elapsed, detail=""):
    print(f"PASS {name} ({elapsed:.2f}s) {detail}")


def _const_field(mu, a, b):
    return GradientField(np.full_like(mu.x2, a), np.full_like(mu.x2, b))


def test_criterion_1_analytic_closed_forms():
    t0 = time.time()
    measures = [canonical_test_measure(),
                build_model(ModelSpec("bachelier", 1.0, 16, 16)),
                build_model(ModelSpec("black_scholes", 0.5, 16, 16))]
    for mu in measures:
        assert closed_form_error(mu) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 1 (analytic closed-form suite)", elapsed)


def test_criterion_2_dual_path_p2_equivalence():
    t0 = time.time()
    put = american_put(side="buyer")
    worst = 0.0
    for family in ("black_scholes", "bachelier"):
        for sigma in (0.1, 0.5, 1.0):
            mu = build_model(ModelSpec(family, sigma, 64, 64))
            G = gradient_field(put, mu)
            bins = quantile_bins(mu, 64)
            for cs in (ConstraintSet(),
                       ConstraintSet(cond_psi=martingale_psi()),
                       ConstraintSet(marginal1=True, marginal2=True),
                       ConstraintSet(marginal1=True, marginal2=True, cond_psi=martingale_psi())):
                # at p = 2 Newton's first step from zero is the closed form;
                # at p = 1.5 the two starting points give two paths
                for metric in (W2AD, Metric("wp_adapted", 1.5)):
                    closed = solve_foc(PointState(mu, G, metric, bins), cs)
                    iterated = solve_foc(PointState(mu, G, metric, bins), cs, warm_start=False)
                    assert closed.converged and iterated.converged
                    worst = max(worst, abs(closed.value - iterated.value))
                    assert abs(closed.value - iterated.value) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 2 (dual-path p=2 equivalence)", elapsed, f"worst gap {worst:.2e}")


def test_criterion_3_fredholm_certificate():
    t0 = time.time()
    put = american_put(side="buyer")
    for family in ("black_scholes", "bachelier"):
        mu = build_model(ModelSpec(family, 1.0, 32, 32))
        bins = quantile_bins(mu, 32)
        op = fredholm.build_operator(bins)
        norm = fredholm.contraction_norm(op)
        assert norm < 1.0
        G = gradient_field(put, mu)
        rhs = cond_exp_1(mu, bins.e2(G.g2)[bins.index]) - cond_exp_1(mu, G.g2)
        rhs -= float(mu.w1 @ rhs)
        residual, gap = fredholm.certificate(op, rhs)
        assert residual <= 1e-8 and gap <= 1e-8
        assert abs(float(mu.w1 @ fredholm.solve(op, rhs))) <= 1e-10    # zero-mean solution
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("criterion 3 (Fredholm certificate)", elapsed, f"last norm {norm:.3f}")


def test_criterion_4_oracle_sandwich_classical():
    t0 = time.time()
    rep = oracle_report(canonical_test_measure(), preset("linear:x2"), [0.02, 0.05, 0.1, 0.2])
    assert rep["pass"], rep
    elapsed = time.time() - t0
    assert elapsed < 60.0
    slopes = {k: round(v["slope"], 6) for k, v in rep["constraint_sets"].items()}
    _report("criterion 4 (LP oracle sandwich)", elapsed, f"slopes {slopes}")


def test_criterion_5_feasible_family_lower_bound():
    # M+m1+m2, the headline set, realized by a feasible family on both grids
    t0 = time.time()
    put = american_put(side="buyer")
    errors = []
    for n, quadrature in ((32, "equally_weighted"), (64, "gauss_hermite")):
        mu = build_model(ModelSpec("black_scholes", 0.5, n, n, quadrature))
        state = PointState(mu, gradient_field(put, mu), W2AD)
        cs = CONSTRAINT_SETS["mart_marginal"]
        out = family_check(put, state, cs, solve_foc(state, cs))
        assert out["error"] <= FAMILY_RTOL and not out["warnings"], (quadrature, out)
        assert out["residual"] <= 1e-12
        errors.append(out["error"])
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 5 (feasible-family lower bound)", elapsed,
            f"slope errors {errors[0]:.2e} (32x32 equally weighted), "
            f"{errors[1]:.2e} (64x64 Gauss-Hermite)")


def test_criterion_6_monotonicity_sweep():
    t0 = time.time()
    strict_gaps = []
    for family in ("black_scholes", "bachelier"):
        for side in ("buyer", "seller"):
            put = american_put(side=side)
            for sigma in SIGMA_GRID:
                mu = build_model(ModelSpec(family, float(sigma), 64, 64))
                G = gradient_field(put, mu)
                bins = quantile_bins(mu, 64)
                state = PointState(mu, G, W2AD, bins)
                values = [solve_foc(state, cs).value for cs in CONSTRAINT_SETS.values()]
                mart, both = values[1], values[3]
                assert chain_violation(values) <= 1e-10
                assert both < mart          # strict gap, every sigma
                strict_gaps.append(mart - both)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report("criterion 6 (monotonicity sweep)", elapsed,
            f"min strict gap {min(strict_gaps):.3e}")


def test_criterion_7_hedging_jump_and_exercise_mass():
    t0 = time.time()
    put = american_put(side="buyer")
    mu = build_model(ModelSpec("black_scholes", 1.0, 64, 64))
    G = gradient_field(put, mu)
    rep = solve_foc(PointState(mu, G, W2AD), CONSTRAINT_SETS["martingale"])
    stats = hedge_jump_stats(mu, rep.h_hat, put)
    assert stats["jump_ratio"] > 10.0
    assert stats["cells_from_boundary"] is not None
    assert stats["cells_from_boundary"] <= 1
    # the criterion leaves the sigma=0.1 model unstated; under the paper's
    # buyer convention only Bachelier attains 1e-3 (see decisions ledger)
    bach = build_model(ModelSpec("bachelier", 0.1, 64, 64))
    mass_bach = exercise_mass(put, bach)
    assert mass_bach < 1e-3
    bs = build_model(ModelSpec("black_scholes", 0.1, 64, 64))
    mass_bs = exercise_mass(put, bs)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 7 (hedging jump / exercise mass)", elapsed,
            f"jump ratio {stats['jump_ratio']:.1e}, bachelier mass {mass_bach:.1e}, "
            f"BS mass {mass_bs:.2e} (reported)")


def test_criterion_8_contraction_counterexample():
    t0 = time.time()
    assert fredholm.counterexample_violation() == 0.0
    mu = sign_copy_measure(64)
    bins = quantile_bins(mu, 64)
    norm = fredholm.contraction_norm(fredholm.build_operator(bins))
    G = _const_field(mu, 0.0, 1.0)
    rep = solve_foc(PointState(mu, G, W2AD, bins), CONSTRAINT_SETS["mart_marginal"])
    assert any("contraction" in w for w in rep.warnings)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("criterion 8 (contraction counterexample)", elapsed, f"norm {norm:.6f}")
