"""Acceptance gate: one test per criterion, each printing a pass line.

Closed forms are cross-validated against brute-force oracles (LP ball
suprema, constraint-preserving families, sign-copy counterexample) at the
tolerances pinned below.
"""

import time
import warnings

import numpy as np
import pytest

from wadro import fredholm
from wadro.cli import hedge_jump_stats
from wadro.criterion import american_put, exercise_mass, gradient_field, preset
from wadro.measure import (ModelSpec, build_model, canonical_test_measure,
                           cond_exp_1, quantile_bins, sign_copy_measure)
from wadro.oracle import (FLAG_TABLE, family_slope, feasible_family_mart_marginal,
                          oracle_report)
from wadro.sensitivity import (CONSTRAINT_SETS, ConstraintSet, Metric, PointState, W2, W2AD,
                               solve_foc)
from wadro.criterion import GradientField, value

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
        state = PointState(mu, _const_field(mu, 0.0, 1.0), W2AD)
        unc, mart, marg, both = (solve_foc(state, cs).value for cs in CONSTRAINT_SETS.values())
        assert abs(unc - 1.0) <= 1e-10
        assert abs(mart - 2.0 ** -0.5) <= 1e-10
        assert abs(marg) <= 1e-10
        assert abs(both) <= 1e-10
        state = PointState(mu, _const_field(mu, 1.0, 1.0), W2AD)
        assert abs(solve_foc(state, CONSTRAINT_SETS["unconstrained"]).value - 2.0 ** 0.5) <= 1e-10
        assert abs(solve_foc(state, CONSTRAINT_SETS["martingale"]).value - 2.0 ** 0.5) <= 1e-10
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
                       ConstraintSet(martingale=True),
                       ConstraintSet(marginal1=True, marginal2=True),
                       ConstraintSet(martingale=True, marginal1=True, marginal2=True)):
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
        h = fredholm.solve(op, rhs)          # internally: Neumann vs direct <= 1e-8
        K0 = op.zero_mean_matrix()
        assert np.max(np.abs((np.eye(mu.n1) - K0) @ h - rhs)) <= 1e-8
        acc = rhs.copy()
        term = rhs.copy()
        for _ in range(10000):
            term = K0 @ term
            acc += term
            if np.max(np.abs(term)) < 1e-13:
                break
        assert np.max(np.abs(acc - h)) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("criterion 3 (Fredholm certificate)", elapsed, f"last norm {norm:.3f}")


def test_criterion_4_oracle_sandwich_classical():
    t0 = time.time()
    mu = canonical_test_measure()
    G = gradient_field(preset("linear:x2"), mu)
    state = PointState(mu, G, W2)
    reports = {label: solve_foc(state, ConstraintSet(**flags))
               for label, flags in FLAG_TABLE.items()}
    rep = oracle_report(mu, lambda y1, y2: y2, [0.02, 0.05, 0.1, 0.2],
                        reports, tolerance=0.05)
    assert rep["pass"], rep
    elapsed = time.time() - t0
    assert elapsed < 60.0
    slopes = {k: round(v["slope"], 6) for k, v in rep["constraint_sets"].items()}
    _report("criterion 4 (LP oracle sandwich)", elapsed, f"slopes {slopes}")


def test_criterion_5_feasible_family_lower_bound():
    t0 = time.time()
    mu = build_model(ModelSpec("black_scholes", 0.5, 32, 32, "equally_weighted"))
    put = american_put(side="buyer")
    G = gradient_field(put, mu)
    bins = quantile_bins(mu, 32)
    rep = solve_foc(PointState(mu, G, W2AD, bins), CONSTRAINT_SETS["mart_marginal"])
    fam = feasible_family_mart_marginal(mu, rep.T2, r_list=(1e-3, 5e-4), bins=bins)
    assert len(fam.measures) == 2
    for res in fam.residuals:
        assert res["martingale"] <= 1e-8
        assert res["marginal2"] <= 1e-8
    slope = family_slope(put, mu, fam)
    rel = abs(slope - rep.value) / rep.value
    assert rel <= 0.02
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 5 (feasible-family lower bound)", elapsed,
            f"slope {slope:.6f} vs {rep.value:.6f} (rel {rel:.4f})")


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
                unc, mart, marg, both = (solve_foc(state, cs).value
                                         for cs in CONSTRAINT_SETS.values())
                assert both <= min(mart, marg) + 1e-10
                assert min(mart, marg) <= unc + 1e-10
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
    mu = sign_copy_measure(64)
    bins = quantile_bins(mu, 64)
    op = fredholm.build_operator(bins)
    norm = fredholm.contraction_norm(op)
    assert norm > 0.99
    G = _const_field(mu, 0.0, 1.0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        rep = solve_foc(PointState(mu, G, W2AD, bins), CONSTRAINT_SETS["mart_marginal"])
    assert any("contraction" in str(w.message) for w in rec)
    assert any("contraction" in w for w in rep.warnings)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("criterion 8 (contraction counterexample)", elapsed, f"norm {norm:.6f}")
