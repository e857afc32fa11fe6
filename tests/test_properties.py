"""Property tests on small random martingale grids (profile in conftest.py)."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lattice import CONSTRAINT_FLAGS, lattice_measure, pinned
from wadro.criterion import GradientField
from wadro.measure import GridMeasure, quantile_bins
from wadro.oracle import DiscreteBallProblem, _bin_couple, default_target_support, transport_lp
from wadro.sensitivity import (CONSTRAINT_SETS, W2AD, ConstraintSet, Metric, PointState,
                               martingale_psi, solve_foc)
from wadro.simplex import solve_lp


@st.composite
def binned_grids(draw):
    """(mu, bins, rng): an n1 x n2 martingale measure, n1 and n2 in 2..8,
    binned into at most a random number of quantile bins."""
    n1, n2 = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x1 = np.sort(1.0 + rng.uniform(-0.5, 0.5, n1))
    q = rng.dirichlet(np.full(n2, 4.0), size=n1)
    off = np.sort(rng.uniform(-0.6, 0.6, (n1, n2)), axis=1)
    off -= np.sum(q * off, axis=1, keepdims=True)
    mu = GridMeasure(x1, rng.dirichlet(np.full(n1, 4.0)), x1[:, None] + off, q,
                     is_martingale=True)
    return mu, quantile_bins(mu, draw(st.integers(1, n1 * n2))), rng


@given(binned_grids(), st.floats(-10.0, 10.0))
def test_binning_matches_its_partition(grid, c):
    mu, bins, _ = grid
    assert np.array_equal(bins.index.ravel(), bins.assign(mu.x2.ravel()))
    assert not bins.index.flags.writeable and not bins.mass.flags.writeable
    assert np.array_equal(bins.mass, np.bincount(bins.index.ravel(),
                                                 mu.atom_masses().ravel(), bins.m))
    assert np.all(bins.mass > 0.0)
    assert np.allclose(bins.e2(np.full(mu.x2.shape, c)), c, rtol=1e-12, atol=1e-15)


@given(binned_grids(), st.floats(0.0, 0.5))
def test_bin_couple_splits_the_sorted_cloud_over_the_bins(grid, shake):
    # the feasible family's rearrangement: a displaced cloud, sorted, cut into
    # pieces that fill the bins in order and use up every atom's mass
    mu, bins, rng = grid
    cloud = (mu.x2 + shake * rng.normal(size=mu.x2.shape)).ravel()
    mw = mu.atom_masses().ravel()
    order = np.argsort(cloud, kind="stable")
    atom, b, mass = _bin_couple(order, np.cumsum(mw[order]), np.cumsum(bins.mass))
    assert np.all(mass > 0.0)
    assert np.max(np.abs(np.bincount(b, mass, bins.m) - bins.mass)) <= 1e-15
    assert np.max(np.abs(np.bincount(atom, mass, mw.size) - mw)) <= 1e-15
    assert np.all(np.diff(b) >= 0)
    assert np.all(np.diff(np.argsort(order)[atom]) >= 0)     # along the sorted cloud


@given(binned_grids())
def test_shared_point_state_matches_standalone_solves(grid):
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    shared = PointState(mu, G, W2AD, bins)
    with warnings.catch_warnings():
        # binnings as fine as the atoms give the sign-copy contraction of 1
        warnings.simplefilter("ignore", RuntimeWarning)
        vals = {}
        for name, cs in CONSTRAINT_SETS.items():
            rep = solve_foc(shared, cs)
            alone = solve_foc(PointState(mu, G, W2AD, bins), cs)
            assert abs(rep.value - alone.value) <= 1e-12
            vals[name] = rep.value
    unc, mart, marg, both = (vals[k] for k in CONSTRAINT_SETS)
    slack = 1e-10 * max(1.0, unc)
    # more constraints can only lower the infimum
    assert both <= min(mart, marg) + slack
    assert max(mart, marg) <= unc + slack


@given(binned_grids(), st.sampled_from([1.5, 2.0, 3.0]))
def test_martingale_flag_is_the_conditional_constraint_x2_minus_x1(grid, p):
    # the flag hedges with the exact weights (-1, 1), the conditional
    # constraint with (E1[-1], 1) read off the grid: the same infimum
    mu, _, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    state = PointState(mu, G, Metric("wp_adapted", p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        flag = solve_foc(state, ConstraintSet(martingale=True))
        psi = solve_foc(state, ConstraintSet(cond_psi=martingale_psi()))
    assert abs(psi.value - flag.value) <= 1e-12 * flag.value


FLAG_SETS = [ConstraintSet(martingale=m, marginal1=m1, marginal2=m2)
             for m, m1, m2 in itertools.product((False, True), repeat=3)]


@given(binned_grids(), st.sampled_from(["wp", "wp_adapted"]), st.sampled_from([1.5, 2.0, 3.0]),
       st.floats(1e-3, 1e3))
def test_positive_homogeneity(grid, ball, p, c):
    # value(cG) = c value(G) for c > 0 on every flag set, measured against the
    # unconstrained value, which bounds every constrained one
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    metric = Metric(ball, p)
    cG = GradientField(c * G.g1, c * G.g2)
    one, scaled = PointState(mu, G, metric, bins), PointState(mu, cG, metric, bins)
    tol = 1e-12 if p == 2.0 else 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scale = solve_foc(one, ConstraintSet()).value
        for cs in FLAG_SETS:
            a, b = solve_foc(one, cs), solve_foc(scaled, cs)
            if p == 2.0 or (a.converged and b.converged):
                assert abs(b.value - c * a.value) <= tol * c * scale, cs.label()


@given(binned_grids(), st.sampled_from(["wp", "wp_adapted"]))
def test_value_is_continuous_in_p_at_2(grid, ball):
    # the one-sided differences v(2 + d) - v(2) and v(2) - v(2 - d) are
    # d v'(2) up to d^2 v''(2) / 2: small, and once divided by d equal up to
    # the curvature term d v''(2), allowed as d v(2)
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    d = 1e-4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reps = [[solve_foc(PointState(mu, G, Metric(ball, p), bins), cs)
                 for cs in CONSTRAINT_SETS.values()] for p in (2.0 - d, 2.0, 2.0 + d)]
    zero = 1e-12 * reps[1][0].value       # the unconstrained value bounds every set's
    for lo, mid, hi in zip(*reps):
        v = mid.value
        if v <= zero:       # every direction pinned (n2 = 2, fine bins): 0 at every p
            assert max(lo.value, hi.value) <= zero, mid.constraints
            continue
        assert lo.converged and mid.converged and hi.converged, mid.constraints
        up, down = (hi.value - v) / d, (v - lo.value) / d
        assert max(abs(up), abs(down)) <= 10.0 * v, mid.constraints
        assert abs(up - down) <= 0.01 * max(abs(up), abs(down)) + d * v, mid.constraints


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 5), st.floats(0.1, 0.15),
       st.sampled_from(sorted(CONSTRAINT_FLAGS)), st.sampled_from([0.1, 0.2]))
def test_ball_lp_matches_highs(seed, n, spacing, constraints, r):
    # random lattices whose nearby atoms couple; solve_lp certifies its
    # point against the LP's rows (or raises) and must reach HiGHS's optimum
    linprog = pytest.importorskip("scipy.optimize").linprog
    mu = lattice_measure(seed, n, spacing, 1.0, 0.02)
    flags = CONSTRAINT_FLAGS[constraints]
    tgt = default_target_support(mu, [r], **pinned(flags))
    lp, v0 = transport_lp(DiscreteBallProblem(mu, tgt, r, 2.0,
                                              objective=lambda y1, y2: y2 + 0.5 * y1 * y2,
                                              **flags))
    res = solve_lp(**lp, maximize=True)
    ref = linprog(-lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"], b_eq=lp["b_eq"],
                  bounds=(0, None), method="highs")
    assert ref.status == 0
    assert abs(res.fun + ref.fun) <= 1e-9 * abs(v0 - ref.fun)
