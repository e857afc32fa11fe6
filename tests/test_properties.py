"""Property tests on small random martingale grids (profile in conftest.py)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lattice import LP_SETS, lattice_measure, linprog_rows
from report_sweep import PHI, constraint_sets
from test_fredholm import dense_min_norm
from test_oracle import _scaled_martingale_psi
from wadro.criterion import GradientField, gradient_field, linear_criterion
from wadro.fredholm import REGULARIZE_GATE, build_operator, solve
from wadro.measure import GridMeasure, cond_exp_1, quantile_bins
from wadro.oracle import (FAMILY_RTOL, DiscreteBallProblem, default_target_support,
                          family_check, transport_lp)
from wadro.sensitivity import (CONSTRAINT_SETS, FOC_TOL, W2AD, CondConstraint, ConstraintSet,
                               Metric, PointState, SensitivityError, _HedgeMap,
                               adapted_gradient, chain_violation, martingale_psi, solve_foc)
from wadro.simplex import solve_lp

# x2 - x1 built as any other psi, and the martingale scaled by 2: d2 psi is
# 2 on every bin, so with both marginals its hedges keep the martingale's
# null direction
PSI_X2_MINUS_X1 = CondConstraint(lambda a, b: b - a, lambda a, b: -np.ones_like(a),
                                 lambda a, b: np.ones_like(b), "x2-x1")
PSI_2M = CondConstraint(lambda a, b: 2.0 * (b - a), lambda a, b: np.full_like(a, -2.0),
                        lambda a, b: np.full_like(b, 2.0), "2(x2-x1)")
# (1 + x1^2)(x2 - x1): every martingale keeps it, with a d1 psi that varies
# within a row and a d2 psi that is not 1, so it is the random grids' psi
PSI_SCALED = _scaled_martingale_psi()


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


ADAPTED_SETS = list(constraint_sets(PSI_SCALED).values())


def _refused_for_a_iv(exc: SensitivityError, cs: ConstraintSet) -> None:
    """A draw may break assumption A (iv) (a mean constraint in the span of
    the other hedges), and M+m1+m2 always does for phi(x1 x2); any other
    refusal fails the test rather than dropping the draw."""
    assert "A (iv)" in str(exc), (cs.label(), str(exc))


@given(binned_grids(), st.sampled_from(ADAPTED_SETS), st.sampled_from([1.5, 2.0, 3.0]))
def test_family_check_realizes_the_value(grid, cs, p):
    # mu displaced along the report's direction and corrected by the hedge
    # map keeps the constraints, and its slope is the value, for a smooth
    # payoff drawn with the grid; the marginal2 sets use the drawn bins
    mu, bins, rng = grid
    k1, k2 = rng.normal(size=2)
    c = linear_criterion(lambda a, b: np.sin(k1 * a + k2 * b),
                         lambda a, b: k1 * np.cos(k1 * a + k2 * b),
                         lambda a, b: k2 * np.cos(k1 * a + k2 * b))
    state = PointState(mu, gradient_field(c, mu), Metric("wp_adapted", p), bins)
    try:
        rep = solve_foc(state, cs)
    except SensitivityError as exc:
        _refused_for_a_iv(exc, cs)
        return
    if rep.converged:
        out = family_check(c, state, cs, rep)
        assert out["error"] <= FAMILY_RTOL and out["residual"] <= 1e-12, out


@given(binned_grids())
def test_fredholm_bin_space_matches_the_dense_path(grid):
    # on the drawn bins (often m < n1) and on bins as fine as the atoms
    # (m > n1), reweighted at random: each gate's Cholesky agrees with the
    # norm, and the Woodbury solve with the n1 x n1 one: for d > r to 1e-12,
    # and for d = r, zero-mean, against the L2(r) minimum-norm h to 1e-12
    # times the condition number past 1e3, or past 1 where modes of
    # eigenvalue 1 are dropped (their eigenvectors, split off from kept
    # modes near 1 in m x m B0, cost the kept ones accuracy)
    mu, bins, rng = grid
    weights = mu.atom_masses() * rng.uniform(0.1, 10.0, mu.x2.shape)
    gates = (1.0 - 1e-12, REGULARIZE_GATE, 0.5, 1.0 - 1e-12)
    for b in (bins, quantile_bins(mu, mu.n1 * mu.n2)):
        op = build_operator(b, weights)
        assert [op.below(g) for g in gates] == [op.norm < g for g in gates]
        rhs = rng.normal(size=mu.n1)
        d = op.r * rng.uniform(1.05, 3.0, mu.n1)
        dense = np.linalg.solve(np.diag(d) - op.r[:, None] * op.K, d * rhs)
        assert np.max(np.abs(solve(op, rhs, d) - dense)) <= 1e-12 * np.max(np.abs(dense))
        rhs -= float(op.w1 @ rhs)
        dense, kappa = dense_min_norm(op, rhs)
        c = 1e-3 if op.norm < 1.0 - 1e-10 else 1.0
        assert np.max(np.abs(solve(op, rhs) - dense)) \
            <= 1e-12 * max(1.0, c * kappa) * np.max(np.abs(np.r_[dense, rhs]))


BLOCK_SETS = [CONSTRAINT_SETS["martingale"], CONSTRAINT_SETS["marginal"],
              ConstraintSet(marginal2=True, cond_psi=martingale_psi()),
              CONSTRAINT_SETS["mart_marginal"],
              ConstraintSet(marginal2=True, mean_phi=(PHI,), cond_psi=martingale_psi()),
              ConstraintSet(marginal2=True, cond_psi=PSI_SCALED),
              ConstraintSet(marginal1=True, marginal2=True, cond_psi=PSI_SCALED),
              ConstraintSet(marginal1=True, marginal2=True, cond_psi=PSI_2M)]


@given(binned_grids(), st.sampled_from(BLOCK_SETS))
def test_block_solve_matches_a_dense_solve_at_random_weights(grid, cs):
    # at weights other than mu's masses the reweighted Fredholm operator is
    # not mu's own, and the block solve reads the weights' sums from it; its
    # field A du equals a dense solve's of A^T diag(D) A du = b, with A built
    # column by column from field and b in the range of A^T (a null
    # direction of the block, M+m1+m2's or a psi set's, moves no atom, so
    # the fields agree where du need not), to
    # 1e-12 times the condition number of D^1/2 A off its null space (a mean
    # constraint close to the span of the other hedges has a large one); the
    # dense solve cuts its singular values where that condition number does
    mu, bins, rng = grid
    state = PointState(mu, GradientField(np.zeros_like(mu.x2), np.ones_like(mu.x2)), W2AD, bins)
    try:
        hedges = _HedgeMap(state, cs)
    except SensitivityError as exc:
        _refused_for_a_iv(exc, cs)
        return
    sizes = [0 if z is None else z.size for z in hedges.u]

    def split(v):
        parts = np.split(v, np.cumsum(sizes)[:-1])
        return tuple(None if z is None else part for z, part in zip(hedges.u, parts))

    def column(v):
        return np.concatenate([F.ravel() for F in hedges.field(split(v))])

    A = np.column_stack([column(e) for e in np.eye(sum(sizes))])
    D1 = state.mw1 * rng.uniform(0.1, 10.0, state.mw1.shape)
    D2 = state.mw * rng.uniform(0.1, 10.0, state.mw.shape)
    D = np.concatenate([D1.ravel(), D2.ravel()])
    g, w = rng.normal(size=D.size), np.sqrt(D)
    b = A.T @ (D * g)     # so A du is the D-weighted least-squares fit of g
    dense = A @ np.linalg.lstsq(w[:, None] * A, w * g, rcond=1e-13)[0]
    sv = np.linalg.svd(w[:, None] * A, compute_uv=False)
    kappa = sv[0] / np.min(sv[sv > 1e-13 * sv[0]])
    F = column(np.concatenate([z for z in hedges.solve(split(b), D1, D2) if z is not None]))
    assert np.max(np.abs(F - dense)) <= 1e-12 * max(1.0, kappa) * np.max(np.abs(dense))


@given(binned_grids())
def test_shared_point_state_matches_standalone_solves(grid):
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    shared = PointState(mu, G, W2AD, bins)
    vals = {}
    for name, cs in CONSTRAINT_SETS.items():
        rep = solve_foc(shared, cs)
        alone = solve_foc(PointState(mu, G, W2AD, bins), cs)
        assert abs(rep.value - alone.value) <= 1e-12
        vals[name] = rep.value
    # more constraints can only lower the infimum
    assert chain_violation(vals.values()) <= 1e-10 * max(1.0, vals["unconstrained"])


@given(binned_grids(), st.sampled_from(["wp", "wp_adapted"]), st.sampled_from([1.5, 2.0, 3.0]))
def test_row_constant_psi_hedges_as_the_martingale(grid, ball, p):
    # d1 psi constant on every row is an exact per-atom weight on either
    # ball: x2 - x1 built as any other psi and 2 (x2 - x1), with weights
    # (-2, 2), have the martingale's infimum, alone and next to the marginals
    # (there a value 0 to rounding is measured against the unconstrained one)
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    state = PointState(mu, G, Metric(ball, p), bins)
    scale = solve_foc(state, ConstraintSet()).value
    for m1, m2 in ((False, False), (False, True), (True, True)):
        mart = solve_foc(state, ConstraintSet(marginal1=m1, marginal2=m2,
                                              cond_psi=martingale_psi()))
        for psi in (PSI_X2_MINUS_X1, PSI_2M):
            rep = solve_foc(state, ConstraintSet(marginal1=m1, marginal2=m2, cond_psi=psi))
            bound = 1e-12 * (max(mart.value, 1e-3 * scale) if m2 else mart.value)
            assert abs(rep.value - mart.value) <= bound, rep.constraints


@given(binned_grids(), st.sampled_from([1.5, 2.0, 3.0]))
def test_rescaled_martingale_has_the_martingale_value(grid, p):
    # (1 + x1^2)(x2 - x1) keeps the martingale's rows, and on the adapted ball
    # h hedges it with E1[d1 psi] = -(1 + x1^2) and d2 psi = 1 + x1^2: the
    # martingale's hedges rescaled row by row, so its infimum is the
    # martingale's, alone and next to the marginals (there a value 0 to
    # rounding is measured against the unconstrained one)
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    state = PointState(mu, G, Metric("wp_adapted", p), bins)
    scale = solve_foc(state, ConstraintSet()).value
    tol = 1e-12 if p == 2.0 else 1e-8
    for m1, m2 in itertools.product((False, True), (False, True)):
        mart, rep = (solve_foc(state, ConstraintSet(marginal1=m1, marginal2=m2, cond_psi=psi))
                     for psi in (martingale_psi(), PSI_SCALED))
        if mart.converged and rep.converged:
            assert abs(rep.value - mart.value) <= tol * max(mart.value, 1e-3 * scale), \
                rep.constraints


# phi(x1 x2) next to the martingale has the gradient's row and atom sums
# vanish apart at the optimum; alone, or next to psi, only their total does
PSI_M2_SETS = [ConstraintSet(marginal2=True, cond_psi=PSI_SCALED),
               ConstraintSet(marginal1=True, marginal2=True, cond_psi=PSI_SCALED),
               ConstraintSet(marginal1=True, marginal2=True, cond_psi=PSI_2M)]
ROW_FORM_SETS = [CONSTRAINT_SETS["martingale"], CONSTRAINT_SETS["marginal"],
                 CONSTRAINT_SETS["mart_marginal"],
                 ConstraintSet(mean_phi=(PHI,), cond_psi=martingale_psi()),
                 ConstraintSet(cond_psi=PSI_SCALED), ConstraintSet(mean_phi=(PHI,)),
                 ConstraintSet(mean_phi=(PHI,), cond_psi=PSI_SCALED)] + PSI_M2_SETS


@given(binned_grids(), st.sampled_from([1.5, 2.0, 3.0]))
def test_adapted_row_form_matches_the_full_grid(grid, p):
    # the adapted solve holds first components once per x1 row; S + F(u),
    # rebuilt on full (n1, n2) arrays from the report's multipliers, gives
    # the report's value and direction, and at p = 2 its mean constraint's
    # residual, summed atom by atom, is certified
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    state = PointState(mu, G, Metric("wp_adapted", p), bins)
    a, zero, mw, pc = (np.broadcast_to(mu.x1[:, None], mu.x2.shape), np.zeros(mu.x2.shape),
                       mu.atom_masses(), p / (p - 1.0))
    for cs in ROW_FORM_SETS:
        try:
            rep = solve_foc(state, cs)
        except SensitivityError as exc:
            _refused_for_a_iv(exc, cs)
            continue
        terms = [(adapted_gradient(mu, G).g1, G.g2)]
        if rep.f1 is not None:
            terms.append((rep.f1[:, None] + zero, zero))
        if rep.f2 is not None:
            terms.append((zero, rep.f2[bins.index]))
        if rep.h_hat is not None:
            c1 = cond_exp_1(mu, cs.cond_psi.d1(a, mu.x2) + zero)
            terms.append(((c1 * rep.h_hat)[:, None] + zero,
                          (cs.cond_psi.d2(a, mu.x2) + zero) * rep.h_hat[:, None]))
        P = [(cond_exp_1(mu, c.d1(a, mu.x2) + zero)[:, None] + zero, c.d2(a, mu.x2) + zero)
             for c in cs.mean_phi]
        for lam, (p1, p2) in zip(() if rep.lambda_hat is None else rep.lambda_hat, P):
            terms.append((lam * p1, lam * p2))
        R1, R2 = (sum(t[k] for t in terms) for k in (0, 1))
        M1, M2 = (sum(abs(t[k]) for t in terms) for k in (0, 1))
        value = np.sum(mw * (np.abs(R1) ** pc + np.abs(R2) ** pc)) ** (1.0 / pc)
        # a value that is 0 to rounding is measured against |S|; next to m2,
        # psi's block near singularity can make the hedge fields that cancel
        # in it larger than |S| (multipliers of 20 against |S| of 1 to 2 on
        # 2 x 2 draws with 2 bins), and the value is measured against them
        size = np.sum(mw * (M1 * M1 + M2 * M2)) ** 0.5 if cs in PSI_M2_SETS else state.norm
        assert abs(value - rep.value) <= 1e-12 * max(value, 1e-3 * size), cs.label()
        assert rep.T1.shape == mu.x2.shape and not rep.T1.flags.writeable
        if value <= 1e-6 * state.norm or p > 2.0:   # |s|^(p'-1) is not Lipschitz at 0 for p > 2
            continue
        N1, N2 = np.sign(R1) * np.abs(R1) ** (pc - 1.0), np.sign(R2) * np.abs(R2) ** (pc - 1.0)
        c = np.sum(mw * (np.abs(N1) ** p + np.abs(N2) ** p)) ** (1.0 / p)
        T_err = max(np.max(np.abs(N1 / c - rep.T1)), np.max(np.abs(N2 / c - rep.T2)))
        assert T_err <= 1e-9 * max(1.0, np.max(np.abs(N1 / c)), np.max(np.abs(N2 / c))), \
            cs.label()
        if p == 2.0:
            assert rep.converged, cs.label()
            for p1, p2 in P:
                assert abs(np.sum(mw * (p1 * N1 + p2 * N2)) / c) <= FOC_TOL, cs.label()


FLAG_SETS = [ConstraintSet(marginal1=m1, marginal2=m2, cond_psi=psi)
             for psi, m1, m2 in itertools.product((None, martingale_psi()), (False, True),
                                                  (False, True))]


@given(binned_grids(), st.sampled_from(["wp", "wp_adapted"]), st.sampled_from([1.5, 2.0, 3.0]),
       st.floats(1e-9, 1e9))
def test_positive_homogeneity(grid, ball, p, c):
    # value(cG) = c value(G) for c > 0 on every FLAG_SETS set, measured against the
    # unconstrained value, which bounds every constrained one
    mu, bins, rng = grid
    G = GradientField(rng.normal(size=mu.x2.shape), rng.normal(size=mu.x2.shape))
    metric = Metric(ball, p)
    cG = GradientField(c * G.g1, c * G.g2)
    one, scaled = PointState(mu, G, metric, bins), PointState(mu, cG, metric, bins)
    tol = 1e-12 if p == 2.0 else 1e-8
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
       st.sampled_from(sorted(LP_SETS)), st.sampled_from([0.1, 0.2]))
def test_ball_lp_matches_highs(seed, n, spacing, constraints, r):
    # random lattices whose nearby atoms couple; solve_lp certifies its
    # point against the LP's rows (or raises) and must reach HiGHS's optimum
    linprog = pytest.importorskip("scipy.optimize").linprog
    mu = lattice_measure(seed, n, spacing, 1.0, 0.02)
    cs = LP_SETS[constraints]
    lp, v0 = transport_lp(DiscreteBallProblem(mu, default_target_support(mu, [r], cs), r, 2.0, cs,
                                              objective=lambda y1, y2: y2 + 0.5 * y1 * y2))
    res = solve_lp(**lp, maximize=True)
    ref = linprog(-lp["c"], **linprog_rows(lp), bounds=(0, None), method="highs")
    assert ref.status == 0
    assert abs(res.fun + ref.fun) <= 1e-9 * abs(v0 - ref.fun)
