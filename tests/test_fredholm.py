import numpy as np
import pytest

from wadro.fredholm import (REGULARIZE_GATE, CrossBlock, FredholmError, FredholmOperator,
                            build_operator, certificate, contraction_norm, solve)
from wadro.measure import (GridMeasure, ModelSpec, build_model, cond_exp_1,
                           quantile_bins, sign_copy_measure)
from wadro.criterion import GradientField, american_put, gradient_field
from wadro.sensitivity import CONSTRAINT_SETS, W2AD, PointState, solve_foc


def _product_measure(n1=5, n2=7):
    x1 = np.linspace(-1.0, 1.0, n1)
    w1 = np.linspace(1.0, 2.0, n1)
    w1 /= w1.sum()
    row = np.linspace(-2.0, 2.0, n2)
    q = np.full((n1, n2), 1.0 / n2)
    return GridMeasure(x1, w1, np.tile(row, (n1, 1)), q)


def test_product_measure_kernel_is_rank_one():
    mu = _product_measure()
    op = build_operator(quantile_bins(mu, 4))
    assert np.max(np.abs(op.K - mu.w1[None, :])) <= 1e-12
    assert contraction_norm(op) <= 1e-10
    rhs = np.array([0.3, -0.1, 0.2, -0.4, 0.0])
    rhs -= float(mu.w1 @ rhs)
    assert np.allclose(solve(op, rhs), rhs, atol=1e-12)


def test_single_first_stage_atom():
    mu = GridMeasure(np.array([0.0]), np.array([1.0]),
                     np.array([[-1.0, 1.0]]), np.array([[0.5, 0.5]]))
    op = build_operator(quantile_bins(mu, 2))
    assert op.K.shape == (1, 1) and abs(op.K[0, 0] - 1.0) <= 1e-15


@pytest.mark.parametrize("family", ["bachelier", "black_scholes"])
def test_structure_checks(family):
    mu = build_model(ModelSpec(family, 1.0, 32, 32))
    op = build_operator(quantile_bins(mu, 32))
    assert np.max(np.abs(op.K.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(mu.w1 @ op.K - mu.w1)) <= 1e-12


def test_reweighted_operator_tolerates_zero_atoms():
    mu = build_model(ModelSpec("black_scholes", 0.7, 8, 8))
    bins = quantile_bins(mu, 8)
    default = build_operator(bins)
    assert np.allclose(build_operator(bins, mu.atom_masses()).K, default.K,
                       rtol=0, atol=1e-15)
    weights = mu.atom_masses() * np.linspace(1.0, 3.0, 8)[None, :]
    weights[2, :4] = 0.0
    op = build_operator(bins, weights)
    r = weights.sum(axis=1)
    assert np.allclose(op.w1, r / r.sum(), rtol=1e-14)
    assert np.max(np.abs(op.K.sum(axis=1) - 1.0)) <= 1e-12
    assert 0.0 < contraction_norm(op) < 1.0
    weights[3, :] = 0.0
    with pytest.raises(FredholmError):
        build_operator(bins, weights)


def test_contraction_power_iteration_matches_svd():
    mu = build_model(ModelSpec("bachelier", 1.0, 24, 24))
    op = build_operator(quantile_bins(mu, 24))
    norm = contraction_norm(op)
    d = np.sqrt(mu.w1)
    M = (op.zero_mean_matrix() * (1.0 / d)[None, :]) * d[:, None]
    assert abs(norm - np.linalg.svd(M, compute_uv=False)[0]) <= 1e-8


def test_contraction_permutation_invariant():
    mu = build_model(ModelSpec("black_scholes", 0.7, 16, 16))
    op = build_operator(quantile_bins(mu, 16))
    perm = np.random.default_rng(3).permutation(16)
    op2 = FredholmOperator(op.C[perm])
    assert abs(contraction_norm(op) - contraction_norm(op2)) <= 1e-10


def test_sign_copy_counterexample():
    mu = sign_copy_measure(64)
    op = build_operator(quantile_bins(mu, 64))
    assert contraction_norm(op) >= 0.99


def test_bachelier_norm_decreases_to_single_bin():
    mu = build_model(ModelSpec("bachelier", 1.0, 32, 32))
    fine = contraction_norm(build_operator(quantile_bins(mu, 32)))
    coarse = contraction_norm(build_operator(quantile_bins(mu, 4)))
    single = contraction_norm(build_operator(quantile_bins(mu, 1)))
    assert 0.0 < fine < 1.0
    assert coarse <= fine + 1e-12
    assert single <= 1e-12


def _put_rhs(mu, bins):
    G = gradient_field(american_put(side="buyer"), mu)
    rhs = cond_exp_1(mu, bins.e2(G.g2)[bins.index]) - cond_exp_1(mu, G.g2)
    return rhs - float(mu.w1 @ rhs)


def test_neumann_increments_decay_geometrically():
    mu = build_model(ModelSpec("black_scholes", 1.0, 24, 24))
    bins = quantile_bins(mu, 24)
    op = build_operator(bins)
    norm = contraction_norm(op)
    K0 = op.zero_mean_matrix()
    term = _put_rhs(mu, bins)
    prev = float(np.sqrt(np.sum(mu.w1 * term ** 2)))
    for _ in range(40):
        term = K0 @ term
        cur = float(np.sqrt(np.sum(mu.w1 * term ** 2)))
        if prev < 1e-13:
            break
        assert cur <= (norm + 1e-3) * prev
        prev = cur


def test_solve_rejects_nonzero_mean():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    op = build_operator(quantile_bins(mu, 8))
    with pytest.raises(FredholmError):
        solve(op, np.ones(8))


def test_zero_rhs():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    op = build_operator(quantile_bins(mu, 8))
    assert np.allclose(solve(op, np.zeros(8)), 0.0)


def dense_min_norm(op, rhs):
    """The L2(r) minimum-norm least-squares solution of (I - K0) h = rhs and
    the condition number of the kept part: lstsq on the n1 x n1 symmetric form
    D_r^1/2 (I - K0) D_r^-1/2 (singular values at most 1), values below 1e-10 cut."""
    s = np.sqrt(op.r)
    A = np.eye(s.size) - s[:, None] * op.zero_mean_matrix() / s
    sv = np.linalg.svd(A, compute_uv=False)
    return np.linalg.lstsq(A, s * rhs, rcond=1e-10)[0] / s, sv[0] / np.min(sv[sv > 1e-10 * sv[0]])


def test_regularized_solve_on_critical_operator():
    mu = sign_copy_measure(32)
    op = build_operator(quantile_bins(mu, 32))
    rhs = np.array([0.5, -0.5])
    h = solve(op, rhs)
    assert np.all(np.isfinite(h))
    assert abs(float(op.w1 @ h)) <= 1e-10


def test_solve_at_an_operator_of_norm_one():
    # 398 bins on 200 sign-copy rows: the norm is 1 + 7e-16, and a direct
    # solve answered |h| ~ 1.5e15 at a residual of 6.7e-16, which no
    # residual check would catch; the solve drops the modes of eigenvalue 1
    # and answers the L2(r) minimum-norm least-squares h (I - K0 is 0 on
    # zero-mean functions here, so h is 0 and its normal equations hold;
    # K0 is self-adjoint in L2(r))
    mu = sign_copy_measure(200)
    bins = quantile_bins(mu, 400)
    op = build_operator(bins)
    assert bins.m == 398 and op.norm >= 1.0 - 1e-12
    rhs = np.array([1.0, -1.0])
    h = solve(op, rhs)
    A = np.eye(2) - op.zero_mean_matrix()
    assert np.all(np.isfinite(h)) and abs(float(op.w1 @ h)) <= 1e-15
    assert np.max(np.abs(A @ (A @ h - rhs))) <= 1e-14
    assert np.max(np.abs(h - dense_min_norm(op, rhs)[0])) <= 1e-13


def test_solve_between_the_gate_and_one():
    # norm 0.99996, past REGULARIZE_GATE: the eigendecomposition drops no
    # mode, and its h is the direct solve's
    mu = _near_gate_measure(1e-5)
    op = build_operator(quantile_bins(mu, 2))
    assert REGULARIZE_GATE < op.norm < 1.0 - 1e-6 and not op.below(REGULARIZE_GATE)
    rhs = np.array([0.5, -0.5])
    direct = np.linalg.solve(np.eye(2) - op.zero_mean_matrix(), rhs)
    assert np.allclose(solve(op, rhs), direct, rtol=1e-10, atol=0)
    assert np.allclose(direct, rhs / (1.0 - op.norm), rtol=1e-10)



def test_cross_block_solve_matches_the_dense_minimum_norm_h():
    # diag(r) - C D_b^-1 C^T for per-atom weights c2 and masses D on 3 rows
    # and 4 bins, each bin one atom of each row: a c2 that factors as
    # (row) x (bin) puts c2 h constant on every bin for one h, the block's
    # null direction, and the solve answers the L2(r) minimum-norm h; a
    # c2 that does not factor gives a positive definite block, solved exactly
    rng = np.random.default_rng(7)
    D = rng.uniform(0.5, 2.0, (3, 4))
    for c2 in (np.outer([1.0, -2.0, 0.5], [1.0, 3.0, -1.0, 2.0]), rng.normal(size=(3, 4))):
        C, b, r = D * c2, D.sum(axis=0), (D * c2 * c2).sum(axis=1)
        block = np.diag(r) - C @ np.diag(1.0 / b) @ C.T
        rhs = block @ rng.normal(size=3) / r         # r rhs in the block's range
        A = block / np.sqrt(np.outer(r, r))
        dense = np.linalg.lstsq(A, np.sqrt(r) * rhs, rcond=1e-10)[0] / np.sqrt(r)
        h = solve(CrossBlock(C, b, r), rhs, r)
        assert np.max(np.abs(h - dense)) <= 1e-12 * np.max(np.abs(dense))


def _near_gate_measure(leak=3e-4):
    # two rows that each leak the share ``leak`` of their mass across the bin
    # edge at 0: a well-posed operator of norm 1 - 4 leak, 0.9988 by default,
    # just under REGULARIZE_GATE
    x2 = np.array([[-2.0, -1.0, 0.5], [-0.5, 1.0, 2.0]])
    a = 0.5 - leak / 2
    q = np.array([[a, a, leak], [leak, a, a]])
    return GridMeasure(np.sum(q * x2, axis=1), np.array([0.5, 0.5]), x2, q,
                       is_martingale=True)


@pytest.mark.parametrize("mu, m", [(_near_gate_measure(), 2), (_near_gate_measure(1e-5), 2),
                                   (sign_copy_measure(64), 64), (sign_copy_measure(200), 200),
                                   (sign_copy_measure(200), 400)],
                         ids=["near_gate", "between_gates", "sign_copy_64", "sign_copy_200",
                              "sign_copy_200_fine"])
def test_gate_agrees_with_the_norm(mu, m):
    # norms 0.9988, 0.99996, 1 to rounding, 0.995 (the 200 bins merge) and
    # 1 to rounding; a gate below one that passed still takes its Cholesky
    op = build_operator(quantile_bins(mu, m))
    gates = (1.0 - 1e-12, REGULARIZE_GATE, 0.5, REGULARIZE_GATE, 1.0 - 1e-12)
    assert [op.below(g) for g in gates] == [op.norm < g for g in gates]


def test_solve_near_the_gate():
    # a Neumann sum capped at 10,000 terms is 2.5e-3 short here; the direct
    # solve is right, which is why the series certifies and does not solve
    mu = _near_gate_measure()
    bins = quantile_bins(mu, 2)
    op = build_operator(bins)
    assert bins.m == 2 and 0.998 < op.norm < 0.999
    rhs = np.array([0.5, -0.5])
    residual, gap = certificate(op, rhs)
    assert residual <= 1e-10 * np.max(np.abs(rhs)) and gap > 1e-3
    assert np.allclose(solve(op, rhs), rhs / (1.0 - op.norm), rtol=1e-10)
    G = GradientField(np.zeros_like(mu.x2), mu.x2.copy())
    rep = solve_foc(PointState(mu, G, W2AD, bins), CONSTRAINT_SETS["mart_marginal"])
    assert rep.converged and np.all(np.isfinite(rep.h_hat))
