import numpy as np
import pytest

from wadro.fredholm import (FredholmError, FredholmOperator, build_operator,
                            contraction_norm, solve, solve_regularized)
from wadro.measure import (GridMeasure, ModelSpec, build_model, cond_exp_1,
                           quantile_bins, sign_copy_measure)
from wadro.criterion import american_put, gradient_field


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
    rng = np.random.default_rng(3)
    perm = rng.permutation(16)
    P = np.eye(16)[perm]
    op2 = FredholmOperator(P @ op.K @ P.T, op.w1[perm], op.m)
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


def test_solve_dual_path_on_put_rhs():
    mu = build_model(ModelSpec("bachelier", 1.0, 32, 32))
    bins = quantile_bins(mu, 32)
    op = build_operator(bins)
    rhs = _put_rhs(mu, bins)
    h = solve(op, rhs)
    K0 = op.zero_mean_matrix()
    assert np.max(np.abs((np.eye(32) - K0) @ h - rhs)) <= 1e-8
    assert abs(float(mu.w1 @ h)) <= 1e-10
    # independent Neumann summation
    acc = rhs.copy()
    term = rhs.copy()
    for _ in range(10000):
        term = K0 @ term
        acc += term
        if np.max(np.abs(term)) < 1e-13:
            break
    assert np.max(np.abs(acc - h)) <= 1e-8


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


def test_regularized_solve_on_critical_operator():
    mu = sign_copy_measure(32)
    op = build_operator(quantile_bins(mu, 32))
    rhs = np.array([0.5, -0.5])
    h = solve_regularized(op, rhs)
    assert np.all(np.isfinite(h))
    assert abs(float(op.w1 @ h)) <= 1e-10


def test_solve_refuses_an_operator_of_norm_one():
    # 398 bins on 200 sign-copy rows: the norm is 1 + 7e-16, so the Neumann
    # path is skipped, and a direct solve answered |h| ~ 1.5e15 at a
    # residual of 6.7e-16, which no residual check would catch
    mu = sign_copy_measure(200)
    bins = quantile_bins(mu, 400)
    op = build_operator(bins)
    assert bins.m == 398 and op.norm >= 1.0 - 1e-12
    with pytest.raises(FredholmError, match="singular"):
        solve(op, np.array([1.0, -1.0]))
    assert np.all(np.isfinite(solve_regularized(op, np.array([1.0, -1.0]))))

