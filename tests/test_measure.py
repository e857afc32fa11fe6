import io
import math
from statistics import NormalDist

import numpy as np
import pytest

from wadro.fredholm import build_operator, contraction_norm
from wadro.measure import (Binning, GridMeasure, MeasureError, ModelSpec, build_model,
                           canonical_test_measure, cond_exp_1, from_csv, marginal_2,
                           quantile_bins, sign_copy_measure, std_normal_nodes, to_csv)


def test_bachelier_three_point_nodes():
    mu = build_model(ModelSpec("bachelier", 1.0, 3, 3))
    assert np.allclose(mu.x1, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-12)
    assert np.allclose(np.sum(mu.q * mu.x2, axis=1), mu.x1, atol=1e-14)


def test_black_scholes_mean_normalization():
    mu = build_model(ModelSpec("black_scholes", 0.1, 64, 64))
    assert abs(float(mu.w1 @ mu.x1) - 1.0) <= 1e-10
    joint = mu.atom_masses()
    assert abs(float(np.sum(joint * mu.x2)) - 1.0) <= 1e-10


def test_black_scholes_martingale_residual():
    # residual is measured relative to the row scale: at sigma = 1 the top
    # atom sits at ~1.8e6 where float64 cannot hold 1e-10 absolutely
    mu = build_model(ModelSpec("black_scholes", 1.0, 64, 64))
    rel = np.abs(np.sum(mu.q * mu.x2, axis=1) - mu.x1) / np.maximum(1.0, np.abs(mu.x1))
    assert np.max(rel) <= 1e-10


@pytest.mark.parametrize("spec", [
    dict(family="bachelier", sigma=-1.0, n1=4, n2=4),
    dict(family="bachelier", sigma=1.0, n1=1, n2=4),
    dict(family="bachelier", sigma=1.0, n1=4, n2=1),
    dict(family="nope", sigma=1.0, n1=4, n2=4),
])
def test_model_spec_rejects(spec):
    with pytest.raises(MeasureError):
        ModelSpec(**spec)


def test_custom_family_points_to_csv_loader():
    with pytest.raises(MeasureError, match="from_csv"):
        build_model(ModelSpec("custom", 1.0, 4, 4))


def test_grid_measure_invariants_enforced():
    x1 = np.array([0.0, 1.0])
    w1 = np.array([0.5, 0.5])
    x2 = np.array([[-1.0, 1.0], [0.0, 2.0]])
    q = np.full((2, 2), 0.5)
    GridMeasure(x1, w1, x2, q, is_martingale=True)
    with pytest.raises(MeasureError):
        GridMeasure(x1, np.array([0.6, 0.6]), x2, q)
    with pytest.raises(MeasureError):
        GridMeasure(x1, w1, x2[:, ::-1], q)
    with pytest.raises(MeasureError):
        GridMeasure(x1[::-1], w1, x2, q)
    with pytest.raises(MeasureError):
        GridMeasure(x1, w1, x2 + 0.5, q, is_martingale=True)


def test_cond_exp_1_constant_and_martingale():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    assert np.allclose(cond_exp_1(mu, np.ones_like(mu.x2)), 1.0, atol=1e-14)
    assert np.allclose(cond_exp_1(mu, mu.x2), mu.x1, atol=1e-13)


def test_cond_exp_1_second_moment_gaussian():
    # E[(Z1+Z2)^2 | Z1] = Z1^2 + 1 for independent standard normals
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    v = cond_exp_1(mu, mu.x2 ** 2)
    assert np.max(np.abs(v - (mu.x1 ** 2 + 1.0))) <= 1e-8


def test_cond_exp_1_contraction_and_tower():
    rng = np.random.default_rng(7)
    mu = build_model(ModelSpec("black_scholes", 0.5, 12, 12))
    field = rng.standard_normal(mu.x2.shape)
    v = cond_exp_1(mu, field)
    assert np.max(np.abs(v)) <= np.max(np.abs(field)) + 1e-15
    lhs = float(mu.w1 @ v)
    rhs = float(np.sum(mu.atom_masses() * field))
    assert abs(lhs - rhs) <= 1e-14


def test_cond_exp_1_shape_mismatch():
    mu = build_model(ModelSpec("bachelier", 1.0, 4, 4))
    with pytest.raises(MeasureError):
        cond_exp_1(mu, np.ones((4, 5)))


def _product_measure(n1=4, n2=6):
    x1 = np.linspace(-1.0, 1.0, n1)
    w1 = np.full(n1, 1.0 / n1)
    row = np.linspace(-2.0, 2.0, n2)
    q = np.full((n1, n2), 1.0 / n2)
    return GridMeasure(x1, w1, np.tile(row, (n1, 1)), q)


def test_cond_exp_2_constant_and_product():
    mu = build_model(ModelSpec("bachelier", 1.0, 8, 8))
    bins = quantile_bins(mu, 8)
    u = bins.e2(np.full_like(mu.x2, 3.25))
    assert np.allclose(u, 3.25, atol=1e-13)
    prod = _product_measure()
    pbins = quantile_bins(prod, 3)
    f = np.tile(prod.x1[:, None] ** 2, (1, prod.n2))
    u = pbins.e2(f)
    assert np.array_equal(pbins.e2(prod.x1[:, None] ** 2), u)
    with pytest.raises(MeasureError):
        pbins.e2(np.ones((prod.n1 + 1, 1)))
    expect = float(prod.w1 @ prod.x1 ** 2)
    assert np.allclose(u, expect, atol=1e-14)


def test_cond_exp_2_gaussian_conditioning():
    # oracle: E[Z1 | Z1 + Z2 = s] = s / 2 evaluated at the bin centers
    mu = build_model(ModelSpec("bachelier", 1.0, 32, 32))
    bins = quantile_bins(mu, 32)
    field = np.tile(mu.x1[:, None], (1, mu.n2))
    u = bins.e2(field)
    centers = bins.e2(mu.x2)
    assert np.max(np.abs(u - centers / 2.0)) <= 0.05


def test_quantile_bins_cover_atoms():
    mu = build_model(ModelSpec("black_scholes", 0.7, 16, 16))
    bins = quantile_bins(mu, 16)
    idx = bins.assign(mu.x2.ravel())
    assert idx.min() >= 0 and idx.max() < bins.m
    counts = np.bincount(idx, minlength=bins.m)
    assert np.all(counts > 0)


def _quantile_edges_per_cut(mu, m):
    """The partition's edges with one searchsorted per cut point."""
    z, mass = marginal_2(mu)
    cum = np.cumsum(mass)
    cuts = []
    for k in range(1, m):
        t = np.searchsorted(cum, k / m, side="right")
        if t == 0 or t >= z.size:
            continue
        cuts.append(0.5 * (z[t - 1] + z[t]))
    interior = np.unique(np.asarray(cuts))
    span = z[-1] - z[0] if z.size > 1 else 1.0
    pad = max(1e-9, 1e-9 * abs(span))
    return np.concatenate(([z[0] - pad], interior, [z[-1] + pad]))


@pytest.mark.parametrize("mu", [
    build_model(ModelSpec("black_scholes", 0.7, 16, 16)),
    build_model(ModelSpec("bachelier", 0.3, 64, 64, "equally_weighted")),
    canonical_test_measure(),
    sign_copy_measure(32),
])
@pytest.mark.parametrize("m", [1, 2, 7, 16, 64, 500])
def test_quantile_bins_match_per_cut_search(mu, m):
    assert np.array_equal(quantile_bins(mu, m).edges, _quantile_edges_per_cut(mu, m))


@pytest.mark.parametrize("quadrature", ["gauss_hermite", "equally_weighted"])
@pytest.mark.parametrize("n", [2, 16, 128])
def test_std_normal_nodes_match_direct_computation(n, quadrature):
    if quadrature == "gauss_hermite":
        z, w = np.polynomial.hermite_e.hermegauss(n)
        w = w / w.sum()
    else:
        nd = NormalDist()
        z = np.array([nd.inv_cdf((k + 0.5) / n) for k in range(n)])
        w = np.full(n, 1.0 / n)
    for _ in range(2):          # the first call may fill the cache, the second reads it
        zc, wc = std_normal_nodes(n, quadrature)
        assert np.array_equal(zc, z) and np.array_equal(wc, w)


def test_std_normal_nodes_writes_do_not_reach_the_cache():
    z0, w0 = (a.copy() for a in std_normal_nodes(16))
    z, w = std_normal_nodes(16)
    z[:] = 0.0
    w *= 2.0
    z1, w1 = std_normal_nodes(16)
    assert np.array_equal(z1, z0) and np.array_equal(w1, w0)


def test_std_normal_nodes_rejects_unknown_quadrature():
    for _ in range(2):
        with pytest.raises(MeasureError):
            std_normal_nodes(8, "simpson")


def test_bin_partition_rejects_bad_edges():
    with pytest.raises(MeasureError, match="strictly increasing"):
        Binning(np.array([-3.0, -3.0, 3.0]), 2, _product_measure(2, 4))


def test_binning_rejects_empty_bins_and_atoms_outside():
    prod = _product_measure(2, 4)           # x2 atoms at -2, -2/3, 2/3, 2
    with pytest.raises(MeasureError, match="empty"):
        Binning(np.array([-3.0, -2.5, 3.0]), 2, prod)
    with pytest.raises(MeasureError, match="outside"):
        Binning(np.array([-1.0, 0.0, 3.0]), 2, prod)


def test_marginal_2_single_row_and_merge():
    x1 = np.array([0.5])
    mu = GridMeasure(x1, np.array([1.0]), np.array([[0.0, 1.0, 2.0]]),
                     np.array([[0.2, 0.5, 0.3]]))
    z, m = marginal_2(mu)
    assert np.allclose(z, [0.0, 1.0, 2.0]) and np.allclose(m, [0.2, 0.5, 0.3])
    prod = _product_measure(2, 4)
    z, m = marginal_2(prod)
    assert z.size == 4
    assert np.allclose(m, 0.25)


def test_marginal_2_mass_and_moments():
    mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
    z, m = marginal_2(mu)
    assert abs(m.sum() - 1.0) <= 1e-12
    assert abs(float(m @ z)) <= 1e-12          # symmetric model, mean zero
    joint = mu.atom_masses()
    for k in (1, 2, 3):
        assert abs(float(m @ z ** k) - float(np.sum(joint * mu.x2 ** k))) <= 1e-12


def test_info_discrepancy_product_is_zero():
    prod = _product_measure()
    bins = quantile_bins(prod, 4)
    assert contraction_norm(build_operator(bins)) <= 1e-12


def test_info_discrepancy_sign_copy_hits_one():
    for n2 in (16, 32, 64):
        mu = sign_copy_measure(n2)
        bins = quantile_bins(mu, n2)
        val = contraction_norm(build_operator(bins))
        assert val > 0.99


def test_info_discrepancy_bachelier_strictly_inside():
    mu = build_model(ModelSpec("bachelier", 1.0, 32, 32))
    bins = quantile_bins(mu, 32)
    val = contraction_norm(build_operator(bins))
    assert 0.0 < val < 1.0


def test_csv_roundtrip():
    mu = build_model(ModelSpec("black_scholes", 0.3, 6, 5))
    buf = io.StringIO()
    to_csv(mu, buf)
    buf.seek(0)
    back = from_csv(buf, is_martingale=True)
    assert np.array_equal(back.x1, mu.x1)
    assert np.array_equal(back.x2, mu.x2)
    assert np.array_equal(back.q, mu.q)


def test_csv_rejects_corruption():
    mu = canonical_test_measure()
    buf = io.StringIO()
    to_csv(mu, buf)
    text = buf.getvalue().replace("0.4", "0.9", 1)   # break a weight sum
    with pytest.raises(MeasureError):
        from_csv(io.StringIO(text))
    with pytest.raises(MeasureError):
        from_csv(io.StringIO("a,b\n1,2\n"))


def test_displaced_keeps_masses():
    mu = build_model(ModelSpec("bachelier", 1.0, 6, 6))
    theta2 = np.exp(-mu.x2 ** 2)
    nu = mu.displaced(0.0, theta2, 1e-3)
    assert np.array_equal(nu.w1, mu.w1)
    assert np.array_equal(nu.q, mu.q)
    assert np.array_equal(nu.x2, mu.x2 + 1e-3 * theta2)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n", [32, 48])
def test_black_scholes_both_means_one(sigma, n):
    mu = build_model(ModelSpec("black_scholes", sigma, n, n))
    assert abs(float(mu.w1 @ mu.x1) - 1.0) <= 1e-8
    assert abs(float(np.sum(mu.atom_masses() * mu.x2)) - 1.0) <= 1e-8


def test_cond_exp_2_contraction():
    rng = np.random.default_rng(11)
    mu = build_model(ModelSpec("black_scholes", 0.6, 12, 12))
    bins = quantile_bins(mu, 12)
    field = rng.standard_normal(mu.x2.shape)
    u = bins.e2(field)
    assert np.max(np.abs(u)) <= np.max(np.abs(field)) + 1e-15
