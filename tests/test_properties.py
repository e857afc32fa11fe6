"""Property tests on small random martingale grids (profile in conftest.py)."""

import warnings

import numpy as np
from hypothesis import given, strategies as st

from wadro.criterion import GradientField
from wadro.measure import BinPartition, GridMeasure, quantile_bins
from wadro.sensitivity import CONSTRAINT_SETS, W2AD, PointState, solve_foc


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
    plain = BinPartition(bins.edges, bins.m)
    assert np.array_equal(bins.index.ravel(), plain.assign(mu.x2.ravel()))
    assert not bins.index.flags.writeable and not bins.mass.flags.writeable
    assert np.array_equal(bins.mass, np.bincount(bins.index.ravel(),
                                                 mu.atom_masses().ravel(), bins.m))
    assert np.all(bins.mass > 0.0)
    assert np.allclose(bins.e2(np.full(mu.x2.shape, c)), c, rtol=1e-12, atol=1e-15)


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
