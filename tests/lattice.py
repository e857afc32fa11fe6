"""Random martingale measures on jittered lattices, shared by the tests."""

import numpy as np

from wadro.measure import GridMeasure


def lattice_measure(seed, n, spacing, centre, jitter):
    """Random n x n martingale measure on a jittered lattice.

    First-stage atoms sit ``spacing`` apart around ``centre`` and
    second-stage offsets ``spacing`` apart around 0, each moved by up to
    ``jitter``; weights are Dirichlet(4) draws, and every row's offsets are
    recentred under its weights.  Draws come from ``default_rng(seed)`` in
    the order: x1 jitter, w1, then q and the offset jitter row by row.
    """
    rng = np.random.default_rng(seed)
    base = spacing * (np.arange(n) - (n - 1) / 2)
    x1 = centre + base + rng.uniform(-jitter, jitter, n)
    w1 = rng.dirichlet(np.full(n, 4.0))
    x2 = np.empty((n, n))
    q = np.empty((n, n))
    for i in range(n):
        q[i] = rng.dirichlet(np.full(n, 4.0))
        off = base + rng.uniform(-jitter, jitter, n)
        x2[i] = x1[i] + (off - q[i] @ off)
    return GridMeasure(x1, w1, x2, q, is_martingale=True)

