"""Random martingale measures on jittered lattices, shared by the tests."""

from typing import NamedTuple

import numpy as np

from wadro.measure import GridMeasure
from wadro.oracle import ORACLE_SETS, DiscreteBallProblem, default_target_support
from wadro.sensitivity import ConstraintSet


def lattice_measure(seed, n, spacing, centre, jitter):
    """Random n x n martingale measure on a jittered lattice.

    First-stage atoms sit ``spacing`` apart around ``centre`` and
    second-stage offsets ``spacing`` apart around 0, each moved by up to
    ``jitter``; weights are Dirichlet(4) draws, and every row's offsets are
    recentred under its weights.  Draws come from ``default_rng(seed)`` in
    the order: x1 jitter, w1, then q and the offset jitter row by row.  A
    ``numpy.random.Generator`` as ``seed`` is drawn from where it stands.
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


class Reproducer(NamedTuple):
    """A ball LP for the payoff x2 (p = 2) on a lattice measure.

    The measure is the ``draw``-th lattice_measure drawn from
    ``default_rng(seed)``; the candidate support is
    ``default_target_support`` at ``radius`` for ``constraints``.
    ``problem()`` builds the LP's ``DiscreteBallProblem``.
    """

    spacing: float
    seed: int
    constraints: str            # a key of LP_SETS
    radius: float
    n: int = 7
    centre: float = 1.0
    jitter: float = 0.02
    draw: int = 1

    def measure(self) -> GridMeasure:
        rng = np.random.default_rng(self.seed)
        for _ in range(self.draw):
            mu = lattice_measure(rng, self.n, self.spacing, self.centre, self.jitter)
        return mu

    def problem(self) -> DiscreteBallProblem:
        mu, cs = self.measure(), LP_SETS[self.constraints]
        return DiscreteBallProblem(mu, default_target_support(mu, [self.radius], cs), self.radius,
                                   2.0, cs, objective=lambda y1, y2: y2)


# the oracle report's sets and the first marginal alone, by name
LP_SETS = {**ORACLE_SETS, "marginal1": ConstraintSet(marginal1=True)}


def lp_bytes(lp: dict) -> tuple:
    """A ``transport_lp`` LP as bytes: n_eq, and each array's dtype and data."""
    return lp["n_eq"], *((lp[k].dtype.str, lp[k].tobytes())
                         for k in ("c", "rows", "cols", "vals", "b"))


def linprog_rows(lp: dict) -> dict:
    """The constraint keywords of scipy's ``linprog`` for a ``solve_lp``
    column-list LP, as sparse matrices built from its entries."""
    from scipy.sparse import csr_array

    A = csr_array((lp["vals"], (lp["rows"], lp["cols"])), shape=(len(lp["b"]), len(lp["c"])))
    k = lp["n_eq"]
    return {"A_eq": A[:k], "b_eq": lp["b"][:k], "A_ub": A[k:], "b_ub": lp["b"][k:]}


# LPs on which the dense simplex with the textbook ratio test raised: the 16
# of a 1,200-LP sweep (7x7 lattices around 1 with jitter 0.02, seeds 0-149,
# 0.1 and 0.15 apart, martingale and both sets, r in {0.1, 0.2}), 15 with
# InaccurateError and seed 117 with UnboundedError, plus the benchmark's kind
# of 9x9 measure (second draw of default_rng(2)) at a radius that couples
# nothing.  ``lp_sweep.py`` re-runs that sweep against HiGHS; a later solver
# for the oracle's LPs is checked on the sweep and on these LPs.
REPRODUCERS = (
    *(Reproducer(0.1, seed, "martingale", 0.2)
      for seed in (18, 22, 30, 53, 63, 73, 101, 104, 111, 114, 118, 122, 142, 149)),
    Reproducer(0.15, 76, "martingale", 0.2),
    Reproducer(0.15, 117, "martingale", 0.1),
    Reproducer(0.5, 2, "martingale", 0.001, n=9, centre=3.0, jitter=0.04, draw=2),
)
