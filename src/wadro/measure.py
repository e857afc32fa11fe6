"""Two-period measures on finite disintegrated grids.

A two-period model is stored as first-stage atoms ``x1`` with weights ``w1``
and, for every first-stage atom, a conditional row of second-stage atoms
``x2[i, :]`` with conditional weights ``q[i, :]``.  Conditional expectations
given the first stage are exact sums over rows; conditioning on the second
stage is approximated by a quantile bin partition of the pooled second
marginal.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

WEIGHT_TOL = 1e-12
MERGE_TOL = 1e-12
MARTINGALE_RTOL = 1e-9

_FAMILIES = ("bachelier", "black_scholes", "custom")
_QUADRATURES = ("gauss_hermite", "equally_weighted")


class MeasureError(ValueError):
    """A grid measure violates one of its structural invariants."""


@dataclass(frozen=True)
class GridMeasure:
    """Discrete law of a pair (X1, X2) with explicit disintegration.

    Attributes
    ----------
    x1 : (n1,) strictly increasing first-stage support.
    w1 : (n1,) strictly positive weights summing to one.
    x2 : (n1, n2) conditional second-stage support, each row strictly increasing.
    q : (n1, n2) strictly positive conditional weights, each row summing to one.
    is_martingale : whether ``sum_j q[i,j] x2[i,j] == x1[i]`` is asserted.
    """

    x1: np.ndarray
    w1: np.ndarray
    x2: np.ndarray
    q: np.ndarray
    is_martingale: bool = False

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=float)
        w1 = np.asarray(self.w1, dtype=float)
        x2 = np.asarray(self.x2, dtype=float)
        q = np.asarray(self.q, dtype=float)
        for name, arr in (("x1", x1), ("w1", w1), ("x2", x2), ("q", q)):
            if not np.all(np.isfinite(arr)):
                raise MeasureError(f"{name} contains non-finite entries")
        if x1.ndim != 1 or w1.shape != x1.shape:
            raise MeasureError("x1 and w1 must be vectors of equal length")
        if x2.ndim != 2 or x2.shape[0] != x1.size or q.shape != x2.shape:
            raise MeasureError("x2 and q must be (n1, n2) matrices")
        if np.any(np.diff(x1) <= 0):
            raise MeasureError("x1 must be strictly increasing")
        if np.any(np.diff(x2, axis=1) <= 0):
            raise MeasureError("each row of x2 must be strictly increasing")
        if np.any(w1 <= 0) or abs(w1.sum() - 1.0) > WEIGHT_TOL:
            raise MeasureError("w1 must be positive and sum to 1 within 1e-12")
        if np.any(q <= 0) or np.any(np.abs(q.sum(axis=1) - 1.0) > WEIGHT_TOL):
            raise MeasureError("each row of q must be positive and sum to 1 within 1e-12")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "q", q)
        masses = w1[:, None] * q
        masses.flags.writeable = False
        object.__setattr__(self, "_masses", masses)
        if self.is_martingale:
            tol = MARTINGALE_RTOL * max(1.0, float(np.max(np.abs(x1))))
            if self.martingale_residual() > tol:
                raise MeasureError(
                    f"martingale flag set but residual {self.martingale_residual():.3e} exceeds {tol:.3e}"
                )

    @property
    def n1(self) -> int:
        return self.x1.size

    @property
    def n2(self) -> int:
        return self.x2.shape[1]

    def atom_masses(self) -> np.ndarray:
        """Joint masses w1[i] * q[i, j], shape (n1, n2); computed once, read-only."""
        return self._masses

    def martingale_residual(self) -> float:
        """max_i |sum_j q[i,j] x2[i,j] - x1[i]|."""
        return float(np.max(np.abs(np.sum(self.q * self.x2, axis=1) - self.x1)))

    def displaced(self, theta1: np.ndarray | float, theta2: np.ndarray | float,
                  r: float) -> "GridMeasure":
        """Pushforward under x -> x + r * theta on atoms (masses unchanged)."""
        t1 = np.broadcast_to(np.asarray(theta1, dtype=float), self.x1.shape)
        t2 = np.broadcast_to(np.asarray(theta2, dtype=float), self.x2.shape)
        return GridMeasure(self.x1 + r * t1, self.w1, self.x2 + r * t2, self.q)

    def row_expectation(self, fn) -> np.ndarray:
        """v[i] = sum_j q[i,j] fn(x1[i], x2[i,j]), one value per first-stage atom.

        ``fn`` is evaluated once on the whole grid; each row is then summed
        exactly as a per-row ``np.sum`` would sum it.
        """
        a = np.broadcast_to(self.x1[:, None], self.x2.shape)
        return np.sum(self.q * fn(a, self.x2), axis=1)

    @property
    def rows(self) -> tuple:
        """(x2 row, q row) per first-stage atom, as ``RaggedMeasure`` stores them."""
        return tuple(zip(self.x2, self.q))


@dataclass(frozen=True)
class ModelSpec:
    """Parametric two-period model family on a quadrature grid."""

    family: str
    sigma: float
    n1: int
    n2: int
    quadrature: str = "gauss_hermite"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise MeasureError(f"unknown family {self.family!r}, expected one of {_FAMILIES}")
        if self.quadrature not in _QUADRATURES:
            raise MeasureError(f"unknown quadrature {self.quadrature!r}")
        if not (self.sigma > 0):
            raise MeasureError("sigma must be positive")
        if self.n1 < 2 or self.n2 < 2:
            raise MeasureError("grid sizes must be at least 2")


def std_normal_nodes(n: int, quadrature: str = "gauss_hermite") -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating against the standard normal law.

    The nodes are computed once per ``(n, quadrature)``; every call returns
    fresh copies, so a caller that writes into them leaves the cache intact.
    """
    z, w = _cached_nodes(n, quadrature)
    return z.copy(), w.copy()


@functools.lru_cache(maxsize=32)
def _cached_nodes(n: int, quadrature: str) -> tuple[np.ndarray, np.ndarray]:
    if quadrature == "gauss_hermite":
        z, w = np.polynomial.hermite_e.hermegauss(n)
        w = w / w.sum()
    elif quadrature == "equally_weighted":
        nd = NormalDist()
        z = np.array([nd.inv_cdf((k + 0.5) / n) for k in range(n)])
        w = np.full(n, 1.0 / n)
    else:
        raise MeasureError(f"unknown quadrature {quadrature!r}")
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def build_model(spec: ModelSpec) -> GridMeasure:
    """Discretize the Bachelier or Black-Scholes two-period model.

    Rows are renormalized so the martingale identity holds exactly on the
    grid: the Bachelier innovation grid is recentered, the Black-Scholes
    exponential is divided by its quadrature mean.
    """
    if spec.family == "custom":
        raise MeasureError("custom measures are loaded via from_csv, not build_model")
    z1, w1 = std_normal_nodes(spec.n1, spec.quadrature)
    z2, w2 = std_normal_nodes(spec.n2, spec.quadrature)
    s = spec.sigma
    if spec.family == "bachelier":
        z2c = z2 - w2 @ z2
        x1 = s * z1
        x2 = x1[:, None] + s * z2c[None, :]
    else:
        e1 = np.exp(s * z1)
        x1 = e1 / (w1 @ e1)
        e2 = np.exp(s * z2)
        x2 = x1[:, None] * (e2 / (w2 @ e2))[None, :]
    q = np.tile(w2, (spec.n1, 1))
    return GridMeasure(x1, w1, x2, q, is_martingale=True)


def cond_exp_1(mu: GridMeasure, field: np.ndarray) -> np.ndarray:
    """Exact conditional expectation given X1: v[i] = sum_j q[i,j] field[i,j]."""
    field = np.asarray(field, dtype=float)
    if field.shape != mu.x2.shape:
        raise MeasureError(f"field shape {field.shape} does not match grid {mu.x2.shape}")
    return np.sum(mu.q * field, axis=1)


@dataclass(frozen=True, eq=False)
class Binning:
    """Partition of the pooled second-stage support into mass bins, with the
    atoms of ``mu`` sorted into its bins once.

    ``edges`` has length m+1 and brackets the pooled support; atom (i, j)
    belongs to bin b iff edges[b] <= x2[i,j] < edges[b+1].  ``index`` is the
    read-only atom -> bin map, shape (n1, n2), and ``mass`` the read-only
    mu-mass of each bin, every one positive.  Per-bin sums and the binned
    surrogate E2 of E[. | X2] read them; nothing searches the edges again.
    """

    edges: np.ndarray
    m: int
    mu: GridMeasure
    index: np.ndarray = field(init=False)
    mass: np.ndarray = field(init=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size != self.m + 1:
            raise MeasureError("edges must be a vector of length m+1")
        if np.any(np.diff(edges) <= 0):
            raise MeasureError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)
        index = self.assign(self.mu.x2.ravel()).reshape(self.mu.x2.shape)
        mass = np.bincount(index.ravel(), self.mu.atom_masses().ravel(), self.m)
        if np.any(mass <= 0):
            raise MeasureError("empty bin (zero mass)")
        index.flags.writeable = mass.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "mass", mass)

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Bin index for each value; raises if a value falls outside the edges."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.edges[1:-1], x, side="right")
        if np.any(x < self.edges[0]) or np.any(x >= self.edges[-1]):
            raise MeasureError("value outside the bin partition")
        return idx

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-bin sums of per-atom values, shape (m,)."""
        return np.bincount(self.index.ravel(), np.ravel(values), self.m)

    def e2(self, field: np.ndarray) -> np.ndarray:
        """Binned surrogate of E[field | X2]: one value per bin.

        ``field`` holds per-atom values (n1, n2), or a function of the first
        stage as (n1, 1).
        """
        if np.shape(field) not in (self.index.shape, (self.index.shape[0], 1)):
            raise MeasureError(f"field shape {np.shape(field)} does not match grid "
                               f"{self.index.shape}")
        return self.sums(self.mu.atom_masses() * field) / self.mass


def quantile_bins(mu: GridMeasure, m: int) -> Binning:
    """Quantile partition of mu's second marginal into at most m bins, with
    mu's atoms binned.

    Cut points sit halfway between consecutive pooled atoms so that every
    atom falls strictly inside a bin.  ``m`` is an upper bound: quantile
    targets that fall between the same two pooled atoms give one cut, so
    bins merge (64 requested bins give 44 on the 64x64 Gauss-Hermite grid).
    """
    if m < 1:
        raise MeasureError("need at least one bin")
    z, mass = marginal_2(mu)
    cum = np.cumsum(mass)
    # an atom whose cumulative mass hits k/m exactly stays below the cut
    t = np.searchsorted(cum, np.arange(1, m) / m, side="right")
    t = t[(t > 0) & (t < z.size)]
    interior = np.unique(0.5 * (z[t - 1] + z[t]))
    span = z[-1] - z[0] if z.size > 1 else 1.0
    pad = max(1e-9, 1e-9 * abs(span))
    edges = np.concatenate(([z[0] - pad], interior, [z[-1] + pad]))
    return Binning(edges, edges.size - 1, mu)


def marginal_2(mu: GridMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Pooled second marginal (locations, masses), coincident atoms merged."""
    order = np.argsort(mu.x2.ravel(), kind="stable")
    z, mass = mu.x2.ravel()[order], mu.atom_masses().ravel()[order]
    keep = np.empty(z.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(z) > MERGE_TOL
    groups = np.cumsum(keep) - 1
    return z[keep], np.bincount(groups, mass)


def sign_copy_measure(n2: int) -> GridMeasure:
    """Counterexample law L(xi, xi + U), xi uniform on {-1, 1}, U uniform grid.

    The conditional rows use midpoints of [-1, 1] so their supports do not
    overlap and sgn(X2) determines X1; the informational-discrepancy
    contraction norm equals one at every n2.
    """
    u = -1.0 + (2.0 * np.arange(n2) + 1.0) / n2
    x1 = np.array([-1.0, 1.0])
    x2 = x1[:, None] + u[None, :]
    q = np.full((2, n2), 1.0 / n2)
    return GridMeasure(x1, np.array([0.5, 0.5]), x2, q, is_martingale=True)


def canonical_test_measure() -> GridMeasure:
    """Canned 5x5 martingale measure used by the oracle sandwich checks."""
    x1 = np.array([0.8, 0.9, 1.0, 1.1, 1.2])
    w1 = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    off = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
    q = np.tile(np.array([0.1, 0.2, 0.4, 0.2, 0.1]), (5, 1))
    x2 = x1[:, None] + off[None, :]
    return GridMeasure(x1, w1, x2, q, is_martingale=True)


_CSV_HEADER = ["i", "j", "x1", "w1", "x2", "q"]


def to_csv(mu: GridMeasure, path_or_buf) -> None:
    """Write the measure in the (i, j, x1, w1, x2, q) row schema."""
    own = isinstance(path_or_buf, (str, bytes))
    f = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        for i in range(mu.n1):
            for j in range(mu.n2):
                writer.writerow([i, j, repr(float(mu.x1[i])), repr(float(mu.w1[i])),
                                 repr(float(mu.x2[i, j])), repr(float(mu.q[i, j]))])
    finally:
        if own:
            f.close()


def from_csv(path_or_buf, is_martingale: bool = False) -> GridMeasure:
    """Load a measure written by :func:`to_csv`; header line is mandatory."""
    own = isinstance(path_or_buf, (str, bytes))
    f = open(path_or_buf, "r", newline="") if own else path_or_buf
    try:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _CSV_HEADER:
            raise MeasureError(f"expected header {','.join(_CSV_HEADER)}")
        rows = {}
        x1 = {}
        w1 = {}
        for rec in reader:
            if not rec:
                continue
            i, j = int(rec[0]), int(rec[1])
            x1[i] = float(rec[2])
            w1[i] = float(rec[3])
            rows.setdefault(i, {})[j] = (float(rec[4]), float(rec[5]))
        if not rows:
            raise MeasureError("no atom rows in file")
        n1 = max(rows) + 1
        n2 = max(max(r) for r in rows.values()) + 1
        x2 = np.empty((n1, n2))
        q = np.empty((n1, n2))
        for i in range(n1):
            if i not in rows or len(rows[i]) != n2:
                raise MeasureError("ragged or incomplete atom table")
            for j in range(n2):
                x2[i, j], q[i, j] = rows[i][j]
        return GridMeasure(np.array([x1[i] for i in range(n1)]),
                           np.array([w1[i] for i in range(n1)]),
                           x2, q, is_martingale=is_martingale)
    finally:
        if own:
            f.close()
