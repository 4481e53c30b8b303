"""Node-level sufficient statistics and the pairwise-difference matrix.

Every split decision reduces to moments (count, response sum, sum of squares)
held by one record, ``NodeStats``, of one node or of many nodes or category
cells; its ``sse()`` is the one SSE formula, and a split costs
``left.sse() + (total - left).sse()``. ``CategoryStats`` is its per-category
case. One cell pass, ``category_cells``, forms the category sums and exact
totals of every node of a level; ``aggregate_categories`` is its one-node
case. ``build_v_matrix`` forms the M x M matrix of half pairwise squared
response differences between categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NodeStats:
    """Observation count with response sum and sum of squares: numbers for
    one node, or read-only arrays with an entry per node or cell. Indexing
    takes entries of every field (an int gives one node's Python numbers);
    ``total - left`` subtracts field by field."""

    n: int
    sum: float
    sum_sq: float

    def __post_init__(self):
        for values in vars(self).values():
            if isinstance(values, np.ndarray):
                values.flags.writeable = False

    @classmethod
    def from_values(cls, values) -> "NodeStats":
        return cls.of_runs(values, [len(values)])[0]

    @classmethod
    def of_runs(cls, values, sizes) -> "NodeStats":
        """The stats of each consecutive run of ``sizes`` values, in order, each sum by math.fsum."""
        values = np.asarray(values, dtype=np.float64)
        sums, squares = values.tolist(), (values * values).tolist()
        n = np.array(sizes, dtype=np.int64)
        ends = np.cumsum(n).tolist()
        runs = list(zip([0, *ends], ends))
        return cls(n, *(np.array([math.fsum(v[a:b]) for a, b in runs]) for v in (sums, squares)))

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, k) -> "NodeStats":
        if isinstance(k, (int, np.integer)):
            return NodeStats(*(getattr(self, f)[k].item() for f in ("n", "sum", "sum_sq")))
        return type(self)(*(values[k] for values in vars(self).values()))

    def __sub__(self, other: "NodeStats") -> "NodeStats":
        return NodeStats(self.n - other.n, self.sum - other.sum, self.sum_sq - other.sum_sq)

    def sse(self):
        """Sum of squared deviations from the mean, ``sum_sq - sum^2 / n``
        clamped at 0, of each entry; every entry needs n >= 1."""
        sse = np.maximum(self.sum_sq - self.sum * self.sum / self.n, 0.0)
        return sse if np.ndim(sse) else float(sse)


@dataclass(frozen=True, eq=False)
class CategoryStats(NodeStats):
    """Per-category stats of one node: entry i of each read-only array
    belongs to the i-th category observed there, in code order; ``index``
    holds those category codes and ``n`` the counts as float64."""

    index: np.ndarray


@dataclass(frozen=True, eq=False)
class VMatrix:
    """Symmetric matrix of half pairwise squared response differences.

    Entry (a, b) sums (y_i - y_j)^2 / 2 over observation pairs drawn from
    categories a and b; the diagonal equals n_a^2 * Var_a.
    """

    m: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def row_sums(self) -> np.ndarray:
        return self.values.sum(axis=1)


def node_variance(stats: NodeStats) -> float:
    """Biased sample variance from moments, clamped at zero."""
    if stats.n < 1:
        raise ValueError("variance of an empty node")
    mean = stats.sum / stats.n
    return max(0.0, stats.sum_sq / stats.n - mean * mean)


def pairwise_variance(values) -> float:
    """Variance via the mean-free double sum over all pairs.

    Test oracle for :func:`node_variance`; O(N^2).
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 1:
        raise ValueError("variance of an empty sample")
    diffs = values[:, None] - values[None, :]
    return float(np.sum(diffs * diffs)) / (2.0 * n * n)


# Most (segment, category) bins per np.bincount pass: a level with many
# nodes of a many-level column is summed in several passes, so the sums
# take at most a few MB at once.
_MAX_BINS = 1 << 18


def node_codes(codes) -> np.ndarray:
    """A node's category codes as int64; ValueError for no codes or a code that is not a whole number."""
    codes = np.asarray(codes)
    if len(codes) == 0:
        raise ValueError("empty node")
    if codes.dtype.kind not in "biu" and not np.all(np.isfinite(codes) & (np.floor(codes) == codes)):
        raise ValueError("category codes must be whole numbers")
    return codes.astype(np.int64, copy=False)


def category_cells(y, codes, m: int, seg):
    """``(cell_seg, cells, totals)``: the segment of every (segment, observed
    category) cell, the cells' CategoryStats by segment, then code, each sum
    in its segment's row order, and each segment's NodeStats with int counts:
    its cells' sums, by math.fsum over more than two (a sum of two is
    correctly rounded). ``seg`` groups the rows by ascending id, none empty.
    A code outside ``[0, m)`` would fold into another cell: ValueError."""
    if codes.min() < 0 or codes.max() >= m:
        raise ValueError(f"category codes must lie in [0, {m})")
    n_seg = int(seg[-1]) + 1
    firsts = np.arange(0, n_seg, max(1, _MAX_BINS // m))
    bounds = [*np.searchsorted(seg, firsts).tolist(), len(seg)]
    parts = []
    for lo, a, b in zip(firsts.tolist(), bounds, bounds[1:]):
        key, w = (seg[a:b] - lo) * m + codes[a:b], y[a:b]
        count = np.bincount(key)
        seen = np.flatnonzero(count)
        sums = (np.bincount(key, weights=v)[seen] for v in (w, w * w))
        parts.append((seen // m + lo, count[seen].astype(np.float64), *sums, seen % m))
    cell_seg, n, s, q, code = (np.concatenate(part) for part in zip(*parts))
    sizes = np.bincount(cell_seg)
    starts = np.cumsum(sizes) - sizes
    tn, ts, tq = (np.add.reduceat(v, starts) for v in (n, s, q))
    big = np.flatnonzero(sizes > 2)
    sl, ql = s.tolist(), q.tolist()  # math.fsum reads a list about 3x faster than an array
    for k, a, b in zip(big.tolist(), starts[big].tolist(), (starts + sizes)[big].tolist()):
        ts[k], tq[k] = math.fsum(sl[a:b]), math.fsum(ql[a:b])
    return cell_seg, CategoryStats(n, s, q, code), NodeStats(tn.astype(np.int64), ts, tq)


def aggregate_categories(codes, y, n_categories: int):
    """A node's responses grouped by category: one-node :func:`category_cells`.

    Categories with no observations at the node are dropped; the returned
    CategoryStats records the codes of the kept ones in ``index``. The
    NodeStats total is the fsum of the per-category sums, so the two stay
    exactly consistent. Codes outside ``[0, n_categories)`` raise ValueError.
    """
    codes, y = node_codes(codes), np.asarray(y, dtype=np.float64)
    _, aggs, totals = category_cells(y, codes, n_categories, np.zeros(len(codes), np.int64))
    return aggs, totals[0]


def build_v_matrix(aggs: CategoryStats) -> VMatrix:
    """Pairwise-difference matrix from sufficient statistics in O(M^2).

    V[a, b] = (n_b * q_a - 2 * s_a * s_b + n_a * q_b) / 2 with s the response
    sums and q the sums of squares; algebraically equal to the naive double
    sum over observations.
    """
    m = len(aggs)
    if m < 1:
        raise ValueError("need at least one category")
    n, s, q = aggs.n, aggs.sum, aggs.sum_sq
    v = 0.5 * (np.outer(q, n) - 2.0 * np.outer(s, s) + np.outer(n, q))
    v = 0.5 * (v + v.T)  # exact symmetry despite float addition order
    np.maximum(v, 0.0, out=v)
    return VMatrix(m, v)
