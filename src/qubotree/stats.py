"""Node-level sufficient statistics and the pairwise-difference matrix.

Everything a categorical split decision needs is reduced here to per-category
counts and response sums, and to the M x M matrix of half pairwise squared
response differences between categories. One cell pass, ``category_cells``,
forms those sums and each node's exact totals for every node of a level;
``aggregate_categories`` is its one-node case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NodeStats:
    """Observation count with response sum and sum of squares."""

    n: int
    sum: float
    sum_sq: float

    @classmethod
    def from_values(cls, values) -> "NodeStats":
        return cls.of_runs(values, [len(values)])[0]

    @classmethod
    def of_runs(cls, values, sizes) -> list:
        """The stats of each consecutive run of ``sizes`` values, in order."""
        values = np.asarray(values, dtype=np.float64)
        sums, squares = values.tolist(), (values * values).tolist()
        out, end = [], 0
        for n in sizes:
            start, end = end, end + n
            out.append(cls(n, math.fsum(sums[start:end]), math.fsum(squares[start:end])))
        return out

    def sse(self) -> float:
        """Sum of squared deviations from the node mean, clamped at 0."""
        if self.n == 0:
            return 0.0
        return max(0.0, self.sum_sq - self.sum * self.sum / self.n)


@dataclass(frozen=True, eq=False)
class CategoryStats:
    """Per-category count, response sum, and response sum of squares.

    Entry i of each read-only array belongs to the i-th category observed at
    the node, in code order; ``index`` holds those category codes and ``n``
    the counts as float64.
    """

    index: np.ndarray
    n: np.ndarray
    sum: np.ndarray
    sum_sq: np.ndarray

    def __post_init__(self):
        for values in (self.index, self.n, self.sum, self.sum_sq):
            values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.index)


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


def category_cells(y, codes, m: int, seg):
    """Count, response sum and sum of squares of every (segment, observed
    category) pair, ``(seg, code, n, s, q)`` by segment, then code, each sum
    in its segment's row order, and each segment's totals ``(n, s, q)``: its
    cells' sums, by math.fsum over more than two (a sum of two is correctly
    rounded). ``seg`` groups the rows by ascending id, none empty. A code
    outside ``[0, m)`` would fold into another cell and raises ValueError."""
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
        parts.append((seen // m + lo, seen % m, count[seen].astype(np.float64), *sums))
    cells = cell_seg, _, n, s, q = tuple(np.concatenate(part) for part in zip(*parts))
    sizes = np.bincount(cell_seg)
    starts = np.cumsum(sizes) - sizes
    totals = tn, ts, tq = tuple(np.add.reduceat(v, starts) for v in (n, s, q))
    big = np.flatnonzero(sizes > 2)
    sl, ql = s.tolist(), q.tolist()  # math.fsum reads a list about 3x faster than an array
    for k, a, b in zip(big.tolist(), starts[big].tolist(), (starts + sizes)[big].tolist()):
        ts[k], tq[k] = math.fsum(sl[a:b]), math.fsum(ql[a:b])
    return cells, totals


def aggregate_categories(codes, y, n_categories: int):
    """A node's responses grouped by category: one-node :func:`category_cells`.

    Categories with no observations at the node are dropped; the returned
    CategoryStats records the codes of the kept ones in ``index``. The
    NodeStats total is the fsum of the per-category sums, so the two stay
    exactly consistent. Codes outside ``[0, n_categories)`` raise ValueError.
    """
    codes = np.asarray(codes, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    if len(codes) == 0:
        raise ValueError("empty node")
    (_, index, n, s, q), (tn, ts, tq) = category_cells(y, codes, n_categories, np.zeros(len(codes), np.int64))
    return CategoryStats(index, n, s, q), NodeStats(int(tn[0]), float(ts[0]), float(tq[0]))


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
