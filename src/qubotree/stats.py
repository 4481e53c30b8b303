"""Node-level sufficient statistics and the pairwise-difference matrix.

Everything a categorical split decision needs is reduced here to per-category
counts and response sums, and to the M x M matrix of half pairwise squared
response differences between categories.
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
        values = np.asarray(values, dtype=np.float64)
        return cls(len(values), math.fsum(values), math.fsum(values * values))

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


@dataclass(frozen=True)
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


def aggregate_categories(codes, y, n_categories: int):
    """Group a node's responses by category code.

    Categories with no observations at the node are dropped; the returned
    CategoryStats records the codes of the kept ones in ``index``. The
    NodeStats total is assembled from the per-category sums so the two stay
    exactly consistent.
    """
    codes = np.asarray(codes, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    if len(codes) == 0:
        raise ValueError("empty node")
    counts = np.bincount(codes, minlength=n_categories)
    index = np.flatnonzero(counts)
    sums = np.bincount(codes, weights=y, minlength=n_categories)[index]
    sums_sq = np.bincount(codes, weights=y * y, minlength=n_categories)[index]
    aggs = CategoryStats(index, counts[index].astype(np.float64), sums, sums_sq)
    node = NodeStats(int(counts.sum()), math.fsum(sums), math.fsum(sums_sq))
    return aggs, node


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
