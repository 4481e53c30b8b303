"""Best-split search per variable.

``best_splits`` searches many nodes at once, each column for all of them in
one pass, with each node's own arithmetic; ``best_split`` is its one-node
case. Numeric and binary variables use the sorted threshold scan. For a
categorical variable one ``stats.category_cells`` pass sums the category
cells and totals of every node, and one sorted-means scan, optimal for
squared error, splits and prices them all, under ``greedy`` and ``qubo``
alike. The paper's ratio iteration over split QUBOs,
``best_categorical_split_qubo``, searches one node at a time. An
exhaustive-partition searcher is the other baseline. Subset rules put the
category with the smallest mean response on the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import ColumnSchema, Dataset
from .dinkelbach import DinkelbachConfig, IterationTrace, dinkelbach_split
from .solvers import SolverConfig, assignment_chunks
from .stats import CategoryStats, NodeStats, aggregate_categories, build_v_matrix, category_cells

EXHAUSTIVE_MAX_CATEGORIES = 22


@dataclass(frozen=True)
class SplitRule:
    """Either a category subset rule or a strict ``x < threshold`` rule.

    ``right_categories`` records the categories observed on the right at
    training time; prediction needs it to route labels unseen at this node.
    """

    variable: str
    kind: str
    left_categories: tuple = ()
    right_categories: tuple = ()
    threshold: Optional[float] = None


@dataclass(frozen=True)
class SplitCandidate:
    rule: SplitRule
    cost: float
    n_left: int
    n_right: int
    trace: Optional[IterationTrace] = None


def _two_child_sse(nl, sl, ql, n, s, q):
    """Summed SSE of both children from left-child sums and node totals ``n, s, q``."""
    sse_l = np.maximum(ql - sl * sl / nl, 0.0)
    sse_r = np.maximum((q - ql) - (s - sl) ** 2 / (n - nl), 0.0)
    return sse_l + sse_r


class _Segments:
    """Consecutive runs of rows, one per node, as the batched scans see them.

    ``seg[i]`` is the segment of row i, ``pos[i]`` its place in it and
    ``after[i]`` the number of rows that follow it there.
    ``cumsum`` lays the segments out in zero-padded blocks of a power-of-two
    width, grouped by width, so that one ``np.cumsum`` along a block row is
    the running sum of exactly one segment: the same sequential sums that
    ``np.cumsum`` gives the segment alone, in at most twice its rows; a
    segment alone in its width class is summed over its own rows.
    """

    def __init__(self, sizes: np.ndarray):
        self.sizes = sizes
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        self.seg = np.repeat(np.arange(len(sizes)), sizes)
        self.pos = np.arange(len(self.seg)) - self.starts[self.seg]
        self.after = sizes[self.seg] - self.pos - 1
        widths = 2 ** np.ceil(np.log2(sizes)).astype(np.int64)
        by_width = np.argsort(widths, kind="stable")
        padded_ends = np.cumsum(widths[by_width])
        offsets = np.empty_like(padded_ends)
        offsets[by_width] = padded_ends - widths[by_width]
        self.dest = offsets[self.seg] + self.pos
        self.padded = int(padded_ends[-1])
        width, count = np.unique(widths, return_counts=True)
        block_ends = np.cumsum(width * count)
        # A width class of one segment is summed over its real rows only:
        # that segment is the last of its class in the by_width order.
        span = np.where(count == 1, sizes[by_width][np.cumsum(count) - 1], width)
        self.blocks = list(zip((block_ends - width * count).tolist(), count.tolist(), span.tolist()))

    def rows(self, first: int, last: int) -> slice:
        """The rows of segments ``first`` to ``last``, both included."""
        return slice(self.starts[first], self.ends[last])

    def cumsum(self, values: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Running sums of the 1-D ``values``, restarted at every segment,
        read at the rows ``at``."""
        buf = np.zeros(self.padded)
        buf[self.dest] = values
        for lo, count, span in self.blocks:
            block = buf[lo : lo + count * span].reshape(count, span)
            np.cumsum(block, axis=1, out=block)
        return buf.take(self.dest[at])


def _first_minima(costs: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Position of the first minimum of ``costs`` within each run of equal ``owner``."""
    new = np.concatenate(([True], owner[1:] != owner[:-1]))
    group = np.cumsum(new) - 1
    at_min = np.flatnonzero(costs == np.minimum.reduceat(costs, np.flatnonzero(new))[group])
    return at_min[np.concatenate(([True], group[at_min[1:]] != group[at_min[:-1]]))]


def _threshold_scan(y: np.ndarray, x: np.ndarray, segs: _Segments, min_bucket: int, variable: str):
    """Threshold scan over midpoints between consecutive distinct values, per segment.

    Returns ``(ids, cost, n_left, n_right, candidate)`` for the segments with
    a threshold that leaves ``min_bucket`` rows on each side; ``candidate(k)``
    builds the k-th one. Within a segment the first minimum, the smallest
    threshold, wins. One stable sort orders every segment at once.
    """
    order = np.lexsort((x, segs.seg))
    xs, ys = x[order], y[order]
    cuts = np.flatnonzero(
        (xs[:-1] < xs[1:]) & (segs.pos[:-1] >= min_bucket - 1) & (segs.after[:-1] >= min_bucket)
    )
    if len(cuts) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0), empty, empty, None

    owner = segs.seg[cuts]
    # Each running sum at every cut, then at its segment's last row: the total.
    at = np.concatenate((cuts, segs.ends[owner] - 1))
    (sl, s), (ql, q) = (np.split(segs.cumsum(v, at), 2) for v in (ys, ys * ys))
    nl = (segs.pos[cuts] + 1).astype(np.float64)
    n_node = segs.sizes[owner].astype(np.float64)
    costs = _two_child_sse(nl, sl, ql, n_node, s, q)
    best = _first_minima(costs, owner)
    at = cuts[best]
    threshold = 0.5 * (xs[at] + xs[at + 1])
    cost = costs[best]
    n_left = segs.pos[at] + 1
    n_right = segs.sizes[owner[best]] - n_left

    def candidate(k: int) -> SplitCandidate:
        rule = SplitRule(variable, "threshold", threshold=float(threshold[k]))
        return SplitCandidate(rule, float(cost[k]), int(n_left[k]), int(n_right[k]))

    return owner[best], cost, n_left, n_right, candidate


def _sorted_means_scan(cells: _Segments, n, s, q, totals) -> tuple:
    """Fisher's sorted-means prefix scan of many nodes at once (Fisher 1958).

    ``cells`` holds each node's observed categories, two or more, in code
    order, with counts ``n``, response sums ``s`` and sums of squares ``q``;
    ``totals`` holds each node's own ``n, s, q``. Returns each node's cost
    and the left mask over the cells: the cheapest prefix of its categories
    stably sorted by mean (the first of equal ones), which holds the
    smallest mean and, for squared error, is an optimal subset split.
    """
    order = np.lexsort((s / n, cells.seg))
    cuts = np.flatnonzero(cells.after > 0)
    owner = cells.seg[cuts]
    nl, sl, ql = (cells.cumsum(v[order], cuts) for v in (n, s, q))
    costs = _two_child_sse(nl, sl, ql, *(t[owner] for t in totals))
    best = _first_minima(costs, owner)
    left = np.empty(len(order), dtype=bool)
    left[order] = cells.pos <= cells.pos[cuts[best]][cells.seg]
    return costs[best], left


def _subset_candidate(column: ColumnSchema, index, left_mask, n, cost, trace=None) -> SplitCandidate:
    """The subset rule of a node's observed category codes ``index``, with
    counts ``n``, split by ``left_mask``, which holds the smallest mean."""
    labels = (tuple(column.categories[i] for i in index[side].tolist()) for side in (left_mask, ~left_mask))
    rule = SplitRule(column.name, "subset", *labels)
    n_left = int(n[left_mask].sum())
    return SplitCandidate(rule, float(cost), n_left, int(n.sum()) - n_left, trace)


def _smallest_mean_left(q, aggs: CategoryStats) -> np.ndarray:
    """The assignment ``q`` as a left mask over the categories that holds the smallest mean."""
    mask = np.array(q, dtype=bool)
    return mask if mask[int(np.argmin(aggs.sum / aggs.n))] else ~mask


def _exhaustive_one(aggs: CategoryStats, node: NodeStats) -> tuple:
    """One node's cheapest partition by enumeration, straight from the
    category sums: the left mask, turned to hold the smallest mean, and its cost."""
    cost = np.inf
    for bits in assignment_chunks(len(aggs)):
        nl, sl, ql = bits @ aggs.n, bits @ aggs.sum, bits @ aggs.sum_sq
        costs = _two_child_sse(nl, sl, ql, node.n, node.sum, node.sum_sq)
        i = int(np.argmin(costs))  # chunks arrive in lex order: first wins ties
        if costs[i] < cost:
            cost, q = float(costs[i]), bits[i]
    return _smallest_mean_left(q, aggs), cost


def _subset_scan(y, codes, column, seg, method):
    """Subset split of every segment where the column has two or more
    categories (at most ``EXHAUSTIVE_MAX_CATEGORIES`` under ``exhaustive``).

    ``seg`` holds the segment id of every row, as ``category_cells`` takes
    it. Returns ``(ids, cost, n_left, n_right, candidate)`` like
    ``_threshold_scan``. One sorted-means scan splits and prices every
    segment, for ``greedy`` and ``qubo``; ``exhaustive`` enumerates every
    partition instead.
    """
    (cell_seg, code, n, s, q), totals = category_cells(y, codes, len(column.categories), seg)
    levels = np.bincount(cell_seg)
    ok = (levels >= 2) & (levels <= (EXHAUSTIVE_MAX_CATEGORIES if method == "exhaustive" else np.inf))
    ids = np.flatnonzero(ok)
    if len(ids) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0), empty, empty, None
    code, n, s, q = (v[ok[cell_seg]] for v in (code, n, s, q))
    tn, ts, tq = (t[ids] for t in totals)
    cells = _Segments(levels[ids])
    cost, left = _sorted_means_scan(cells, n, s, q, (tn, ts, tq))
    if method == "exhaustive":
        for k in range(len(ids)):
            r = cells.rows(k, k)
            aggs = CategoryStats(code[r], n[r], s[r], q[r])
            node = NodeStats(int(tn[k]), float(ts[k]), float(tq[k]))
            left[r], cost[k] = _exhaustive_one(aggs, node)
    n_left = np.add.reduceat(np.where(left, n, 0.0), cells.starts).astype(np.int64)

    def candidate(k: int) -> SplitCandidate:
        r = cells.rows(k, k)
        return _subset_candidate(column, code[r], left[r], n[r], cost[k])

    return ids, cost, n_left, tn.astype(np.int64) - n_left, candidate


def best_categorical_split_qubo(
    y: np.ndarray, codes: np.ndarray, column: ColumnSchema, solver_cfg: Optional[SolverConfig] = None,
    dk_cfg: Optional[DinkelbachConfig] = None,
) -> SplitCandidate:
    """Optimal subset split via the iterative binary quadratic pipeline.

    The ratio iteration starts from ``dk_cfg.mode`` and solves each step
    with the solvers ``solver_cfg`` selects; the candidate carries its trace.
    """
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    if len(aggs) < 2:
        raise ValueError(f"{column.name}: need at least two observed categories")
    q, lam, trace = dinkelbach_split(build_v_matrix(aggs), aggs, node, solver_cfg, dk_cfg)
    return _subset_candidate(column, aggs.index, _smallest_mean_left(q, aggs), aggs.n, lam, trace)


def _one_node(y, codes, column: ColumnSchema, method: str) -> SplitCandidate:
    """The subset split of one node by ``_subset_scan``; ValueError without one."""
    codes = np.asarray(codes, dtype=np.int64)
    if len(codes) == 0:
        raise ValueError("empty node")
    seg = np.zeros(len(codes), dtype=np.int64)
    ids, _, _, _, candidate = _subset_scan(np.asarray(y, dtype=np.float64), codes, column, seg, method)
    if len(ids):
        return candidate(0)
    if method == "exhaustive":
        m = np.count_nonzero(np.bincount(codes))
        raise ValueError(f"{column.name}: exhaustive search takes 2..{EXHAUSTIVE_MAX_CATEGORIES} categories, got {m}")
    raise ValueError(f"{column.name}: need at least two observed categories")


def best_categorical_split_exhaustive(y: np.ndarray, codes: np.ndarray, column: ColumnSchema) -> SplitCandidate:
    """Ground-truth subset split by direct enumeration of all partitions."""
    return _one_node(y, codes, column, "exhaustive")


def best_categorical_split_greedy(y: np.ndarray, codes: np.ndarray, column: ColumnSchema) -> SplitCandidate:
    """Classical shortcut: sort categories by mean response, scan prefixes."""
    return _one_node(y, codes, column, "greedy")


def best_numeric_split(
    y: np.ndarray, x: np.ndarray, variable: str, min_bucket: int = 1
) -> Optional[SplitCandidate]:
    """Threshold scan over midpoints between consecutive distinct values.

    Returns None when no threshold leaves ``min_bucket`` rows on each side.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.min() == x.max():
        raise ValueError(f"{variable}: constant at this node")
    ids, _, _, _, candidate = _threshold_scan(y, x, _Segments(np.array([len(x)])), min_bucket, variable)
    return candidate(0) if len(ids) else None


def best_splits(
    data: Dataset,
    segments,
    method: str = "qubo",
    min_bucket: int = 1,
) -> list:
    """Minimum-cost candidate of every node, each given by its row indices.

    ``segments`` is a sequence of non-empty index arrays into ``data``; the
    result holds one SplitCandidate, or None, per segment, each equal to
    searching that segment alone. Every column is searched for all segments
    at once. Ties break toward the earlier schema column. Constant columns,
    and for ``exhaustive`` those above ``EXHAUSTIVE_MAX_CATEGORIES`` levels,
    are skipped. Categorical candidates that leave a child below
    ``min_bucket`` are dropped rather than re-searched, identically for
    every method, so method comparisons stay aligned.
    """
    if len(segments) == 0:
        return []
    sizes = np.array([len(s) for s in segments], dtype=np.int64)
    if sizes.min() == 0:
        raise ValueError("every segment needs at least one row")
    segs = _Segments(sizes)
    rows = np.concatenate(segments)
    y = data.response[rows]
    n_seg = len(sizes)
    best_cost = np.zeros(n_seg)
    winner = np.full(n_seg, -1)
    pick = np.zeros(n_seg, dtype=np.int64)
    builders = []
    for j, column in enumerate(data.schema):
        values = data.column(column.name)[rows]
        if column.kind == "categorical":
            scan = _subset_scan(y, values, column, segs.seg, method)
        else:
            scan = _threshold_scan(y, values, segs, min_bucket, column.name)
        ids, cost, n_left, n_right, candidate = scan
        builders.append(candidate)
        ok = (n_left >= min_bucket) & (n_right >= min_bucket)
        k = np.flatnonzero(ok & ((winner[ids] < 0) | (cost < best_cost[ids])))
        best_cost[ids[k]] = cost[k]
        winner[ids[k]] = j
        pick[ids[k]] = k
    return [None if j < 0 else builders[j](k) for j, k in zip(winner.tolist(), pick.tolist())]


def best_split(
    data: Dataset,
    indices: np.ndarray,
    method: str = "qubo",
    min_bucket: int = 1,
) -> Optional[SplitCandidate]:
    """Minimum-cost candidate across all eligible variables of one node.

    The one-segment case of :func:`best_splits`, whose rules it follows.
    """
    return best_splits(data, [indices], method, min_bucket)[0]
