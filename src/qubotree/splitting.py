"""Best-split search per variable.

Categorical variables go through the ratio-iteration QUBO pipeline, started
at the sorted-means scan's split so that one solve certifies it (the scan on
its own and an exhaustive-partition searcher are the baselines); numeric and
binary variables use the classic sorted threshold scan. All subset rules are
canonicalized so the left side contains the category with the smallest mean
response.

``best_splits`` searches many nodes at once, each column for all of them in
one pass, with each node's own arithmetic; ``best_split`` is its one-node
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import ColumnSchema, Dataset
from .dinkelbach import DinkelbachConfig, IterationTrace, dinkelbach_split
from .solvers import SolverConfig, assignment_chunks
from .stats import CategoryStats, NodeStats, aggregate_categories, build_v_matrix

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


def _subset_candidate(
    column: ColumnSchema,
    aggs: CategoryStats,
    left_mask: np.ndarray,
    cost: float,
    trace: Optional[IterationTrace] = None,
) -> SplitCandidate:
    """Assemble a canonical subset rule: smallest-mean category goes left."""
    if not left_mask[int(np.argmin(aggs.sum / aggs.n))]:
        left_mask = ~left_mask
    left_labels = tuple(column.categories[i] for i in aggs.index[left_mask])
    right_labels = tuple(column.categories[i] for i in aggs.index[~left_mask])
    rule = SplitRule(column.name, "subset", left_labels, right_labels)
    n_left = int(aggs.n[left_mask].sum())
    return SplitCandidate(rule, float(cost), n_left, int(aggs.n.sum()) - n_left, trace)


def _sorted_scan(aggs: CategoryStats, node: NodeStats) -> tuple:
    """Fisher's sorted-means prefix scan: the best left mask and its cost.

    For squared error the best prefix of the categories sorted by mean is an
    optimal subset split (Fisher 1958).
    """
    order = np.argsort(aggs.sum / aggs.n, kind="stable")
    nl, sl, ql = (np.cumsum(x[order])[:-1] for x in (aggs.n, aggs.sum, aggs.sum_sq))
    costs = _two_child_sse(nl, sl, ql, node.n, node.sum, node.sum_sq)
    best = int(np.argmin(costs))
    left_mask = np.zeros(len(aggs), dtype=bool)
    left_mask[order[: best + 1]] = True
    return left_mask, costs[best]


def best_categorical_split_qubo(
    y: np.ndarray,
    codes: np.ndarray,
    column: ColumnSchema,
    solver_cfg: Optional[SolverConfig] = None,
    dk_cfg: Optional[DinkelbachConfig] = None,
    warm: bool = True,
) -> SplitCandidate:
    """Optimal subset split via the iterative binary quadratic pipeline.

    ``warm`` starts the ratio iteration at the sorted scan's split, so one
    solve certifies it (none with two categories); ``warm=False`` runs the
    cold iteration from ``dk_cfg.mode``.
    """
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    if len(aggs) < 2:
        raise ValueError(f"{column.name}: need at least two observed categories")
    v = build_v_matrix(aggs)
    start = _sorted_scan(aggs, node)[0] if warm else None
    q, lam, trace = dinkelbach_split(v, aggs, node, solver_cfg, dk_cfg, start)
    left_mask = np.array(q, dtype=bool)
    return _subset_candidate(column, aggs, left_mask, lam, trace)


def best_categorical_split_exhaustive(
    y: np.ndarray, codes: np.ndarray, column: ColumnSchema
) -> SplitCandidate:
    """Ground-truth subset split by direct enumeration of all partitions.

    Costs come straight from per-category sums, independently of the
    quadratic-form machinery, so this doubles as an oracle for it.
    """
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    m = len(aggs)
    if not 2 <= m <= EXHAUSTIVE_MAX_CATEGORIES:
        raise ValueError(
            f"{column.name}: exhaustive search takes 2..{EXHAUSTIVE_MAX_CATEGORIES} categories, got {m}"
        )

    best_cost = np.inf
    best_bits = None
    for bits in assignment_chunks(m):
        costs = _two_child_sse(
            bits @ aggs.n, bits @ aggs.sum, bits @ aggs.sum_sq, node.n, node.sum, node.sum_sq
        )
        i = int(np.argmin(costs))  # chunks arrive in lex order: first wins ties
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_bits = bits[i].astype(bool)
    return _subset_candidate(column, aggs, best_bits, best_cost)


def best_categorical_split_greedy(
    y: np.ndarray, codes: np.ndarray, column: ColumnSchema
) -> SplitCandidate:
    """Classical shortcut: sort categories by mean response, scan prefixes."""
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    if len(aggs) < 2:
        raise ValueError(f"{column.name}: need at least two observed categories")
    return _subset_candidate(column, aggs, *_sorted_scan(aggs, node))


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


def _two_level_costs(method: str, n, s, q, left) -> np.ndarray:
    """Cost of the one split of nodes with two observed categories, per node.

    Row k of the (nodes, 2) arrays ``n``, ``s`` and ``q`` holds each
    category's count, response sum and sum of squares, in code order;
    ``left[k]`` is the column of its smaller-mean category. ``greedy``
    prices the split as ``_sorted_scan`` does; ``qubo`` as
    ``dinkelbach_split`` started there: ``eval_fractional`` at q = (1, 0),
    and 0.0 at zero parent variance. The arithmetic is theirs, operation
    for operation (a product with a 0/1 bit is exact), so the costs are
    equal to the bit.
    """
    (n0, n1), (s0, s1), (q0, q1) = n.T, s.T, q.T
    n_node, s_node, q_node = n0 + n1, s0 + s1, q0 + q1
    if method == "greedy":
        side = np.arange(len(left))
        return _two_child_sse(n[side, left], s[side, left], q[side, left], n_node, s_node, q_node)
    mean = s_node / n_node
    var = q_node / n_node - mean * mean
    var = np.where(var > 0.0, var, 0.0)  # node_variance
    t00 = 0.5 * (q0 * n0 - 2.0 * (s0 * s0) + n0 * q0)  # build_v_matrix
    t01 = 0.5 * (q0 * n1 - 2.0 * (s0 * s1) + n0 * q1)
    t10 = 0.5 * (q1 * n0 - 2.0 * (s1 * s0) + n1 * q0)
    v00 = np.maximum(0.5 * (t00 + t00), 0.0)
    v01 = np.maximum(0.5 * (t01 + t10), 0.0)
    numerator = n_node * v00 - 2.0 * (v00 + v01) * n0 + n_node * n_node * var * n0
    numerator = np.where(numerator > 0.0, numerator, 0.0)
    cost = numerator / (n0 * (n_node - n0))
    return np.where(n_node * var == 0.0, 0.0, cost)


# Most (segment, category) bins per np.bincount pass: a level with many
# nodes of a many-level column is summed in several passes, so the sums
# take at most a few MB at once.
_MAX_BINS = 1 << 18


def _subset_scan(y, codes, column, segs, method, solver_cfg, dk_cfg):
    """Subset split of every segment where the column has two or more categories.

    Returns ``(ids, cost, n_left, n_right, candidate)`` like
    ``_threshold_scan``. Segments with exactly two observed categories are
    priced together by ``_two_level_costs``; the others, and every segment
    under ``exhaustive``, go through the per-node ``best_categorical_split_*``.
    Per-segment category sums accumulate in each node's own row order, as
    ``aggregate_categories`` does.
    """
    m = len(column.categories)
    n_seg = len(segs.sizes)
    levels = np.zeros(n_seg, dtype=np.int64)
    none = np.zeros((0, 2))
    two = [(np.zeros(0, dtype=np.int64), none.astype(np.int64), none, none, none)]
    step = max(1, _MAX_BINS // m)
    for lo in range(0, n_seg, step):
        hi = min(n_seg, lo + step)
        rows = segs.rows(lo, hi - 1)
        key = (segs.seg[rows] - lo) * m + codes[rows]
        bins = (hi - lo) * m
        count = np.bincount(key, minlength=bins).reshape(hi - lo, m)
        seen = count > 0
        levels[lo:hi] = seen.sum(axis=1)
        ids = np.flatnonzero(levels[lo:hi] == 2)
        if method == "exhaustive" or len(ids) == 0:
            continue
        w = y[rows]
        sums = np.bincount(key, weights=w, minlength=bins).reshape(hi - lo, m)
        sums_sq = np.bincount(key, weights=w * w, minlength=bins).reshape(hi - lo, m)
        pair = np.nonzero(seen[ids])[1].reshape(-1, 2)
        at = ids[:, None]
        two.append((ids + lo, pair, count[at, pair].astype(np.float64), sums[at, pair], sums_sq[at, pair]))
    ids2, pair, n, s, q = (np.concatenate(part) for part in zip(*two))
    # The smaller-mean category goes left, as ``_subset_candidate`` orients it.
    left = (s[:, 1] / n[:, 1] < s[:, 0] / n[:, 0]).astype(np.int64)
    cost2 = _two_level_costs(method, n, s, q, left)
    side = np.arange(len(ids2))
    n_left2 = n[side, left].astype(np.int64)
    n_right2 = n[side, 1 - left].astype(np.int64)

    if method == "exhaustive":
        alone = np.flatnonzero((levels >= 2) & (levels <= EXHAUSTIVE_MAX_CATEGORIES))
    else:
        alone = np.flatnonzero(levels >= 3)
    cands = []
    for i in alone.tolist():
        rows = segs.rows(i, i)
        if method == "greedy":
            cands.append(best_categorical_split_greedy(y[rows], codes[rows], column))
        elif method == "exhaustive":
            cands.append(best_categorical_split_exhaustive(y[rows], codes[rows], column))
        else:
            cands.append(best_categorical_split_qubo(y[rows], codes[rows], column, solver_cfg, dk_cfg))

    def candidate(k: int) -> SplitCandidate:
        if k >= len(ids2):
            return cands[k - len(ids2)]
        labels = [column.categories[c] for c in pair[k]]
        rule = SplitRule(column.name, "subset", (labels[left[k]],), (labels[1 - left[k]],))
        return SplitCandidate(rule, float(cost2[k]), int(n_left2[k]), int(n_right2[k]))

    ids = np.concatenate((ids2, alone))
    cost = np.concatenate((cost2, [c.cost for c in cands]))
    n_left = np.concatenate((n_left2, np.array([c.n_left for c in cands], dtype=np.int64)))
    n_right = np.concatenate((n_right2, np.array([c.n_right for c in cands], dtype=np.int64)))
    return ids, cost, n_left, n_right, candidate


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
    solver_cfg: Optional[SolverConfig] = None,
    dk_cfg: Optional[DinkelbachConfig] = None,
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
            scan = _subset_scan(y, values, column, segs, method, solver_cfg, dk_cfg)
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
    solver_cfg: Optional[SolverConfig] = None,
    dk_cfg: Optional[DinkelbachConfig] = None,
    min_bucket: int = 1,
) -> Optional[SplitCandidate]:
    """Minimum-cost candidate across all eligible variables of one node.

    The one-segment case of :func:`best_splits`, whose rules it follows.
    """
    return best_splits(data, [indices], method, solver_cfg, dk_cfg, min_bucket)[0]
