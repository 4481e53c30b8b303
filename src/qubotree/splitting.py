"""Best-split search per variable.

``search_level`` searches many nodes at once, each column for all of them
in one pass, with each node's own arithmetic, and answers in per-node
arrays, which ``grow`` reads; ``best_splits`` reads them into candidates,
and ``best_split`` is its one-node case. A subset split is answered as a
block of one flat ``side`` table, an entry per label code of its column:
1 sends the label left, 0 right, -1 marks a label the node never saw.
Numeric and binary variables use the sorted threshold scan. For a
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
from itertools import compress
from typing import NamedTuple, Optional

import numpy as np

from .datasets import ColumnSchema, Dataset
from .dinkelbach import DinkelbachConfig, IterationTrace, dinkelbach_split
from .solvers import SolverConfig, assignment_chunks
from .stats import CategoryStats, NodeStats, aggregate_categories, build_v_matrix, category_cells, node_codes

CATEGORICAL_METHODS = ("qubo", "greedy", "exhaustive")
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


def _threshold_scan(y: np.ndarray, x: np.ndarray, segs: _Segments, min_bucket: int):
    """Threshold scan over midpoints between consecutive distinct values, per segment.

    Returns ``(ids, cost, n_left, n_right, threshold)`` for the segments with
    a threshold that leaves ``min_bucket`` rows on each side. Within a
    segment the first minimum, the smallest threshold, wins. One stable sort
    orders every segment at once. The cut between values ``lo < hi`` is
    their midpoint where ``lo < mid <= hi``, and ``hi`` where the midpoint
    rounds down to ``lo`` (adjacent floats) or overflows (near the float
    limits), so ``x < threshold`` always sends exactly the rows up to ``lo`` left.
    """
    order = np.lexsort((x, segs.seg))
    xs, ys = x[order], y[order]
    cuts = np.flatnonzero(
        (xs[:-1] < xs[1:]) & (segs.pos[:-1] >= min_bucket - 1) & (segs.after[:-1] >= min_bucket)
    )
    if len(cuts) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0), empty, empty, np.zeros(0)

    owner = segs.seg[cuts]
    # Each running sum at every cut, then at its segment's last row: the total.
    at = np.concatenate((cuts, segs.ends[owner] - 1))
    (sl, s), (ql, q) = (np.split(segs.cumsum(v, at), 2) for v in (ys, ys * ys))
    left = NodeStats((segs.pos[cuts] + 1).astype(np.float64), sl, ql)
    total = NodeStats(segs.sizes[owner].astype(np.float64), s, q)
    costs = left.sse() + (total - left).sse()
    best = _first_minima(costs, owner)
    at = cuts[best]
    n_left = segs.pos[at] + 1
    lo, hi = xs[at], xs[at + 1]
    with np.errstate(over="ignore"):  # an overflowed midpoint is inf, and hi cuts instead
        mid = 0.5 * (lo + hi)
    threshold = np.where((lo < mid) & (mid <= hi), mid, hi)
    return owner[best], costs[best], n_left, segs.sizes[owner[best]] - n_left, threshold


def _sorted_means_scan(segs: _Segments, cells: NodeStats, totals: NodeStats) -> tuple:
    """Fisher's sorted-means prefix scan of many nodes at once (Fisher 1958).

    ``segs`` lays out each node's observed categories, two or more, in code
    order, with stats ``cells``, and ``totals`` holds each node's stats.
    Returns each node's cost and the left mask over the cells: the cheapest
    prefix of its categories stably sorted by mean (the first of equal ones),
    which holds the smallest mean and is an optimal split for squared error.
    """
    order = np.lexsort((cells.sum / cells.n, segs.seg))
    cuts = np.flatnonzero(segs.after > 0)
    owner = segs.seg[cuts]
    left = NodeStats(*(segs.cumsum(v[order], cuts) for v in (cells.n, cells.sum, cells.sum_sq)))
    costs = left.sse() + (totals[owner] - left).sse()
    best = _first_minima(costs, owner)
    mask = np.empty(len(order), dtype=bool)
    mask[order] = segs.pos <= segs.pos[cuts[best]][segs.seg]
    return costs[best], mask


def _candidate(rule: tuple, cost, n_left, n_right, trace=None) -> SplitCandidate:
    """A candidate of the rule fields ``(variable, kind, left_categories, right_categories, threshold)``."""
    return SplitCandidate(SplitRule(*rule), float(cost), int(n_left), int(n_right), trace)


def _subset_candidate(column: ColumnSchema, index, left_mask, n, cost, trace=None) -> SplitCandidate:
    """The subset rule of a node's observed category codes ``index``, with
    counts ``n``, split by ``left_mask``, which holds the smallest mean."""
    labels = (tuple(column.categories[i] for i in index[side].tolist()) for side in (left_mask, ~left_mask))
    n_left = int(n[left_mask].sum())
    return _candidate((column.name, "subset", *labels, None), cost, n_left, int(n.sum()) - n_left, trace)


def _smallest_mean_left(q, aggs: CategoryStats) -> np.ndarray:
    """The assignment ``q`` as a left mask over the categories that holds the smallest mean."""
    mask = np.array(q, dtype=bool)
    return mask if mask[int(np.argmin(aggs.sum / aggs.n))] else ~mask


def _exhaustive_one(aggs: CategoryStats, node: NodeStats) -> tuple:
    """One node's cheapest partition by enumeration, straight from the
    category sums: the left mask, turned to hold the smallest mean, and its cost."""
    cost = np.inf
    for bits in assignment_chunks(len(aggs)):
        left = NodeStats(bits @ aggs.n, bits @ aggs.sum, bits @ aggs.sum_sq)
        costs = left.sse() + (node - left).sse()
        i = int(np.argmin(costs))  # chunks arrive in lex order: first wins ties
        if costs[i] < cost:
            cost, q = float(costs[i]), bits[i]
    return _smallest_mean_left(q, aggs), cost


def _subset_scan(y, codes, column, seg, method):
    """Subset split of every segment where the column has two or more
    categories (at most ``EXHAUSTIVE_MAX_CATEGORIES`` under ``exhaustive``).

    ``seg`` holds each row's segment id. Returns ``(ids, cost, n_left,
    n_right, (owner, cells, left))`` like ``_threshold_scan``, with each
    split segment's observed category cells in code order: the position in
    ``ids`` of each cell's segment, its CategoryStats and whether it goes
    left. One sorted-means scan splits and prices every segment, for
    ``greedy`` and ``qubo``; ``exhaustive`` enumerates every partition instead.
    """
    cell_seg, cells, totals = category_cells(y, codes, len(column.categories), seg)
    levels = np.bincount(cell_seg)
    ok = (levels >= 2) & (levels <= (EXHAUSTIVE_MAX_CATEGORIES if method == "exhaustive" else np.inf))
    ids = np.flatnonzero(ok)
    if len(ids) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0), empty, empty, None
    cells, totals = cells[ok[cell_seg]], totals[ids]
    segs = _Segments(levels[ids])
    cost, left = _sorted_means_scan(segs, cells, totals)
    if method == "exhaustive":
        for k in range(len(ids)):
            r = segs.rows(k, k)
            left[r], cost[k] = _exhaustive_one(cells[r], totals[k])
    n_left = np.add.reduceat(np.where(left, cells.n, 0.0), segs.starts).astype(np.int64)
    return ids, cost, n_left, totals.n - n_left, (segs.seg, cells, left)


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
    codes = node_codes(codes)
    seg = np.zeros(len(codes), dtype=np.int64)
    ids, cost, _, _, found = _subset_scan(np.asarray(y, dtype=np.float64), codes, column, seg, method)
    if len(ids):
        _, cells, left = found
        return _subset_candidate(column, cells.index, left, cells.n, cost[0])
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
    if min_bucket < 1:
        raise ValueError(f"need min_bucket >= 1, got {min_bucket}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.min() == x.max():
        raise ValueError(f"{variable}: constant at this node")
    ids, cost, n_left, n_right, threshold = _threshold_scan(y, x, _Segments(np.array([len(x)])), min_bucket)
    if not len(ids):
        return None
    return _candidate((variable, "threshold", (), (), float(threshold[0])), cost[0], n_left[0], n_right[0])


class LevelSplits(NamedTuple):
    """The cheapest split of each node of a level, as per-node arrays.

    ``column`` is the winning schema column, -1 where no column splits the
    node; ``cost`` and ``n_left`` price and count its split, and
    ``threshold`` is a threshold rule's cut, NaN elsewhere. ``side`` holds a
    block per node, one int8 entry per label code of its winning column at
    a subset rule and none elsewhere, starting at ``offset``: 1 sends the
    label left, 0 right, and -1 marks a label not observed at the node.
    """

    column: np.ndarray
    cost: np.ndarray
    n_left: np.ndarray
    threshold: np.ndarray
    offset: np.ndarray
    side: np.ndarray


def search_level(data: Dataset, rows: np.ndarray, sizes: np.ndarray, method: str, min_bucket: int) -> LevelSplits:
    """The cheapest split of each node of a level, under :func:`best_splits`'
    rules: ``rows`` holds every node's row indices in turn and ``sizes``
    their counts, none zero; the arguments are not checked. Each subset
    rule's sides are written from its scan's category cells straight into
    the node's ``side`` block."""
    segs = _Segments(sizes)
    y = data.response[rows]
    n_seg = len(sizes)
    best_cost = np.zeros(n_seg)
    winner = np.full(n_seg, -1)
    pick = np.zeros(n_seg, dtype=np.int64)
    scans = []
    for j, column in enumerate(data.schema):
        values = data.column(column.name)[rows]
        if column.kind == "categorical":
            scan = _subset_scan(y, values, column, segs.seg, method)
        else:
            scan = _threshold_scan(y, values, segs, min_bucket)
        ids, cost, n_left, n_right, _ = scan
        scans.append(scan)
        ok = (n_left >= min_bucket) & (n_right >= min_bucket)
        k = np.flatnonzero(ok & ((winner[ids] < 0) | (cost < best_cost[ids])))
        best_cost[ids[k]] = cost[k]
        winner[ids[k]] = j
        pick[ids[k]] = k
    n_left = np.zeros(n_seg, dtype=np.int64)
    threshold = np.full(n_seg, np.nan)
    # A block per node, as wide as its winning column's labels at a subset
    # rule and empty elsewhere; the trailing 0 is the width at winner -1.
    width = np.array([len(c.categories) if c.kind == "categorical" else 0 for c in data.schema] + [0])[winner]
    offset = np.cumsum(width) - width
    side = np.full(int(width.sum()), -1, dtype=np.int8)
    for j, (ids, _, scan_n_left, _, found) in enumerate(scans):
        won = np.flatnonzero(winner == j)
        k = pick[won]
        n_left[won] = scan_n_left[k]
        if data.schema[j].kind != "categorical":
            threshold[won] = found[k]
        elif len(won):
            owner, cells, left = found
            start = np.full(len(ids), -1)
            start[k] = offset[won]
            at = start[owner]
            cell = np.flatnonzero(at >= 0)  # the cells of the nodes this column wins
            side[at[cell] + cells.index[cell]] = left[cell]
    return LevelSplits(winner, best_cost, n_left, threshold, offset, side)


def level_rules(schema: tuple, found: LevelSplits, nodes: np.ndarray) -> list:
    """The rule fields ``(variable, kind, left_categories, right_categories,
    threshold)`` of the splits of ``nodes``, node positions in ``found``
    that each have one, in that order. A subset rule's sides are the labels
    its ``side`` block sends left and right, in code order."""
    on_left, on_right = ((found.side == s).tolist() for s in (1, 0))
    rules = []
    for j, a, cut in zip(*(v[nodes].tolist() for v in (found.column, found.offset, found.threshold))):
        name, labels = schema[j].name, schema[j].categories
        if schema[j].kind != "categorical":
            rules.append((name, "threshold", (), (), cut))
            continue
        b = a + len(labels)
        left, right = compress(labels, on_left[a:b]), compress(labels, on_right[a:b])
        rules.append((name, "subset", tuple(left), tuple(right), None))
    return rules


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
    at once, by :func:`search_level`, whose per-node arrays are read into
    candidates here. Ties break toward the earlier schema column. Constant
    columns, and for ``exhaustive`` those above ``EXHAUSTIVE_MAX_CATEGORIES``
    levels, are skipped. Categorical candidates that leave a child below
    ``min_bucket`` are dropped rather than re-searched, identically for
    every method, so method comparisons stay aligned. An unknown ``method``
    or a ``min_bucket`` below 1 raises ValueError.
    """
    if method not in CATEGORICAL_METHODS:
        raise ValueError(f"unknown categorical method {method!r}")
    if min_bucket < 1:
        raise ValueError(f"need min_bucket >= 1, got {min_bucket}")
    if len(segments) == 0:
        return []
    sizes = np.array([len(s) for s in segments], dtype=np.int64)
    if sizes.min() == 0:
        raise ValueError("every segment needs at least one row")
    found = search_level(data, np.concatenate(segments), sizes, method, min_bucket)
    nodes = np.flatnonzero(found.column >= 0)
    out = [None] * len(sizes)
    picked = (a.tolist() for a in (nodes, found.cost[nodes], found.n_left[nodes], sizes[nodes]))
    for rule, k, cost, n_left, size in zip(level_rules(data.schema, found, nodes), *picked):
        out[k] = _candidate(rule, cost, n_left, size - n_left)
    return out


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
