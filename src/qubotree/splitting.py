"""Best-split search per variable.

Categorical variables go through the ratio-iteration QUBO pipeline (with an
exhaustive-partition searcher and a sorted-means greedy scan as independent
baselines); numeric and binary variables use the classic sorted threshold
scan. All subset rules are canonicalized so the left side contains the
category with the smallest mean response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import ColumnSchema, Dataset
from .dinkelbach import DinkelbachConfig, IterationTrace, dinkelbach_split
from .solvers import SolverConfig, assignment_chunks
from .stats import CategoryStats, aggregate_categories, build_v_matrix

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


def best_categorical_split_qubo(
    y: np.ndarray,
    codes: np.ndarray,
    column: ColumnSchema,
    solver_cfg: Optional[SolverConfig] = None,
    dk_cfg: Optional[DinkelbachConfig] = None,
) -> SplitCandidate:
    """Optimal subset split via the iterative binary quadratic pipeline."""
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    if len(aggs) < 2:
        raise ValueError(f"{column.name}: need at least two observed categories")
    v = build_v_matrix(aggs)
    q, lam, trace = dinkelbach_split(v, aggs, node, solver_cfg, dk_cfg)
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
    order = np.argsort(aggs.sum / aggs.n, kind="stable")
    nl, sl, ql = (np.cumsum(x[order])[:-1] for x in (aggs.n, aggs.sum, aggs.sum_sq))
    costs = _two_child_sse(nl, sl, ql, node.n, node.sum, node.sum_sq)
    best = int(np.argmin(costs))
    left_mask = np.zeros(len(aggs), dtype=bool)
    left_mask[order[: best + 1]] = True
    return _subset_candidate(column, aggs, left_mask, costs[best])


def best_numeric_split(
    y: np.ndarray, x: np.ndarray, variable: str, min_bucket: int = 1
) -> Optional[SplitCandidate]:
    """Threshold scan over midpoints between consecutive distinct values.

    Returns None when no threshold leaves ``min_bucket`` rows on each side.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    if xs[0] == xs[-1]:
        raise ValueError(f"{variable}: constant at this node")
    cuts = np.flatnonzero(xs[:-1] < xs[1:])  # left part ends at position i
    lo, hi = min_bucket - 1, n - min_bucket
    cuts = cuts[(cuts >= lo) & (cuts < hi)]
    if len(cuts) == 0:
        return None

    sl = np.cumsum(ys)
    ql = np.cumsum(ys * ys)
    nl = (cuts + 1).astype(np.float64)
    costs = _two_child_sse(nl, sl[cuts], ql[cuts], n, sl[-1], ql[-1])
    best = int(np.argmin(costs))  # first minimum = smallest threshold
    threshold = 0.5 * (xs[cuts[best]] + xs[cuts[best] + 1])
    rule = SplitRule(variable, "threshold", threshold=float(threshold))
    n_left = int(nl[best])
    return SplitCandidate(rule, float(costs[best]), n_left, n - n_left)


def best_split(
    data: Dataset,
    indices: np.ndarray,
    method: str = "qubo",
    solver_cfg: Optional[SolverConfig] = None,
    dk_cfg: Optional[DinkelbachConfig] = None,
    min_bucket: int = 1,
) -> Optional[SplitCandidate]:
    """Minimum-cost candidate across all eligible variables.

    Ties break toward the earlier schema column. Constant columns, and for
    ``exhaustive`` those above ``EXHAUSTIVE_MAX_CATEGORIES`` levels, are
    skipped. Categorical candidates that leave a child below ``min_bucket``
    are dropped rather than re-searched, identically for every method, so
    method comparisons stay aligned.
    """
    y = data.response[indices]
    best: Optional[SplitCandidate] = None
    for column in data.schema:
        values = data.column(column.name)[indices]
        if values.min() == values.max():
            continue
        if column.kind == "categorical":
            if method == "greedy":
                cand = best_categorical_split_greedy(y, values, column)
            elif method == "exhaustive":
                if np.count_nonzero(np.bincount(values)) > EXHAUSTIVE_MAX_CATEGORIES:
                    continue
                cand = best_categorical_split_exhaustive(y, values, column)
            else:
                cand = best_categorical_split_qubo(y, values, column, solver_cfg, dk_cfg)
            if cand.n_left < min_bucket or cand.n_right < min_bucket:
                continue
        else:
            cand = best_numeric_split(y, values, column.name, min_bucket)
            if cand is None:
                continue
        if best is None or cand.cost < best.cost:
            best = cand
    return best
