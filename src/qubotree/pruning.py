"""Cost-complexity pruning, subtree selection, and the evaluation protocol.

The weakest-link ladder repeatedly collapses every internal node attaining
the minimal per-leaf risk increase g(t) = (R(t) - R(subtree_t)) / (leaves - 1),
yielding a nested subtree sequence with non-decreasing complexity parameters.
A validation set picks the final subtree; the test set is touched only for
reporting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .datasets import DataError, Dataset, SplitSpecification, partition
from .tree import GrowConfig, RegressionTree, grow, leaf_positions, prune_to_leaf


@dataclass(frozen=True)
class PruneStep:
    """One rung of the ladder: the complexity parameter at which the tree
    shrank to this shape, plus the newly collapsed node ids.

    ``base`` is the unpruned tree and ``history`` the ``collapsed`` tuples of
    the whole ladder, both shared by all its steps, so a ladder holds no
    step trees; ``tree`` builds this step's one on demand.
    """

    alpha: float
    leaves: int
    train_risk: float
    collapsed: tuple
    base: RegressionTree = field(repr=False, compare=False)
    history: list = field(repr=False, compare=False)
    index: int = field(repr=False, compare=False)

    @property
    def tree(self) -> RegressionTree:
        """The base tree with every node collapsed up to this step made a leaf."""
        return prune_to_leaf(self.base, chain.from_iterable(self.history[: self.index + 1]))


def prune_sequence(tree: RegressionTree):
    """Nested subtree ladder ending at the root-only tree.

    Risks are normalized by the training count ``tree.n_train`` so alphas
    are comparable across datasets. All co-minimal weakest links collapse
    simultaneously, including any cascade that re-attains the same alpha,
    which keeps the alpha sequence strictly increasing after the initial
    zero step. A lazy-deletion heap serves the current minimum g, ties going
    to the smaller node id. Step trees are not built here: ``PruneStep.tree``
    builds one when it is read.

    The ladder runs on the tree's preorder table (see ``NodeTable``): a
    collapse clears a span of ``internal`` and walks up ``parent``.
    """
    n_train = tree.n_train
    table = tree.table
    ids, size, sse = table.ids.tolist(), table.size.tolist(), table.sse.tolist()
    parent = [-1] * len(size)
    leaves = [1] * len(size)
    leaf_sse = list(sse)
    internal = [s > 1 for s in size]
    # Reversed preorder visits both children of a node before the node.
    for i in reversed(range(len(size))):
        if internal[i]:
            left = i + 1
            right = left + size[left]
            parent[left] = parent[right] = i
            leaves[i] = leaves[left] + leaves[right]
            leaf_sse[i] = leaf_sse[left] + leaf_sse[right]

    def g(i: int) -> float:
        return (sse[i] - leaf_sse[i]) / n_train / (leaves[i] - 1)

    g_now = [g(i) if internal[i] else None for i in range(len(size))]
    heap = [(g_i, ids[i], i) for i, g_i in enumerate(g_now) if internal[i]]
    heapq.heapify(heap)
    steps = []
    history = []

    def peek():
        while heap:
            g_i, _, i = heap[0]
            if internal[i] and g_i == g_now[i]:
                return g_i
            heapq.heappop(heap)
        return None

    def collapse_at(threshold: float):
        newly = []
        while True:
            g_min = peek()
            if g_min is None or g_min > threshold:
                break
            _, node_id, i = heapq.heappop(heap)
            newly.append(node_id)
            delta_leaves = 1 - leaves[i]
            delta_sse = sse[i] - leaf_sse[i]
            internal[i : i + size[i]] = [False] * size[i]
            leaves[i] = 1
            leaf_sse[i] = sse[i]
            # Every ancestor of a node still internal is internal too.
            up = parent[i]
            while up >= 0:
                leaves[up] += delta_leaves
                leaf_sse[up] += delta_sse
                g_now[up] = g(up)
                heapq.heappush(heap, (g_now[up], ids[up], up))
                up = parent[up]
        return newly

    def emit(alpha: float, newly):
        history.append(tuple(sorted(newly)))
        steps.append(PruneStep(alpha, leaves[0], leaf_sse[0] / n_train, history[-1], tree, history, len(steps)))

    emit(0.0, collapse_at(0.0))
    while (alpha := peek()) is not None:
        emit(alpha, collapse_at(alpha * (1.0 + 1e-12)))
    return steps


@dataclass(frozen=True)
class StepEvaluation:
    index: int
    alpha: float
    leaves: int
    train_risk: float
    validation_mse: Optional[float] = None
    test_mse: Optional[float] = None


@dataclass(frozen=True)
class SelectionReport:
    chosen_index: int
    rows: tuple

    @property
    def chosen(self) -> StepEvaluation:
        return self.rows[self.chosen_index]


def ladder_mse(steps, data: Dataset, routing: Optional[str] = None) -> np.ndarray:
    """MSE of every ladder step on one dataset, computed incrementally.

    Rows are routed once through the widest tree; each later step only
    re-predicts the rows under its newly collapsed nodes, those whose leaf
    lies in the node's preorder span. Equals per-step re-evaluation exactly,
    at a fraction of the cost.
    """
    if not steps:
        raise ValueError("empty prune sequence")
    if data.response is None or data.n_rows == 0:
        raise DataError("evaluation needs a non-empty dataset with responses")
    base = steps[0].tree
    table = base.table
    leaf = leaf_positions(base, data, routing)
    preds = table.prediction[leaf]
    # Rows by leaf position, each leaf's rows in row order: the rows under
    # a node are one run of ``order``.
    order = np.argsort(leaf, kind="stable")
    by_leaf = leaf[order]
    prediction, depth = table.prediction.tolist(), table.depth.tolist()

    y = data.response
    se = float(np.sum((y - preds) ** 2))
    out = [se / data.n_rows]
    for step in steps[1:]:
        at = [table.position[t] for t in step.collapsed]
        spans = np.array(at, dtype=np.int64)
        starts = np.searchsorted(by_leaf, spans).tolist()
        ends = np.searchsorted(by_leaf, spans + table.size[spans]).tolist()
        # Deepest first, so a node collapsing in the same step as one of its
        # descendants has the last word on their shared rows.
        hit = [k for k in range(len(at)) if starts[k] < ends[k]]
        for k in sorted(hit, key=lambda k: depth[at[k]], reverse=True):
            # Ascending row order, so that every sum adds in one order.
            idx = np.sort(order[starts[k] : ends[k]])
            new_pred = prediction[at[k]]
            old = preds[idx]
            se += float(np.sum((y[idx] - new_pred) ** 2 - (y[idx] - old) ** 2))
            preds[idx] = new_pred
        out.append(se / data.n_rows)
    return np.asarray(out)


def select_subtree(steps, validation: Dataset, test: Optional[Dataset] = None) -> SelectionReport:
    """Pick the ladder step with minimal validation MSE.

    Ties go to fewer leaves, then to the earlier step. With ``test`` given,
    every row also carries the step's test MSE, which plays no part in the
    choice.
    """
    if not steps:
        raise ValueError("empty prune sequence")
    if validation.response is None or validation.n_rows == 0:
        raise DataError("empty validation set")
    val_mse = ladder_mse(steps, validation).tolist()
    test_mse = [None] * len(steps) if test is None else ladder_mse(steps, test).tolist()
    rows = tuple(
        StepEvaluation(i, s.alpha, s.leaves, s.train_risk, val_mse[i], test_mse[i])
        for i, s in enumerate(steps)
    )
    chosen = min(range(len(rows)), key=lambda i: (rows[i].validation_mse, rows[i].leaves))
    return SelectionReport(chosen, rows)


@dataclass(frozen=True)
class ProtocolRow:
    tree_type: str
    leaves: int
    depth: int
    alpha: float
    train_mse: float
    validation_mse: float
    test_mse: float


@dataclass(frozen=True)
class ProtocolReport:
    """Rows for the root, validation-best, test-best, and maximal trees.

    ``test_best`` is a diagnostic only: selecting on the test set would leak
    it into model choice, so it is never used to pick the returned tree.
    """

    method: str
    rows: tuple
    chosen_index: int
    steps_count: int


def evaluate_protocol(
    data: Dataset,
    split_spec: SplitSpecification,
    cfg: Optional[GrowConfig] = None,
) -> ProtocolReport:
    """Partition, grow the maximal tree, prune, select, and score.

    Fractions follow ``split_spec``; the maximal tree is grown with ``cfg``
    (default: the max-tree preset) on the training part only.
    """
    cfg = cfg or GrowConfig.max_tree()
    train, validation, test = partition(data, split_spec)
    max_tree = grow(train, cfg)
    steps = prune_sequence(max_tree)
    selection = select_subtree(steps, validation, test)
    rows, chosen = selection.rows, selection.chosen_index
    test_best = int(np.argmin([r.test_mse for r in rows]))
    root = len(steps) - 1
    trees = {i: steps[i].tree for i in (root, chosen, test_best, 0)}

    def report_row(tree_type: str, i: int) -> ProtocolRow:
        step = steps[i]
        return ProtocolRow(
            tree_type,
            step.leaves,
            trees[i].depth(),
            step.alpha,
            step.train_risk,
            rows[i].validation_mse,
            rows[i].test_mse,
        )

    out_rows = (
        report_row("root", root),
        report_row("validation_best", chosen),
        report_row("test_best", test_best),
        report_row("max", 0),
    )
    return ProtocolReport(cfg.categorical_method, out_rows, chosen, len(steps))
