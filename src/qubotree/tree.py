"""Level-by-level regression-tree construction, prediction, and serialization.

Growth proceeds one depth level at a time: every variable of every open node
of a level is searched in one batched call, with its kind-appropriate
splitter, and each node's cheapest candidate wins.
A tree is stored as one preorder table of per-node arrays. ``predict_many``
routes rows through it a depth level at a time and ``predict`` one row at a
time; ``RegressionTree.root`` is a read-only ``TreeNode`` view of the table.
Categories a subset rule never saw at training are routed either to the
complement (right) child or to the larger child, two semantics that only
diverge on such unseen labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .datasets import ColumnSchema, DataError, Dataset
# best_split is not called here; bench/tracing.py wraps it under this name.
from .splitting import CATEGORICAL_METHODS, SplitRule, best_split, level_rules, search_level  # noqa: F401
from .stats import NodeStats

ROUTINGS = ("complement", "majority")


@dataclass(frozen=True)
class TreeNode:
    id: int
    n: int
    prediction: float
    sse: float
    rule: Optional[SplitRule] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


@dataclass(frozen=True)
class GrowConfig:
    """Stopping controls, the categorical split method and the routing of
    labels a subset rule never saw: every setting growth reads.

    ``cp`` gates a split on its risk reduction relative to the root SSE.
    ``max_tree()`` is the preset that disables every early stop except depth.
    ``qubo`` grows from the sorted-means scan, exact for squared error, as
    ``greedy`` does, so no solver or ratio-iteration setting changes a grown tree.
    """

    max_depth: int = 30
    min_split: int = 20
    min_bucket: int = 7
    cp: float = 0.01
    routing: str = "complement"
    categorical_method: str = "qubo"

    def __post_init__(self):
        got = (self.max_depth, self.min_split, self.min_bucket, self.cp)
        # bool is an int subclass, and a model file's true is no count.
        cp_is_number = isinstance(self.cp, (int, float)) and not isinstance(self.cp, bool)
        if any(type(v) is not int for v in got[:3]) or not cp_is_number:
            raise ValueError(f"need ints as max_depth, min_split and min_bucket and a number as cp, got {got!r}")
        if self.max_depth < 0 or not 0 <= self.cp < math.inf or self.min_bucket < 1:  # a NaN cp fails too
            got = (self.max_depth, self.cp, self.min_bucket)
            raise ValueError(f"need max_depth >= 0, a finite cp >= 0 and min_bucket >= 1, got {got}")
        if self.min_split < 2 * self.min_bucket:
            raise ValueError("min_split must be at least 2 * min_bucket")
        if self.routing not in ROUTINGS:
            raise ValueError(f"unknown routing {self.routing!r}")
        if self.categorical_method not in CATEGORICAL_METHODS:
            raise ValueError(f"unknown categorical method {self.categorical_method!r}")

    @classmethod
    def max_tree(cls, **overrides) -> "GrowConfig":
        base = dict(max_depth=64, min_split=2, min_bucket=1, cp=0.0)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True, eq=False)
class NodeTable:
    """A tree's nodes in preorder, one array entry per node.

    Position 0 is the root. ``size[i]`` is the number of nodes in the subtree
    at position i, so it spans positions ``i .. i + size[i] - 1``, its left
    child is at i + 1 and its right child at ``i + 1 + size[i + 1]``; a leaf
    has size 1. ``rules[i]`` is None for a leaf and otherwise the rule's
    ``(variable, kind, left_categories, right_categories, threshold)``.
    """

    ids: np.ndarray
    n: np.ndarray
    prediction: np.ndarray
    sse: np.ndarray
    size: np.ndarray
    rules: tuple

    @cached_property
    def right(self) -> np.ndarray:
        """Each inner node's right-child position; 0 at a leaf."""
        right = np.zeros(len(self.size), dtype=np.int64)
        inner = np.flatnonzero(self.size > 1)
        right[inner] = inner + 1 + self.size[inner + 1]
        return right

    @cached_property
    def depth(self) -> np.ndarray:
        """Each node's depth, filled one level at a time."""
        depth = np.zeros(len(self.size), dtype=np.int64)
        level, d = np.zeros(1, dtype=np.int64), 0
        while level.size:
            depth[level] = d
            inner = level[self.size[level] > 1]
            level, d = np.concatenate([inner + 1, self.right[inner]]), d + 1
        return depth

    @cached_property
    def position(self) -> dict:
        """Node id -> position."""
        return {node_id: i for i, node_id in enumerate(self.ids.tolist())}


def _array(values, kind: type) -> np.ndarray:
    """``values`` as an int64 or float64 array. Where one is not of ``kind``
    or does not fit, as in a model document that ``load_model`` refuses, an
    object array holds them as given."""
    if set(map(type, values)) <= {kind}:
        try:
            return np.array(values, dtype=np.int64 if kind is int else np.float64)
        except OverflowError:
            pass
    return np.fromiter(values, dtype=object, count=len(values))


class _Routes(NamedTuple):
    """Per-node rule arrays of a tree, in the model schema's column and label order."""

    column: np.ndarray  # the rule's column index in the schema
    used: frozenset  # the column indices some rule reads
    threshold: np.ndarray  # NaN at a subset rule, which no value is below
    offset: np.ndarray  # a subset rule's block in ``child``, -1 elsewhere
    child: dict  # routing -> flat table: the child position a label code goes to


@dataclass(frozen=True)
class RegressionTree:
    table: NodeTable
    schema: tuple
    config: GrowConfig
    n_train: int
    response_name: str = "y"

    @cached_property
    def root(self) -> TreeNode:
        """The root of a read-only ``TreeNode`` view of the table, built on
        first read. The library neither builds nor routes through it; its
        readers are the benchmark's traced tree count and the tests."""
        t = self.table
        ids, n, prediction, sse, right = (a.tolist() for a in (t.ids, t.n, t.prediction, t.sse, t.right))
        built = [None] * len(ids)
        for i in reversed(range(len(ids))):  # children come after their parent
            rule = t.rules[i]
            kids = (None, None) if rule is None else (SplitRule(*rule), built[i + 1], built[right[i]])
            built[i] = TreeNode(ids[i], n[i], prediction[i], sse[i], *kids)
        return built[0]

    @cached_property
    def _routes(self) -> _Routes:
        """The rule arrays ``leaf_positions`` reads, built on first use."""
        t = self.table
        where = {c.name: j for j, c in enumerate(self.schema)}
        codes = {c.name: {lab: k for k, lab in enumerate(c.categories)} for c in self.schema}
        inner, columns, numeric, cuts = [], [], [], []
        # Each subset rule gets a block of one entry per label of its column.
        subset, starts, seen_left, seen_right, end = [], [], [], [], 0
        for i, rule in enumerate(t.rules):
            if rule is None:
                continue
            variable, kind, left, right, cut = rule
            inner.append(i)
            columns.append(where[variable])
            if kind == "threshold":
                numeric.append(i)
                cuts.append(cut)
                continue
            code = codes[variable]
            subset.append(i)
            starts.append(end)
            seen_left += [end + code[lab] for lab in left]
            seen_right += [end + code[lab] for lab in right]
            end += len(code)
        column = np.zeros(len(t.rules), dtype=np.intp)
        column[inner] = columns
        threshold = np.full(len(t.rules), np.nan)
        threshold[numeric] = cuts
        offset = np.full(len(t.rules), -1, dtype=np.intp)
        offset[subset] = starts
        left = np.zeros(end, dtype=bool)
        left[seen_left] = True
        unseen = ~left
        unseen[seen_right] = False
        subset = np.asarray(subset, dtype=np.intp)
        width = np.diff(starts + [end])
        larger_left = np.repeat(t.n[subset + 1] >= t.n[t.right[subset]], width)
        left_child, right_child = np.repeat(subset + 1, width), np.repeat(t.right[subset], width)
        child = {
            "complement": np.where(left, left_child, right_child),
            "majority": np.where(left | unseen & larger_left, left_child, right_child),
        }
        return _Routes(column, frozenset(columns), threshold, offset, child)

    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.table.size == 1))

    def depth(self) -> int:
        return int(self.table.depth.max())


def grow(data: Dataset, cfg: Optional[GrowConfig] = None) -> RegressionTree:
    """Build a tree on the whole dataset, one depth level at a time.

    A node becomes a leaf at the depth cap, below ``min_split`` rows, at zero
    variance, when no variable admits a split leaving ``min_bucket`` rows per
    child, or when the best split's SSE reduction relative to the root SSE
    falls below ``cp``. Accepted splits always strictly reduce SSE.

    A level is arrays end to end: one :func:`search_level` call finds every
    open node's cheapest split, the gates pick the splits kept for all nodes
    at once, and :func:`_partition` sends the level's rows to the children;
    each inner node's rule is built once. Node ids are then numbered in
    preorder from the levels' subtree sizes.
    """
    cfg = cfg or GrowConfig()
    if data.response is None or data.n_rows == 0:
        raise DataError("cannot grow a tree without response values")
    response = data.response
    root_sse = NodeStats.from_values(response).sse()

    # Each level's node counts, response sums and SSEs in breadth-first
    # order, the positions of the nodes that split, whose children make up
    # the next level in pairs, and their rules.
    levels = []
    rows, sizes = np.arange(data.n_rows), np.array([data.n_rows])
    depth = 0
    while len(sizes):
        stats = NodeStats.of_runs(response[rows], sizes)
        sse = stats.sse()
        is_open = (stats.n >= cfg.min_split) & (sse > 0.0) & (depth < cfg.max_depth)
        searched = np.flatnonzero(is_open)
        split, rules = searched[:0], []
        if len(searched):
            if len(searched) < len(sizes):  # the rows of nodes that stay leaves drop out
                rows = rows[np.repeat(is_open, sizes)]
            found = search_level(data, rows, sizes[searched], cfg.categorical_method, cfg.min_bucket)
            reduction = sse[searched] - found.cost
            refused = (found.column < 0) | (reduction <= 0.0)  # a NaN reduction passes, as it always has
            if root_sse > 0.0:
                refused |= reduction / root_sse < cfg.cp
            kept = np.flatnonzero(~refused)
            split, rules = searched[kept], level_rules(data.schema, found, kept)
            rows, sizes = _partition(data, rows, np.repeat(np.arange(len(searched)), sizes[searched]), found, kept)
        else:
            sizes = sizes[:0]
        levels.append((stats.n, stats.sum, sse, split, rules))
        depth += 1
    return RegressionTree(_grown_table(levels), data.schema, cfg, data.n_rows, data.response_name)


def _partition(data: Dataset, rows, seg, found, kept) -> tuple:
    """The next level's rows and sizes. ``rows`` are the rows searched for
    ``found`` and ``seg`` the node of each there; node ``kept[m]`` sends its
    rows to children 2m (left) and 2m + 1, the other nodes none.

    Each winning column decides all the rows at once, a threshold column by
    one comparison with each row's threshold, a categorical one by one
    lookup of each row's label code in a flat table of every subset rule's
    sides; each row keeps its own column's decision. A stable sort then
    keeps each child's rows in row order.
    """
    if not len(kept):
        return rows[:0], np.zeros(0, dtype=np.int64)
    rank = np.full(len(found.column), -1)
    rank[kept] = np.arange(len(kept))
    m = rank[seg]
    if len(kept) < len(found.column):  # the rows of nodes that do not split drop out
        split = m >= 0
        rows, seg, m = rows[split], seg[split], m[split]
    won = found.column[kept]
    column = found.column[seg]
    # A block per subset rule, one entry per label of its column: the side it sends the label to.
    width = np.array([len(c.categories) for c in data.schema])[won]
    start = np.zeros(len(found.column), dtype=np.int64)
    start[kept] = np.cumsum(width) - width
    cell = np.flatnonzero(rank[found.cell_node] >= 0)
    side = np.zeros(int(width.sum()), dtype=bool)
    side[start[found.cell_node[cell]] + found.cell_code[cell]] = found.cell_left[cell]
    go_left = None
    for j in np.unique(won).tolist():
        values = data.column(data.schema[j].name)[rows]
        if data.schema[j].kind == "categorical":  # another column's rows may index past the table
            decided = side.take(start[seg] + values, mode="clip")
        else:
            decided = values < found.threshold[seg]
        go_left = decided if go_left is None else np.where(column == j, decided, go_left)
    # Nodes in turn, each one's left rows, then its right rows, in row order.
    return rows[np.lexsort((~go_left, m))], np.bincount(2 * m + ~go_left, minlength=2 * len(kept))


def _preorder(splits: list) -> tuple:
    """Preorder numbering of a tree given level by level: ``splits[d]``
    holds the positions, within breadth-first level d, of the nodes that
    split, the last level's none; their children make up level d + 1 in
    pairs, left then right.

    Returns each node's preorder position and subtree size, in breadth-first
    order. Sizes are summed up from the deepest level; a left child sits just
    after its parent and a right child just after its sibling's subtree, so
    each level's positions follow from the level above.
    """
    sizes, below = [], None
    for count, split in zip([2 * len(split) for split in splits[-2::-1]] + [1], reversed(splits)):
        size = np.ones(count, dtype=np.int64)
        if len(split):
            size[split] += below[0::2] + below[1::2]
        sizes.append(size)
        below = size
    sizes.reverse()
    places = [np.zeros(1, dtype=np.int64)]
    for split, below in zip(splits, sizes[1:]):
        parent = places[-1][split]
        place = np.empty(2 * len(split), dtype=np.int64)
        place[0::2] = parent + 1
        place[1::2] = parent + 1 + below[0::2]
        places.append(place)
    return np.concatenate(places), np.concatenate(sizes)


def _grown_table(levels: list) -> NodeTable:
    """``grow``'s levels as a preorder table, ids numbered in preorder."""
    splits = [level[3] for level in levels]
    at, size = _preorder(splits)
    order = np.empty_like(at)
    order[at] = np.arange(len(at))  # the breadth-first index of each preorder position
    n, sums, sse = (np.concatenate(part)[order] for part in zip(*[level[:3] for level in levels]))
    starts = np.cumsum([0] + [len(level[0]) for level in levels])
    inner = at[np.concatenate([start + split for start, split in zip(starts, splits)])]
    rules = [None] * len(at)
    for i, rule in zip(inner.tolist(), [rule for level in levels for rule in level[4]]):
        rules[i] = rule
    return NodeTable(np.arange(len(at), dtype=np.int64), n, sums / n, sse, size[order], tuple(rules))


def _routing(tree: RegressionTree, routing: Optional[str]) -> str:
    routing = routing or tree.config.routing
    if routing not in ROUTINGS:
        raise ValueError(f"unknown routing {routing!r}")
    return routing


def predict(tree: RegressionTree, row: dict, routing: Optional[str] = None) -> float:
    """Predict one row given as a column -> value mapping.

    The row-at-a-time walk over the node table, reading each rule as stored:
    the reference the vectorized :func:`leaf_positions` is held to.
    """
    routing = _routing(tree, routing)
    for col in tree.schema:
        if col.name not in row:
            raise DataError(f"row is missing column {col.name!r}")
        if col.kind == "categorical" and row[col.name] not in col.categories:
            raise DataError(f"column {col.name!r}: unknown category {row[col.name]!r}")
    t, i = tree.table, 0
    while (rule := t.rules[i]) is not None:
        variable, kind, left, right, threshold = rule
        value, to_right = row[variable], t.right.item(i)
        if kind == "threshold":
            go_left = value < threshold
        elif value in left:
            go_left = True
        elif routing == "complement" or value in right:
            go_left = False
        else:  # a label unseen at this node goes with the larger training child
            go_left = t.n.item(i + 1) >= t.n.item(to_right)
        i = i + 1 if go_left else to_right
    return t.prediction.item(i)


def _model_columns(schema: tuple, data: Dataset, used: frozenset) -> np.ndarray:
    """The ``used`` columns of ``data`` as one float array in the model
    ``schema``'s column order: value j * N + r is column j of row r,
    categorical codes remapped to the model's label order. Other columns
    are checked but left unset.

    The dataset may have its own category code order; a column it lacks, a
    column of the other kind and a label outside the model schema are rejected.
    """
    columns = np.empty((len(schema), data.n_rows), dtype=np.float64)
    for j, model_col in enumerate(schema):
        if model_col.name not in data.columns:
            raise DataError(f"dataset is missing column {model_col.name!r}")
        col = data.schema_for(model_col.name)
        if (col.kind == "categorical") != (model_col.kind == "categorical"):
            raise DataError(f"column {col.name!r}: {col.kind} here, {model_col.kind} in the model")
        if col.kind == "categorical":
            unknown = set(col.categories) - set(model_col.categories)
            if unknown:
                raise DataError(f"column {col.name!r}: unknown categories {sorted(unknown)!r}")
        if j not in used:
            continue
        values = data.column(col.name)
        if col.kind == "categorical" and col.categories != model_col.categories:
            code = {lab: k for k, lab in enumerate(model_col.categories)}
            values = np.array([code[lab] for lab in col.categories], dtype=np.float64)[values]
        columns[j] = values
    return columns.ravel()


def leaf_positions(tree: RegressionTree, data: Dataset, routing: Optional[str] = None) -> np.ndarray:
    """The table position of the leaf each row of ``data`` reaches.

    The vectorized form of the routing ``predict`` applies one row at a
    time: every row still at an inner node takes one step per round, so a
    round is one depth level. A subset rule looks the child a row's label
    code goes to up in a per-node table, into which ``majority`` routing
    folds its larger-child rule for labels the node never saw.
    """
    routing = _routing(tree, routing)
    t, routes = tree.table, tree._routes
    columns = _model_columns(tree.schema, data, routes.used)
    child = routes.child[routing]
    inner = t.size > 1
    subset_rule = routes.offset >= 0
    start = routes.column * data.n_rows
    leaf = np.zeros(data.n_rows, dtype=np.int64)
    # The rows still at an inner node, and their positions: at first the
    # root's, one scalar, so the first round reads each node array once.
    live = np.arange(data.n_rows if inner[0] else 0)
    at = np.int64(0)
    while live.size:
        values = columns.take(start.take(at) + live)
        subset = subset_rule.take(at)
        if subset.all():
            at = child.take(routes.offset.take(at) + values.astype(np.intp))
        else:
            step = np.where(values < routes.threshold.take(at), at + 1, t.right.take(at))
            if subset.any():
                k = np.flatnonzero(subset)
                step[k] = child.take(routes.offset.take(at.take(k)) + values.take(k).astype(np.intp))
            at = step
        keep = np.flatnonzero(inner.take(at))
        if keep.size < live.size:  # some rows reached their leaf
            leaf[live] = at
            live, at = live.take(keep), at.take(keep)
    return leaf


def predict_many(tree: RegressionTree, data: Dataset, routing: Optional[str] = None) -> np.ndarray:
    """Vectorized prediction for a whole dataset.

    The dataset may have its own category code order; labels are re-mapped
    against the model schema, and any label outside it is rejected.
    """
    return tree.table.prediction[leaf_positions(tree, data, routing)]


def evaluate_mse(tree: RegressionTree, data: Dataset, routing: Optional[str] = None) -> float:
    if data.response is None or data.n_rows == 0:
        raise DataError("evaluation needs a non-empty dataset with responses")
    residual = data.response - predict_many(tree, data, routing)
    return float(np.mean(residual * residual))


def _rule_text(rule: tuple) -> str:
    variable, kind, left, _, threshold = rule
    if kind == "threshold":
        return f"{variable} < {threshold!r}"
    return f"{variable} in {{{', '.join(left)}}}"


def describe(tree: RegressionTree) -> str:
    """Deterministic preorder dump with one line per node."""
    t = tree.table
    lines = [
        f"leaves={tree.leaf_count()} depth={tree.depth()} n_train={tree.n_train}"
    ]
    columns = zip(t.ids.tolist(), t.n.tolist(), t.prediction.tolist(), t.sse.tolist(), t.depth.tolist(), t.rules)
    for node_id, n, prediction, sse, depth, rule in columns:
        head = f"{'  ' * depth}node {node_id}: n={n} yhat={prediction!r} sse={sse!r}"
        lines.append(head + (" leaf" if rule is None else f" split {_rule_text(rule)}"))
    return "\n".join(lines)


def _rule_to_dict(rule: Optional[tuple]):
    if rule is None:
        return None
    variable, kind, left, right, threshold = rule
    return {
        "variable": variable,
        "kind": kind,
        "left_categories": list(left),
        "right_categories": list(right),
        "threshold": threshold,
    }


def _header(tree: RegressionTree) -> dict:
    """A model document without its nodes: an empty "nodes" list."""
    return {
        "format": "qubotree-model",
        "version": 1,
        "response": tree.response_name,
        "n_train": tree.n_train,
        "schema": [
            {"name": c.name, "kind": c.kind, "categories": list(c.categories)}
            for c in tree.schema
        ],
        "config": asdict(tree.config),
        "nodes": [],
    }


def tree_to_dict(tree: RegressionTree) -> dict:
    t = tree.table
    ids = t.ids.tolist()
    columns = zip(ids, t.n.tolist(), t.prediction.tolist(), t.sse.tolist(), t.rules, t.right.tolist())
    doc = _header(tree)
    doc["nodes"] = [
        {
            "id": node_id,
            "n": n,
            "prediction": prediction,
            "sse": sse,
            "rule": _rule_to_dict(rule),
            "left": None if rule is None else ids[i + 1],
            "right": None if rule is None else ids[right],
        }
        for i, (node_id, n, prediction, sse, rule, right) in enumerate(columns)
    ]
    return doc


def _finite(x) -> bool:
    """Whether ``x`` is a finite float: json loads ``0`` as an int and
    ``true`` as a bool, neither of which a model file writes back as read."""
    return isinstance(x, float) and math.isfinite(x)


def _not_ints(values: np.ndarray) -> np.ndarray:
    """Per entry of an array ``_array`` made: whether it is no int."""
    if values.dtype != object:
        return np.zeros(len(values), dtype=bool)
    return np.array([type(v) is not int for v in values.tolist()], dtype=bool)


def _not_finite(values: np.ndarray) -> np.ndarray:
    """Per entry of an array ``_array`` made: whether it is no finite float."""
    if values.dtype != object:
        return ~np.isfinite(values)
    return np.array([not _finite(v) for v in values.tolist()], dtype=bool)


def _rule_fault(rule: tuple, columns: dict) -> Optional[str]:
    """What is wrong with a rule's fields against the model's columns, or None."""
    variable, kind, left, right, threshold = rule
    if kind not in ("threshold", "subset"):
        return f"unknown rule kind {kind!r}"
    if variable not in columns:
        return f"rule variable {variable!r} is not in the schema"
    column_kind, labels = columns[variable]
    if (kind == "subset") != (column_kind == "categorical"):
        return f"{kind} rule on {column_kind} column {variable!r}"
    if kind == "threshold":
        if left or right or not _finite(threshold):
            return "a threshold rule takes a finite float threshold and no labels"
        return None
    sides = labels.intersection(left + right)
    if not (left and right and len(sides) == len(left) + len(right)):
        return f"a subset rule takes two disjoint, non-empty lists of {variable!r} categories"
    if threshold is not None:
        return "a subset rule takes no threshold"
    return None


def _check_nodes(head: tuple, schema: tuple, ids, n, prediction, sse, inner, rules, left, right) -> None:
    """Check a model's header and node columns as both ``save_model`` and
    ``load_model`` require; the first fault raises DataError.

    ``head`` is ``(version, n_train, response)``. ``ids``, ``n``,
    ``prediction`` and ``sse`` are arrays as ``_array`` makes them, in one
    node order; ``inner`` holds the increasing positions of the inner nodes
    in it, and ``rules``, ``left`` and ``right`` their rule fields and child
    ids. A fault is reported as a one-at-a-time check would find it: nodes
    in decreasing id order (equal ids in node order), each node's fields,
    children and rule before the nodes it links to. Child ids must exceed
    their parent's, so there is no cycle, and every node but the first must
    be the child of exactly one node: the nodes form one tree.
    """
    got = version, n_train, response = head
    if (type(version), version) != (int, 1) or type(n_train) is not int or n_train < 1 or type(response) is not str:
        raise DataError(f"needs version 1, an int n_train >= 1 and a string as response, got {got!r}")
    columns = {c.name: (c.kind, frozenset(c.categories)) for c in schema}
    id_list = ids.tolist()
    order = np.array(sorted(range(len(ids)), key=id_list.__getitem__, reverse=True), dtype=np.int64)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    left, right = _array(left, int), _array(right, int)
    # Each check's faulty nodes, in the order one node's checks run: the
    # first three over every node, the others over the inner nodes. A check
    # reads only nodes the checks before it passed.
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    counts = n < 1 if n.dtype != object else np.array([type(v) is not int or v < 1 for v in n.tolist()], dtype=bool)
    kids = ~(_not_ints(left) | _not_ints(right))
    at = np.flatnonzero(kids & ~_not_ints(ids[inner]))
    above = np.zeros(len(inner), dtype=bool)
    above[at] = ids[inner[at]] >= np.minimum(left[at], right[at])
    rule_faults = [_rule_fault(rule, columns) for rule in rules]
    faulty = [
        _not_ints(ids), repeat, counts | _not_finite(prediction) | _not_finite(sse),
        ~kids, above, np.array([fault is not None for fault in rule_faults], dtype=bool),
    ]
    first = (len(ids), 0)
    for check, flagged in enumerate(faulty):
        at = np.flatnonzero(flagged) if check < 3 else inner[flagged]
        if len(at):
            first = min(first, (int(rank[at].min()), check))
    # Links: the nodes before the first fault claim their children in turn,
    # left then right; a child must be among them and claimed only once.
    before = np.flatnonzero(rank[inner] < first[0])
    before = before[np.argsort(rank[inner[before]])]
    claims = np.stack([left[before], right[before]], axis=1).ravel().tolist()
    known = set(ids[order[: first[0]]].tolist())
    missing = [child not in known for child in claims]
    again = np.ones(len(claims), dtype=bool)
    again[np.unique(claims, return_index=True)[1]] = False
    bad = np.flatnonzero(np.array(missing, dtype=bool) | again)
    if len(bad):
        fault = "not in the node list" if missing[bad[0]] else "child of more than one node"
        raise DataError(f"node {claims[bad[0]]}: {fault}")
    if first[0] < len(ids):
        position, check = int(order[first[0]]), first[1]
        node_id = id_list[position]
        if check < 3:
            raise DataError(
                (f"node {node_id!r}: ids must be ints", f"node {node_id}: id appears more than once",
                 f"node {node_id}: needs an int n >= 1 and finite floats as prediction and sse")[check]
            )
        k = int(np.searchsorted(inner, position))
        raise DataError(
            (f"node {node_id}: child ids must be ints, got {left.tolist()[k]!r} and {right.tolist()[k]!r}",
             f"node {node_id}: child ids must be greater than the node's own id",
             f"node {node_id}: {rule_faults[k]}")[check - 3]
        )
    orphans = known.difference(claims, id_list[:1])
    if orphans:
        raise DataError(f"node {min(orphans)}: neither the root nor any node's child")


def _column(entries: list, key: str) -> list:
    """Each entry's value at ``key``."""
    return list(map(itemgetter(key), entries))


def _take(values, at: np.ndarray) -> list:
    """``values[i]`` for each i of ``at``."""
    if len(at) > 1:
        return list(itemgetter(*at.tolist())(values))
    return [values[i] for i in at.tolist()]


def tree_from_dict(doc: dict) -> RegressionTree:
    if not isinstance(doc, dict) or doc.get("format") != "qubotree-model":
        raise DataError("not a qubotree model document")
    schema = tuple(
        ColumnSchema(c["name"], c["kind"], tuple(c["categories"])) for c in doc["schema"]
    )
    # Other keys, such as the solver settings ("exact_threshold", "anneal_seed",
    # ...) that older files hold and growth does not read, are ignored.
    cfg = GrowConfig(**{f.name: doc["config"][f.name] for f in fields(GrowConfig)})
    nodes = doc["nodes"]
    if not nodes:
        raise DataError("the node list is empty")
    head = doc["version"], doc["n_train"], doc["response"]
    # Column by column, one key at a time: no per-node record is built.
    ids, n, prediction, sse, raw = (_column(nodes, key) for key in ("id", "n", "prediction", "sse", "rule"))
    inner = np.flatnonzero([rule is not None for rule in raw])
    raw, kids = _take(raw, inner), _take(nodes, inner)
    variable, kind, left, right, threshold = (
        _column(raw, key) for key in ("variable", "kind", "left_categories", "right_categories", "threshold")
    )
    rules = list(zip(variable, kind, map(tuple, left), map(tuple, right), threshold))
    left, right = _column(kids, "left"), _column(kids, "right")
    ids, n, prediction, sse = _array(ids, int), _array(n, int), _array(prediction, float), _array(sse, float)
    _check_nodes(head, schema, ids, n, prediction, sse, inner, rules, left, right)
    # Breadth-first levels from the root, then the preorder of the nodes,
    # whatever order their ids were numbered in.
    position = dict(zip(ids.tolist(), range(len(ids)))).__getitem__
    children = np.zeros((len(ids), 2), dtype=np.int64)
    children[inner, 0], children[inner, 1] = list(map(position, left)), list(map(position, right))
    has_rule = np.zeros(len(ids), dtype=bool)
    has_rule[inner] = True
    levels, splits = [np.zeros(1, dtype=np.int64)], []
    while True:
        splits.append(np.flatnonzero(has_rule[levels[-1]]))
        if not len(splits[-1]):
            break
        levels.append(children[levels[-1][splits[-1]]].ravel())
    at, size = _preorder(splits)
    order = np.empty_like(at)
    order[at] = np.concatenate(levels)  # the node of each preorder position
    preorder_rules = [None] * len(ids)
    for i, rule in zip(np.argsort(order)[inner].tolist(), rules):
        preorder_rules[i] = rule
    table = NodeTable(ids[order], n[order], prediction[order], sse[order], size[np.argsort(at)], tuple(preorder_rules))
    return RegressionTree(table, schema, cfg, doc["n_train"], doc["response"])


# One entry of the "nodes" list, a leaf or an inner node, laid out as
# json.dumps(indent=1, sort_keys=True) lays it out.
_LEAF = """  {
   "id": %d,
   "left": null,
   "n": %d,
   "prediction": %s,
   "right": null,
   "rule": null,
   "sse": %s
  }"""
_INNER = """  {
   "id": %d,
   "left": %d,
   "n": %d,
   "prediction": %s,
   "right": %d,
   "rule": {
    "kind": %s,
    "left_categories": %s,
    "right_categories": %s,
    "threshold": %s,
    "variable": %s
   },
   "sse": %s
  }"""


def _labels_json(labels: tuple) -> str:
    """A rule's label list as json writes it at its depth in a node."""
    if not labels:
        return "[]"
    return "[\n     " + ",\n     ".join(map(encode_basestring_ascii, labels)) + "\n    ]"


# Nodes formatted at once by save_model: the text of one chunk is held at a time.
_WRITE_NODES = 4096


def _nodes_json(t: NodeTable, lo: int, hi: int) -> list:
    """The entries of the "nodes" list at table positions ``lo`` to ``hi``,
    formatted from the table's columns. Checked nodes hold finite floats,
    which float.__repr__ writes as json does."""
    size = t.size[lo:hi]
    leaf, inner = np.flatnonzero(size == 1), np.flatnonzero(size > 1)
    ids, n = t.ids[lo:hi].tolist(), t.n[lo:hi].tolist()
    prediction, sse = (list(map(float.__repr__, v[lo:hi].tolist())) for v in (t.prediction, t.sse))
    leaves = zip(*(_take(v, leaf) for v in (ids, n, prediction, sse)))
    variable, kind, left, right, threshold = zip(*_take(t.rules[lo:hi], inner)) if len(inner) else ((),) * 5
    text = {v: encode_basestring_ascii(v) for v in {*variable, *kind}}
    labels = {v: _labels_json(v) for v in {*left, *right}}
    splits = zip(
        _take(ids, inner), t.ids[lo + inner + 1].tolist(), _take(n, inner), _take(prediction, inner),
        t.ids[t.right[lo + inner]].tolist(), map(text.__getitem__, kind), map(labels.__getitem__, left),
        map(labels.__getitem__, right), ["null" if x is None else float.__repr__(x) for x in threshold],
        map(text.__getitem__, variable), _take(sse, inner),
    )
    entries = [*map(_LEAF.__mod__, leaves), *map(_INNER.__mod__, splits)]
    return _take(entries, np.argsort(np.concatenate([leaf, inner])))


def save_model(tree: RegressionTree, path: str) -> None:
    """Write ``tree_to_dict(tree)`` as ``json.dump(..., indent=1, sort_keys=True)`` would.

    A tree that ``load_model`` would reject raises DataError before the file
    is opened: the table's columns go through the checker ``load_model``
    uses. json's pure-Python indenting encoder is slow on large trees, so
    only the header goes through json; the nodes are formatted from the
    table's columns with fixed templates, a chunk of positions at a time.
    """
    t = tree.table
    inner = np.flatnonzero(t.size > 1)
    children = t.ids[inner + 1].tolist(), t.ids[t.right[inner]].tolist()
    head = (1, tree.n_train, tree.response_name)
    _check_nodes(head, tree.schema, t.ids, t.n, t.prediction, t.sse, inner, _take(t.rules, inner), *children)
    # At indent 1 a raw newline and one space start only top-level keys.
    text = json.dumps(_header(tree), indent=1, sort_keys=True)
    head, _, tail = text.partition('\n "nodes": []')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '\n "nodes": [\n')
        for lo in range(0, len(t.ids), _WRITE_NODES):
            fh.write(",\n" * (lo > 0) + ",\n".join(_nodes_json(t, lo, lo + _WRITE_NODES)))
        fh.write("\n ]" + tail + "\n")


def load_model(path: str) -> RegressionTree:
    """Read a model file; one that is not a well-formed model raises DataError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return tree_from_dict(json.load(fh))
        except KeyError as exc:
            raise DataError(f"{path}: model file is missing key {exc}") from None
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}: malformed model file: {exc}") from None


def prune_to_leaf(tree: RegressionTree, collapse_ids) -> RegressionTree:
    """Pruned copy of the tree with every node in ``collapse_ids`` made a leaf.

    The table keeps every position outside the collapsed nodes' spans; a tree
    with no inner node to collapse is returned as it is.
    """
    t = tree.table
    at = np.array([t.position[i] for i in set(collapse_ids) if i in t.position], dtype=np.int64)
    at = at[t.size[at] > 1]
    if not at.size:
        return tree
    # Positions strictly inside a collapsed span are covered and dropped.
    cover = np.zeros(len(t.size) + 1, dtype=np.int64)
    np.add.at(cover, at + 1, 1)
    np.add.at(cover, at + t.size[at], -1)
    kept = np.flatnonzero(np.cumsum(cover[:-1]) == 0)
    before = np.zeros(len(t.size) + 1, dtype=np.int64)
    before[kept + 1] = 1
    before = np.cumsum(before)  # kept positions before each position
    size = before[kept + t.size[kept]] - before[kept]
    rules = [t.rules[i] if s > 1 else None for i, s in zip(kept.tolist(), size.tolist())]
    table = NodeTable(t.ids[kept], t.n[kept], t.prediction[kept], t.sse[kept], size, tuple(rules))
    return replace(tree, table=table)
