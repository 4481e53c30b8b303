"""Level-by-level regression-tree construction, prediction, and serialization.

Growth proceeds one depth level at a time: every variable of every open node
of a level is searched in one batched call, with its kind-appropriate
splitter, and each node's cheapest candidate wins.
A tree is stored as one preorder table of per-node arrays; rows are routed
through it a depth level at a time, and ``TreeNode`` objects are built only
when ``RegressionTree.root`` is read.
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
from .splitting import SplitRule, best_split, best_splits  # noqa: F401
from .stats import NodeStats

ROUTINGS = ("complement", "majority")
CATEGORICAL_METHODS = ("qubo", "greedy", "exhaustive")


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

    @classmethod
    def of(cls, ids, n, prediction, sse, rules) -> "NodeTable":
        """The table of per-node columns in preorder; the sizes follow from the rules."""
        size = [1] * len(rules)
        # Reversed preorder visits both children of a node before the node.
        for i in reversed(range(len(rules))):
            if rules[i] is not None:
                size[i] = 1 + size[i + 1] + size[i + 1 + size[i + 1]]
        return cls(ids, n, prediction, sse, np.array(size, dtype=np.int64), tuple(rules))

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
    or does not fit, as in a hand-built tree that ``save_model`` refuses, an
    object array holds them as given."""
    if set(map(type, values)) <= {kind}:
        try:
            return np.array(values, dtype=np.int64 if kind is int else np.float64)
        except OverflowError:
            pass
    return np.array(values, dtype=object)


def _rule_fields(rule: SplitRule) -> tuple:
    return rule.variable, rule.kind, rule.left_categories, rule.right_categories, rule.threshold


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

    @classmethod
    def from_root(cls, root: TreeNode, schema: tuple, config: GrowConfig, n_train: int, response_name: str = "y"):
        """The tree of hand-built nodes, their fields kept as given."""
        nodes = [node for node, _ in preorder(root)]
        table = NodeTable.of(
            _array([node.id for node in nodes], int),
            _array([node.n for node in nodes], int),
            _array([node.prediction for node in nodes], float),
            _array([node.sse for node in nodes], float),
            [None if node.is_leaf else _rule_fields(node.rule) for node in nodes],
        )
        return cls(table, schema, config, n_train, response_name)

    @cached_property
    def root(self) -> TreeNode:
        """The root of a ``TreeNode`` view of the table, built on first read."""
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


def preorder(node: TreeNode):
    """Yield ``(node, depth)`` for the subtree at ``node``, depth counted from it.

    Parents come before their children and each left subtree before its
    right one. This is the one read-only walk over ``TreeNode``s.
    """
    stack = [(node, 0)]
    while stack:
        cur, depth = stack.pop()
        yield cur, depth
        if not cur.is_leaf:
            stack.append((cur.right, depth + 1))
            stack.append((cur.left, depth + 1))


def _left_masker(data: Dataset):
    """``left_mask(rule, idx)``: which rows ``idx`` of ``data`` go left under
    a rule found on ``data`` itself, as growth applies each new split."""
    codes = {c.name: {lab: k for k, lab in enumerate(c.categories)} for c in data.schema}

    def left_mask(rule: SplitRule, idx: np.ndarray) -> np.ndarray:
        values = data.column(rule.variable)[idx]
        if rule.kind == "threshold":
            return values < rule.threshold
        code = codes[rule.variable]
        table = np.zeros(len(code), dtype=bool)
        table[[code[lab] for lab in rule.left_categories]] = True
        return table[values]

    return left_mask


def grow(data: Dataset, cfg: Optional[GrowConfig] = None) -> RegressionTree:
    """Build a tree on the whole dataset, one depth level at a time.

    A node becomes a leaf at the depth cap, below ``min_split`` rows, at zero
    variance, when no variable admits a split leaving ``min_bucket`` rows per
    child, or when the best split's SSE reduction relative to the root SSE
    falls below ``cp``. Accepted splits always strictly reduce SSE. The
    splits of all open nodes of a level are searched by one
    :func:`best_splits` call; node ids are then numbered in preorder.
    """
    cfg = cfg or GrowConfig()
    if data.response is None or data.n_rows == 0:
        raise DataError("cannot grow a tree without response values")
    response = data.response
    root_sse = NodeStats.from_values(response).sse()
    left_mask = _left_masker(data)

    # Nodes in breadth-first order, and the splits of the inner ones: each
    # maps to its rule and the position of its left child; the right child
    # comes next.
    nodes, splits = [], {}
    level = [np.arange(data.n_rows)]
    depth = 0
    while level:
        first = len(nodes)
        level_stats = NodeStats.of_runs(response[np.concatenate(level)], map(len, level))
        nodes += [(stats, stats.sse()) for stats in level_stats]
        searched = [
            k for k, (stats, sse) in enumerate(nodes[first:])
            if depth < cfg.max_depth and stats.n >= cfg.min_split and sse > 0.0
        ]
        candidates = best_splits(
            data, [level[k] for k in searched], method=cfg.categorical_method, min_bucket=cfg.min_bucket
        )
        children = []
        for k, candidate in zip(searched, candidates):
            if candidate is None:
                continue
            reduction = nodes[first + k][1] - candidate.cost
            if reduction <= 0.0 or (root_sse > 0.0 and reduction / root_sse < cfg.cp):
                continue
            splits[first + k] = candidate.rule, first + len(level) + len(children)
            mask = left_mask(candidate.rule, level[k])
            children += [level[k][mask], level[k][~mask]]
        level = children
        depth += 1
    return RegressionTree(_preorder_table(nodes, splits), data.schema, cfg, data.n_rows, data.response_name)


def _preorder_table(nodes: list, splits: dict) -> NodeTable:
    """``grow``'s breadth-first nodes as a preorder table, ids numbered in preorder."""
    order, stack = [], [0]
    while stack:
        k = stack.pop()
        order.append(k)
        if k in splits:
            left = splits[k][1]
            stack += [left + 1, left]
    stats = [nodes[k][0] for k in order]
    return NodeTable.of(
        np.arange(len(order), dtype=np.int64),
        np.array([s.n for s in stats], dtype=np.int64),
        np.array([s.sum / s.n for s in stats], dtype=np.float64),
        np.array([nodes[k][1] for k in order], dtype=np.float64),
        [_rule_fields(splits[k][0]) if k in splits else None for k in order],
    )


def _routing(tree: RegressionTree, routing: Optional[str]) -> str:
    routing = routing or tree.config.routing
    if routing not in ROUTINGS:
        raise ValueError(f"unknown routing {routing!r}")
    return routing


def _route_row(node: TreeNode, value, routing: str) -> TreeNode:
    rule = node.rule
    if rule.kind == "threshold":
        return node.left if value < rule.threshold else node.right
    if value in rule.left_categories:
        return node.left
    if routing == "complement" or value in rule.right_categories:
        return node.right
    # Label unseen at this node: send it with the larger training child.
    return node.left if node.left.n >= node.right.n else node.right


def predict(tree: RegressionTree, row: dict, routing: Optional[str] = None) -> float:
    """Predict one row given as a column -> value mapping.

    The row-at-a-time walk over ``tree.root``: the reference the vectorized
    :func:`leaf_positions` is held to.
    """
    routing = _routing(tree, routing)
    for col in tree.schema:
        if col.name not in row:
            raise DataError(f"row is missing column {col.name!r}")
        if col.kind == "categorical" and row[col.name] not in col.categories:
            raise DataError(f"column {col.name!r}: unknown category {row[col.name]!r}")
    node = tree.root
    while not node.is_leaf:
        node = _route_row(node, row[node.rule.variable], routing)
    return node.prediction


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


def tree_to_dict(tree: RegressionTree) -> dict:
    t = tree.table
    ids = t.ids.tolist()
    columns = zip(ids, t.n.tolist(), t.prediction.tolist(), t.sse.tolist(), t.rules, t.right.tolist())
    nodes = [
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
    doc = {
        "format": "qubotree-model",
        "version": 1,
        "response": tree.response_name,
        "n_train": tree.n_train,
        "schema": [
            {"name": c.name, "kind": c.kind, "categories": list(c.categories)}
            for c in tree.schema
        ],
        "config": asdict(tree.config),
        "nodes": nodes,
    }
    return doc


_NODE_FIELDS = itemgetter("id", "n", "prediction", "sse", "rule")
_RULE_FIELDS = itemgetter("variable", "kind", "left_categories", "right_categories", "threshold")


def _finite(x) -> bool:
    """Whether ``x`` is a finite float: json loads ``0`` as an int and
    ``true`` as a bool, neither of which a model file writes back as read."""
    return isinstance(x, float) and math.isfinite(x)


def _rule_from_dict(node_id: int, raw: dict, columns: dict) -> tuple:
    """A node's rule as the model file gives it, checked against the model's
    schema, as ``SplitRule``'s fields: a caller that only checks builds no rule."""
    variable, kind, left, right, threshold = _RULE_FIELDS(raw)
    left, right = tuple(left), tuple(right)
    if kind not in ("threshold", "subset"):
        raise DataError(f"node {node_id}: unknown rule kind {kind!r}")
    if variable not in columns:
        raise DataError(f"node {node_id}: rule variable {variable!r} is not in the schema")
    column_kind, labels = columns[variable]
    if (kind == "subset") != (column_kind == "categorical"):
        raise DataError(f"node {node_id}: {kind} rule on {column_kind} column {variable!r}")
    if kind == "threshold":
        if left or right or not _finite(threshold):
            raise DataError(f"node {node_id}: a threshold rule takes a finite float threshold and no labels")
    else:
        sides = labels.intersection(left + right)
        if not (left and right and len(sides) == len(left) + len(right)):
            raise DataError(
                f"node {node_id}: a subset rule takes two disjoint, non-empty lists of {variable!r} categories"
            )
        if threshold is not None:
            raise DataError(f"node {node_id}: a subset rule takes no threshold")
    return variable, kind, left, right, threshold


def _checked_nodes(doc: dict, schema: tuple):
    """Check a model document's header and nodes as both ``save_model`` and
    ``load_model`` require, yielding each node as ``(id, n, prediction, sse,
    rule fields, left, right)`` in decreasing id order; a leaf's last three
    are None. Whether the nodes form one tree is left to ``tree_from_dict``:
    a tree's table always does.
    """
    got = version, n_train, response = doc["version"], doc["n_train"], doc["response"]
    if (type(version), version) != (int, 1) or type(n_train) is not int or n_train < 1 or type(response) is not str:
        raise DataError(f"needs version 1, an int n_train >= 1 and a string as response, got {got!r}")
    columns = {c.name: (c.kind, frozenset(c.categories)) for c in schema}
    previous = None
    for entry in sorted(doc["nodes"], key=itemgetter("id"), reverse=True):
        node_id, n, prediction, sse, raw_rule = _NODE_FIELDS(entry)
        if type(node_id) is not int:
            raise DataError(f"node {node_id!r}: ids must be ints")
        if node_id == previous:  # sorted, so equal ids are neighbours
            raise DataError(f"node {node_id}: id appears more than once")
        previous = node_id
        if type(n) is not int or n < 1 or not (_finite(prediction) and _finite(sse)):
            raise DataError(f"node {node_id}: needs an int n >= 1 and finite floats as prediction and sse")
        if raw_rule is None:
            yield node_id, n, prediction, sse, None, None, None
            continue
        left, right = entry["left"], entry["right"]
        if type(left) is not int or type(right) is not int:
            raise DataError(f"node {node_id}: child ids must be ints, got {left!r} and {right!r}")
        if not node_id < min(left, right):
            raise DataError(f"node {node_id}: child ids must be greater than the node's own id")
        yield node_id, n, prediction, sse, _rule_from_dict(node_id, raw_rule, columns), left, right


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
    # Nodes come in decreasing id order, and a child id must be greater than
    # its parent's: no cycle and no recursion. With every other node the
    # child of exactly one node, the nodes then form one tree under the first.
    rows, children = {}, set()
    for row in _checked_nodes(doc, schema):
        node_id, _, _, _, rule, left, right = row
        if rule is not None:
            for child in (left, right):
                if child not in rows:
                    raise DataError(f"node {child}: not in the node list")
                if child in children:
                    raise DataError(f"node {child}: child of more than one node")
                children.add(child)
        rows[node_id] = row
    root = nodes[0]["id"]
    orphans = rows.keys() - children - {root}
    if orphans:
        raise DataError(f"node {min(orphans)}: neither the root nor any node's child")
    # The rows in preorder, whatever order their ids were numbered in.
    order, stack = [], [root]
    while stack:
        row = rows[stack.pop()]
        order.append(row)
        if row[4] is not None:
            stack += row[6], row[5]
    ids, n, prediction, sse, rules, _, _ = zip(*order)
    table = NodeTable.of(_array(ids, int), _array(n, int), _array(prediction, float), _array(sse, float), rules)
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


def _labels_json(labels: list) -> str:
    """A rule's label list as json writes it at its depth in a node."""
    if not labels:
        return "[]"
    return "[\n     " + ",\n     ".join(map(encode_basestring_ascii, labels)) + "\n    ]"


def _node_json(entry: dict) -> str:
    # Checked nodes hold finite floats, which float.__repr__ writes as json does.
    rule = entry["rule"]
    if rule is None:
        return _LEAF % (entry["id"], entry["n"], float.__repr__(entry["prediction"]), float.__repr__(entry["sse"]))
    threshold = rule["threshold"]
    return _INNER % (
        entry["id"], entry["left"], entry["n"], float.__repr__(entry["prediction"]), entry["right"],
        encode_basestring_ascii(rule["kind"]),
        _labels_json(rule["left_categories"]),
        _labels_json(rule["right_categories"]),
        "null" if threshold is None else float.__repr__(threshold),
        encode_basestring_ascii(rule["variable"]),
        float.__repr__(entry["sse"]),
    )


def save_model(tree: RegressionTree, path: str) -> None:
    """Write ``tree_to_dict(tree)`` as ``json.dump(..., indent=1, sort_keys=True)`` would.

    A tree that ``load_model`` would reject raises DataError before the file
    is opened. json's pure-Python indenting encoder is slow on large trees,
    so only the header goes through json; the nodes are formatted from fixed
    templates and streamed.
    """
    doc = tree_to_dict(tree)
    for _ in _checked_nodes(doc, tree.schema):
        pass
    nodes = doc["nodes"]
    doc["nodes"] = []
    # At indent 1 a raw newline and one space start only top-level keys.
    head, _, tail = json.dumps(doc, indent=1, sort_keys=True).partition('\n "nodes": []')
    chunks = map(_node_json, nodes)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '\n "nodes": [\n' + next(chunks))
        fh.writelines(",\n" + chunk for chunk in chunks)
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
