"""Level-by-level regression-tree construction, prediction, and serialization.

Growth proceeds one depth level at a time: every variable of every open node
of a level is searched in one batched call, with its kind-appropriate
splitter, and each node's cheapest candidate wins.
Categories a subset rule never saw at training are routed either to the
complement (right) child or to the larger child, two semantics that only
diverge on such unseen labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

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


@dataclass(frozen=True)
class RegressionTree:
    root: TreeNode
    schema: tuple
    config: GrowConfig
    n_train: int
    response_name: str = "y"

    def leaf_count(self) -> int:
        return sum(1 for node, _ in preorder(self.root) if node.is_leaf)

    def depth(self) -> int:
        return max(depth for _, depth in preorder(self.root))


def preorder(node: TreeNode):
    """Yield ``(node, depth)`` for the subtree at ``node``, depth counted from it.

    Parents come before their children and each left subtree before its
    right one. This is the one read-only walk over a tree.
    """
    stack = [(node, 0)]
    while stack:
        cur, depth = stack.pop()
        yield cur, depth
        if not cur.is_leaf:
            stack.append((cur.right, depth + 1))
            stack.append((cur.left, depth + 1))


def _left_masker(schema: tuple, data: Dataset):
    """Vectorized rule test for rows of ``data`` against a model ``schema``.

    The dataset may have its own category code order: its labels are mapped
    to its codes once here, and any label outside the model schema is
    rejected. The returned ``left_mask(rule, idx, unseen_left)`` tells which
    rows ``idx`` go left; labels absent from both sides of a subset rule go
    left only when ``unseen_left`` is set.
    """
    code_maps = {}
    for model_col in schema:
        if model_col.name not in data.columns:
            raise DataError(f"dataset is missing column {model_col.name!r}")
        col = data.schema_for(model_col.name)
        if (col.kind == "categorical") != (model_col.kind == "categorical"):
            raise DataError(f"column {col.name!r}: {col.kind} here, {model_col.kind} in the model")
        if col.kind != "categorical":
            continue
        unknown = set(col.categories) - set(model_col.categories)
        if unknown:
            raise DataError(f"column {col.name!r}: unknown categories {sorted(unknown)!r}")
        code_maps[col.name] = {lab: i for i, lab in enumerate(col.categories)}

    def lookup(variable: str, labels: tuple) -> np.ndarray:
        codes = code_maps[variable]
        table = np.zeros(len(codes), dtype=bool)
        table[[codes[lab] for lab in labels if lab in codes]] = True
        return table

    def left_mask(rule: SplitRule, idx: np.ndarray, unseen_left: bool = False) -> np.ndarray:
        values = data.column(rule.variable)[idx]
        if rule.kind == "threshold":
            return values < rule.threshold
        if unseen_left:
            return ~lookup(rule.variable, rule.right_categories)[values]
        return lookup(rule.variable, rule.left_categories)[values]

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
    left_mask = _left_masker(data.schema, data)

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
    return RegressionTree(_link(nodes, splits), data.schema, cfg, data.n_rows, data.response_name)


def _link(nodes: list, splits: dict) -> TreeNode:
    """The root TreeNode of ``grow``'s breadth-first nodes, ids numbered in preorder."""
    ids = [0] * len(nodes)
    stack, next_id = [0], 0
    while stack:
        k = stack.pop()
        ids[k] = next_id
        next_id += 1
        if k in splits:
            left = splits[k][1]
            stack += [left + 1, left]
    built = [None] * len(nodes)
    for k in reversed(range(len(nodes))):  # children come after their parent
        (stats, sse), (rule, left) = nodes[k], splits.get(k, (None, None))
        kids = (None, None) if rule is None else (built[left], built[left + 1])
        built[k] = TreeNode(ids[k], stats.n, stats.sum / stats.n, sse, rule, *kids)
    return built[0]


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
    """Predict one row given as a column -> value mapping."""
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


def route_rows(tree: RegressionTree, data: Dataset, routing: Optional[str] = None):
    """Yield ``(node, row indices)`` for every node that rows of ``data`` reach.

    The vectorized form of the routing ``predict`` applies one row at a time.
    Parents come before their children; subtrees no row reaches are skipped.
    """
    routing = _routing(tree, routing)
    left_mask = _left_masker(tree.schema, data)
    stack = [(tree.root, np.arange(data.n_rows))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        yield node, idx
        if not node.is_leaf:
            unseen_left = routing == "majority" and node.left.n >= node.right.n
            mask = left_mask(node.rule, idx, unseen_left)
            stack.append((node.right, idx[~mask]))
            stack.append((node.left, idx[mask]))


def predict_many(tree: RegressionTree, data: Dataset, routing: Optional[str] = None) -> np.ndarray:
    """Vectorized prediction for a whole dataset.

    The dataset may have its own category code order; labels are re-mapped
    against the model schema, and any label outside it is rejected.
    """
    preds = np.empty(data.n_rows, dtype=np.float64)
    for node, idx in route_rows(tree, data, routing):
        if node.is_leaf:
            preds[idx] = node.prediction
    return preds


def evaluate_mse(tree: RegressionTree, data: Dataset, routing: Optional[str] = None) -> float:
    if data.response is None or data.n_rows == 0:
        raise DataError("evaluation needs a non-empty dataset with responses")
    residual = data.response - predict_many(tree, data, routing)
    return float(np.mean(residual * residual))


def _rule_text(rule: SplitRule) -> str:
    if rule.kind == "threshold":
        return f"{rule.variable} < {rule.threshold!r}"
    return f"{rule.variable} in {{{', '.join(rule.left_categories)}}}"


def describe(tree: RegressionTree) -> str:
    """Deterministic preorder dump with one line per node."""
    lines = [
        f"leaves={tree.leaf_count()} depth={tree.depth()} n_train={tree.n_train}"
    ]
    for node, depth in preorder(tree.root):
        pad = "  " * depth
        head = f"{pad}node {node.id}: n={node.n} yhat={node.prediction!r} sse={node.sse!r}"
        if node.is_leaf:
            lines.append(head + " leaf")
        else:
            lines.append(head + f" split {_rule_text(node.rule)}")
    return "\n".join(lines)


def _rule_to_dict(rule: Optional[SplitRule]):
    if rule is None:
        return None
    return {
        "variable": rule.variable,
        "kind": rule.kind,
        "left_categories": list(rule.left_categories),
        "right_categories": list(rule.right_categories),
        "threshold": rule.threshold,
    }


def tree_to_dict(tree: RegressionTree) -> dict:
    nodes = [
        {
            "id": node.id,
            "n": node.n,
            "prediction": node.prediction,
            "sse": node.sse,
            "rule": _rule_to_dict(node.rule),
            "left": None if node.is_leaf else node.left.id,
            "right": None if node.is_leaf else node.right.id,
        }
        for node, _ in preorder(tree.root)
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
    a tree built of ``TreeNode``s always does.
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
    # Children are built before their parents, in decreasing id order, so
    # a child id must be greater than its parent's: no cycle and no recursion.
    # With every other node the child of exactly one node, the nodes then
    # form one tree under the first.
    built, children = {}, set()
    for node_id, n, prediction, sse, rule, left, right in _checked_nodes(doc, schema):
        if rule is not None:
            for child in (left, right):
                if child not in built:
                    raise DataError(f"node {child}: not in the node list")
                if child in children:
                    raise DataError(f"node {child}: child of more than one node")
                children.add(child)
            rule, left, right = SplitRule(*rule), built[left], built[right]
        built[node_id] = TreeNode(node_id, n, prediction, sse, rule, left, right)
    root = built[nodes[0]["id"]]
    orphans = built.keys() - children - {root.id}
    if orphans:
        raise DataError(f"node {min(orphans)}: neither the root nor any node's child")
    return RegressionTree(root, schema, cfg, doc["n_train"], doc["response"])


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

    Untouched subtrees are shared, not copied.
    """
    targets = frozenset(collapse_ids)
    # Inner nodes in preorder, not below a target; rebuilt children first.
    inner = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            inner.append(node)
            if node.id not in targets:
                stack += [node.right, node.left]
    rebuilt = {}
    for node in reversed(inner):
        if node.id in targets:
            rebuilt[node.id] = replace(node, rule=None, left=None, right=None)
            continue
        left = rebuilt.get(node.left.id, node.left)
        right = rebuilt.get(node.right.id, node.right)
        if left is not node.left or right is not node.right:
            rebuilt[node.id] = replace(node, left=left, right=right)
    return replace(tree, root=rebuilt.get(tree.root.id, tree.root))
