"""Recursive regression-tree construction, prediction, and serialization.

Growth follows the classic recursive scheme: at each node every variable is
searched with its kind-appropriate splitter and the cheapest candidate wins.
Categories a subset rule never saw at training are routed either to the
complement (right) child or to the larger child, two semantics that only
diverge on such unseen labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .datasets import ColumnSchema, DataError, Dataset
from .dinkelbach import DinkelbachConfig
from .solvers import AnnealConfig, SolverConfig
from .splitting import SplitCandidate, SplitRule, best_split
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
    """Stopping controls plus the split-search configuration.

    ``cp`` gates a split on its risk reduction relative to the root SSE.
    ``max_tree()`` is the preset that disables every early stop except depth.
    """

    max_depth: int = 30
    min_split: int = 20
    min_bucket: int = 7
    cp: float = 0.01
    routing: str = "complement"
    categorical_method: str = "qubo"
    solver: SolverConfig = field(default_factory=SolverConfig)
    dinkelbach: DinkelbachConfig = field(default_factory=DinkelbachConfig)

    def __post_init__(self):
        if self.max_depth < 0 or self.cp < 0 or self.min_bucket < 1:
            raise ValueError("max_depth, cp must be >= 0 and min_bucket >= 1")
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
        return sum(1 for node in preorder(self.root) if node.is_leaf)

    def depth(self) -> int:
        def walk(node, d):
            if node.is_leaf:
                return d
            return max(walk(node.left, d + 1), walk(node.right, d + 1))

        return walk(self.root, 0)


def preorder(node: TreeNode):
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if not cur.is_leaf:
            stack.append(cur.right)
            stack.append(cur.left)


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
    """Build a tree on the whole dataset.

    A node becomes a leaf at the depth cap, below ``min_split`` rows, at zero
    variance, when no variable admits a split leaving ``min_bucket`` rows per
    child, or when the best split's SSE reduction relative to the root SSE
    falls below ``cp``. Accepted splits always strictly reduce SSE.
    """
    cfg = cfg or GrowConfig()
    if data.response is None or data.n_rows == 0:
        raise DataError("cannot grow a tree without response values")
    response = data.response
    root_sse = NodeStats.from_values(response).sse()
    left_mask = _left_masker(data.schema, data)
    counter = [0]

    def build(indices: np.ndarray, depth: int) -> TreeNode:
        node_id = counter[0]
        counter[0] += 1
        y = response[indices]
        stats = NodeStats.from_values(y)
        prediction = stats.sum / stats.n
        sse = stats.sse()

        candidate: Optional[SplitCandidate] = None
        if depth < cfg.max_depth and stats.n >= cfg.min_split and sse > 0.0:
            candidate = best_split(
                data,
                indices,
                method=cfg.categorical_method,
                solver_cfg=cfg.solver,
                dk_cfg=cfg.dinkelbach,
                min_bucket=cfg.min_bucket,
            )
        if candidate is not None:
            reduction = sse - candidate.cost
            if reduction <= 0.0 or (root_sse > 0.0 and reduction / root_sse < cfg.cp):
                candidate = None
        if candidate is None:
            return TreeNode(node_id, stats.n, prediction, sse)

        mask = left_mask(candidate.rule, indices)
        left = build(indices[mask], depth + 1)
        right = build(indices[~mask], depth + 1)
        return TreeNode(node_id, stats.n, prediction, sse, candidate.rule, left, right)

    root = build(np.arange(data.n_rows), 0)
    return RegressionTree(root, data.schema, cfg, data.n_rows, data.response_name)


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

    def walk(node: TreeNode, indent: int):
        pad = "  " * indent
        head = f"{pad}node {node.id}: n={node.n} yhat={node.prediction!r} sse={node.sse!r}"
        if node.is_leaf:
            lines.append(head + " leaf")
        else:
            lines.append(head + f" split {_rule_text(node.rule)}")
            walk(node.left, indent + 1)
            walk(node.right, indent + 1)

    walk(tree.root, 0)
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
    nodes = []

    def walk(node: TreeNode):
        nodes.append(
            {
                "id": node.id,
                "n": node.n,
                "prediction": node.prediction,
                "sse": node.sse,
                "rule": _rule_to_dict(node.rule),
                "left": None if node.is_leaf else node.left.id,
                "right": None if node.is_leaf else node.right.id,
            }
        )
        if not node.is_leaf:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    cfg = tree.config
    doc = {
        "format": "qubotree-model",
        "version": 1,
        "response": tree.response_name,
        "n_train": tree.n_train,
        "schema": [
            {"name": c.name, "kind": c.kind, "categories": list(c.categories)}
            for c in tree.schema
        ],
        "config": {
            "max_depth": cfg.max_depth,
            "min_split": cfg.min_split,
            "min_bucket": cfg.min_bucket,
            "cp": cfg.cp,
            "routing": cfg.routing,
            "categorical_method": cfg.categorical_method,
            "exact_threshold": cfg.solver.exact_threshold,
            "anneal_seed": cfg.solver.anneal.seed,
            "anneal_restarts": cfg.solver.anneal.restarts,
            "dinkelbach_mode": cfg.dinkelbach.mode,
            "rel_tolerance": cfg.dinkelbach.rel_tolerance,
            "max_iterations": cfg.dinkelbach.max_iterations,
        },
        "nodes": nodes,
    }
    optional = {
        "anneal_sweeps": cfg.solver.anneal.sweeps,
        "anneal_t_init": cfg.solver.anneal.t_init,
        "anneal_t_final": cfg.solver.anneal.t_final,
        "dinkelbach_custom_value": cfg.dinkelbach.custom_value,
    }
    # Unset (None) settings are not written, so default models keep their bytes.
    doc["config"].update((key, value) for key, value in optional.items() if value is not None)
    return doc


def tree_from_dict(doc: dict) -> RegressionTree:
    if doc.get("format") != "qubotree-model":
        raise DataError("not a qubotree model document")
    schema = tuple(
        ColumnSchema(c["name"], c["kind"], tuple(c["categories"])) for c in doc["schema"]
    )
    raw = doc["config"]
    cfg = GrowConfig(
        max_depth=raw["max_depth"],
        min_split=raw["min_split"],
        min_bucket=raw["min_bucket"],
        cp=raw["cp"],
        routing=raw["routing"],
        categorical_method=raw["categorical_method"],
        solver=SolverConfig(
            exact_threshold=raw["exact_threshold"],
            anneal=AnnealConfig(
                seed=raw["anneal_seed"],
                sweeps=raw.get("anneal_sweeps"),
                restarts=raw["anneal_restarts"],
                t_init=raw.get("anneal_t_init"),
                t_final=raw.get("anneal_t_final"),
            ),
        ),
        dinkelbach=DinkelbachConfig(
            mode=raw["dinkelbach_mode"],
            custom_value=raw.get("dinkelbach_custom_value"),
            rel_tolerance=raw["rel_tolerance"],
            max_iterations=raw["max_iterations"],
        ),
    )
    by_id = {entry["id"]: entry for entry in doc["nodes"]}

    def build(node_id: int) -> TreeNode:
        entry = by_id[node_id]
        raw_rule = entry["rule"]
        if raw_rule is None:
            return TreeNode(entry["id"], entry["n"], entry["prediction"], entry["sse"])
        rule = SplitRule(
            raw_rule["variable"],
            raw_rule["kind"],
            tuple(raw_rule["left_categories"]),
            tuple(raw_rule["right_categories"]),
            raw_rule["threshold"],
        )
        return TreeNode(
            entry["id"], entry["n"], entry["prediction"], entry["sse"],
            rule, build(entry["left"]), build(entry["right"]),
        )

    root = build(doc["nodes"][0]["id"])
    return RegressionTree(root, schema, cfg, doc["n_train"], doc["response"])


def save_model(tree: RegressionTree, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> RegressionTree:
    with open(path, encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))


def prune_to_leaf(tree: RegressionTree, collapse_ids) -> RegressionTree:
    """Pruned copy of the tree with every node in ``collapse_ids`` made a leaf.

    Untouched subtrees are shared, not copied.
    """
    targets = frozenset(collapse_ids)

    def walk(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return node
        if node.id in targets:
            return replace(node, rule=None, left=None, right=None)
        left = walk(node.left)
        right = walk(node.right)
        if left is node.left and right is node.right:
            return node
        return replace(node, left=left, right=right)

    return replace(tree, root=walk(tree.root))
