import heapq
import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubotree import (
    DataError,
    GrowConfig,
    SplitSpecification,
    evaluate_mse,
    evaluate_protocol,
    generate_datagen,
    generate_df,
    grow,
    ladder_mse,
    prune_sequence,
    select_subtree,
)
from qubotree import describe, load_model, predict_many, save_model
from qubotree.datasets import ColumnSchema, Dataset
from qubotree.tree import RegressionTree, preorder, prune_to_leaf, tree_from_dict, tree_to_dict

from conftest import chain_tree


def _dataset(x, y):
    return Dataset(
        (ColumnSchema("x", "numeric"),),
        {"x": np.asarray(x, dtype=np.float64)},
        np.asarray(y, dtype=np.float64),
    )


def _collect(tree):
    out = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out[node.id] = node
        if not node.is_leaf:
            stack.extend([node.left, node.right])
    return out


def test_worked_stump_ladder(worked_dataset):
    stump = grow(worked_dataset, GrowConfig(max_depth=1, min_split=2, min_bucket=1, cp=0.0))
    steps = prune_sequence(stump)
    assert len(steps) == 2
    assert steps[0].alpha == 0.0 and steps[0].leaves == 2
    # g = (191.5/6 - 10/6) / 1 = 30.25.
    assert steps[1].alpha == pytest.approx(30.25, rel=1e-12)
    assert steps[1].leaves == 1
    assert steps[0].train_risk == pytest.approx(10 / 6, rel=1e-12)
    assert steps[1].train_risk == pytest.approx(191.5 / 6, rel=1e-12)


def test_root_only_input_single_step(worked_dataset):
    root = grow(worked_dataset, GrowConfig(max_depth=0))
    steps = prune_sequence(root)
    assert len(steps) == 1
    assert steps[0].alpha == 0.0
    assert steps[0].tree.root.is_leaf


def _random_tree(seed, n=300):
    data = generate_df(n, seed)
    return data, grow(data, GrowConfig.max_tree())


def test_alpha_ladder_invariants():
    _, tree = _random_tree(101)
    steps = prune_sequence(tree)
    assert steps[-1].tree.root.is_leaf
    alphas = [s.alpha for s in steps]
    assert alphas[0] == 0.0
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    risks = [s.train_risk for s in steps]
    assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(risks, risks[1:]))
    leaves = [s.leaves for s in steps]
    assert all(l1 > l2 for l1, l2 in zip(leaves, leaves[1:]))


def test_trees_strictly_nested():
    _, tree = _random_tree(102)
    steps = prune_sequence(tree)
    for earlier, later in zip(steps, steps[1:]):
        prev = _collect(earlier.tree)
        cur = _collect(later.tree)
        assert set(cur) < set(prev)  # strict subtree
        for node_id, node in cur.items():
            if not node.is_leaf:
                assert prev[node_id].rule == node.rule


def test_collapsed_nodes_attain_min_g():
    data, tree = _random_tree(103)
    n_train = tree.n_train
    steps = prune_sequence(tree)
    for earlier, later in zip(steps, steps[1:]):
        prev = _collect(earlier.tree)
        internals = [n for n in prev.values() if not n.is_leaf]

        def g_of(node):
            leaf_sse, leaves = _subtree_leaf_stats(node)
            return (node.sse - leaf_sse) / n_train / (leaves - 1)

        g_values = {n.id: g_of(n) for n in internals}
        g_min = min(g_values.values())
        assert later.alpha == pytest.approx(g_min, rel=1e-9)
        for collapsed_id in later.collapsed:
            # Identity R(t) = R(subtree) + alpha * (leaves - 1) at collapse.
            node = prev[collapsed_id]
            leaf_sse, leaves = _subtree_leaf_stats(node)
            lhs = node.sse / n_train
            rhs = leaf_sse / n_train + later.alpha * (leaves - 1)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def _subtree_leaf_stats(node):
    if node.is_leaf:
        return node.sse, 1
    left_sse, left_leaves = _subtree_leaf_stats(node.left)
    right_sse, right_leaves = _subtree_leaf_stats(node.right)
    return left_sse + right_sse, left_leaves + right_leaves


def test_repruning_from_any_step_gives_suffix():
    _, tree = _random_tree(104, n=200)
    steps = prune_sequence(tree)
    mid = len(steps) // 2
    again = prune_sequence(steps[mid].tree)
    suffix = steps[mid:]
    assert len(again) == len(suffix)
    for a, b in zip(again[1:], suffix[1:]):  # alphas below mid differ only at step 0
        assert a.alpha == pytest.approx(b.alpha, rel=1e-9)
        assert a.leaves == b.leaves
        assert tree_to_dict(a.tree)["nodes"] == tree_to_dict(b.tree)["nodes"]


def test_step_trees_equal_eager_ladder():
    # Reference: the eager ladder, which collapsed each step's ids in the
    # previous step's tree.
    _, tree = _random_tree(106, n=400)
    steps = prune_sequence(tree)
    current = tree.root
    for step in steps:
        targets = set(step.collapsed)

        def rebuild(node):
            if node.id in targets:
                return replace(node, rule=None, left=None, right=None)
            if node.is_leaf:
                return node
            return replace(node, left=rebuild(node.left), right=rebuild(node.right))

        current = rebuild(current)
        assert step.tree.root == current
        assert step.tree.leaf_count() == step.leaves


def test_ladder_rejects_labels_foreign_to_the_model():
    data, tree = _random_tree(3, n=400)
    steps = prune_sequence(tree)
    col = data.schema_for("Brand")
    codes = data.column("Brand").copy()
    codes[:50] = len(col.categories)
    schema = tuple(
        replace(c, categories=c.categories + ("ZZZ",)) if c.name == "Brand" else c
        for c in data.schema
    )
    columns = {**data.columns, "Brand": codes}
    foreign = Dataset(schema, columns, data.response.copy(), data.response_name)
    with pytest.raises(DataError, match="ZZZ"):
        evaluate_mse(tree, foreign)
    with pytest.raises(DataError, match="ZZZ"):
        ladder_mse(steps, foreign)
    with pytest.raises(DataError, match="ZZZ"):
        select_subtree(steps, foreign)


def test_empty_ladder_rejected(worked_dataset):
    for call in (ladder_mse, select_subtree):
        with pytest.raises(ValueError, match="empty prune sequence"):
            call([], worked_dataset)


def test_ladder_mse_equals_per_step_evaluation():
    data, tree = _random_tree(105, n=250)
    steps = prune_sequence(tree)
    probe = generate_df(150, 999)
    fast = ladder_mse(steps, probe)
    slow = [evaluate_mse(step.tree, probe) for step in steps]
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)


def test_ladder_mse_majority_routing_matches_per_step():
    train = generate_df(300, 601)
    probe = generate_df(200, 701)
    tree = grow(train, GrowConfig.max_tree(routing="majority"))
    steps = prune_sequence(tree)
    fast = ladder_mse(steps, probe, routing="majority")
    slow = [evaluate_mse(s.tree, probe, routing="majority") for s in steps]
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)


def test_select_subtree_prefers_generalizing_tree():
    # Deterministic x, noisy y: the full tree memorizes noise, so validation
    # (a fresh noise draw on the same x grid) must prefer a strict subtree.
    rng = np.random.default_rng(7)
    x = np.tile(np.arange(20.0), 10)
    signal = np.where(x < 10, 0.0, 50.0)
    train = _dataset(x, signal + rng.normal(0, 8, len(x)))
    validation = _dataset(x, signal + rng.normal(0, 8, len(x)))
    tree = grow(train, GrowConfig.max_tree())
    steps = prune_sequence(tree)
    report = select_subtree(steps, validation)
    assert 0 < report.chosen_index < len(steps) - 1
    chosen = report.rows[report.chosen_index]
    assert chosen.leaves < steps[0].leaves
    assert chosen.validation_mse <= report.rows[0].validation_mse
    assert chosen.validation_mse <= report.rows[-1].validation_mse


def test_select_subtree_test_rows_do_not_change_the_choice():
    _, tree = _random_tree(106, n=250)
    steps = prune_sequence(tree)
    validation, test = generate_df(150, 801), generate_df(150, 802)
    plain = select_subtree(steps, validation)
    with_test = select_subtree(steps, validation, test)
    assert with_test.chosen_index == plain.chosen_index
    assert [r.test_mse for r in plain.rows] == [None] * len(steps)
    assert [r.test_mse for r in with_test.rows] == ladder_mse(steps, test).tolist()
    assert [replace(r, test_mse=None) for r in with_test.rows] == list(plain.rows)


def test_protocol_rejects_an_empty_validation_part():
    data = generate_df(40, 3)
    with pytest.raises(DataError, match="empty validation set"):
        evaluate_protocol(data, SplitSpecification((0.98, 0.01, 0.01), seed=3))


def test_select_subtree_single_step(worked_dataset):
    root = grow(worked_dataset, GrowConfig(max_depth=0))
    steps = prune_sequence(root)
    report = select_subtree(steps, worked_dataset)
    assert report.chosen_index == 0


def test_select_subtree_tie_prefers_fewer_leaves():
    # Constant response: every subtree predicts identically; the smallest wins.
    data = _dataset([0.0, 0.0, 1.0, 1.0, 2.0, 2.0], [3.0, 3.0, 3.0, 3.0, 3.0, 3.0])
    deep = _dataset([0.0, 0.0, 1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    tree = grow(deep, GrowConfig.max_tree())
    steps = prune_sequence(tree)
    report = select_subtree(steps, data)
    assert report.chosen_index == len(steps) - 1
    assert report.chosen.leaves == 1


def test_protocol_datagen_scale():
    # Heavy-tailed severities make deep trees memorize noise: the selected
    # subtree stays tiny while the maximal tree has thousands of leaves.
    data = generate_datagen(50000, 123)
    report = evaluate_protocol(data, SplitSpecification(seed=123))
    root, best, _, max_row = report.rows
    assert best.leaves <= 10
    assert max_row.leaves > 1000
    assert best.validation_mse < root.validation_mse
    assert best.validation_mse < max_row.validation_mse


def test_protocol_report_structure_and_ordering():
    data = generate_df(2000, 17)
    report = evaluate_protocol(data, SplitSpecification(seed=17))
    types = [r.tree_type for r in report.rows]
    assert types == ["root", "validation_best", "test_best", "max"]
    root, best, test_best, max_row = report.rows
    assert root.leaves == 1 and root.depth == 0
    assert max_row.alpha == 0.0
    # Nested training risks: max <= best <= root.
    assert max_row.train_mse <= best.train_mse <= root.train_mse
    # Validation selection: best is the argmin over the whole ladder.
    assert best.validation_mse <= root.validation_mse
    assert best.validation_mse <= max_row.validation_mse
    # Root training MSE equals the training response variance.
    assert test_best.test_mse <= best.test_mse


# The dict-and-set ladder that preceded the preorder table, kept verbatim as
# the reference the table-based prune_sequence must match bit for bit.
class _Work:
    """Mutable pruning state over one immutable tree."""

    def __init__(self, tree, n_train):
        self.n_train = n_train
        self.root_id = tree.root.id
        self.node = {}
        self.parent = {self.root_id: None}
        self.leaves_under = {}
        self.leaf_sse = {}
        self.internal = set()
        for node, _ in reversed(list(preorder(tree.root))):
            self.node[node.id] = node
            if node.is_leaf:
                self.leaves_under[node.id] = 1
                self.leaf_sse[node.id] = node.sse
                continue
            left, right = node.left.id, node.right.id
            self.internal.add(node.id)
            self.parent[left] = self.parent[right] = node.id
            self.leaves_under[node.id] = self.leaves_under[left] + self.leaves_under[right]
            self.leaf_sse[node.id] = self.leaf_sse[left] + self.leaf_sse[right]

    def g(self, node_id):
        node = self.node[node_id]
        extra_leaves = self.leaves_under[node_id] - 1
        return (node.sse - self.leaf_sse[node_id]) / self.n_train / extra_leaves

    def collapse(self, node_id):
        node = self.node[node_id]
        delta_leaves = 1 - self.leaves_under[node_id]
        delta_sse = node.sse - self.leaf_sse[node_id]
        self.internal.difference_update(sub.id for sub, _ in preorder(node))
        self.leaves_under[node_id] = 1
        self.leaf_sse[node_id] = node.sse
        up = self.parent[node_id]
        while up is not None:
            self.leaves_under[up] += delta_leaves
            self.leaf_sse[up] += delta_sse
            up = self.parent[up]


def _reference_ladder(tree):
    """``(alpha, leaves, train_risk, collapsed)`` per step of the reference ladder."""
    work = _Work(tree, tree.n_train)
    g_now = {t: work.g(t) for t in work.internal}
    heap = [(g, t) for t, g in g_now.items()]
    heapq.heapify(heap)
    steps = []

    def peek():
        while heap:
            g, t = heap[0]
            if t in work.internal and g == g_now.get(t):
                return g, t
            heapq.heappop(heap)
        return None

    def collapse_at(threshold):
        newly = []
        while True:
            top = peek()
            if top is None or top[0] > threshold:
                break
            _, t = top
            heapq.heappop(heap)
            work.collapse(t)
            g_now.pop(t, None)
            newly.append(t)
            up = work.parent[t]
            while up is not None:
                if up in work.internal:
                    g_now[up] = work.g(up)
                    heapq.heappush(heap, (g_now[up], up))
                up = work.parent[up]
        return newly

    def emit(alpha, newly):
        risk = work.leaf_sse[work.root_id] / work.n_train
        steps.append((alpha, work.leaves_under[work.root_id], risk, tuple(sorted(newly))))

    emit(0.0, collapse_at(0.0))
    while peek() is not None:
        alpha = peek()[0]
        emit(alpha, collapse_at(alpha * (1.0 + 1e-12)))
    return steps


def _reference_prune_to_leaf(tree, collapse_ids):
    """The recursive walk that preceded ``prune_to_leaf``'s explicit stack."""
    targets = frozenset(collapse_ids)

    def walk(node):
        if node.is_leaf:
            return node
        if node.id in targets:
            return replace(node, rule=None, left=None, right=None)
        left = walk(node.left)
        right = walk(node.right)
        if left is node.left and right is node.right:
            return node
        return replace(node, left=left, right=right)

    return RegressionTree.from_root(walk(tree.root), tree.schema, tree.config, tree.n_train, tree.response_name)


def _renumbered(tree):
    """The same tree through ``tree_from_dict`` with ids numbered breadth-first, not in preorder."""
    doc = tree_to_dict(tree)
    entries = {e["id"]: e for e in doc["nodes"]}
    order = [tree.root.id]
    for node_id in order:  # grows while it is read
        if entries[node_id]["left"] is not None:
            order += [entries[node_id]["left"], entries[node_id]["right"]]
    new_id = {old: new for new, old in enumerate(order)}
    new_id[None] = None
    nodes = [
        dict(entries[old], id=new_id[old], left=new_id[entries[old]["left"]], right=new_id[entries[old]["right"]])
        for old in order
    ]
    return tree_from_dict({**doc, "nodes": nodes})


def _assert_ladder_matches_reference(tree):
    steps = prune_sequence(tree)
    got = [(s.alpha.hex(), s.leaves, s.train_risk.hex(), s.collapsed) for s in steps]
    reference = _reference_ladder(tree)
    assert got == [(a.hex(), leaves, r.hex(), c) for a, leaves, r, c in reference]
    for k in sorted({0, len(steps) // 2, len(steps) - 1}):
        collapsed = [t for _, _, _, ids in reference[: k + 1] for t in ids]
        assert steps[k].tree.root == _reference_prune_to_leaf(tree, collapsed).root


@st.composite
def coarse_grown_trees(draw):
    """Max trees on a few rows whose responses sit on a coarse grid, so g values tie."""
    n = draw(st.integers(2, 60))
    column = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    data = Dataset(
        (ColumnSchema("x", "numeric"), ColumnSchema("c", "categorical", ("a", "b", "c", "d"))),
        {"x": np.asarray(draw(column), dtype=np.float64), "c": np.asarray(draw(column))},
        10.0 * np.asarray(draw(column), dtype=np.float64),
    )
    return grow(data, GrowConfig.max_tree(categorical_method="greedy"))


@given(coarse_grown_trees())
def test_ladder_matches_reference_on_tied_trees(tree):
    _assert_ladder_matches_reference(tree)
    _assert_ladder_matches_reference(_renumbered(tree))


@pytest.mark.parametrize(
    "make", [lambda: generate_df(1500, 11), lambda: generate_df(1500, 12), lambda: generate_datagen(1500, 13)],
    ids=("df-11", "df-12", "datagen-13"),
)
def test_ladder_matches_reference_on_grown_trees(make):
    tree = grow(make(), GrowConfig.max_tree())
    _assert_ladder_matches_reference(tree)
    _assert_ladder_matches_reference(_renumbered(tree))


def test_pruning_a_chain_deeper_than_the_recursion_limit():
    inner = sys.getrecursionlimit() + 100
    tree = chain_tree(inner)
    steps = prune_sequence(tree)
    assert [s.leaves for s in steps] == [inner + 1, 1]
    assert steps[0].tree.leaf_count() == inner + 1
    assert steps[1].tree.root.is_leaf
    deepest = 2 * (inner - 1)
    assert prune_to_leaf(tree, [deepest]).leaf_count() == inner


@pytest.mark.parametrize(
    "make", [lambda: generate_df(1500, 11), lambda: generate_datagen(1500, 13)], ids=("df-11", "datagen-13")
)
def test_breadth_first_ids_load_like_their_preorder_twin(tmp_path, make):
    data = make()
    tree = grow(data, GrowConfig.max_tree())
    twin, renumbered = str(tmp_path / "preorder.json"), tmp_path / "breadth-first.json"
    save_model(tree, twin)
    renumbered.write_text(json.dumps(tree_to_dict(_renumbered(tree))), encoding="utf-8")
    a, b = load_model(twin), load_model(str(renumbered))
    assert describe(a) != describe(b)  # the ids differ, and nothing else
    ids = re.compile(r"node \d+:")
    assert ids.sub("node:", describe(a)) == ids.sub("node:", describe(b))
    for routing in ("complement", "majority"):
        assert predict_many(a, data, routing).tobytes() == predict_many(b, data, routing).tobytes()
        ladders = [ladder_mse(prune_sequence(tree), data, routing) for tree in (a, b)]
        assert ladders[0].tobytes() == ladders[1].tobytes()
