from dataclasses import replace

import numpy as np
import pytest

from qubotree import (
    DataError,
    GrowConfig,
    SplitSpecification,
    evaluate_mse,
    evaluate_protocol,
    generate_df,
    grow,
    ladder_mse,
    prune_sequence,
    select_subtree,
)
from qubotree.datasets import ColumnSchema, Dataset
from qubotree.tree import tree_to_dict


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
    again = prune_sequence(steps[mid].tree, tree.n_train)
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
        assert step.tree == replace(tree, root=current)
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


def test_selection_report_serializable(worked_dataset):
    stump = grow(worked_dataset, GrowConfig(max_depth=1, min_split=2, min_bucket=1, cp=0.0))
    report = select_subtree(prune_sequence(stump), worked_dataset)
    rows = report.rows_as_dicts()
    assert [r["leaves"] for r in rows] == [2, 1]
    assert set(rows[0]) == {"index", "alpha", "leaves", "train_mse", "validation_mse", "test_mse"}


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
    from qubotree import generate_datagen

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
