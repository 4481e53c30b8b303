import json

import numpy as np
import pytest

from qubotree import (
    AnnealConfig,
    ColumnSchema,
    DataError,
    Dataset,
    DinkelbachConfig,
    GrowConfig,
    describe,
    evaluate_mse,
    generate_df,
    grow,
    ladder_mse,
    load_model,
    predict,
    predict_many,
    prune_sequence,
    save_model,
    SolverConfig,
)
from qubotree.splitting import SplitRule
from qubotree.tree import TreeNode, RegressionTree, prune_to_leaf, tree_from_dict, tree_to_dict


def _dataset(columns, response):
    schema = []
    arrays = {}
    for name, kind, values in columns:
        if kind == "categorical":
            labels = tuple(dict.fromkeys(values))
            schema.append(ColumnSchema(name, "categorical", labels))
            arrays[name] = np.array([labels.index(v) for v in values], dtype=np.int64)
        else:
            schema.append(ColumnSchema(name, kind))
            arrays[name] = np.asarray(values, dtype=np.float64)
    return Dataset(tuple(schema), arrays, np.asarray(response, dtype=np.float64))


FULL = GrowConfig(max_depth=6, min_split=2, min_bucket=1, cp=0.0)


def test_depth_zero_is_global_mean(worked_dataset):
    tree = grow(worked_dataset, GrowConfig(max_depth=0))
    assert tree.root.is_leaf
    assert tree.root.prediction == pytest.approx(worked_dataset.response.mean())
    assert tree.leaf_count() == 1 and tree.depth() == 0


def test_worked_stump(worked_dataset):
    tree = grow(worked_dataset, GrowConfig(max_depth=1, min_split=2, min_bucket=1, cp=0.0))
    assert tree.depth() == 1 and tree.leaf_count() == 2
    rule = tree.root.rule
    assert set(rule.left_categories) == {"C1", "C4"}
    assert tree.root.left.prediction == pytest.approx(1.0)
    assert tree.root.right.prediction == pytest.approx(12.0)
    assert tree.root.n == tree.root.left.n + tree.root.right.n


def test_grow_empty_errors():
    with pytest.raises(DataError):
        grow(Dataset((ColumnSchema("x", "numeric"),), {"x": np.array([])}, np.array([])))


def test_config_validation():
    with pytest.raises(ValueError):
        GrowConfig(min_split=5, min_bucket=3)
    with pytest.raises(ValueError):
        GrowConfig(routing="sideways")
    with pytest.raises(ValueError):
        GrowConfig(max_depth=-1)


def test_child_counts_and_sse_decomposition():
    rng = np.random.default_rng(60)
    data = _dataset(
        [
            ("x", "numeric", rng.normal(0, 1, 80)),
            ("c", "categorical", [f"k{i}" for i in rng.integers(0, 5, 80)]),
        ],
        rng.normal(0, 10, 80),
    )
    tree = grow(data, FULL)

    def check(node):
        if node.is_leaf:
            return
        assert node.n == node.left.n + node.right.n
        assert node.sse >= node.left.sse + node.right.sse - 1e-9
        check(node.left)
        check(node.right)

    check(tree.root)


def test_training_mse_non_increasing_in_depth():
    rng = np.random.default_rng(61)
    data = _dataset(
        [("x", "numeric", rng.normal(0, 1, 120))],
        rng.normal(0, 5, 120),
    )
    last = np.inf
    for depth in range(0, 7):
        tree = grow(data, GrowConfig(max_depth=depth, min_split=2, min_bucket=1, cp=0.0))
        mse = evaluate_mse(tree, data)
        assert mse <= last + 1e-12
        last = mse


def test_pure_or_inseparable_leaves_at_full_growth():
    rng = np.random.default_rng(62)
    data = _dataset(
        [("x", "numeric", rng.integers(0, 6, 60).astype(float))],
        rng.integers(0, 4, 60).astype(float),
    )
    tree = grow(data, GrowConfig(max_depth=30, min_split=2, min_bucket=1, cp=0.0))

    leaves = [n for n in _walk(tree.root) if n.is_leaf]
    idx_of = _leaf_rows(tree, data)
    for leaf in leaves:
        rows = idx_of[leaf.id]
        y = data.response[rows]
        x = data.column("x")[rows]
        pure = np.all(y == y[0])
        inseparable = np.all(x == x[0])
        assert pure or inseparable


def _walk(node):
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if not cur.is_leaf:
            stack.extend([cur.left, cur.right])


def _leaf_rows(tree, data):
    out = {}
    stack = [(tree.root, np.arange(data.n_rows))]
    while stack:
        node, idx = stack.pop()
        out[node.id] = idx
        if node.is_leaf:
            continue
        rule = node.rule
        values = data.column(rule.variable)[idx]
        if rule.kind == "threshold":
            mask = values < rule.threshold
        else:
            col = data.schema_for(rule.variable)
            left = [col.categories.index(l) for l in rule.left_categories]
            mask = np.isin(values, left)
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def test_cp_gate_blocks_weak_splits():
    rng = np.random.default_rng(63)
    y = rng.normal(0, 1, 100)
    data = _dataset([("x", "numeric", rng.normal(0, 1, 100))], y)
    loose = grow(data, GrowConfig(max_depth=3, min_split=2, min_bucket=1, cp=0.0))
    tight = grow(data, GrowConfig(max_depth=3, min_split=2, min_bucket=1, cp=0.9))
    assert tight.leaf_count() <= loose.leaf_count()
    assert tight.leaf_count() == 1  # noise never explains 90% of root SSE


def test_grow_deterministic():
    rng = np.random.default_rng(64)
    data = _dataset(
        [("c", "categorical", [f"k{i}" for i in rng.integers(0, 6, 90)])],
        rng.normal(0, 10, 90),
    )
    t1 = grow(data, FULL)
    t2 = grow(data, FULL)
    assert tree_to_dict(t1) == tree_to_dict(t2)


def test_predict_threshold_boundary():
    data = _dataset([("x", "numeric", [0.0, 0.0, 1.0, 1.0])], [0.0, 0.0, 10.0, 10.0])
    tree = grow(data, FULL)
    assert tree.root.rule.threshold == pytest.approx(0.5)
    assert predict(tree, {"x": 0.49}) == pytest.approx(0.0)
    # Exactly at the threshold goes right (strict less-than for left).
    assert predict(tree, {"x": 0.5}) == pytest.approx(10.0)


def test_predict_unknown_column_and_category():
    data = _dataset([("c", "categorical", ["a", "a", "b", "b"])], [0.0, 0.0, 5.0, 5.0])
    tree = grow(data, FULL)
    with pytest.raises(DataError):
        predict(tree, {"wrong": "a"})
    with pytest.raises(DataError):
        predict(tree, {"c": "zzz"})


def _routing_fixture():
    """Left branch never sees color C; the root splits numerically first.

    The extra high-response B row under x=1 makes any color-only root split
    strictly worse than the numeric one.
    """
    colors = ["A"] * 6 + ["B"] + ["C"] * 5 + ["B"]
    x = [0.0] * 7 + [1.0] * 6
    y = [0.0] * 6 + [10.0] + [1000.0, 1001.0, 999.0, 1000.5, 1000.2, 1000.3]
    return _dataset([("x", "numeric", x), ("Color", "categorical", colors)], y)


def test_routing_divergence_on_unseen_category():
    data = _routing_fixture()
    tree = grow(data, GrowConfig(max_depth=3, min_split=2, min_bucket=1, cp=0.0))
    assert tree.root.rule.variable == "x"
    inner = tree.root.left
    assert inner.rule is not None and inner.rule.variable == "Color"
    assert set(inner.rule.left_categories) == {"A"}
    assert set(inner.rule.right_categories) == {"B"}

    row = {"x": 0.0, "Color": "C"}
    complement = predict(tree, row, routing="complement")
    majority = predict(tree, row, routing="majority")
    assert complement == pytest.approx(10.0)  # not in left -> right child
    assert majority == pytest.approx(0.0)  # larger child (n=6) wins
    assert complement != majority

    # Covered categories agree under both semantics.
    for label in ("A", "B"):
        covered = {"x": 0.0, "Color": label}
        assert predict(tree, covered, "complement") == predict(tree, covered, "majority")


def test_unseen_label_routing_on_handmade_branch():
    # A subset node that saw {Gray, Green, Red} on the left (6 rows) and
    # {Blue} on the right (1 row): a Black row goes right under complement
    # routing but joins the larger left child under majority routing.
    rule = SplitRule("Color", "subset", ("Gray", "Green", "Red"), ("Blue",))
    node = TreeNode(
        0, 7, 11713.0, 0.0, rule,
        TreeNode(1, 6, 3584.67, 0.0),
        TreeNode(2, 1, 60488.0, 0.0),
    )
    schema = (ColumnSchema("Color", "categorical", ("Black", "Blue", "Gray", "Green", "Red")),)
    tree = RegressionTree(node, schema, GrowConfig(), 7)
    assert predict(tree, {"Color": "Black"}, "complement") == pytest.approx(60488.0)
    assert predict(tree, {"Color": "Black"}, "majority") == pytest.approx(3584.67)
    for label in ("Gray", "Green", "Red", "Blue"):
        assert predict(tree, {"Color": label}, "complement") == predict(
            tree, {"Color": label}, "majority"
        )


def test_predict_many_matches_predict():
    data = _routing_fixture()
    tree = grow(data, GrowConfig(max_depth=3, min_split=2, min_bucket=1, cp=0.0))
    for routing in ("complement", "majority"):
        batch = predict_many(tree, data, routing)
        single = [predict(tree, data.row(i), routing) for i in range(data.n_rows)]
        assert np.allclose(batch, single, rtol=0, atol=0)


def test_unknown_routing_rejected_by_both_entry_points():
    data = _routing_fixture()
    tree = grow(data, GrowConfig(max_depth=3, min_split=2, min_bucket=1, cp=0.0))
    with pytest.raises(ValueError, match="bogus"):
        predict(tree, data.row(0), routing="bogus")
    with pytest.raises(ValueError, match="bogus"):
        predict_many(tree, data, routing="bogus")


def test_predict_many_remaps_foreign_category_codes():
    data = _dataset([("c", "categorical", ["a", "a", "b", "b"])], [0.0, 0.0, 8.0, 8.0])
    tree = grow(data, FULL)
    # Same labels, reversed code order.
    other = _dataset([("c", "categorical", ["b", "a"])], [0.0, 0.0])
    preds = predict_many(tree, other)
    assert preds[0] == pytest.approx(8.0)
    assert preds[1] == pytest.approx(0.0)
    foreign = _dataset([("c", "categorical", ["zzz"])], [0.0])
    with pytest.raises(DataError):
        predict_many(tree, foreign)


def test_column_kind_mismatch_names_the_column():
    data = _dataset([("c", "categorical", ["a", "a", "b", "b"])], [0.0, 0.0, 8.0, 8.0])
    tree = grow(data, FULL)
    numeric = _dataset([("c", "numeric", [0.0, 1.0])], [0.0, 8.0])
    for call in (predict_many, evaluate_mse):
        with pytest.raises(DataError, match="'c'"):
            call(tree, numeric)
    with pytest.raises(DataError, match="'c'"):
        ladder_mse(prune_sequence(tree), numeric)


def test_evaluate_mse_root_tree_is_variance(worked_dataset):
    tree = grow(worked_dataset, GrowConfig(max_depth=0))
    y = worked_dataset.response
    assert evaluate_mse(tree, worked_dataset) == pytest.approx(float(np.var(y)))


def test_evaluate_mse_pure_tree_is_zero():
    data = _dataset([("x", "numeric", [0.0, 1.0, 2.0, 3.0])], [5.0, 6.0, 7.0, 8.0])
    tree = grow(data, GrowConfig(max_depth=10, min_split=2, min_bucket=1, cp=0.0))
    assert evaluate_mse(tree, data) == 0.0


def test_describe_output(worked_dataset):
    stump = grow(worked_dataset, GrowConfig(max_depth=1, min_split=2, min_bucket=1, cp=0.0))
    text = describe(stump)
    assert text.splitlines()[0] == "leaves=2 depth=1 n_train=6"
    assert "Color in {C1, C4}" in text
    root = grow(worked_dataset, GrowConfig(max_depth=0))
    assert describe(root).splitlines()[0] == "leaves=1 depth=0 n_train=6"


def test_model_round_trip(tmp_path):
    data = _routing_fixture()
    tree = grow(data, GrowConfig(max_depth=3, min_split=2, min_bucket=1, cp=0.0))
    path = str(tmp_path / "model.json")
    save_model(tree, path)
    back = load_model(path)
    assert np.array_equal(predict_many(back, data), predict_many(tree, data))
    assert tree_to_dict(back) == tree_to_dict(tree)
    # Serialization is stable: saving again produces identical bytes.
    path2 = str(tmp_path / "model2.json")
    save_model(back, path2)
    assert open(path).read() == open(path2).read()


@pytest.mark.parametrize(
    "solver, dinkelbach",
    [
        (SolverConfig(), DinkelbachConfig(mode="custom", custom_value=0.0)),
        (SolverConfig(anneal=AnnealConfig(sweeps=50)), DinkelbachConfig()),
        (
            SolverConfig(exact_threshold=3, anneal=AnnealConfig(seed=9, restarts=2, t_init=5.0, t_final=0.25)),
            DinkelbachConfig(mode="custom", custom_value=12.5, max_iterations=7),
        ),
    ],
)
def test_model_round_trip_keeps_the_whole_config(tmp_path, solver, dinkelbach):
    cfg = GrowConfig(max_depth=2, min_split=2, min_bucket=1, cp=0.0, solver=solver, dinkelbach=dinkelbach)
    tree = grow(_routing_fixture(), cfg)
    path = str(tmp_path / "model.json")
    save_model(tree, path)
    assert load_model(path).config == tree.config


def test_default_config_writes_no_unset_keys():
    tree = grow(_routing_fixture(), GrowConfig(max_depth=1))
    doc = tree_to_dict(tree)
    for key in ("anneal_sweeps", "anneal_t_init", "anneal_t_final", "dinkelbach_custom_value"):
        assert key not in doc["config"]
    # Model files written without those keys still load, with the defaults.
    assert tree_from_dict(json.loads(json.dumps(doc))).config == tree.config


def test_from_dict_rejects_foreign_documents():
    with pytest.raises(DataError):
        tree_from_dict({"format": "something-else"})


def test_df_depth5_structure(df_20k):
    tree = grow(df_20k, GrowConfig(max_depth=5, cp=0.0))
    rule = tree.root.rule
    assert rule.variable == "HasClaim"
    assert rule.threshold == pytest.approx(0.5)
    # No-claim rows all have zero response, so the left child is a pure leaf.
    assert tree.root.left.is_leaf
    assert tree.root.left.prediction == 0.0
    assert 6 <= tree.leaf_count() <= 64


def test_leaf_internal_count_invariant():
    rng = np.random.default_rng(65)
    data = _dataset(
        [("x", "numeric", rng.normal(0, 1, 200))],
        rng.normal(0, 5, 200),
    )
    tree = grow(data, GrowConfig(max_depth=8, min_split=4, min_bucket=2, cp=0.0))
    nodes = list(_walk(tree.root))
    leaves = sum(1 for n in nodes if n.is_leaf)
    internals = len(nodes) - leaves
    assert leaves == internals + 1


def _nodes_by_id(tree):
    return {node.id: node for node in _walk(tree.root)}


def test_prune_to_leaf():
    tree = grow(generate_df(300, 5), GrowConfig.max_tree())
    nodes = _nodes_by_id(tree)
    sibling = {}
    for node in nodes.values():
        if not node.is_leaf:
            sibling[node.left.id], sibling[node.right.id] = node.right, node.left
    # An internal node with an internal left child and an internal sibling.
    outer = next(
        n for n in _walk(tree.root)
        if n.id in sibling and not n.is_leaf and not n.left.is_leaf
        and not sibling[n.id].is_leaf
    )
    inner = outer.left

    pruned = prune_to_leaf(tree, [inner.id, outer.id])
    assert pruned == prune_to_leaf(tree, [outer.id])
    kept = _nodes_by_id(pruned)
    assert inner.id not in kept
    leaf = kept[outer.id]
    assert leaf.is_leaf
    assert (leaf.n, leaf.prediction, leaf.sse) == (outer.n, outer.prediction, outer.sse)
    for node_id, node in kept.items():
        if node_id != outer.id:
            assert node.rule == nodes[node_id].rule
    assert kept[sibling[outer.id].id] is sibling[outer.id]
    assert pruned.leaf_count() == tree.leaf_count() - sum(
        1 for n in _walk(outer) if n.is_leaf
    ) + 1

    assert prune_to_leaf(tree, ()) == tree
