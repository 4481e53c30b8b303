import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import qubotree.solvers
from qubotree import (
    ColumnSchema,
    DataError,
    Dataset,
    GrowConfig,
    describe,
    evaluate_mse,
    generate_datagen,
    generate_df,
    grow,
    ladder_mse,
    load_model,
    predict,
    predict_many,
    prune_sequence,
    save_model,
)
from qubotree.splitting import SplitRule
from qubotree.tree import prune_to_leaf, tree_from_dict, tree_to_dict

from conftest import hand_tree, node_entry
from test_model_file import FINITE, _loads, trees


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
    with pytest.raises(ValueError, match="nan"):  # NaN is not < 0 either
        GrowConfig(cp=float("nan"))


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


def _highcard(n, seed):
    """``generate_df`` rows plus a 40-level ``Dealer`` column, above the exact
    solver's threshold."""
    base = generate_df(n, seed)
    rng = np.random.default_rng([seed, 40])
    dealer = rng.integers(40, size=n)
    effect = rng.permutation(np.arange(40) % 2 * 3000.0)
    labels = tuple(f"d{i:02d}" for i in range(40))
    schema = (ColumnSchema("Dealer", "categorical", labels),) + base.schema
    columns = dict(base.columns, Dealer=dealer)
    return Dataset(schema, columns, base.response + effect[dealer], base.response_name)


MAX = GrowConfig.max_tree()
# qubo grows from the sorted-means scan, so qubo and greedy grow one tree.
DF_DESCRIBE = "caa2571f631b4d383e992043a4af49610c127f143909cf6a1d05299dd57e3b44"


@pytest.mark.parametrize(
    "maker, cfg, leaves, digest, model_digest",
    [
        (generate_df, MAX, 968, DF_DESCRIBE,
         "7a8bf328d349d8839f635692245b53bc511d9215b94d348ec4fe396455e828c8"),
        (generate_datagen, MAX, 601, "16f38042b1b3b3e3eb89647097c6b3db13ad51321825cdaef6f137e5968a21aa",
         "8ded5671990a9a9c5f89dc4c212dd79328e538f7ffb15a94d5c5cf551682e267"),
        # The model files differ only in their categorical_method.
        (generate_df, GrowConfig.max_tree(categorical_method="greedy"), 968, DF_DESCRIBE,
         "47e1d429c1a3fed03c1dbcf28047aa3f64463bd23a97e7a4b6dd867daba5129a"),
        (generate_df, GrowConfig.max_tree(categorical_method="exhaustive"), 968,
         "5446e19a546db0c3a3c36dfd3d7d8ad36588012c4133209973aa0e432ee8032b",
         "ad4545d0d1aa0ac4bd99ea4788ddf565af740492c938f74ae6c5030a5ec7f3a8"),
        # The default stopping rules: the cp gate ends growth at 5 leaves.
        (generate_df, GrowConfig(), 5, "71a32036d035ff8ffce5f61cfa0e0717b6c4c4e4e7c884fd296915a27f68770a",
         "abe6e91e32d8f8f87aa29d89e834e3aeb0162c703b819e97ae2a0300879f886c"),
        # min_bucket=7 drops 8 of the 62 categorical candidates of this tree.
        (generate_datagen, GrowConfig(cp=0.001), 24,
         "c233315a453f61448e83e7c39978931aa73307dbd2db509b25c054d10787bb7c",
         "356ec7eff472cff0c3f80fe29c02825c4804c9e81bde99ad013ba650e302e9da"),
        # The depth cap, and Dealer's 40 levels, above the exhaustive solver's 22.
        (_highcard, GrowConfig.max_tree(max_depth=3), 6,
         "3eef8b95c7d75a90d64dcee9f4e1eb388bf91b5adf933a3c3020ae6a1b571f74",
         "6298e0ca84a7cd8af58f0ffa9457d1407c905f96dc5e17f76eb5f8672f465391"),
        # Deeper, so the scan splits many nodes at 17 to 40 levels.
        (_highcard, GrowConfig.max_tree(max_depth=6), 34,
         "0aa1934dbb4e3b6a8aa44c1590bf3c21b42886e781d511863297dd6cd6bc1070",
         "366ff66e712bf3d769896d54b913c4dd56565968e2111a7773b72c38932b55b0"),
        # Exhaustive search skips Dealer: it is above the 22-level cap.
        (_highcard, GrowConfig.max_tree(max_depth=3, categorical_method="exhaustive"), 8,
         "e3db73018913f9f387c247188c01129b63b5e7e4dd1a0c77e6cfbf2cf44d55f0",
         "77b74f4c1f0ac232b1d1446d69c5d53650e5b83dd5372cfbb6f8f07fc8250d7c"),
    ],
    ids=("df", "datagen", "df-greedy", "df-exhaustive", "df-default", "datagen-cp0.001",
         "highcard-depth3", "highcard-depth6", "highcard-exhaustive-depth3"),
)
def test_max_tree_describe_is_pinned(tmp_path, maker, cfg, leaves, digest, model_digest):
    # A change to how splits are searched must keep every split, cost and
    # prediction of these trees: the text of describe() is hashed. So are
    # their model files, whose bytes are those json.dump(doc, indent=1,
    # sort_keys=True) writes.
    tree = grow(maker(3000, 5), cfg)
    assert tree.leaf_count() == leaves
    assert hashlib.sha256(describe(tree).encode()).hexdigest() == digest
    path = tmp_path / "model.json"
    save_model(tree, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == model_digest


def test_growth_calls_neither_the_exhaustive_nor_the_annealing_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("growth reached a QUBO solve")

    monkeypatch.setattr(qubotree.solvers, "solve_exhaustive", refuse)
    monkeypatch.setattr(qubotree.solvers, "solve_anneal", refuse)
    # Nor any ratio iteration: qubo keeps the sorted-means scan's splits.
    monkeypatch.setattr(qubotree.splitting, "dinkelbach_split", refuse)
    assert grow(_highcard(3000, 5), GrowConfig.max_tree(max_depth=6)).leaf_count() == 34


@pytest.mark.parametrize("method", ["greedy", "qubo"])
def test_two_row_pure_split_goes_to_the_earlier_column(method):
    # Both columns split the two rows purely, at cost 0, so the earlier
    # column c should win. Growth prices c's split by the scan, at 0.0; the
    # per-node ratio iteration prices it from raw moments at a round-off
    # residue of 4.5e-8, and x would win instead.
    data = _dataset([("c", "categorical", ["a", "b"]), ("x", "numeric", [1.0, 2.0])], [9879.62, 10476.53])
    tree = grow(data, GrowConfig.max_tree(categorical_method=method))
    assert tree.root.rule.variable == "c"


@pytest.mark.parametrize("source", ["df_20k", "datagen_10k", 1, 2, 3, 5])
def test_qubo_trees_are_greedy_trees(request, source):
    # qubo keeps the scan's split of every node, so the two methods grow the
    # same max tree, every cost to the last bit. An int source is the seed of
    # a _highcard(3000, seed) set.
    data = request.getfixturevalue(source) if isinstance(source, str) else _highcard(3000, source)
    trees = [grow(data, GrowConfig.max_tree(categorical_method=m)) for m in ("qubo", "greedy")]
    assert describe(trees[0]) == describe(trees[1])


def test_predict_threshold_boundary():
    data = _dataset([("x", "numeric", [0.0, 0.0, 1.0, 1.0])], [0.0, 0.0, 10.0, 10.0])
    tree = grow(data, FULL)
    assert tree.root.rule.threshold == pytest.approx(0.5)
    assert predict(tree, {"x": 0.49}) == pytest.approx(0.0)
    # Exactly at the threshold goes right (strict less-than for left).
    assert predict(tree, {"x": 0.5}) == pytest.approx(10.0)


@pytest.mark.parametrize(
    "x, threshold",
    [([1.0, np.nextafter(1.0, 2.0)], np.nextafter(1.0, 2.0)), ([1.7e308, 1.79e308], 1.79e308)],
    ids=("adjacent-floats", "near-float-max"),
)
def test_threshold_between_close_or_huge_values_splits_the_rows(tmp_path, x, threshold):
    # Their midpoint rounds down to the lower value or overflows to inf;
    # either would send both rows one way, so the upper value is the cut.
    data = _dataset([("x", "numeric", x)], [0.0, 1.0])
    tree = grow(data, GrowConfig.max_tree())
    assert (tree.leaf_count(), tree.depth(), tree.table.n.tolist()) == (2, 1, [2, 1, 1])
    assert tree.table.rules[0] == ("x", "threshold", (), (), threshold)
    path = str(tmp_path / "model.json")
    save_model(tree, path)
    back = load_model(path)
    assert describe(back) == describe(tree)
    assert predict_many(back, data).tolist() == [0.0, 1.0]


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


def _hand_nodes(shape, nodes: list) -> int:
    """Append the node entries of the nested-pair ``shape`` (a leaf is None)
    to ``nodes``, ids numbered in preorder; returns the subtree's row count."""
    node_id = len(nodes)
    nodes.append(node_entry(node_id, 1, 0.0, 0.0))
    if shape is not None:
        left = len(nodes)
        n = _hand_nodes(shape[0], nodes)
        right = len(nodes)
        n += _hand_nodes(shape[1], nodes)
        rule = SplitRule("x", "threshold", (), (), float(node_id))
        nodes[node_id] = node_entry(node_id, n, 0.0, 0.0, rule, left, right)
    return nodes[node_id]["n"]


@pytest.mark.parametrize(
    "shape, depth, leaves",
    [
        (None, 0, 1),
        ((((None, None), None), None), 3, 4),
        ((None, (None, (None, (None, None)))), 4, 5),
        (((None, None), (None, ((None, None), None))), 4, 6),
    ],
)
def test_depth_and_leaf_count_on_hand_built_trees(shape, depth, leaves):
    nodes = []
    _hand_nodes(shape, nodes)
    tree = hand_tree(nodes, (ColumnSchema("x", "numeric"),), GrowConfig(), 1)
    assert tree.depth() == depth
    assert tree.leaf_count() == leaves


def test_unseen_label_routing_on_handmade_branch():
    # A subset node that saw {Gray, Green, Red} on the left (6 rows) and
    # {Blue} on the right (1 row): a Black row goes right under complement
    # routing but joins the larger left child under majority routing.
    rule = SplitRule("Color", "subset", ("Gray", "Green", "Red"), ("Blue",))
    nodes = [
        node_entry(0, 7, 11713.0, 0.0, rule, 1, 2),
        node_entry(1, 6, 3584.67, 0.0),
        node_entry(2, 1, 60488.0, 0.0),
    ]
    schema = (ColumnSchema("Color", "categorical", ("Black", "Blue", "Gray", "Green", "Red")),)
    tree = hand_tree(nodes, schema, GrowConfig(), 7)
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
    assert Path(path).read_text() == Path(path2).read_text()


@pytest.mark.parametrize(
    "settings",
    [{"routing": "majority"}, {"categorical_method": "qubo"}, {"categorical_method": "greedy"},
     {"categorical_method": "exhaustive"}, {"cp": 0.125}],
    ids=("majority", "qubo", "greedy", "exhaustive", "cp"),
)
def test_model_round_trip_keeps_the_whole_config(tmp_path, settings):
    cfg = GrowConfig(**{"max_depth": 2, "min_split": 2, "min_bucket": 1, "cp": 0.0, **settings})
    tree = grow(_routing_fixture(), cfg)
    path = str(tmp_path / "model.json")
    save_model(tree, path)
    assert load_model(path).config == tree.config == cfg


def test_model_file_writes_exactly_the_growth_settings():
    # Every GrowConfig field, and nothing else: a new key must be added here on purpose.
    doc = tree_to_dict(grow(_routing_fixture(), GrowConfig(max_depth=1)))
    assert sorted(doc["config"]) == "categorical_method cp max_depth min_bucket min_split routing".split()


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
    assert pruned.root == prune_to_leaf(tree, [outer.id]).root
    kept = _nodes_by_id(pruned)
    assert inner.id not in kept
    leaf = kept[outer.id]
    assert leaf.is_leaf
    assert (leaf.n, leaf.prediction, leaf.sse) == (outer.n, outer.prediction, outer.sse)
    for node_id, node in kept.items():
        if node_id != outer.id:
            assert node.rule == nodes[node_id].rule
    assert kept[sibling[outer.id].id] == sibling[outer.id]
    assert pruned.leaf_count() == tree.leaf_count() - sum(
        1 for n in _walk(outer) if n.is_leaf
    ) + 1

    assert prune_to_leaf(tree, ()) == tree


@given(trees(), st.data())
def test_predict_many_equals_the_row_walk_bit_for_bit(tree, draw):
    """predict_many equals predict's row walk under both routings, on data
    with its own column and category code order that holds every label of the
    schema, so also the labels a subset rule never saw."""
    assume(_loads(json.dumps(tree_to_dict(tree))))
    assume(all(c.categories for c in tree.schema if c.kind == "categorical"))
    thresholds = [rule[4] for rule in tree.table.rules if rule is not None and rule[1] == "threshold"]
    values = st.sampled_from(thresholds) | FINITE if thresholds else FINITE
    n = max([len(c.categories) for c in tree.schema] + [1]) + draw.draw(st.integers(0, 6))
    schema, columns = [], {}
    for col in draw.draw(st.permutations(tree.schema)):
        if col.kind == "categorical":
            labels = tuple(draw.draw(st.permutations(col.categories)))
            more = n - len(labels)
            extra = draw.draw(st.lists(st.integers(0, len(labels) - 1), min_size=more, max_size=more))
            schema.append(ColumnSchema(col.name, "categorical", labels))
            columns[col.name] = np.array(draw.draw(st.permutations(list(range(len(labels))) + extra)), dtype=np.int64)
        else:
            schema.append(col)
            cells = st.sampled_from([0.0, 1.0, -0.0]) if col.kind == "binary" else values
            columns[col.name] = np.array(draw.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    data = Dataset(tuple(schema), columns)
    for routing in ("complement", "majority"):
        rows = np.array([predict(tree, data.row(i), routing) for i in range(n)], dtype=np.float64)
        assert predict_many(tree, data, routing).tobytes() == rows.tobytes()
