"""Model files: the streamed writer against json, and what the loader rejects."""

import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from qubotree import ColumnSchema, DataError, GrowConfig, describe, load_model, save_model
from qubotree.splitting import SplitRule
from qubotree.tree import CATEGORICAL_METHODS, ROUTINGS, RegressionTree, TreeNode, tree_from_dict, tree_to_dict

from conftest import chain_tree

# Labels json has to escape: non-ASCII, quotes, backslashes, control
# characters, and the text that marks where the header's node list goes.
LABELS = st.one_of(
    st.sampled_from(['\n "nodes": []', 'say "hi"', "back\\slash", "tab\tnul\x00", "Citroën", "\U0001f600"]),
    st.text(max_size=6),
)
FINITE = st.one_of(st.sampled_from([1e-07, 1e16, -0.0, 5e-324]), st.floats(allow_nan=False, allow_infinity=False))
FLOATS = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]), st.floats())
# Numbers json writes without a decimal point, so that they load as ints or bools.
NOT_FLOATS = st.one_of(st.integers(-2, 2), st.booleans())

# A tree breaks at most one of these: a field of one node, of its rule, or of the tree.
NODE_FAULTS = {
    "id": st.integers(-1, 4) | st.sampled_from([0.5, 1.0, True]),
    "n": st.sampled_from([0, -3, 2.0, True, "5", None]),
    "prediction": FLOATS | NOT_FLOATS,
    "sse": FLOATS | NOT_FLOATS,
}
RULE_FAULTS = {
    "variable": LABELS,
    "kind": st.sampled_from(["threshold", "subset", "oblique"]),
    "left_categories": st.lists(LABELS, max_size=3).map(tuple),
    "right_categories": st.lists(LABELS, max_size=3).map(tuple),
    "threshold": st.none() | FLOATS | NOT_FLOATS,
}
TREE_FAULTS = {
    "n_train": st.sampled_from([0, -1, 1.5, True, "7", None]),
    "response": st.sampled_from([7, None, 1.5, ["y"]]),
}
FAULT_NAMES = sorted(NODE_FAULTS.keys() | RULE_FAULTS.keys() | TREE_FAULTS.keys())


def _rule(draw, schema):
    """A rule that fits ``schema``, or None where no column can split."""
    splittable = [c for c in schema if c.kind != "categorical" or len(c.categories) >= 2]
    if not splittable:
        return None
    col = draw(st.sampled_from(splittable))
    if col.kind != "categorical":
        return SplitRule(col.name, "threshold", threshold=draw(FINITE))
    labels = draw(st.permutations(col.categories))
    cut = draw(st.integers(1, len(labels) - 1))
    end = draw(st.integers(cut + 1, len(labels)))  # labels past end are unseen at this node
    return SplitRule(col.name, "subset", tuple(labels[:cut]), tuple(labels[cut:end]))


def _node(draw, schema, ids, depth, fault) -> TreeNode:
    node_id = next(ids)
    fields = dict(id=node_id, n=draw(st.integers(1, 10**9)), prediction=draw(FINITE), sse=draw(FINITE))
    if depth == 0 or depth < 3 and draw(st.booleans()):
        fields["rule"] = _rule(draw, schema)
    name, where = fault
    if where == node_id and name in NODE_FAULTS:
        fields[name] = draw(NODE_FAULTS[name])
    if where == node_id and name in RULE_FAULTS and fields.get("rule") is not None:
        fields["rule"] = replace(fields["rule"], **{name: draw(RULE_FAULTS[name])})
    if fields.get("rule") is None:
        return TreeNode(**fields)
    kids = _node(draw, schema, ids, depth + 1, fault), _node(draw, schema, ids, depth + 1, fault)
    return TreeNode(**fields, left=kids[0], right=kids[1])


@st.composite
def trees(draw) -> RegressionTree:
    """Trees that fit their schema, or that break one rule of a model file."""
    schema = tuple(
        ColumnSchema(name, "categorical", tuple(draw(st.lists(LABELS, max_size=3, unique=True))))
        if draw(st.booleans()) else ColumnSchema(name, draw(st.sampled_from(["numeric", "binary"])))
        for name in draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    )
    cfg = GrowConfig(
        cp=draw(st.floats(0.0, 1.0)),
        routing=draw(st.sampled_from(ROUTINGS)),
        categorical_method=draw(st.sampled_from(CATEGORICAL_METHODS)),
    )
    fault = draw(st.none() | st.sampled_from(FAULT_NAMES)), draw(st.integers(0, 4))  # name, node id
    root = _node(draw, schema, itertools.count(), 0, fault)
    head = {"n_train": draw(st.integers(1, 10**9)), "response": draw(LABELS)}
    if fault[0] in TREE_FAULTS:
        head[fault[0]] = draw(TREE_FAULTS[fault[0]])
    return RegressionTree.from_root(root, schema, cfg, head["n_train"], head["response"])


def _loads(text: str) -> bool:
    try:
        tree_from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError):  # what load_model reports as a malformed file
        return False
    return True


@given(trees())
def test_save_model_writes_what_json_dump_writes(tree):
    """save_model refuses exactly what would not load, writes json's bytes
    otherwise, and its file loads back to a tree that saves the same bytes."""
    expected = json.dumps(tree_to_dict(tree), indent=1, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as workdir:
        path, again = os.path.join(workdir, "model.json"), os.path.join(workdir, "again.json")
        if not _loads(expected):
            with pytest.raises(DataError):
                save_model(tree, path)
            assert not os.path.exists(path)
            return
        save_model(tree, path)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
        back = load_model(path)
        save_model(back, again)
        with open(again, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
    assert describe(back) == describe(tree)


def test_failed_save_leaves_the_existing_file(tmp_path):
    # A NaN leaf prediction and a rule on a column the schema lacks, as a
    # hand-built tree may have them.
    rule = SplitRule("absent", "threshold", threshold=1.0)
    root = TreeNode(0, 3, 1.0, 2.0, rule, TreeNode(1, 1, math.nan, 0.0), TreeNode(2, 2, 1.0, 0.5))
    tree = RegressionTree.from_root(root, (ColumnSchema("x", "numeric"),), GrowConfig(), 3)
    path = tmp_path / "model.json"
    save_model(chain_tree(2), str(path))
    before = path.read_bytes()
    with pytest.raises(DataError, match="node 1: needs an int n >= 1 and finite floats"):
        save_model(tree, str(path))
    tree = RegressionTree.from_root(replace(root, left=replace(root.left, prediction=1.0)), tree.schema, tree.config, 3)
    with pytest.raises(DataError, match="node 0: rule variable 'absent' is not in the schema"):
        save_model(tree, str(path))
    assert path.read_bytes() == before


def test_chain_deeper_than_the_recursion_limit_round_trips(tmp_path):
    inner = sys.getrecursionlimit() + 100
    tree = chain_tree(inner)
    path = str(tmp_path / "chain.json")
    save_model(tree, path)
    back = load_model(path)
    assert back.depth() == inner
    assert tree_to_dict(back) == tree_to_dict(tree)


@pytest.mark.parametrize("cp", ["Infinity", "1e999"])
def test_infinite_cp_is_a_malformed_model_file(tmp_path, cp):
    path = tmp_path / "model.json"
    save_model(chain_tree(1), str(path))
    text = path.read_text(encoding="utf-8")
    assert '"cp": 0.0,' in text
    path.write_text(text.replace('"cp": 0.0,', f'"cp": {cp},'), encoding="utf-8")
    with pytest.raises(DataError, match="malformed model file: need .* a finite cp >= 0"):
        load_model(str(path))


@pytest.mark.parametrize(
    "key, value", [("max_depth", 3.5), ("min_split", 2.0), ("min_bucket", 1.0), ("max_depth", True), ("cp", True)],
    ids=("float-max_depth", "float-min_split", "float-min_bucket", "bool-max_depth", "bool-cp"),
)
def test_non_integer_growth_setting_is_a_malformed_model_file(tmp_path, key, value):
    path = tmp_path / "model.json"
    save_model(chain_tree(1), str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["config"][key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="malformed model file: need ints as max_depth, min_split and min_bucket"):
        load_model(str(path))
