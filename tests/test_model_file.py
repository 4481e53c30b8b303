"""Model files: the streamed writer against json, and what the loader rejects."""

import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubotree import ColumnSchema, DataError, GrowConfig, describe, generate_df, grow, load_model, save_model
from qubotree.splitting import SplitRule
from qubotree.tree import CATEGORICAL_METHODS, ROUTINGS, NodeTable, RegressionTree, _array, tree_from_dict, tree_to_dict

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


def _node(draw, schema, ids, depth, faults, columns) -> int:
    """Append a subtree's node fields to ``columns`` in preorder; returns its size."""
    node_id = next(ids)
    fields = dict(id=node_id, n=draw(st.integers(1, 10**9)), prediction=draw(FINITE), sse=draw(FINITE), rule=None)
    if depth == 0 or depth < 3 and draw(st.booleans()):
        fields["rule"] = _rule(draw, schema)
    for name, where in faults:
        if where == node_id and name in NODE_FAULTS:
            fields[name] = draw(NODE_FAULTS[name])
        if where == node_id and name in RULE_FAULTS and fields["rule"] is not None:
            fields["rule"] = replace(fields["rule"], **{name: draw(RULE_FAULTS[name])})
    if fields["rule"] is not None:
        fields["rule"] = astuple(fields["rule"])
    at = len(columns["size"])
    for name, value in fields.items():
        columns[name].append(value)
    columns["size"].append(1)
    if fields["rule"] is not None:
        columns["size"][at] += _node(draw, schema, ids, depth + 1, faults, columns)
        columns["size"][at] += _node(draw, schema, ids, depth + 1, faults, columns)
    return columns["size"][at]


@st.composite
def trees(draw, faults: int = 1) -> RegressionTree:
    """Trees that fit their schema, or that break up to ``faults`` rules of a model file."""
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
    fault = st.tuples(st.none() | st.sampled_from(FAULT_NAMES), st.integers(0, 4))  # name, node id
    drawn = draw(st.lists(fault, min_size=1, max_size=faults))
    columns = {name: [] for name in ("id", "n", "prediction", "sse", "rule", "size")}
    _node(draw, schema, itertools.count(), 0, drawn, columns)
    head = {"n_train": draw(st.integers(1, 10**9)), "response": draw(LABELS)}
    for name, _ in drawn:
        if name in TREE_FAULTS:
            head[name] = draw(TREE_FAULTS[name])
    table = NodeTable(
        _array(columns["id"], int), _array(columns["n"], int), _array(columns["prediction"], float),
        _array(columns["sse"], float), np.array(columns["size"], dtype=np.int64), tuple(columns["rule"]),
    )
    return RegressionTree(table, schema, cfg, head["n_train"], head["response"])


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


def reference_fault(doc: dict):
    """The first fault of a model document as a reading one node at a time
    finds it, or None: nodes in decreasing id order, each node's fields,
    children and rule, then its links, then orphans at the end."""
    got = version, n_train, response = doc["version"], doc["n_train"], doc["response"]
    if (type(version), version) != (int, 1) or type(n_train) is not int or n_train < 1 or type(response) is not str:
        return f"needs version 1, an int n_train >= 1 and a string as response, got {got!r}"
    columns = {c["name"]: (c["kind"], frozenset(c["categories"])) for c in doc["schema"]}
    seen, children, previous = set(), set(), None
    for entry in sorted(doc["nodes"], key=lambda e: e["id"], reverse=True):
        node_id, n, prediction, sse, rule = (entry[k] for k in ("id", "n", "prediction", "sse", "rule"))
        if type(node_id) is not int:
            return f"node {node_id!r}: ids must be ints"
        if node_id == previous:
            return f"node {node_id}: id appears more than once"
        previous = node_id
        finite = all(isinstance(v, float) and math.isfinite(v) for v in (prediction, sse))
        if type(n) is not int or n < 1 or not finite:
            return f"node {node_id}: needs an int n >= 1 and finite floats as prediction and sse"
        if rule is not None:
            left, right = entry["left"], entry["right"]
            if type(left) is not int or type(right) is not int:
                return f"node {node_id}: child ids must be ints, got {left!r} and {right!r}"
            if not node_id < min(left, right):
                return f"node {node_id}: child ids must be greater than the node's own id"
            fault = _reference_rule_fault(rule, columns)
            if fault:
                return f"node {node_id}: {fault}"
            for child in (left, right):
                if child not in seen:
                    return f"node {child}: not in the node list"
                if child in children:
                    return f"node {child}: child of more than one node"
                children.add(child)
        seen.add(node_id)
    orphans = seen - children - {doc["nodes"][0]["id"]}
    return f"node {min(orphans)}: neither the root nor any node's child" if orphans else None


def _reference_rule_fault(rule: dict, columns: dict):
    variable, kind, threshold = rule["variable"], rule["kind"], rule["threshold"]
    left, right = tuple(rule["left_categories"]), tuple(rule["right_categories"])
    if kind not in ("threshold", "subset"):
        return f"unknown rule kind {kind!r}"
    if variable not in columns:
        return f"rule variable {variable!r} is not in the schema"
    column_kind, labels = columns[variable]
    if (kind == "subset") != (column_kind == "categorical"):
        return f"{kind} rule on {column_kind} column {variable!r}"
    if kind == "threshold":
        if left or right or not (isinstance(threshold, float) and math.isfinite(threshold)):
            return "a threshold rule takes a finite float threshold and no labels"
        return None
    if not (left and right and len(labels.intersection(left + right)) == len(left) + len(right)):
        return f"a subset rule takes two disjoint, non-empty lists of {variable!r} categories"
    return "a subset rule takes no threshold" if threshold is not None else None


def _fault(fn):
    try:
        fn()
    except DataError as exc:
        return str(exc)
    return None


@settings(max_examples=100)
@given(trees(faults=3))
def test_save_and_load_report_the_fault_a_per_node_reading_finds(tree):
    doc = json.loads(json.dumps(tree_to_dict(tree)))
    expected = reference_fault(doc)
    assert _fault(lambda: tree_from_dict(doc)) == expected
    with tempfile.TemporaryDirectory() as workdir:
        assert _fault(lambda: save_model(tree, os.path.join(workdir, "model.json"))) == expected


# Edits that break how a document's nodes link up: a child id, a node's own
# id, a node appended as a copy, or a node dropped.
LINK_EDITS = st.tuples(
    st.sampled_from(["left", "right", "id", "copy", "drop"]), st.integers(0, 12), st.integers(-1, 12) | st.just(2.5)
)


@settings(max_examples=100)
@given(trees(), st.lists(LINK_EDITS, min_size=1, max_size=3))
def test_a_document_that_is_not_one_tree_reports_the_first_broken_link(tree, edits):
    doc = json.loads(json.dumps(tree_to_dict(tree)))
    nodes = doc["nodes"]
    for what, at, value in edits:
        entry = nodes[at % len(nodes)]
        if what in ("left", "right") and entry["rule"] is not None or what == "id":
            entry[what] = value
        elif what == "copy":
            nodes.append(dict(entry, id=value))
        elif what == "drop" and len(nodes) > 1:
            nodes.remove(entry)
    assert _fault(lambda: tree_from_dict(doc)) == reference_fault(doc)


def test_failed_save_leaves_the_existing_file(tmp_path):
    # A NaN leaf prediction and a rule on a column the schema lacks, set in
    # the table of a tree that saves.
    tree = chain_tree(1)
    prediction = tree.table.prediction.copy()
    prediction[1] = math.nan
    rules = (("absent",) + tree.table.rules[0][1:],) + tree.table.rules[1:]
    path = tmp_path / "model.json"
    save_model(chain_tree(2), str(path))
    before = path.read_bytes()
    with pytest.raises(DataError, match="node 1: needs an int n >= 1 and finite floats"):
        save_model(replace(tree, table=replace(tree.table, prediction=prediction, rules=rules)), str(path))
    with pytest.raises(DataError, match="node 0: rule variable 'absent' is not in the schema"):
        save_model(replace(tree, table=replace(tree.table, rules=rules)), str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("chunk", [1, 2, 5, 4096])
def test_nodes_written_in_chunks_keep_json_dumps_bytes(tmp_path, chunk):
    tree = grow(generate_df(300, 3), GrowConfig.max_tree())
    path = tmp_path / "model.json"
    with mock.patch("qubotree.tree._WRITE_NODES", chunk):
        save_model(tree, str(path))
    assert path.read_text(encoding="utf-8") == json.dumps(tree_to_dict(tree), indent=1, sort_keys=True) + "\n"


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
