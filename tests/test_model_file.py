"""Model files: the streamed writer against json, and what the loader rejects."""

import itertools
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import given, strategies as st

from qubotree import (
    AnnealConfig, ColumnSchema, DataError, DinkelbachConfig, GrowConfig, SolverConfig, load_model, save_model,
)
from qubotree.splitting import SplitRule
from qubotree.tree import RegressionTree, TreeNode, tree_to_dict

from conftest import chain_tree

# Labels json has to escape: non-ASCII, quotes, backslashes, control
# characters, and the text that marks where the header's node list goes.
LABELS = st.one_of(
    st.sampled_from(['\n "nodes": []', 'say "hi"', "back\\slash", "tab\tnul\x00", "Citroën", "\U0001f600"]),
    st.text(max_size=6),
)
FLOATS = st.one_of(
    st.sampled_from([1e-07, 1e16, -0.0, 5e-324, math.inf, -math.inf, math.nan]),
    st.floats(),
)


def _node(draw, ids, depth) -> TreeNode:
    head = (next(ids), draw(st.integers(0, 10**9)), draw(FLOATS), draw(FLOATS))
    if depth == 3 or not draw(st.booleans()):
        return TreeNode(*head)
    if draw(st.booleans()):
        rule = SplitRule(draw(LABELS), "threshold", threshold=draw(FLOATS))
    else:
        sides = st.lists(LABELS, max_size=3).map(tuple)
        rule = SplitRule(draw(LABELS), "subset", draw(sides), draw(sides))
    return TreeNode(*head, rule, _node(draw, ids, depth + 1), _node(draw, ids, depth + 1))


@st.composite
def trees(draw) -> RegressionTree:
    schema = tuple(
        ColumnSchema(name, "categorical", tuple(draw(st.lists(LABELS, max_size=3, unique=True))))
        if draw(st.booleans()) else ColumnSchema(name, "numeric")
        for name in draw(st.lists(LABELS, max_size=3, unique=True))
    )
    anneal = AnnealConfig(
        sweeps=draw(st.none() | st.integers(1, 10**6)),
        t_init=draw(st.none() | st.floats(2.0, 100.0)),
        t_final=draw(st.none() | st.floats(1e-3, 1.0)),
    )
    custom = draw(st.none() | st.floats(0.0, 1e6))
    dinkelbach = DinkelbachConfig() if custom is None else DinkelbachConfig(mode="custom", custom_value=custom)
    cfg = GrowConfig(cp=draw(st.floats(0.0, 1.0)), solver=SolverConfig(anneal=anneal), dinkelbach=dinkelbach)
    root = _node(draw, itertools.count(), 0)
    return RegressionTree(root, schema, cfg, draw(st.integers(0, 10**9)), draw(LABELS))


def _saved(tree: RegressionTree) -> bytes:
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "model.json")
        save_model(tree, path)
        with open(path, "rb") as fh:
            return fh.read()


@given(trees())
def test_save_model_writes_what_json_dump_writes(tree):
    expected = json.dumps(tree_to_dict(tree), indent=1, sort_keys=True) + "\n"
    assert _saved(tree) == expected.encode("utf-8")


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
