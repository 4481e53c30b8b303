"""``grow`` against a per-node reference grower, bit for bit.

``reference_grow`` is growth one node at a time: each open node of a level
is searched alone by ``best_split``, its rows are split by a per-node mask,
its sums are ``math.fsum``s, and a stack walk numbers the nodes in preorder.
``grow`` does each level as arrays; the two must give the same table.
"""

import math

import numpy as np
from hypothesis import given, strategies as st

from qubotree import ColumnSchema, Dataset, GrowConfig, grow
from qubotree.splitting import best_split
from qubotree.stats import NodeStats

# Small grids give ties; -0.0 and 0.0 are equal values with different signs,
# and a node of -0.0 responses must sum to 0.0, as math.fsum does.
RESPONSES = np.array([-0.0, -0.0, -0.0, 0.0, 1.0, -1.0, 2.5, 3.0, 1e-300, 7.0, 250.0, 0.1, -12.75])
NUMBERS = np.array([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, -3.0, 10.0])


def _fsum_stats(values: np.ndarray) -> NodeStats:
    return NodeStats(len(values), math.fsum(values.tolist()), math.fsum((values * values).tolist()))


def _left_mask(data: Dataset, rule, rows: np.ndarray) -> np.ndarray:
    values = data.column(rule.variable)[rows]
    if rule.kind == "threshold":
        return values < rule.threshold
    labels = data.schema_for(rule.variable).categories
    return np.isin(values, [labels.index(lab) for lab in rule.left_categories])


def reference_grow(data: Dataset, cfg: GrowConfig) -> tuple:
    """The tree's ``(ids, n, prediction, sse, size, rules)`` columns in preorder, grown one node at a time."""
    response = data.response
    root_sse = _fsum_stats(response).sse()
    # Per node in breadth-first order: its stats, and where it splits, its
    # rule and the index of its left child; the right child comes next.
    stats, splits = [], {}
    level, depth = [np.arange(data.n_rows)], 0
    while level:
        first, children = len(stats), []
        for k, rows in enumerate(level):
            node = _fsum_stats(response[rows])
            stats.append(node)
            if depth >= cfg.max_depth or node.n < cfg.min_split or not node.sse() > 0.0:
                continue
            candidate = best_split(data, rows, cfg.categorical_method, cfg.min_bucket)
            if candidate is None:
                continue
            reduction = node.sse() - candidate.cost
            if reduction <= 0.0 or (root_sse > 0.0 and reduction / root_sse < cfg.cp):
                continue
            splits[first + k] = candidate.rule, first + len(level) + len(children)
            mask = _left_mask(data, candidate.rule, rows)
            children += [rows[mask], rows[~mask]]
        level, depth = children, depth + 1
    order, stack = [], [0]
    while stack:
        k = stack.pop()
        order.append(k)
        if k in splits:
            left = splits[k][1]
            stack += [left + 1, left]
    rules = []
    for k in order:
        rule = splits[k][0] if k in splits else None
        rules.append(None if rule is None else
                     (rule.variable, rule.kind, rule.left_categories, rule.right_categories, rule.threshold))
    size = [1] * len(order)
    for i in reversed(range(len(order))):
        if rules[i] is not None:
            size[i] = 1 + size[i + 1] + size[i + 1 + size[i + 1]]
    n = [stats[k].n for k in order]
    prediction = [stats[k].sum / stats[k].n for k in order]
    sse = [stats[k].sse() for k in order]
    return list(range(len(order))), n, prediction, sse, size, rules


@st.composite
def datasets(draw) -> Dataset:
    """Up to 120 rows of one to three columns, values drawn from the grids.
    Each category of a categorical column may shift the responses."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.sampled_from([120, 60, 30, 12, 5, 2, 1]))
    response = rng.choice(RESPONSES, rows)
    schema, columns = [], {}
    kinds = draw(st.lists(st.sampled_from(["numeric", "binary", "categorical"]), min_size=1, max_size=3))
    for j, kind in enumerate(kinds):
        name = f"c{j}"
        if kind == "categorical":
            m = draw(st.integers(1, 6))
            schema.append(ColumnSchema(name, kind, tuple(f"L{i}" for i in range(m))))
            columns[name] = rng.integers(0, m, rows)
            if draw(st.booleans()):
                shift = rng.choice([0.0, 5.0, -5.0, 20.0], m)[columns[name]]
                response = np.where(shift == 0.0, response, response + shift)  # -0.0 stays -0.0
        else:
            schema.append(ColumnSchema(name, kind))
            binary = rng.integers(0, 2, rows).astype(np.float64)
            columns[name] = binary if kind == "binary" else rng.choice(NUMBERS, rows)
    return Dataset(tuple(schema), columns, response)


@st.composite
def configs(draw) -> GrowConfig:
    min_bucket = draw(st.integers(1, 3))
    return GrowConfig(
        max_depth=draw(st.sampled_from([64, 64, 3, 0])),
        min_split=draw(st.integers(2 * min_bucket, 2 * min_bucket + 3)),
        min_bucket=min_bucket,
        cp=draw(st.sampled_from([0.0, 0.0, 0.001, 0.01])),
        categorical_method=draw(st.sampled_from(["qubo", "greedy", "exhaustive"])),
    )


def hexes(values) -> list:
    return [float(v).hex() for v in values]


@given(datasets(), configs())
def test_grow_equals_the_per_node_reference(data, cfg):
    ids, n, prediction, sse, size, rules = reference_grow(data, cfg)
    t = grow(data, cfg).table
    assert t.ids.tolist() == ids and t.size.tolist() == size and list(t.rules) == rules
    assert t.n.tolist() == n
    assert hexes(t.prediction) == hexes(prediction)
    assert hexes(t.sse) == hexes(sse)
