"""``best_splits`` searches many nodes at once; every answer must be the one-node search's, bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qubotree import ColumnSchema, Dataset
from qubotree import splitting
from qubotree.splitting import (
    EXHAUSTIVE_MAX_CATEGORIES,
    SplitCandidate,
    SplitRule,
    _two_child_sse,
    best_categorical_split_exhaustive,
    best_categorical_split_greedy,
    best_categorical_split_qubo,
    best_numeric_split,
    best_split,
    best_splits,
)

SPLITTERS = {
    "qubo": best_categorical_split_qubo,
    "greedy": best_categorical_split_greedy,
    "exhaustive": best_categorical_split_exhaustive,
}


def numeric_split_loop(y, x, variable, min_bucket=1):
    """Reference threshold scan of one node: its own stable sort and cumsum."""
    n = len(x)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    cuts = np.flatnonzero(xs[:-1] < xs[1:])
    cuts = cuts[(cuts >= min_bucket - 1) & (cuts < n - min_bucket)]
    if len(cuts) == 0:
        return None
    sl, ql = np.cumsum(ys), np.cumsum(ys * ys)
    nl = (cuts + 1).astype(np.float64)
    costs = _two_child_sse(nl, sl[cuts], ql[cuts], n, sl[-1], ql[-1])
    best = int(np.argmin(costs))
    rule = SplitRule(variable, "threshold", threshold=float(0.5 * (xs[cuts[best]] + xs[cuts[best] + 1])))
    return SplitCandidate(rule, float(costs[best]), int(nl[best]), n - int(nl[best]))


def one_node(data, indices, method, min_bucket, numeric):
    """Reference search of one node: column by column, the first minimum wins."""
    y = data.response[indices]
    best = None
    for column in data.schema:
        values = data.column(column.name)[indices]
        if values.min() == values.max():
            continue
        if column.kind == "categorical":
            if method == "exhaustive" and np.count_nonzero(np.bincount(values)) > EXHAUSTIVE_MAX_CATEGORIES:
                continue
            cand = SPLITTERS[method](y, values, column)
            if cand.n_left < min_bucket or cand.n_right < min_bucket:
                continue
        else:
            cand = numeric(y, values, column.name, min_bucket)
            if cand is None:
                continue
        if best is None or cand.cost < best.cost:
            best = cand
    return best


def key(cand):
    """Everything a split decision passes on; ``hex`` tells every bit of the cost."""
    return None if cand is None else (cand.rule, cand.cost.hex(), cand.n_left, cand.n_right)


def _dataset(cats, m, x, flags, y):
    schema = (
        ColumnSchema("c", "categorical", tuple(f"k{i}" for i in range(m))),
        ColumnSchema("x", "numeric"),
        ColumnSchema("b", "binary"),
    )
    columns = {"c": np.array(cats, dtype=np.int64), "x": np.array(x, dtype=np.float64),
               "b": np.array(flags, dtype=np.float64)}
    return Dataset(schema, columns, np.array(y, dtype=np.float64))


@st.composite
def searches(draw):
    """A small dataset, some nodes of it and search settings.

    Responses sit on a lattice (ties, constant nodes) or anywhere in a band,
    around a mean that can dwarf the band, so raw-moment round-off shows; x
    has ties and can be constant at a node; a node need not see every
    declared category.
    """
    n = draw(st.integers(1, 24))
    m = draw(st.integers(2, 6))
    ints = lambda hi: st.lists(st.integers(0, hi), min_size=n, max_size=n)  # noqa: E731
    cats = draw(ints(m - 1))
    x = draw(ints(draw(st.integers(0, 4))))
    flags = draw(ints(1))
    base = draw(st.sampled_from([0.0, 5000.0, 1e6, 1e10]))
    step = draw(st.sampled_from([1e-5, 0.1, 1.0, 1000.0]))
    floats = st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)
    y = base + step * np.array(draw(st.one_of(ints(3), floats)), dtype=np.float64)
    data = _dataset(cats, m, x, flags, y)
    node = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    segments = [np.array(rows) for rows in draw(st.lists(node, min_size=1, max_size=5))]
    method = draw(st.sampled_from(sorted(SPLITTERS)))
    min_bucket = draw(st.integers(1, 3))
    few_bins = draw(st.booleans())  # split the category bins into many passes
    return data, segments, method, min_bucket, few_bins


@given(searches())
@example((
    # Zero parent variance in floating point, though the rows differ: the
    # ratio iteration returns cost 0.0; the same closed form without that
    # early return prices the node at 10922.67.
    _dataset([0, 1, 1, 0, 1], 2, [0.0] * 5, [0.0] * 5, 1e10 + 1e-5 * np.array([0, 0, 0, 1, 0])),
    [np.arange(5)], "qubo", 1, False,
))
def test_batched_search_equals_one_node_at_a_time(case):
    data, segments, method, min_bucket, few_bins = case
    with mock.patch.object(splitting, "_MAX_BINS", 3 if few_bins else splitting._MAX_BINS):
        batched = [key(c) for c in best_splits(data, segments, method, min_bucket=min_bucket)]
    alone = [key(best_split(data, rows, method, min_bucket=min_bucket)) for rows in segments]
    reference = [key(one_node(data, rows, method, min_bucket, best_numeric_split)) for rows in segments]
    loop = [key(one_node(data, rows, method, min_bucket, numeric_split_loop)) for rows in segments]
    assert batched == alone == reference == loop


def test_zero_variance_two_category_node_costs_zero():
    y = 1e10 + 1e-5 * np.array([0, 0, 0, 1, 0])
    data = _dataset([0, 1, 1, 0, 1], 2, [0.0] * 5, [0.0] * 5, y)
    cand = best_splits(data, [np.arange(5)])[0]
    assert cand.rule.variable == "c" and cand.cost == 0.0
    assert best_categorical_split_qubo(y, data.column("c"), data.schema[0]).cost == 0.0


def test_two_category_nodes_price_like_the_per_node_splitters():
    # 1500 random two-category nodes, a third of them near-constant around
    # 1e10, priced in one call and one node at a time.
    rng = np.random.default_rng(5)
    sizes = rng.integers(2, 12, size=1500)
    n = int(sizes.sum())
    codes = rng.integers(0, 2, size=n)
    codes[np.cumsum(sizes) - sizes] = 0  # every node sees both categories
    codes[np.cumsum(sizes) - 1] = 1
    y = rng.normal(5000.0, 3000.0, size=n)
    far = np.repeat(rng.random(len(sizes)) < 1 / 3, sizes)
    y[far] = 1e10 + 1e-5 * rng.integers(0, 2, size=int(far.sum()))
    column = ColumnSchema("c", "categorical", ("k0", "k1", "k2"))
    data = Dataset((column,), {"c": codes}, y)
    segments = np.split(np.arange(n), np.cumsum(sizes)[:-1])
    for method in ("qubo", "greedy"):
        batched = [key(c) for c in best_splits(data, segments, method)]
        assert batched == [key(SPLITTERS[method](y[rows], codes[rows], column)) for rows in segments]


def test_segments_must_be_non_empty():
    data = _dataset([0, 1], 2, [0.0, 1.0], [0.0, 1.0], [1.0, 2.0])
    assert best_splits(data, []) == []
    with pytest.raises(ValueError, match="at least one row"):
        best_splits(data, [np.arange(2), np.arange(0)])
