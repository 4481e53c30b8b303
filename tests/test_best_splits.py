"""``best_splits`` searches many nodes at once; every answer must be the one-node search's, bit for bit.

Batched ``qubo`` is the sorted-means scan, as ``greedy`` is, so greedy's
splitters are its references too. The per-node ratio iteration, the public
``best_categorical_split_qubo``, must equal ``qubo_reference``, the paper's
iteration from the parent bound, traces included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qubotree import ColumnSchema, Dataset
from qubotree import stats
from qubotree.dinkelbach import dinkelbach_split
from qubotree.solvers import assignment_chunks
from qubotree.splitting import (
    EXHAUSTIVE_MAX_CATEGORIES,
    SplitCandidate,
    SplitRule,
    best_categorical_split_exhaustive,
    best_categorical_split_greedy,
    best_categorical_split_qubo,
    best_numeric_split,
    best_split,
    best_splits,
)
from qubotree.stats import NodeStats, aggregate_categories, build_v_matrix

SPLITTERS = {
    "qubo": best_categorical_split_greedy,
    "greedy": best_categorical_split_greedy,
    "exhaustive": best_categorical_split_exhaustive,
}


def subset_candidate(column, aggs, left_mask, cost, trace=None):
    """Reference rule assembly: the smallest-mean category goes left."""
    if not left_mask[int(np.argmin(aggs.sum / aggs.n))]:
        left_mask = ~left_mask
    left_labels = tuple(column.categories[i] for i in aggs.index[left_mask])
    right_labels = tuple(column.categories[i] for i in aggs.index[~left_mask])
    n_left = int(aggs.n[left_mask].sum())
    rule = SplitRule(column.name, "subset", left_labels, right_labels)
    return SplitCandidate(rule, float(cost), n_left, int(aggs.n.sum()) - n_left, trace)


def sorted_scan(aggs, node):
    """Reference sorted-means scan of one node: its own stable sort and cumsum."""
    order = np.argsort(aggs.sum / aggs.n, kind="stable")
    left = NodeStats(*(np.cumsum(x[order])[:-1] for x in (aggs.n, aggs.sum, aggs.sum_sq)))
    costs = left.sse() + (node - left).sse()
    best = int(np.argmin(costs))
    left_mask = np.zeros(len(aggs), dtype=bool)
    left_mask[order[: best + 1]] = True
    return left_mask, costs[best]


def greedy_reference(y, codes, column):
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    return subset_candidate(column, aggs, *sorted_scan(aggs, node))


def qubo_reference(y, codes, column):
    """The paper's ratio iteration of one node, from the parent bound."""
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    q, lam, trace = dinkelbach_split(build_v_matrix(aggs), aggs, node)
    return subset_candidate(column, aggs, np.array(q, dtype=bool), lam, trace)


def exhaustive_reference(y, codes, column):
    """Reference enumeration of every partition of one node, first minimum first."""
    aggs, node = aggregate_categories(codes, y, len(column.categories))
    best_cost, best_bits = np.inf, None
    for bits in assignment_chunks(len(aggs)):
        left = NodeStats(bits @ aggs.n, bits @ aggs.sum, bits @ aggs.sum_sq)
        costs = left.sse() + (node - left).sse()
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost, best_bits = float(costs[i]), bits[i].astype(bool)
    return subset_candidate(column, aggs, best_bits, best_cost)


REFERENCES = {"qubo": greedy_reference, "greedy": greedy_reference, "exhaustive": exhaustive_reference}


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
    left = NodeStats((cuts + 1).astype(np.float64), sl[cuts], ql[cuts])
    costs = left.sse() + (NodeStats(n, sl[-1], ql[-1]) - left).sse()
    best = int(np.argmin(costs))
    lo, hi = float(xs[cuts[best]]), float(xs[cuts[best] + 1])
    mid = 0.5 * (lo + hi)  # Python float addition overflows to inf without a warning
    rule = SplitRule(variable, "threshold", threshold=mid if lo < mid <= hi else hi)
    n_left = int(left.n[best])
    return SplitCandidate(rule, float(costs[best]), n_left, n - n_left)


def one_node(data, indices, method, min_bucket, numeric, splitters):
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
            cand = splitters[method](y, values, column)
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
    # scan prices the split at a raw-moment residue of 32768, where the
    # per-node ratio iteration returns cost 0.0.
    _dataset([0, 1, 1, 0, 1], 2, [0.0] * 5, [0.0] * 5, 1e10 + 1e-5 * np.array([0, 0, 0, 1, 0])),
    [np.arange(5)], "qubo", 1, False,
))
def test_batched_search_equals_one_node_at_a_time(case):
    data, segments, method, min_bucket, few_bins = case
    with mock.patch.object(stats, "_MAX_BINS", 3 if few_bins else stats._MAX_BINS):
        batched = [key(c) for c in best_splits(data, segments, method, min_bucket=min_bucket)]
    alone = [key(best_split(data, rows, method, min_bucket=min_bucket)) for rows in segments]
    public = [key(one_node(data, rows, method, min_bucket, best_numeric_split, SPLITTERS)) for rows in segments]
    loop = [key(one_node(data, rows, method, min_bucket, numeric_split_loop, REFERENCES)) for rows in segments]
    assert batched == alone == public == loop


ZERO_VARIANCE_Y = 1e10 + 1e-5 * np.array([0, 0, 0, 1, 0])


def test_zero_variance_two_category_node_costs_zero():
    # The per-node ratio iteration's early return at zero parent variance.
    column = ColumnSchema("c", "categorical", ("k0", "k1"))
    assert best_categorical_split_qubo(ZERO_VARIANCE_Y, np.array([0, 1, 1, 0, 1]), column).cost == 0.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_near_constant_node_iterates_to_the_greedy_partition():
    # The raw-moment parent variance rounds to 0 here, so the ratio iteration
    # returns {k0} at cost 0 with an empty, non-converged trace.
    column = ColumnSchema("c", "categorical", ("k0", "k1", "k2"))
    y, codes = 5000 + 1e-5 * np.array([0, 0, 0, 3]), np.array([0, 0, 1, 2])
    qubo = best_categorical_split_qubo(y, codes, column)
    assert qubo.rule == best_categorical_split_greedy(y, codes, column).rule
    assert qubo.trace.converged


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_near_constant_node_enumerates_to_the_greedy_partition():
    # Raw moments price {k0,k2} at 0.0, though its true SSE is 6e-10, and the
    # exact {k0,k1}, greedy's pick, at 3.7e-9: compare's exhaustive row.
    column = ColumnSchema("c", "categorical", ("k0", "k1", "k2"))
    y, codes = 5000 + 1e-5 * np.array([0, 0, 0, 3]), np.array([0, 0, 1, 2])
    exhaustive = best_categorical_split_exhaustive(y, codes, column)
    assert exhaustive.rule == best_categorical_split_greedy(y, codes, column).rule


def test_zero_variance_two_category_node_prices_like_greedy():
    data = _dataset([0, 1, 1, 0, 1], 2, [0.0] * 5, [0.0] * 5, ZERO_VARIANCE_Y)
    cand = best_splits(data, [np.arange(5)])[0]
    assert cand.rule.variable == "c"
    assert key(cand) == key(best_splits(data, [np.arange(5)], "greedy")[0])


def assert_nodes_price_like_the_references(codes, y, sizes, m):
    """Every node priced in one call, with the category bins in one pass and
    in many, and one node at a time by the public and the reference splitters
    (whose candidates must be equal too, as must the per-node ratio
    iteration's, traces included)."""
    column = ColumnSchema("c", "categorical", tuple(f"k{i}" for i in range(m)))
    data = Dataset((column,), {"c": codes}, y)
    segments = np.split(np.arange(len(y)), np.cumsum(sizes)[:-1])
    nodes = [(y[rows], codes[rows], column) for rows in segments]
    assert [best_categorical_split_qubo(*node) for node in nodes] == [qubo_reference(*node) for node in nodes]
    for method in sorted(REFERENCES):
        reference = [REFERENCES[method](y[rows], codes[rows], column) for rows in segments]
        public = [SPLITTERS[method](y[rows], codes[rows], column) for rows in segments]
        assert public == reference
        assert [key(c) for c in public] == [key(c) for c in reference]
        for bins in (stats._MAX_BINS, 2 * m + 1):
            with mock.patch.object(stats, "_MAX_BINS", bins):
                assert [key(c) for c in best_splits(data, segments, method)] == [key(c) for c in reference]


def near_constant(rng, y, sizes):
    """A third of the nodes sit around 1e10, two 1e-5 steps apart."""
    far = np.repeat(rng.random(len(sizes)) < 1 / 3, sizes)
    y[far] = 1e10 + 1e-5 * rng.integers(0, 2, size=int(far.sum()))
    return y


def test_two_category_nodes_price_like_the_per_node_splitters():
    rng = np.random.default_rng(5)
    sizes = rng.integers(2, 12, size=1500)
    n = int(sizes.sum())
    codes = rng.integers(0, 2, size=n)
    codes[np.cumsum(sizes) - sizes] = 0  # every node sees both categories
    codes[np.cumsum(sizes) - 1] = 1
    y = near_constant(rng, rng.normal(5000.0, 3000.0, size=n), sizes)
    assert_nodes_price_like_the_references(codes, y, sizes, 3)


def test_many_category_nodes_price_like_the_per_node_splitters():
    # Nodes that see 3 to 6 of 8 declared categories, each at least once.
    rng = np.random.default_rng(7)
    parts = []
    for _ in range(400):
        seen = rng.choice(8, size=rng.integers(3, 7), replace=False)
        parts.append(np.concatenate((seen, rng.choice(seen, size=rng.integers(0, 10)))))
    sizes = np.array([len(p) for p in parts])
    y = near_constant(rng, rng.normal(5000.0, 3000.0, size=int(sizes.sum())), sizes)
    assert_nodes_price_like_the_references(np.concatenate(parts), y, sizes, 8)


def test_segments_must_be_non_empty():
    data = _dataset([0, 1], 2, [0.0, 1.0], [0.0, 1.0], [1.0, 2.0])
    assert best_splits(data, []) == []
    with pytest.raises(ValueError, match="at least one row"):
        best_splits(data, [np.arange(2), np.arange(0)])


def test_min_bucket_below_one_is_rejected():
    # With min_bucket=0 a cut at segment 0's last row was priced against
    # segment 1's rows at n - nl = 0: the NaN cost dropped segment 0's split.
    y = [0.0, 0.0, 0.0, 5.0, 6.0, 7.0]
    data = _dataset([0] * 6, 2, [1.0, 2.0, 3.0, 10.0, 11.0, 12.0], [0.0] * 6, y)
    segments = [np.arange(3), np.arange(3, 6)]
    first = best_splits(data, segments, min_bucket=1)[0]
    assert (first.rule.threshold, first.cost) == (1.5, 0.0)
    for search in (
        lambda: best_splits(data, segments, min_bucket=0),
        lambda: best_split(data, segments[0], min_bucket=-1),
        lambda: best_numeric_split(np.array(y), data.column("x"), "x", min_bucket=0),
    ):
        with pytest.raises(ValueError, match="min_bucket >= 1"):
            search()


@pytest.mark.parametrize("method", ["bogus", None, "QUBO"])
def test_unknown_method_is_rejected(method):
    data = _dataset([0, 1, 0, 1], 2, [0.0, 1.0, 2.0, 3.0], [0.0] * 4, [1.0, 2.0, 3.0, 4.0])
    for search in (lambda: best_splits(data, [np.arange(4)], method), lambda: best_split(data, np.arange(4), method)):
        with pytest.raises(ValueError, match="unknown categorical method"):
            search()
