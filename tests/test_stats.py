import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubotree import (
    ColumnSchema,
    NodeStats,
    aggregate_categories,
    build_v_matrix,
    node_variance,
    pairwise_variance,
)
from qubotree.splitting import (
    best_categorical_split_exhaustive,
    best_categorical_split_greedy,
    best_categorical_split_qubo,
)

from conftest import naive_v_matrix, random_category_instance


def test_variance_constant_sample():
    assert node_variance(NodeStats.from_values([5.0, 5.0, 5.0])) == 0.0
    assert pairwise_variance([5.0, 5.0, 5.0]) == 0.0


def test_variance_small_samples():
    # {1,2,3}: pairwise form gives (1/18) * 2*(1+4+1) = 2/3.
    assert node_variance(NodeStats.from_values([1.0, 2.0, 3.0])) == pytest.approx(2 / 3)
    assert pairwise_variance([1.0, 2.0, 3.0]) == pytest.approx(2 / 3)
    # {0,2}: (1/8) * (4+4) = 1.
    assert pairwise_variance([0.0, 2.0]) == pytest.approx(1.0)


def test_pairwise_variance_matches_explicit_double_loop():
    rng = np.random.default_rng(0)
    values = rng.normal(0, 10, size=9)
    acc = 0.0
    for a in values:
        for b in values:
            acc += (a - b) ** 2
    assert pairwise_variance(values) == pytest.approx(acc / (2 * 81), rel=1e-12)


def test_worked_node_variance(worked_node):
    _, y, _ = worked_node
    stats = NodeStats.from_values(y)
    assert stats == NodeStats(6, 39.0, 445.0)
    assert node_variance(stats) == pytest.approx(1149 / 36, rel=1e-14)


def test_variance_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        values = rng.uniform(-1e5, 1e5, size=n)
        moment = node_variance(NodeStats.from_values(values))
        pairwise = pairwise_variance(values)
        stats = NodeStats.from_values(values)
        assert abs(moment - pairwise) <= 1e-10 * max(1.0, stats.sum_sq)


def test_variance_errors_on_empty():
    with pytest.raises(ValueError):
        node_variance(NodeStats(0, 0.0, 0.0))
    with pytest.raises(ValueError):
        pairwise_variance([])


def test_variance_clamped_nonnegative():
    # Large offset makes the moment difference catastrophically cancel.
    stats = NodeStats.from_values(np.full(100, 1e9))
    assert node_variance(stats) >= 0.0


def test_aggregate_worked_node(worked_node):
    codes, y, _ = worked_node
    aggs, node = aggregate_categories(codes, y, 4)
    assert aggs.index.tolist() == [0, 1, 2, 3]
    assert aggs.n.tolist() == [2.0, 1.0, 2.0, 1.0]
    assert aggs.sum.tolist() == [2.0, 10.0, 26.0, 1.0]
    assert aggs.sum_sq.tolist() == [4.0, 100.0, 340.0, 1.0]
    assert (node.n, node.sum, node.sum_sq) == (6, 39.0, 445.0)


def test_aggregate_drops_empty_categories():
    aggs, node = aggregate_categories([0, 0, 3], [1.0, 2.0, 3.0], 5)
    assert aggs.index.tolist() == [0, 3]
    assert aggs.n.tolist() == [2.0, 1.0]
    assert node.n == 3


def test_aggregate_single_category():
    aggs, _ = aggregate_categories([0, 0], [1.0, 2.0], 1)
    assert len(aggs) == 1


@pytest.mark.parametrize("codes", [[0, 1, 5, 5], [0, -1, 1, 0]])
def test_codes_outside_the_categories_are_rejected(codes):
    # A code >= m would fold into another category's cell, and a split of
    # this 4-row node would count only 2 of its rows.
    column = ColumnSchema("c", "categorical", ("a", "b"))
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        aggregate_categories(codes, y, 2)
    for search in (best_categorical_split_greedy, best_categorical_split_exhaustive):
        with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
            search(y, np.array(codes), column)


def test_aggregates_sum_to_node():
    rng = np.random.default_rng(2)
    codes, y, m = random_category_instance(rng)
    aggs, node = aggregate_categories(codes, y, m)
    assert aggs.n.sum() == node.n
    assert aggs.sum.sum() == pytest.approx(node.sum, rel=1e-12)


def test_v_matrix_worked_node(worked_node):
    codes, y, _ = worked_node
    aggs, _ = aggregate_categories(codes, y, 4)
    v = build_v_matrix(aggs)
    # Oracle: naive loop over {0,2} x {10} gives (100 + 64) / 2 = 82.
    assert v.values[0, 1] == pytest.approx(82.0)
    # Within-category: {0,2} pairs -> (0 + 4 + 4 + 0) / 2 = 4.
    assert v.values[0, 0] == pytest.approx(4.0)
    # Singleton categories have no within pairs.
    assert v.values[1, 1] == 0.0
    assert v.values[3, 3] == 0.0


def test_v_matrix_matches_naive_double_loop():
    rng = np.random.default_rng(3)
    for _ in range(25):
        codes, y, m = random_category_instance(rng, max_m=8, max_n=100)
        aggs, _ = aggregate_categories(codes, y, m)
        fast = build_v_matrix(aggs).values
        naive = naive_v_matrix(codes, y, m)
        assert np.allclose(fast, naive, rtol=1e-10, atol=1e-9)


def test_v_matrix_invariants():
    rng = np.random.default_rng(4)
    codes, y, m = random_category_instance(rng, max_m=8, max_n=100)
    aggs, node = aggregate_categories(codes, y, m)
    v = build_v_matrix(aggs)
    assert np.array_equal(v.values, v.values.T)
    assert v.values.min() >= 0.0
    # Diagonal consistency: V[a, a] = n_a^2 * Var_a.
    for i, (n_a, s_a, q_a) in enumerate(zip(aggs.n, aggs.sum, aggs.sum_sq)):
        var_a = node_variance(NodeStats(int(n_a), s_a, q_a))
        assert v.values[i, i] == pytest.approx(n_a**2 * var_a, rel=1e-10, abs=1e-9)
    # Whole-node identity: sum of all entries = n^2 * Var.
    total = node.n**2 * node_variance(node)
    assert float(v.values.sum()) == pytest.approx(total, rel=1e-10)


def hexes(values):
    return [float(v).hex() for v in values]


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=6),
    st.sampled_from([0.0, 5000.0, 1e10]),
    st.lists(st.floats(-3.0, 3.0), min_size=36, max_size=36),
    st.lists(st.integers(0, 6), min_size=6, max_size=6),
)
def test_record_arrays_equal_the_per_node_numbers_bit_for_bit(sizes, base, noise, cuts):
    values = base + np.array(noise[: sum(sizes)])
    runs = NodeStats.of_runs(values, sizes)
    assert len(runs) == len(sizes)
    ends = np.cumsum(sizes)
    alone = [NodeStats.from_values(values[end - size : end]) for size, end in zip(sizes, ends)]
    assert [runs[k] for k in range(len(sizes))] == alone
    assert all(type(runs[k].n) is int and type(runs[k].sum) is float for k in range(len(sizes)))
    assert hexes(runs.sse()) == [node.sse().hex() for node in alone]
    # A left part of every run, as the scans price it: total - left, field by field.
    nl = [min(c, size - 1) or 1 for c, size in zip(cuts, sizes)]
    lefts = [NodeStats.from_values(values[end - size : end - size + k]) for k, size, end in zip(nl, sizes, ends)]
    left = NodeStats(*(np.array([getattr(s, f) for s in lefts], dtype=float) for f in ("n", "sum", "sum_sq")))
    right = runs - left
    expected = [NodeStats(t.n - p.n, t.sum - p.sum, t.sum_sq - p.sum_sq) for t, p in zip(alone, lefts)]
    assert hexes(right.sum) == hexes(e.sum for e in expected)
    assert hexes(right.sum_sq) == hexes(e.sum_sq for e in expected)
    if all(size > 1 for size in sizes):
        assert hexes(right.sse()) == [e.sse().hex() for e in expected]
    assert not right.n.flags.writeable


def test_category_stats_is_the_per_category_record(worked_node):
    codes, y, _ = worked_node
    aggs, node = aggregate_categories(codes, y, 4)
    assert isinstance(aggs, NodeStats) and len(aggs) == 4
    assert not any(v.flags.writeable for v in (aggs.index, aggs.n, aggs.sum, aggs.sum_sq))
    tail = aggs[1:]
    assert tail.index.tolist() == [1, 2, 3] and tail.sum.tolist() == [10.0, 26.0, 1.0]
    assert aggs[2] == NodeStats(2.0, 26.0, 340.0)
    assert node.sse() == 445.0 - 39.0 * 39.0 / 6


def test_fractional_codes_are_rejected():
    # Cast to int64 these would read (0, 1, 1) and fold two rows into "b".
    column = ColumnSchema("c", "categorical", ("a", "b"))
    codes, y = np.array([0.5, 1.7, 1.2]), np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="whole numbers"):
        aggregate_categories(codes, y, 2)
    for search in (best_categorical_split_greedy, best_categorical_split_qubo, best_categorical_split_exhaustive):
        with pytest.raises(ValueError, match="whole numbers"):
            search(y, codes, column)
    for bad in ([0.0, np.nan, 1.0], [0.0, np.inf, 1.0]):
        with pytest.raises(ValueError, match="whole numbers"):
            aggregate_categories(bad, y, 2)
    # Whole numbers stored as floats are the same codes.
    as_float, as_int = (best_categorical_split_greedy(y, c, column) for c in ([0.0, 1.0, 1.0], np.array([0, 1, 1])))
    assert as_float == as_int
