import numpy as np
import pytest

from qubotree import (
    NodeStats,
    aggregate_categories,
    build_v_matrix,
    node_variance,
    pairwise_variance,
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
