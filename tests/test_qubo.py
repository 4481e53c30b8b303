import numpy as np
import pytest

from qubotree import (
    aggregate_categories,
    build_qubo,
    build_v_matrix,
    eval_fractional,
)
from qubotree.dinkelbach import lambda_upper_bound

from conftest import (
    brute_force_partitions,
    brute_force_partitions_loop,
    direct_split_cost,
    random_category_instance,
)


def _setup(codes, y, m):
    aggs, node = aggregate_categories(codes, y, m)
    return build_v_matrix(aggs), aggs, node


def test_worked_node_fractional(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    parts = eval_fractional(v, aggs, node, [1, 0, 0, 1])
    assert parts.numerator == pytest.approx(90.0, rel=1e-12)
    assert parts.denominator == 3.0 * 3.0  # child sizes 3 and 3
    # Oracle: left {0,2,1} SSE 2, right {10,12,14} SSE 8 -> ratio 10.
    assert parts.ratio() == pytest.approx(10.0, rel=1e-12)


def test_worked_node_trivial_fractional(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    parts = eval_fractional(v, aggs, node, [1, 1, 1, 1])
    assert parts.denominator == 0.0  # child sizes 6 and 0
    assert parts.numerator == pytest.approx(0.0, abs=1e-9)


def test_worked_node_other_partition(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    # Oracle: left {0,2,10} SSE 56, right {12,14,1} SSE 98 -> ratio 154.
    assert eval_fractional(v, aggs, node, [1, 1, 0, 0]).ratio() == pytest.approx(154.0, rel=1e-12)


def test_worked_node_qubo_values(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    lam = lambda_upper_bound(node)
    assert lam == pytest.approx(191.5, rel=1e-14)
    problem = build_qubo(v, aggs, node, lam)
    assert problem.evaluate([0, 0, 0, 0]) == 0.0
    assert problem.evaluate([1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-9)
    # Oracle eval_fractional: n=90, d=9 -> F = 90 - 191.5 * 9 = -1633.5.
    assert problem.evaluate([1, 0, 0, 1]) == pytest.approx(-1633.5, rel=1e-12)
    # Oracle: q=(1,0,1,0) has n_left=4, n_right=2, so d=8 and the ratio is
    # 188.5 (left {0,2,12,14} SSE 148, right {10,1} SSE 40.5):
    # F = 8 * (188.5 - 191.5) = -24.
    assert problem.evaluate([1, 0, 1, 0]) == pytest.approx(-24.0, rel=1e-9)


def test_array_records_compare_by_identity(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    twin, _, _ = _setup(codes, y, 4)
    problem = build_qubo(v, aggs, node, 1.0)
    assert (v == v) is True and (v == twin) is False
    assert (problem == problem) is True and (problem == build_qubo(v, aggs, node, 1.0)) is False


def test_build_qubo_rejects_bad_args(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    with pytest.raises(ValueError):
        build_qubo(v, aggs, node, -1.0)
    v1, aggs1, node1 = _setup(np.zeros(3, dtype=int), y[:3], 1)
    with pytest.raises(ValueError):
        build_qubo(v1, aggs1, node1, 1.0)


def test_split_cost_rejects_trivial(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    for q in ([0, 0, 0, 0], [1, 1, 1, 1]):
        with pytest.raises(ZeroDivisionError):
            eval_fractional(v, aggs, node, q).ratio()


def test_split_cost_zero_for_constant_responses():
    codes = np.array([0, 0, 1, 1, 2])
    y = np.full(5, 7.0)
    v, aggs, node = _setup(codes, y, 3)
    assert eval_fractional(v, aggs, node, [1, 0, 1]).ratio() == pytest.approx(0.0, abs=1e-12)


def test_flip_symmetry_and_equivalence_random():
    rng = np.random.default_rng(10)
    for _ in range(60):
        codes, y, m = random_category_instance(rng, max_m=10, max_n=120)
        v, aggs, node = _setup(codes, y, m)
        lam = float(rng.uniform(0, 2) * max(lambda_upper_bound(node), 1.0))
        problem = build_qubo(v, aggs, node, lam)
        q = rng.integers(0, 2, size=m)
        parts = eval_fractional(v, aggs, node, q)
        direct = parts.numerator - lam * parts.denominator
        # Relative to the problem scale: coefficients span many decades.
        scale = max(1.0, abs(direct), float(np.abs(problem.h).max()))
        assert abs(problem.evaluate(q) - direct) <= 1e-9 * scale
        assert abs(problem.evaluate(q) - problem.evaluate(1 - q)) <= 1e-9 * scale
        assert problem.evaluate(np.zeros(m)) == 0.0
        assert abs(problem.evaluate(np.ones(m))) <= 1e-9 * scale


def test_ratio_equals_direct_child_sse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        codes, y, m = random_category_instance(rng, max_m=8, max_n=80)
        v, aggs, node = _setup(codes, y, m)
        q = rng.integers(0, 2, size=m)
        if q.min() == q.max():
            q[0] ^= 1
        if q.min() == q.max():
            continue
        mask = np.isin(codes, np.flatnonzero(q))
        expected = direct_split_cost(y[mask], y[~mask])
        assert eval_fractional(v, aggs, node, q).ratio() == pytest.approx(expected, rel=1e-9)


def test_lambda_star_bounded_and_sign_structure():
    # Below the optimal ratio every non-trivial value is positive; at the
    # parent bound the minimum over non-trivial assignments is <= 0.
    rng = np.random.default_rng(12)
    for _ in range(20):
        codes, y, m = random_category_instance(rng, max_m=7, max_n=60)
        v, aggs, node = _setup(codes, y, m)
        results = brute_force_partitions(codes, y, m)
        lam_star = min(results.values())
        upper = lambda_upper_bound(node)
        assert lam_star <= upper * (1 + 1e-12)

        lam_low = max(lam_star - 1.0, 0.0)
        if lam_low < lam_star:
            low_problem = build_qubo(v, aggs, node, lam_low)
            values = []
            for bits in range(1, (1 << m) - 1):
                q = [(bits >> a) & 1 for a in range(m)]
                values.append(low_problem.evaluate(q))
            assert min(values) > -1e-9 * max(1.0, lam_low * node.n**2)

        high_problem = build_qubo(v, aggs, node, upper)
        best_high = min(
            high_problem.evaluate([(bits >> a) & 1 for a in range(m)])
            for bits in range(1, (1 << m) - 1)
        )
        assert best_high <= 1e-9 * max(1.0, upper * node.n**2)


def test_vectorized_brute_force_matches_the_loop():
    rng = np.random.default_rng(105)
    for _ in range(20):
        codes, y, m = random_category_instance(rng, max_m=10, max_n=200)
        fast = brute_force_partitions(codes, y, m)
        slow = brute_force_partitions_loop(codes, y, m)
        assert list(fast) == list(slow)
        for left, cost in slow.items():
            assert fast[left] == pytest.approx(cost, rel=1e-12)
