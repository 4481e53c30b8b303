import numpy as np
import pytest

from qubotree import (
    DinkelbachConfig,
    NodeStats,
    aggregate_categories,
    build_qubo,
    build_v_matrix,
    dinkelbach,
    dinkelbach_split,
    eval_fractional,
    lambda_upper_bound,
    solve,
)

from conftest import brute_force_best, random_category_instance


def _setup(codes, y, m):
    aggs, node = aggregate_categories(codes, y, m)
    return build_v_matrix(aggs), aggs, node


def test_lambda_upper_bound_values(worked_node):
    codes, y, _ = worked_node
    _, _, node = _setup(codes, y, 4)
    assert lambda_upper_bound(node) == pytest.approx(191.5, rel=1e-14)
    assert lambda_upper_bound(NodeStats.from_values([3.0, 3.0])) == 0.0
    assert lambda_upper_bound(NodeStats.from_values([9.0])) == 0.0
    with pytest.raises(ValueError):
        lambda_upper_bound(NodeStats(0, 0.0, 0.0))


def test_upper_bound_mode_worked_node(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    q, lam, trace = dinkelbach_split(v, aggs, node)
    assert q == (1, 0, 0, 1)
    assert lam == pytest.approx(10.0, rel=1e-9)
    assert trace.converged
    assert len(trace.steps) == 2
    first = trace.steps[0]
    assert first.lambda_in == pytest.approx(191.5)
    assert first.lambda_out == pytest.approx(10.0, rel=1e-9)


def test_zero_mode_worked_node(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    q, lam, trace = dinkelbach_split(v, aggs, node, dk_cfg=DinkelbachConfig(mode="zero"))
    assert q == (1, 0, 0, 1)
    assert lam == pytest.approx(10.0, rel=1e-9)
    assert trace.converged
    assert len(trace.steps) == 3
    # First step minimizes at the trivial assignment and resets lam.
    assert trace.steps[0].q == (0, 0, 0, 0)
    assert trace.steps[0].f_value == 0.0
    assert trace.steps[0].lambda_out == pytest.approx(191.5)
    assert trace.steps[1].lambda_in == pytest.approx(191.5)


def test_near_constant_responses_keep_lambda_nonnegative():
    # Cancellation noise once drove the updated lam slightly negative here.
    rng = np.random.default_rng(42)
    codes = np.repeat(np.arange(5), 4)
    y = 7.0 + rng.normal(0, 1e-7, size=20)
    v, aggs, node = _setup(codes, y, 5)
    q, lam, trace = dinkelbach_split(v, aggs, node)
    assert lam >= 0.0
    assert all(s.lambda_out >= 0.0 for s in trace.steps)
    assert 0 < sum(q) < 5


def test_zero_variance_node_not_converged():
    codes = np.array([0, 0, 1, 1])
    y = np.full(4, 2.5)
    v, aggs, node = _setup(codes, y, 2)
    q, lam, trace = dinkelbach_split(v, aggs, node)
    assert lam == 0.0
    assert not trace.converged
    assert 0 < sum(q) < 2


def test_converged_lambda_is_brute_force_minimum():
    rng = np.random.default_rng(40)
    for _ in range(25):
        codes, y, m = random_category_instance(rng, max_m=9, max_n=120)
        v, aggs, node = _setup(codes, y, m)
        q, lam, trace = dinkelbach_split(v, aggs, node)
        best_cost, best_set, _ = brute_force_best(codes, y, m)
        assert trace.converged
        assert lam == pytest.approx(best_cost, rel=1e-9)
        left = frozenset(i for i, b in enumerate(q) if b)
        assert left in (best_set, frozenset(range(m)) - best_set) or lam == pytest.approx(
            best_cost, rel=1e-9
        )


def test_lambda_sequence_monotone_with_upper_bound_init():
    rng = np.random.default_rng(41)
    for _ in range(25):
        codes, y, m = random_category_instance(rng, max_m=9, max_n=120)
        v, aggs, node = _setup(codes, y, m)
        _, _, trace = dinkelbach_split(v, aggs, node)
        lams = [s.lambda_in for s in trace.steps] + [trace.steps[-1].lambda_out]
        assert all(
            lams[i + 1] <= lams[i] * (1 + 1e-12) + 1e-12 for i in range(len(lams) - 1)
        )
        assert lams[0] == pytest.approx(lambda_upper_bound(node), rel=1e-12)


def test_fixed_point_resolving_at_lambda_star(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    # Re-solving the subproblem at lam* returns the same split at an objective
    # of zero, within the iteration's tolerance: the stopping test F(lam*) = 0.
    q, lam, _ = dinkelbach_split(v, aggs, node)
    outcome = solve(build_qubo(v, aggs, node, lam))
    assert outcome.q == q
    tol = dinkelbach.REL_TOLERANCE * max(1.0, lam * eval_fractional(v, aggs, node, q).denominator)
    assert abs(outcome.objective) <= tol


def test_trace_rows_format(worked_node):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    _, _, trace = dinkelbach_split(v, aggs, node, dk_cfg=DinkelbachConfig(mode="zero"))
    rows = trace.rows()
    assert list(rows[0]) == [
        "iteration",
        "lambda_initial",
        "binary_vector",
        "score",
        "lambda_final",
    ]
    assert rows[0]["iteration"] == 1
    assert rows[0]["binary_vector"] == "(0,0,0,0)"
    assert rows[1]["binary_vector"] == "(1,0,0,1)"


def test_config_validation():
    with pytest.raises(ValueError):
        DinkelbachConfig(mode="nope")
    with pytest.raises(ValueError, match="unknown initialization mode 'custom'"):
        DinkelbachConfig(mode="custom")
    v1, aggs1, node1 = _setup(np.zeros(2, dtype=int), np.array([1.0, 4.0]), 1)
    with pytest.raises(ValueError):
        dinkelbach_split(v1, aggs1, node1)


def test_max_iterations_returns_best_so_far(worked_node, monkeypatch):
    codes, y, _ = worked_node
    v, aggs, node = _setup(codes, y, 4)
    monkeypatch.setattr(dinkelbach, "MAX_ITERATIONS", 1)
    q, lam, trace = dinkelbach_split(v, aggs, node)
    assert not trace.converged
    assert q == (1, 0, 0, 1)
    assert lam == pytest.approx(10.0, rel=1e-9)
