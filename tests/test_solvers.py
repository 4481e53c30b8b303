import itertools

import numpy as np
import pytest

from qubotree import (
    AnnealConfig,
    QuboProblem,
    SolverConfig,
    aggregate_categories,
    build_qubo,
    build_v_matrix,
    solve,
    solve_anneal,
    solve_exhaustive,
)
from qubotree.dinkelbach import lambda_upper_bound
from qubotree.solvers import CHUNK_ROWS, assignment_chunks

from conftest import random_category_instance


def _random_problem(rng, m, lam_scale=1.0):
    """Random flip-symmetric instance with the split structure."""
    counts = rng.integers(1, 12, size=m)
    means = rng.normal(0.0, 50.0, size=m)
    codes = np.repeat(np.arange(m), counts)
    y = means[codes] + rng.normal(0.0, 10.0, size=len(codes))
    aggs, node = aggregate_categories(codes, y, m)
    lam = lam_scale * lambda_upper_bound(node)
    return build_qubo(build_v_matrix(aggs), aggs, node, lam)


def _brute_force(problem):
    m = problem.m
    best_f, best_q = None, None
    for bits in range(1, (1 << m) - 1):
        q = [(bits >> (m - 1 - j)) & 1 for j in range(m)]
        f = problem.evaluate(q)
        if best_f is None or f < best_f:
            best_f, best_q = f, tuple(q)
    return best_f, best_q


def test_exhaustive_worked_node(worked_node):
    codes, y, _ = worked_node
    aggs, node = aggregate_categories(codes, y, 4)
    problem = build_qubo(build_v_matrix(aggs), aggs, node, 191.5)
    out = solve_exhaustive(problem)
    assert out.q == (1, 0, 0, 1)
    assert out.objective == pytest.approx(-1633.5, rel=1e-12)
    assert out.method == "exhaustive"
    assert out.evaluations == 2**3 - 1


def test_exhaustive_m2():
    problem = QuboProblem(2, np.array([[1.0, 0.5], [0.5, -2.0]]), 0.0)
    out = solve_exhaustive(problem)
    assert out.q == (1, 0)
    assert out.evaluations == 1


def test_exhaustive_zero_matrix_tie_break():
    problem = QuboProblem(5, np.zeros((5, 5)), 0.0)
    out = solve_exhaustive(problem)
    assert out.q == (1, 0, 0, 0, 0)
    assert out.objective == 0.0


def test_exhaustive_matches_naive_brute_force():
    rng = np.random.default_rng(20)
    for _ in range(40):
        m = int(rng.integers(2, 13))
        problem = _random_problem(rng, m, lam_scale=float(rng.uniform(0.2, 1.0)))
        out = solve_exhaustive(problem)
        best_f, best_q = _brute_force(problem)
        scale = max(1.0, float(np.abs(problem.h).max()))
        assert abs(out.objective - best_f) <= 1e-9 * scale
        flipped = tuple(1 - b for b in out.q)
        assert out.q in (best_q, flipped) or abs(out.objective - best_f) <= 1e-9 * scale
        # Returned objective re-evaluates to itself.
        assert out.objective == pytest.approx(problem.evaluate(out.q), rel=1e-9)
        assert 0 < sum(out.q) < m


def test_exhaustive_matches_brute_force_at_1e9_scale():
    # Ill-scaled instance (1e9 responses): the optimum must match brute force.
    rng = np.random.default_rng(21)
    counts = rng.integers(1, 10, size=12)
    codes = np.repeat(np.arange(12), counts)
    y = rng.normal(0, 1e9, size=len(codes))
    aggs, node = aggregate_categories(codes, y, 12)
    problem = build_qubo(build_v_matrix(aggs), aggs, node, lambda_upper_bound(node))

    out = solve_exhaustive(problem)
    best_f, _ = _brute_force(problem)
    assert abs(out.objective - best_f) <= 1e-8 * max(1.0, float(np.abs(problem.h).max()))


def test_assignment_chunks_lex_order():
    rows = np.concatenate(list(assignment_chunks(4)))
    expected = [q for q in itertools.product((0, 1), repeat=4) if q[0] == 1 and q != (1, 1, 1, 1)]
    assert [tuple(int(b) for b in r) for r in rows] == expected
    sizes = [len(c) for c in assignment_chunks(12)]
    assert len(sizes) > 1 and max(sizes) <= CHUNK_ROWS
    assert sum(sizes) == (1 << 11) - 1


def test_exhaustive_rejects_large_m():
    with pytest.raises(ValueError):
        solve_exhaustive(QuboProblem(31, np.zeros((31, 31)), 0.0))


def test_anneal_matches_exhaustive_on_worked_node(worked_node):
    codes, y, _ = worked_node
    aggs, node = aggregate_categories(codes, y, 4)
    problem = build_qubo(build_v_matrix(aggs), aggs, node, 191.5)
    exact = solve_exhaustive(problem)
    for seed in (0, 1, 2):
        out = solve_anneal(problem, AnnealConfig(seed=seed, restarts=4))
        assert out.objective == pytest.approx(exact.objective, rel=1e-9)
        assert out.method == "annealing"


def test_anneal_m2():
    rng = np.random.default_rng(30)
    problem = _random_problem(rng, 2)
    out = solve_anneal(problem, AnnealConfig(seed=3, restarts=2))
    assert out.q in ((1, 0), (0, 1))


def test_anneal_deterministic():
    rng = np.random.default_rng(22)
    problem = _random_problem(rng, 9)
    cfg = AnnealConfig(seed=77, restarts=4, sweeps=500)
    assert solve_anneal(problem, cfg) == solve_anneal(problem, cfg)


def test_anneal_never_trivial():
    rng = np.random.default_rng(23)
    for _ in range(10):
        problem = _random_problem(rng, 6)
        out = solve_anneal(problem, AnnealConfig(seed=5, restarts=2, sweeps=50))
        assert 0 < sum(out.q) < 6


def test_solve_dispatch():
    rng = np.random.default_rng(24)
    small = _random_problem(rng, 6)
    assert solve(small, SolverConfig()).method == "exhaustive"
    large = _random_problem(rng, 30)
    assert solve(large, SolverConfig()).method == "annealing"
    # Threshold override flips the small instance to annealing.
    assert solve(small, SolverConfig(exact_threshold=4)).method == "annealing"


def test_anneal_quality_on_split_instances():
    rng = np.random.default_rng(25)
    misses = 0
    for i in range(40):
        codes, y, m = random_category_instance(rng, max_m=12, max_n=150)
        aggs, node = aggregate_categories(codes, y, m)
        v = build_v_matrix(aggs)
        problem = build_qubo(v, aggs, node, lambda_upper_bound(node))
        exact = solve_exhaustive(problem)
        out = solve_anneal(problem, AnnealConfig(seed=1000 + i, restarts=8, sweeps=200 * m))
        if abs(out.objective - exact.objective) > 1e-9 * max(1.0, abs(exact.objective)):
            misses += 1
    assert misses == 0


def test_anneal_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(restarts=0)
    with pytest.raises(ValueError):
        AnnealConfig(t_init=1.0, t_final=2.0)
    with pytest.raises(ValueError):
        AnnealConfig(sweeps=0)
