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
from qubotree.rng import Rng, derive_seed
from qubotree.solvers import CHUNK_ROWS, EXACT_MAX_CATEGORIES, SolveOutcome, assignment_chunks

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


def test_exhaustive_tie_across_chunks_goes_to_the_lex_smaller():
    # Two minima of -1: (1,0,1,0,...) is pattern 2560, in the first chunk,
    # and (1,1,0,0,...) is pattern 3072, the first row of the second.
    m = 12
    h = np.diag([0.0, -1.0, -1.0] + [1.0] * (m - 3))
    h[1, 2] = h[2, 1] = 1.0
    problem = QuboProblem(m, h, 0.0)
    assert [(p - (1 << (m - 1))) // CHUNK_ROWS for p in (2560, 3072)] == [0, 1]
    assert problem.evaluate((1, 1) + (0,) * (m - 2)) == -1.0
    out = solve_exhaustive(problem)
    assert out.q == (1, 0, 1) + (0,) * (m - 3)
    assert out.objective == -1.0


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
    m = EXACT_MAX_CATEGORIES + 1
    with pytest.raises(ValueError):
        solve_exhaustive(QuboProblem(m, np.zeros((m, m)), 0.0))


def test_exact_threshold_capped_at_exhaustive_limit():
    assert SolverConfig(exact_threshold=EXACT_MAX_CATEGORIES).exact_threshold == EXACT_MAX_CATEGORIES
    with pytest.raises(ValueError, match="exact_threshold"):
        SolverConfig(exact_threshold=EXACT_MAX_CATEGORIES + 1)


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
        AnnealConfig(sweeps=0)


def _flip_delta(h, g, q, j):
    sign = 1.0 - 2.0 * q[j]
    return sign * 2.0 * g[j] + h[j, j]


def _apply_flip(h, g, q, j):
    if q[j] == 0:
        g += h[:, j]
        q[j] = 1
    else:
        g -= h[:, j]
        q[j] = 0


def _reference_anneal(p, cfg):
    """The restarts run one after another, one proposal at a time: the reference
    the batched ``solve_anneal`` must reproduce exactly."""
    m = p.m
    h = p.h
    sweeps = cfg.sweeps if cfg.sweeps is not None else 200 * m
    t0 = max(float(np.max(np.abs(h))), 1e-12)
    t1 = 1e-3 * t0
    temps = t0 * (t1 / t0) ** (np.arange(sweeps) / max(sweeps - 1, 1))

    best_q = None
    best_f = np.inf
    evaluations = 0
    for restart in range(cfg.restarts):
        rng = Rng(derive_seed(cfg.seed, 0xA11E, restart))
        q = (rng.uniform01(m) < 0.5).astype(np.int8)
        if q.min() == q.max():
            q[int(rng.integers(m, 1)[0])] ^= 1
        g = h @ q.astype(np.float64)
        f = float(q @ h @ q)
        seen_q = q.copy() if q.min() != q.max() else None
        seen_f = f if seen_q is not None else np.inf

        flips = rng.integers(m, sweeps)
        accepts = rng.uniform01(sweeps)
        for k in range(sweeps):
            j = int(flips[k])
            delta = _flip_delta(h, g, q, j)
            if delta <= 0.0 or accepts[k] < np.exp(-delta / temps[k]):
                f += delta
                _apply_flip(h, g, q, j)
                if q.min() != q.max() and f < seen_f:
                    seen_f = f
                    seen_q = q.copy()
        evaluations += sweeps

        if q.min() == q.max():
            deltas = [_flip_delta(h, g, q, j) for j in range(m)]
            _apply_flip(h, g, q, int(np.argmin(deltas)))
            evaluations += m
        while True:  # steepest non-trivial descent
            best_j, best_delta = -1, 0.0
            for j in range(m):
                target = q.copy()
                target[j] ^= 1
                if target.min() == target.max():
                    continue
                delta = _flip_delta(h, g, q, j)
                if delta < best_delta:
                    best_j, best_delta = j, delta
            evaluations += m
            if best_j < 0:
                break
            _apply_flip(h, g, q, best_j)

        for cand in (q, seen_q):
            if cand is None:
                continue
            exact = float(cand @ h @ cand)
            if exact < best_f or (exact == best_f and (best_q is None or tuple(cand) < tuple(best_q))):
                best_f = exact
                best_q = cand.copy()
    return SolveOutcome(tuple(int(b) for b in best_q), best_f, "annealing", evaluations)


def _two_group_problem(rng, m, offset=0.0, lam_scale=1.0):
    """M categories whose means fall in two groups, like a high-cardinality column."""
    codes = rng.integers(m, size=40 * m)
    y = offset + (np.arange(m) % 2 * 3000.0)[codes] + rng.normal(0.0, 2000.0, size=len(codes))
    aggs, node = aggregate_categories(codes, y, m)
    return build_qubo(build_v_matrix(aggs), aggs, node, lam_scale * lambda_upper_bound(node))


def _small_problem(rng, offset=0.0, lam_scale=1.0, integer=False):
    codes, y, m = random_category_instance(rng, max_m=14, max_n=150)
    if integer:  # exact float ties between a split and its mirror image
        y = np.round(y / 100.0)
    aggs, node = aggregate_categories(codes, y + offset, m)
    return build_qubo(build_v_matrix(aggs), aggs, node, lam_scale * lambda_upper_bound(node))


def test_batched_anneal_equals_sequential_restarts():
    rng = np.random.default_rng(26)
    cases = []
    for i in range(24):
        cases.append((_small_problem(rng, integer=i % 3 == 0), AnnealConfig(seed=i)))
    # A hot random walk can end worse than a state it passed, or level with
    # it: these cases reach the incumbent tracking and tie-breaks. One huge
    # coefficient sets the schedule's temperatures far above the others.
    for i in range(60):
        problem = _small_problem(rng, lam_scale=float(rng.uniform(0.3, 1.0)), integer=i % 2 == 0)
        h = problem.h.copy()
        h[0, 0] = 1e12
        cases.append((QuboProblem(problem.m, h, problem.lam), AnnealConfig(seed=400 + i, sweeps=50, restarts=1)))
    for i, sweeps in enumerate((1, 7, 300)):
        for restarts in (1, 8):
            problem = _small_problem(rng)
            cases.append((problem, AnnealConfig(seed=100 + i, restarts=restarts, sweeps=sweeps)))
    for seed in range(4):  # every state level: only the tie-breaks decide
        cases.append((QuboProblem(6, np.zeros((6, 6)), 0.0), AnnealConfig(seed=seed, sweeps=20, restarts=2)))
    cases.append((_small_problem(rng, offset=1e9), AnnealConfig(seed=200, sweeps=500)))
    cases.append((_small_problem(rng, lam_scale=0.3), AnnealConfig(seed=201, sweeps=500)))
    cases.append((_two_group_problem(rng, 40), AnnealConfig(seed=300)))
    cases.append((_two_group_problem(rng, 40, offset=1e9), AnnealConfig(seed=301, restarts=1)))
    cases.append((_two_group_problem(rng, 40, lam_scale=0.5), AnnealConfig(seed=302, sweeps=2000)))
    for problem, cfg in cases:
        assert solve_anneal(problem, cfg) == _reference_anneal(problem, cfg), cfg
