import numpy as np
import pytest

from qubotree import (
    ColumnSchema,
    Dataset,
    aggregate_categories,
    build_qubo,
    build_v_matrix,
    best_categorical_split_exhaustive,
    best_categorical_split_greedy,
    best_categorical_split_qubo,
    best_numeric_split,
    best_split,
    solve_exhaustive,
)
from qubotree import splitting
from qubotree.dinkelbach import lambda_upper_bound

from conftest import brute_force_best, direct_split_cost, random_category_instance


def test_worked_node_all_three_agree(worked_node):
    codes, y, column = worked_node
    qubo = best_categorical_split_qubo(y, codes, column)
    exhaustive = best_categorical_split_exhaustive(y, codes, column)
    greedy = best_categorical_split_greedy(y, codes, column)
    for cand in (qubo, exhaustive, greedy):
        assert set(cand.rule.left_categories) == {"C1", "C4"}
        assert set(cand.rule.right_categories) == {"C2", "C3"}
        assert cand.cost == pytest.approx(10.0, rel=1e-9)
        assert (cand.n_left, cand.n_right) == (3, 3)
    assert qubo.trace is not None and qubo.trace.converged


def test_observed_codes_with_gaps_map_to_their_labels():
    # Codes {1, 4, 7} of a 9-label schema against the same rows on 3 labels.
    y = np.array([5.0, 5.5, 0.0, 0.5, 1.0, 6.0, 6.5, 4.5])
    dense = np.array([0, 0, 1, 1, 1, 2, 2, 0])
    labels = ("L1", "L4", "L7")
    sparse = np.array([1, 4, 7])[dense]
    wide = ColumnSchema("c", "categorical", tuple(f"L{i}" for i in range(9)))
    narrow = ColumnSchema("c", "categorical", labels)
    for splitter in (
        best_categorical_split_qubo,
        best_categorical_split_exhaustive,
        best_categorical_split_greedy,
    ):
        cand = splitter(y, sparse, wide)
        assert cand.rule == splitter(y, dense, narrow).rule
        assert cand.rule.left_categories == ("L4",)
        assert cand.rule.right_categories == ("L1", "L7")

    aggs, node = aggregate_categories(sparse, y, 9)
    assert aggs.index.tolist() == [1, 4, 7]
    assert node.n == len(y)
    for values in (aggs.index, aggs.n, aggs.sum, aggs.sum_sq):
        with pytest.raises(ValueError):
            values[0] = 0


def test_canonical_orientation_smallest_mean_left():
    # Categories with means 100 and 1: the low-mean one must sit left.
    codes = np.array([0, 0, 1, 1])
    y = np.array([100.0, 102.0, 1.0, 3.0])
    column = ColumnSchema("c", "categorical", ("hi", "lo"))
    for cand in (
        best_categorical_split_qubo(y, codes, column),
        best_categorical_split_exhaustive(y, codes, column),
        best_categorical_split_greedy(y, codes, column),
    ):
        assert cand.rule.left_categories == ("lo",)
        assert cand.rule.right_categories == ("hi",)


def test_exhaustive_m2_unique_partition():
    codes = np.array([0, 1, 1])
    y = np.array([5.0, 1.0, 2.0])
    column = ColumnSchema("c", "categorical", ("a", "b"))
    cand = best_categorical_split_exhaustive(y, codes, column)
    assert set(cand.rule.left_categories) in ({"a"}, {"b"})
    assert cand.cost == pytest.approx(0.5)


def test_exhaustive_symmetric_tie_lexicographic():
    # Identical category distributions: every partition costs the same; the
    # canonical answer keeps the first category on the left.
    codes = np.repeat(np.arange(4), 2)
    y = np.tile([0.0, 2.0], 4)
    column = ColumnSchema("c", "categorical", ("a", "b", "c", "d"))
    cand = best_categorical_split_exhaustive(y, codes, column)
    assert cand.rule.left_categories == ("a",)


def test_unseen_category_dropped():
    # Category "mid" never occurs: the rule mentions only observed labels.
    codes = np.array([0, 0, 2, 2])
    y = np.array([0.0, 1.0, 10.0, 11.0])
    column = ColumnSchema("c", "categorical", ("low", "mid", "high"))
    cand = best_categorical_split_qubo(y, codes, column)
    assert set(cand.rule.left_categories) == {"low"}
    assert set(cand.rule.right_categories) == {"high"}


def test_triple_agreement_random():
    rng = np.random.default_rng(50)
    for _ in range(30):
        codes, y, m = random_category_instance(rng, max_m=10, max_n=120)
        column = ColumnSchema("c", "categorical", tuple(f"k{i}" for i in range(m)))
        qubo = best_categorical_split_qubo(y, codes, column)
        exhaustive = best_categorical_split_exhaustive(y, codes, column)
        greedy = best_categorical_split_greedy(y, codes, column)
        best_cost, _, _ = brute_force_best(codes, y, m)
        for cand in (qubo, exhaustive, greedy):
            assert cand.cost == pytest.approx(best_cost, rel=1e-9)
        if qubo.rule.left_categories != exhaustive.rule.left_categories:
            assert qubo.cost == pytest.approx(exhaustive.cost, rel=1e-9)


def test_candidate_cost_bounded_by_parent():
    # Splitting can never increase the weighted variance: 0 <= cost <= n * Var.
    rng = np.random.default_rng(52)
    for _ in range(20):
        codes, y, m = random_category_instance(rng, max_m=9, max_n=100)
        column = ColumnSchema("c", "categorical", tuple(f"k{i}" for i in range(m)))
        parent = float(np.sum((y - y.mean()) ** 2))
        for cand in (
            best_categorical_split_qubo(y, codes, column),
            best_categorical_split_exhaustive(y, codes, column),
            best_categorical_split_greedy(y, codes, column),
        ):
            assert 0.0 <= cand.cost <= parent * (1 + 1e-12)
            assert cand.n_left + cand.n_right == len(y)
            assert cand.n_left >= 1 and cand.n_right >= 1


def test_greedy_worked_example(worked_node):
    codes, y, column = worked_node
    cand = best_categorical_split_greedy(y, codes, column)
    # Means (1, 10, 13, 1): sorted C1, C4, C2, C3; best prefix {C1, C4}.
    assert set(cand.rule.left_categories) == {"C1", "C4"}
    assert cand.cost == pytest.approx(10.0)


def test_datagen_brand_isolates_luxury(datagen_10k):
    column = datagen_10k.schema_for("Brand")
    y = datagen_10k.response
    codes = datagen_10k.column("Brand")
    luxury = {"Audi", "BMW", "Mercedes"}
    for cand in (
        best_categorical_split_qubo(y, codes, column),
        best_categorical_split_exhaustive(y, codes, column),
        best_categorical_split_greedy(y, codes, column),
    ):
        assert set(cand.rule.right_categories) == luxury
        assert set(cand.rule.left_categories) == set(column.categories) - luxury


def test_numeric_split_monotone():
    x = np.arange(1.0, 11.0)
    y = x.copy()
    cand = best_numeric_split(y, x, "x")
    assert cand.rule.threshold == pytest.approx(5.5)
    assert cand.cost == pytest.approx(
        direct_split_cost(y[x < 5.5], y[x >= 5.5])
    )
    assert (cand.n_left, cand.n_right) == (5, 5)


def test_numeric_split_constant_errors():
    with pytest.raises(ValueError):
        best_numeric_split(np.array([1.0, 2.0]), np.array([3.0, 3.0]), "x")


def test_numeric_split_binary_column():
    x = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 5.0, 6.0, 7.0])
    cand = best_numeric_split(y, x, "HasClaim")
    assert cand.rule.threshold == pytest.approx(0.5)


def test_numeric_split_matches_naive_scan():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(5, 50))
        x = rng.normal(0, 1, size=n).round(1)  # duplicates likely
        y = rng.normal(0, 10, size=n)
        if np.min(x) == np.max(x):
            continue
        cand = best_numeric_split(y, x, "x")
        best = None
        for t in sorted(set((a + b) / 2 for a, b in zip(sorted(x)[:-1], sorted(x)[1:]) if a < b)):
            cost = direct_split_cost(y[x < t], y[x >= t])
            if best is None or cost < best - 1e-12:
                best = cost
        assert cand.cost == pytest.approx(best, rel=1e-9)


def test_numeric_split_tie_breaks_to_smallest_threshold():
    # Symmetric data: thresholds 1.5 and 2.5 tie; the smaller one wins.
    x = np.array([1.0, 2.0, 2.0, 3.0])
    y = np.array([0.0, 5.0, 5.0, 10.0])
    cand = best_numeric_split(y, x, "x")
    assert cand.rule.threshold == pytest.approx(1.5)


def test_numeric_split_min_bucket():
    x = np.arange(10.0)
    y = np.arange(10.0) ** 2
    cand = best_numeric_split(y, x, "x", min_bucket=4)
    assert min(cand.n_left, cand.n_right) >= 4
    # Only the cut 4|5 between distinct values exists; it leaves 4 rows left.
    x = np.array([0.0] * 4 + [1.0] * 6)
    assert best_numeric_split(y, x, "x", min_bucket=5) is None


def _dataset(columns, response):
    schema = []
    arrays = {}
    for name, kind, values in columns:
        if kind == "categorical":
            labels = tuple(dict.fromkeys(values))
            schema.append(ColumnSchema(name, "categorical", labels))
            arrays[name] = np.array([labels.index(v) for v in values], dtype=np.int64)
        else:
            schema.append(ColumnSchema(name, kind))
            arrays[name] = np.asarray(values, dtype=np.float64)
    return Dataset(tuple(schema), arrays, np.asarray(response, dtype=np.float64))


def test_best_split_prefers_separating_column():
    data = _dataset(
        [
            ("noise", "numeric", [0.3, 0.1, 0.4, 0.15, 0.9, 0.2]),
            ("HasClaim", "binary", [0, 0, 0, 1, 1, 1]),
        ],
        [0.0, 0.0, 0.0, 10.0, 11.0, 12.0],
    )
    cand = best_split(data, np.arange(6), min_bucket=1)
    assert cand.rule.variable == "HasClaim"
    assert cand.rule.threshold == pytest.approx(0.5)


def test_best_split_single_row_none():
    data = _dataset([("x", "numeric", [1.0])], [2.0])
    assert best_split(data, np.arange(1)) is None


def test_best_split_worked_column(worked_dataset):
    cand = best_split(worked_dataset, np.arange(6), min_bucket=1)
    assert cand.rule.variable == "Color"
    assert set(cand.rule.left_categories) == {"C1", "C4"}


def test_best_split_min_bucket_drops_categorical():
    # Best subset isolates a single row; with min_bucket=2 nothing is left.
    data = _dataset(
        [("c", "categorical", ["a", "a", "a", "b"])],
        [1.0, 1.1, 0.9, 50.0],
    )
    assert best_split(data, np.arange(4), min_bucket=2) is None
    assert best_split(data, np.arange(4), min_bucket=1) is not None


def test_optimum_in_second_enumeration_chunk():
    # At M=18 the optimum (1, 1, 0, ..., 0) is row 2^16 of the lex order,
    # so it lies past the first enumeration chunk.
    rng = np.random.default_rng(60)
    m = 18
    means = np.concatenate([[100.0, 100.0], rng.uniform(0.0, 5.0, size=m - 2)])
    codes = np.repeat(np.arange(m), 3)
    y = means[codes] + rng.normal(0.0, 0.5, size=len(codes))
    aggs, node = aggregate_categories(codes, y, m)
    problem = build_qubo(build_v_matrix(aggs), aggs, node, lambda_upper_bound(node))
    assert solve_exhaustive(problem).q == (1, 1) + (0,) * (m - 2)

    column = ColumnSchema("c", "categorical", tuple(f"L{i:02d}" for i in range(m)))
    for cand in (
        best_categorical_split_exhaustive(y, codes, column),
        best_categorical_split_qubo(y, codes, column),
    ):
        assert cand.rule.right_categories == ("L00", "L01")


def test_best_split_skips_constant_and_oversized_columns():
    many = [f"L{i:02d}" for i in range(splitting.EXHAUSTIVE_MAX_CATEGORIES + 1)]
    n = len(many)
    data = _dataset(
        [
            ("flat", "numeric", [1.0] * n),
            ("wide", "categorical", many),
            ("x", "numeric", list(range(n))),
        ],
        [float(i % 2) for i in range(n)],
    )
    assert best_split(data, np.arange(n), method="exhaustive").rule.variable == "x"
    assert best_split(data, np.arange(n), method="greedy").rule.variable == "wide"


def test_best_split_propagates_splitter_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("splitter bug")

    monkeypatch.setattr(splitting, "best_numeric_split", broken)
    data = _dataset([("x", "numeric", [0.0, 1.0, 2.0])], [0.0, 1.0, 5.0])
    with pytest.raises(ValueError, match="splitter bug"):
        best_split(data, np.arange(3))
