import numpy as np
import pytest

from qubotree import (
    ColumnSchema,
    DataError,
    SplitSpecification,
    infer_schema,
    load_csv,
    parse_schema,
    partition,
    write_csv,
)
from qubotree.generators import generate_df


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "Color,Y\nred,1.5\nblue,2\nred,3\n")
    data = load_csv(path, [ColumnSchema("Color", "categorical")], "Y")
    assert data.n_rows == 3
    assert data.schema[0].categories == ("red", "blue")
    assert np.array_equal(data.column("Color"), [0, 1, 0])
    assert np.array_equal(data.response, [1.5, 2.0, 3.0])


def test_load_csv_bad_response_names_row(tmp_path):
    path = _write(tmp_path, "Color,Y\nred,1\nblue,abc\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path, [ColumnSchema("Color", "categorical")], "Y")


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/never.csv", [ColumnSchema("x", "numeric")], "Y")


def test_load_csv_schema_mismatch(tmp_path):
    path = _write(tmp_path, "A,Y\n1,2\n")
    with pytest.raises(DataError, match="missing schema column"):
        load_csv(path, [ColumnSchema("B", "numeric")], "Y")


def test_load_csv_empty(tmp_path):
    path = _write(tmp_path, "A,Y\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path, [ColumnSchema("A", "numeric")], "Y")


def test_load_csv_missing_value_rejected(tmp_path):
    path = _write(tmp_path, "A,Y\n,1\n")
    with pytest.raises(DataError, match="missing value"):
        load_csv(path, [ColumnSchema("A", "numeric")], "Y")


@pytest.mark.parametrize(
    "rows, message",
    [
        ("b,2,1\na,nan,2\n", "row 1: non-finite value nan in 'x'"),
        ("b,-inf,1\na,2,2\n", "row 0: non-finite value -inf in 'x'"),
        ("b,2,1\na,3,2\nb,4,nan\n", "row 2: non-finite value nan in 'Y'"),
        ("b,2,1\na,3,Infinity\n", "row 1: non-finite value inf in 'Y'"),
    ],
)
def test_load_csv_rejects_non_finite_numbers(tmp_path, rows, message):
    path = _write(tmp_path, "c,x,Y\n" + rows)
    schema = [ColumnSchema("c", "categorical"), ColumnSchema("x", "numeric")]
    with pytest.raises(DataError, match=message):
        load_csv(path, schema, "Y")


@pytest.mark.parametrize("row, got", [("a,1", 2), ("a,1,2,9", 4)])
def test_load_csv_rejects_row_width_mismatch(tmp_path, row, got):
    path = _write(tmp_path, f"c,x,Y\nb,0,1\n{row}\n")
    schema = [ColumnSchema("c", "categorical"), ColumnSchema("x", "numeric")]
    with pytest.raises(DataError, match=f"row 1: expected 3 cells, got {got}"):
        load_csv(path, schema, "Y")


def test_load_csv_rejects_overflowing_response_squares(tmp_path):
    path = _write(tmp_path, "c,x,Y\na,1,1e200\nb,2,1\na,3,2\nb,4,3e200\n")
    schema = [ColumnSchema("c", "categorical"), ColumnSchema("x", "numeric")]
    with pytest.raises(DataError, match="sum of squares of 'Y' overflows"):
        load_csv(path, schema, "Y")
    # Cells this large are fine anywhere else.
    data = load_csv(path, schema[:1] + [ColumnSchema("Y", "numeric")], "x")
    assert data.column("Y")[3] == 3e200


def test_load_csv_binary_validation(tmp_path):
    path = _write(tmp_path, "A,Y\n2,1\n")
    with pytest.raises(DataError, match="binary"):
        load_csv(path, [ColumnSchema("A", "binary")], "Y")


def test_load_csv_precomputed_ratio_response(tmp_path):
    # Response supplied as a precomputed per-exposure column.
    path = _write(
        tmp_path,
        "Exposure,VehBody,ClaimAmount,Y\n0.5,sedan,100,200\n1.0,van,30,30\n",
    )
    schema = [ColumnSchema("Exposure", "numeric"), ColumnSchema("VehBody", "categorical")]
    data = load_csv(path, schema, "Y")
    assert np.array_equal(data.response, [200.0, 30.0])
    assert data.schema[1].categories == ("sedan", "van")


def test_round_trip_write_load(tmp_path):
    data = generate_df(50, 11)
    path = str(tmp_path / "out.csv")
    write_csv(data, path)
    schema = [ColumnSchema(c.name, c.kind) for c in data.schema]
    back = load_csv(path, schema, "ClaimAmount")
    assert back.n_rows == 50
    assert np.array_equal(back.response, data.response)
    assert np.array_equal(back.column("Mileage_km"), data.column("Mileage_km"))


def test_parse_and_infer_schema(tmp_path):
    cols = parse_schema("a:numeric,b:categorical,c:binary")
    assert [(c.name, c.kind) for c in cols] == [
        ("a", "numeric"),
        ("b", "categorical"),
        ("c", "binary"),
    ]
    for spec in ("x:numeric", "x: numeric", "x : numeric", "x :numeric", " x:numeric ", "x\t:\tnumeric"):
        assert parse_schema(spec) == [ColumnSchema("x", "numeric")]
    for spec in ("a:wat", "a: wat", " :numeric", "a:numeric:binary", "a"):
        with pytest.raises(DataError):
            parse_schema(spec)
    path = _write(tmp_path, "a,b,c,Y\n1.5,red,0,2\n2.5,blue,1,3\n")
    inferred = {c.name: c.kind for c in infer_schema(path, "Y")}
    assert inferred == {"a": "numeric", "b": "categorical", "c": "binary"}


@pytest.mark.parametrize("n", [80, 5000])
def test_infer_schema_reads_every_cell(tmp_path, n):
    # n distinct numeric labels, then one that is not a number: categorical.
    rows = "".join(f"{i},{i % 2},{i}.5\n" for i in range(n)) + "abc,1,2\n"
    path = _write(tmp_path, "c,b,Y\n" + rows)
    assert [(c.name, c.kind) for c in infer_schema(path, "Y")] == [("c", "categorical"), ("b", "binary")]
    data = load_csv(path, infer_schema(path, "Y"), "Y")
    assert data.schema[0].categories[-1] == "abc"
    # A 2 after n binary-looking cells makes the column numeric.
    rows = "".join(f"{i % 2},{i}\n" for i in range(n)) + "2,1\n"
    assert infer_schema(_write(tmp_path, "b,Y\n" + rows, "late.csv"), "Y") == [ColumnSchema("b", "numeric")]


def test_partition_sizes_exact():
    data = generate_df(100, 1)
    spec = SplitSpecification((0.5, 0.25, 0.25), 1)
    train, val, test = partition(data, spec)
    assert (train.n_rows, val.n_rows, test.n_rows) == (50, 25, 25)


def test_partition_remainder_to_train():
    data = generate_df(101, 1)
    train, val, test = partition(data, SplitSpecification((0.5, 0.25, 0.25), 1))
    assert (train.n_rows, val.n_rows, test.n_rows) == (51, 25, 25)


def test_partition_deterministic_and_disjoint():
    data = generate_df(60, 2)
    spec = SplitSpecification(seed=9)
    a = partition(data, spec)
    b = partition(data, spec)
    for part_a, part_b in zip(a, b):
        assert np.array_equal(part_a.response, part_b.response)
    # Disjoint cover: responses multiset equals the original.
    joined = np.concatenate([p.response for p in a])
    assert np.array_equal(np.sort(joined), np.sort(data.response))
    assert sum(p.n_rows for p in a) == 60


def test_partition_seed_changes_assignment():
    data = generate_df(60, 2)
    a = partition(data, SplitSpecification(seed=1))[0]
    b = partition(data, SplitSpecification(seed=2))[0]
    assert not np.array_equal(a.response, b.response)


def test_partition_requires_four_rows():
    data = generate_df(3, 1)
    with pytest.raises(DataError):
        partition(data, SplitSpecification())


def test_split_specification_validation():
    with pytest.raises(DataError):
        SplitSpecification((0.5, 0.5, 0.25))
    with pytest.raises(DataError):
        SplitSpecification((0.5, -0.25, 0.75))
    with pytest.raises(DataError, match="nan"):  # NaN is not <= 0 either
        SplitSpecification((float("nan"), 0.5, 0.5))


def test_dataset_immutable():
    data = generate_df(5, 1)
    with pytest.raises(ValueError):
        data.response[0] = 1.0
    with pytest.raises(ValueError):
        data.column("Mileage_km")[0] = 0.0
