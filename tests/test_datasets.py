import csv
import os
import tempfile
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubotree import (
    ColumnSchema,
    DataError,
    Dataset,
    SplitSpecification,
    datasets,
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


def _row_wise_finite(path, name, values):
    arr = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr))
    if len(bad):
        raise DataError(f"{path}: row {bad[0]}: non-finite value {values[bad[0]]!r} in {name!r}")
    return arr


def row_wise_load_csv(path, schema, response_column):
    """The reference loader: every cell converted and checked in a Python loop, one row at a time."""
    with datasets._read_csv(path) as (header, reader):
        positions = {name: i for i, name in enumerate(header)}
        for col in schema:
            if col.name not in positions:
                raise DataError(f"{path}: header is missing schema column {col.name!r}")
        if response_column is not None and response_column not in positions:
            raise DataError(f"{path}: header is missing response column {response_column!r}")

        raw = {col.name: [] for col in schema}
        codes = {col.name: {} for col in schema if col.kind == "categorical"}
        cat_order = {col.name: [] for col in schema if col.kind == "categorical"}
        response = [] if response_column is not None else None

        for row_idx, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_idx}: expected {len(header)} cells, got {len(row)}")
            for col in schema:
                cell = row[positions[col.name]]
                if cell == "":
                    raise DataError(f"{path}: row {row_idx}: missing value in {col.name!r}")
                if col.kind == "categorical":
                    table = codes[col.name]
                    if cell not in table:
                        table[cell] = len(table)
                        cat_order[col.name].append(cell)
                    raw[col.name].append(table[cell])
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {row_idx}: non-numeric cell {cell!r} in {col.name!r}"
                        ) from None
                    if col.kind == "binary" and value not in (0.0, 1.0):
                        raise DataError(
                            f"{path}: row {row_idx}: binary column {col.name!r} got {cell!r}"
                        )
                    raw[col.name].append(value)
            if response is not None:
                cell = row[positions[response_column]]
                try:
                    response.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_idx}: non-numeric response {cell!r}"
                    ) from None

    n = len(next(iter(raw.values()))) if raw else (len(response) if response else 0)
    if n == 0:
        raise DataError(f"{path}: no data rows")

    final_schema = []
    columns = {}
    for col in schema:
        if col.kind == "categorical":
            final_schema.append(ColumnSchema(col.name, "categorical", tuple(cat_order[col.name])))
            columns[col.name] = np.asarray(raw[col.name], dtype=np.int64)
        else:
            final_schema.append(col)
            columns[col.name] = _row_wise_finite(path, col.name, raw[col.name])
    resp = None if response is None else _row_wise_finite(path, response_column, response)
    if resp is not None:
        with np.errstate(over="ignore"):
            if not np.isfinite(resp @ resp):
                raise DataError(f"{path}: the sum of squares of {response_column!r} overflows float64")
    return Dataset(tuple(final_schema), columns, resp, response_column or "y")


# Cells each kind accepts, with the ones where Python's float() and numpy's
# string parsing differ (underscores, surrounding space, a signed zero).
GOOD_CELLS = {
    "numeric": st.one_of(
        st.sampled_from(["0", "2.5", " 1.5", "-0.0", "1_000", "1e3", "7 ", "-3.25", "5e-324"]),
        st.floats(-1e9, 1e9).map(repr),
    ),
    "binary": st.sampled_from(["0", "1", "1.0", "-0.0", " 0", "0e0"]),
    "categorical": st.sampled_from(["a", "b", "c", " a", "1", "\u00e9", "nan"]),
}
GOOD_CELLS["response"] = GOOD_CELLS["numeric"]
BAD_CELLS = ["", "x", "2", "nan", "inf", "-inf", "1e200"]


@st.composite
def small_csvs(draw):
    """A header-first CSV of 1 to 10 rows, and the schema and response to load it with.

    Up to three cells are replaced by bad ones, and one row may be made
    short, long or blank.
    """
    kinds = draw(st.lists(st.sampled_from(datasets.KINDS), min_size=1, max_size=3))
    schema = [ColumnSchema(f"c{i}", kind) for i, kind in enumerate(kinds)]
    names = [c.name for c in schema]
    at = draw(st.integers(0, len(names)))
    names.insert(at, "Y")
    kinds = kinds[:at] + ["response"] + kinds[at:]
    rows = draw(st.lists(st.tuples(*(GOOD_CELLS[kind] for kind in kinds)).map(list), min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
    fault = draw(st.sampled_from([None, None, None, "short", "long", "blank"]))
    if fault is not None:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = {"short": rows[row][:-1], "long": rows[row] + ["9"], "blank": []}[fault]
    text = "".join(",".join(cells) + "\n" for cells in [names, *rows])
    return text, schema, draw(st.sampled_from(["Y", None]))


def _outcome(loader, path, schema, response):
    try:
        return loader(path, schema, response)
    except DataError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    """Both loads raised one DataError text, or gave one schema and bit-equal arrays."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.schema == want.schema and got.response_name == want.response_name
    for col in want.schema:
        assert got.column(col.name).dtype == want.column(col.name).dtype
        assert got.column(col.name).tobytes() == want.column(col.name).tobytes()
    if want.response is None:
        assert got.response is None
    else:
        assert got.response.dtype == np.float64 and got.response.tobytes() == want.response.tobytes()


def _two_step_load(path, _, response):
    return load_csv(path, infer_schema(path, response), response)


def _one_read_load(path, _, response):
    return load_csv(path, None, response)


@given(small_csvs(), st.integers(1, 3))
def test_block_loader_equals_row_wise_loader(case, block_rows):
    text, schema, response = case
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        want = _outcome(row_wise_load_csv, path, schema, response)
        with mock.patch.object(datasets, "_BLOCK_ROWS", block_rows):
            got = _outcome(load_csv, path, schema, response)
    _assert_same_outcome(got, want)


@given(small_csvs(), st.integers(1, 3))
def test_one_read_equals_the_two_step_load(case, block_rows):
    # Blocks of 1 to 3 rows put kind-widening and bad cells after the block the kinds are sniffed from.
    text, _, response = case
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with mock.patch.object(datasets, "_BLOCK_ROWS", block_rows):
            want = _outcome(_two_step_load, path, None, response)
            got = _outcome(_one_read_load, path, None, response)
    _assert_same_outcome(got, want)


@pytest.mark.parametrize(
    "text, response",
    [
        ("a,b\n1,2\n", "Y"),  # no response column
        ("a,b\n1,2\n3\n", "Y"),  # ... and a short row, which the two-step load reports first
        ("Y\n1\n2\n", "Y"),  # no feature column
        ("a,Y\n", "Y"),  # no rows
        ("a,Y\n", None),
        ("a,Y\n1,2\n", None),
        ("a,Y\n0,1\n1,2\nx,3\n", "Y"),  # a binary-looking column turns categorical
        ("a,Y\n0,1\n1,x\n", "Y"),  # a bad response in a later block
    ],
)
def test_one_read_defers_to_the_two_step_load(tmp_path, text, response):
    path = _write(tmp_path, text)
    with mock.patch.object(datasets, "_BLOCK_ROWS", 1):
        want = _outcome(_two_step_load, path, None, response)
        _assert_same_outcome(_outcome(_one_read_load, path, None, response), want)


def test_one_read_reads_a_well_formed_file_once(tmp_path):
    path = str(tmp_path / "data.csv")
    write_csv(generate_df(600, 4), path)
    want = _two_step_load(path, None, "ClaimAmount")
    with mock.patch.object(datasets, "infer_schema", side_effect=AssertionError("second read")):
        _assert_same_outcome(_one_read_load(path, None, "ClaimAmount"), want)


def test_block_loader_keeps_labels_first_seen_in_a_later_block(tmp_path):
    path = _write(tmp_path, "c,Y\nb,1\nb,2\na,3\nc,4\na,5\n")
    schema = [ColumnSchema("c", "categorical")]
    with mock.patch.object(datasets, "_BLOCK_ROWS", 2):
        data = load_csv(path, schema, "Y")
    assert data.schema[0].categories == ("b", "a", "c")
    assert data.column("c").tolist() == [0, 0, 1, 2, 1]


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


def test_dataset_rejects_a_binary_value_other_than_0_or_1(tmp_path):
    # write_csv would write 0.5 as "0", which reads back changed without an error.
    with pytest.raises(DataError, match=r"column 'b': binary values must be 0 or 1, got 0.5"):
        Dataset((ColumnSchema("b", "binary"),), {"b": np.array([0.5, 1.0])}, np.ones(2))
    for bad in (2.0, -1.0, np.nan, np.inf):
        with pytest.raises(DataError, match="column 'b'"):
            Dataset((ColumnSchema("b", "binary"),), {"b": np.array([1.0, bad])}, np.ones(2))
    ok = Dataset((ColumnSchema("b", "binary"),), {"b": np.array([0.0, 1.0, -0.0])}, np.ones(3))
    write_csv(ok, str(tmp_path / "ok.csv"))
    assert (tmp_path / "ok.csv").read_text(encoding="utf-8") == "b,y\n0,1.0\n1,1.0\n0,1.0\n"


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


def test_loading_holds_one_block_of_text(tmp_path):
    # README's memory limit: one block of rows as text, with an explicit schema and without.
    path = str(tmp_path / "data.csv")
    write_csv(generate_df(40, 4), path)
    blocks, convert, live, counts = datasets._blocks, datasets._convert_block, [], []

    class Rows(list):
        pass  # a list that takes a weak reference

    def tracked_blocks(reader, width):
        for start, rows, columns in blocks(reader, width):
            rows = Rows(rows)
            live.append(weakref.ref(rows))
            yield start, rows, columns

    def counted_convert(*args):
        counts.append(sum(ref() is not None for ref in live))
        return convert(*args)

    with mock.patch.object(datasets, "_BLOCK_ROWS", 4), mock.patch.object(datasets, "_blocks", tracked_blocks), \
            mock.patch.object(datasets, "_convert_block", counted_convert):
        for schema in (None, infer_schema(path, "ClaimAmount")):
            load_csv(path, schema, "ClaimAmount")
    assert counts == [1] * 20


def row_wise_write_csv(data, path):
    """The reference writer: ``csv.writer`` writing one decoded row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        columns = [(col, data.column(col.name)) for col in data.schema]
        response = [] if data.response is None else [data.response_name]
        writer.writerow([col.name for col, _ in columns] + response)
        for i in range(data.n_rows):
            row = []
            for col, values in columns:
                if col.kind == "categorical":
                    row.append(col.categories[int(values[i])])
                elif col.kind == "binary":
                    row.append(str(int(values[i])))
                else:
                    row.append(repr(float(values[i])))
            if data.response is not None:
                row.append(repr(float(data.response[i])))
            writer.writerow(row)


# Label pieces: CSV's delimiter, quote and line ends, a leading space, non-ASCII text. A lone
# "\r" is left to the round trip: csv.writer with a "\n" line end does not quote it.
LABEL_PIECES = ["a", "b", " ", ",", '"', "\n", "\r\n", "\u00e9", "\u4e2d"]
EXTREME_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def datasets_to_write(draw, pieces=LABEL_PIECES, min_rows=1, empty_label=False):
    """A Dataset of 1 to 3 feature columns, with or without a response."""
    kinds = draw(st.lists(st.sampled_from(datasets.KINDS), min_size=1, max_size=3))
    n = draw(st.integers(min_rows, 12))
    label = st.lists(st.sampled_from(pieces), min_size=0 if empty_label else 1, max_size=4).map("".join)
    schema, columns = [], {}
    for i, kind in enumerate(kinds):
        name = f"c{i}"
        if kind == "categorical":
            labels = tuple(draw(st.lists(label, min_size=1, max_size=4, unique=True)))
            codes = draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
            schema.append(ColumnSchema(name, kind, labels))
            # Whole-number float codes are valid codes too.
            columns[name] = np.array(codes, dtype=draw(st.sampled_from([np.int64, np.float64])))
            continue
        cells = st.sampled_from([0.0, 1.0, -0.0]) if kind == "binary" else st.one_of(
            st.sampled_from(EXTREME_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
        schema.append(ColumnSchema(name, kind))
        columns[name] = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    response = None
    if draw(st.booleans()):
        # Bounded so that the response's sum of squares stays finite, as loading requires.
        cells = st.one_of(st.sampled_from([-0.0, 5e-324]), st.floats(-1e100, 1e100))
        response = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    return Dataset(tuple(schema), columns, response, "Y")


@given(datasets_to_write(min_rows=0, empty_label=True))
def test_write_csv_writes_what_csv_writer_writes(data):
    with tempfile.TemporaryDirectory() as workdir:
        got, want = os.path.join(workdir, "got.csv"), os.path.join(workdir, "want.csv")
        with mock.patch.object(datasets, "_WRITE_ROWS", 5):
            write_csv(data, got)
        row_wise_write_csv(data, want)
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


def test_write_csv_quotes_a_lone_carriage_return(tmp_path):
    # csv.writer with a "\n" line end leaves "a\rb" bare, and csv.reader splits the row at the \r.
    path = str(tmp_path / "data.csv")
    data = Dataset((ColumnSchema("c", "categorical", ("a\rb",)),), {"c": np.zeros(2, dtype=np.int64)}, np.ones(2))
    write_csv(data, path)
    assert open(path, "rb").read() == b'c,y\n"a\rb",1.0\n"a\rb",1.0\n'


@given(datasets_to_write(pieces=LABEL_PIECES + ["\r"]))
def test_write_then_load_round_trips(data):
    schema = [ColumnSchema(col.name, col.kind) for col in data.schema]
    response = None if data.response is None else "Y"
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "data.csv")
        with mock.patch.object(datasets, "_WRITE_ROWS", 5):
            write_csv(data, path)
        back = load_csv(path, schema, response)
    assert back.n_rows == data.n_rows
    for col in data.schema:
        got, want = back.column(col.name), data.column(col.name)
        if col.kind == "categorical":
            labels = back.schema_for(col.name).categories
            assert [labels[code] for code in got] == [col.categories[int(code)] for code in want]
        elif col.kind == "binary":
            assert np.array_equal(got, want)
        else:
            assert got.tobytes() == want.tobytes()
    if response is None:
        assert back.response is None
    else:
        assert back.response.tobytes() == data.response.tobytes()


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
    _assert_same_outcome(load_csv(path, None, "Y"), data)
    # A 2 after n binary-looking cells makes the column numeric.
    rows = "".join(f"{i % 2},{i}\n" for i in range(n)) + "2,1\n"
    late = _write(tmp_path, "b,Y\n" + rows, "late.csv")
    assert infer_schema(late, "Y") == [ColumnSchema("b", "numeric")]
    assert load_csv(late, None, "Y").schema == (ColumnSchema("b", "numeric"),)


def test_infer_schema_reports_a_short_row_like_load_csv(tmp_path):
    # A blank line is a row of no cells; auto-sniffing must not read past it.
    path = _write(tmp_path, "a,b,Y\n1,x,2\n2,y,3\n\n3,z,4\n")
    message = "row 2: expected 3 cells, got 0"
    with pytest.raises(DataError, match=message):
        infer_schema(path, "Y")
    with pytest.raises(DataError, match=message):
        load_csv(path, [ColumnSchema("a", "numeric"), ColumnSchema("b", "categorical")], "Y")
    with pytest.raises(DataError, match=message):
        load_csv(path, None, "Y")


def test_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path):
    text = "c,x,Y\na,1,2\nb,2,3\na,3,5\n"
    plain = _write(tmp_path, text)
    marked = tmp_path / "marked.csv"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    schema = infer_schema(plain, "Y")
    assert infer_schema(str(marked), "Y") == schema
    want, got = load_csv(plain, schema, "Y"), load_csv(str(marked), schema, "Y")
    assert got.schema == want.schema and got.schema[0].name == "c"
    for name in ("c", "x"):
        assert np.array_equal(got.column(name), want.column(name))
    assert np.array_equal(got.response, want.response)


def test_header_naming_a_column_twice_is_rejected(tmp_path):
    path = _write(tmp_path, "a,b,a,Y\n1,2,3,4\n")
    with pytest.raises(DataError, match="header names column 'a' more than once"):
        infer_schema(path, "Y")
    with pytest.raises(DataError, match="header names column 'a' more than once"):
        load_csv(path, [ColumnSchema("b", "numeric")], "Y")
    with pytest.raises(DataError, match="header names column 'a' more than once"):
        load_csv(path, None, "Y")


@pytest.mark.parametrize(
    "schema, message",
    [
        ([ColumnSchema("a", "numeric"), ColumnSchema("a", "categorical")], "the schema names column 'a' more than once"),
        ([ColumnSchema("a", "numeric"), ColumnSchema("Y", "numeric")],
         "the schema lists the response column 'Y' as a feature"),
    ],
    ids=("repeated", "response"),
)
def test_schema_naming_a_column_twice_or_the_response_is_rejected(tmp_path, schema, message):
    path = _write(tmp_path, "a,Y\n1,2\n")
    with pytest.raises(DataError, match=message):
        load_csv(path, schema, "Y")


def test_field_over_the_tokenizer_limit_names_the_line(tmp_path):
    path = _write(tmp_path, "a,Y\n1,2\n" + "x" * 131073 + ",3\n")
    with pytest.raises(DataError, match=r"data.csv: line 3: field larger than field limit"):
        load_csv(path, [ColumnSchema("a", "categorical")], "Y")


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


def test_dataset_rejects_categorical_codes_outside_its_labels():
    # Code 2 has no label: a split search over two 4-row segments would count
    # it in the next segment's cells, and grow would index past the labels.
    schema = (ColumnSchema("c", "categorical", ("a", "b")),)
    y = np.arange(8, dtype=np.float64)
    for codes in ([0, 1, 2, 2, 0, 1, 1, 0], [0, 1, -1, 1, 0, 1, 1, 0]):
        with pytest.raises(DataError, match="column 'c': codes must lie in \\[0, 2\\)"):
            Dataset(schema, {"c": np.array(codes, dtype=np.int64)}, y)
    empty = Dataset((ColumnSchema("c", "categorical"),), {"c": np.zeros(0, dtype=np.int64)}, np.zeros(0))
    assert empty.n_rows == 0
