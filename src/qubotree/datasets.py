"""Typed tabular datasets: schema, CSV ingestion, and deterministic splits."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import NoReturn, Optional, Sequence

import numpy as np

from .rng import Rng, derive_seed

KINDS = ("numeric", "categorical", "binary")

# Rows converted together by load_csv. Each row is a new list, and a block
# of 256 stays under the garbage collector's default first-generation
# threshold (700 net new containers): loading 200k rows ran 1 collection,
# against 356 with 512-row blocks, which measured about 13% slower.
_BLOCK_ROWS = 256

# Rows formatted and written together by write_csv. Writing datagen's 200k
# rows on 2 vCPUs, chunks of 4096 took 0.24-0.29 s and peaked 1.5 MB above
# the loaded data; chunks of 32768 took 0.29-0.31 s and peaked 7.4 MB above.
_WRITE_ROWS = 1 << 12


class DataError(ValueError):
    """Raised for malformed schemas, files, or rows."""


@dataclass(frozen=True)
class ColumnSchema:
    """One feature column: ``kind`` is numeric, categorical, or binary.

    ``categories`` lists the category labels of a categorical column in
    first-appearance order; empty for other kinds.
    """

    name: str
    kind: str
    categories: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind != "categorical" and self.categories:
            raise DataError(f"column {self.name!r}: only categorical columns take categories")
        if len(set(self.categories)) != len(self.categories):
            raise DataError(f"column {self.name!r}: duplicate category labels")


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset with a numeric response.

    Numeric and binary columns hold float64 values, a binary one only 0s and
    1s; categorical columns hold int64 codes indexing into their schema's
    ``categories``. ``response`` is None only for prediction-only frames.
    """

    schema: tuple
    columns: dict = field(repr=False)
    response: Optional[np.ndarray] = field(default=None, repr=False)
    response_name: str = "y"

    def __post_init__(self):
        n = self.n_rows
        for col in self.schema:
            arr = self.columns[col.name]
            if len(arr) != n:
                raise DataError(f"column {col.name!r}: length {len(arr)} != {n}")
            if col.kind == "categorical" and n and (arr.min() < 0 or arr.max() >= len(col.categories)):
                raise DataError(f"column {col.name!r}: codes must lie in [0, {len(col.categories)})")
            if col.kind == "binary":
                bad = np.flatnonzero((arr != 0) & (arr != 1))
                if len(bad):
                    raise DataError(f"column {col.name!r}: binary values must be 0 or 1, got {arr[bad[0]].item()!r}")
            arr.flags.writeable = False
        if self.response is not None:
            if len(self.response) != n:
                raise DataError("response length does not match row count")
            self.response.flags.writeable = False

    @property
    def n_rows(self) -> int:
        first = self.schema[0].name if self.schema else None
        if first is not None:
            return len(self.columns[first])
        return 0 if self.response is None else len(self.response)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def schema_for(self, name: str) -> ColumnSchema:
        for col in self.schema:
            if col.name == name:
                return col
        raise DataError(f"no column named {name!r}")

    def subset(self, indices: np.ndarray) -> "Dataset":
        cols = {c.name: self.columns[c.name][indices].copy() for c in self.schema}
        resp = None if self.response is None else self.response[indices].copy()
        return Dataset(self.schema, cols, resp, self.response_name)

    def row(self, i: int) -> dict:
        """Row as a label-valued mapping (categorical codes decoded)."""
        out = {}
        for col in self.schema:
            v = self.columns[col.name][i]
            out[col.name] = col.categories[int(v)] if col.kind == "categorical" else float(v)
        return out


@dataclass(frozen=True)
class SplitSpecification:
    """Train/validation/test fractions plus the shuffling seed."""

    fractions: tuple = (0.5, 0.25, 0.25)
    seed: int = 0

    def __post_init__(self):
        if len(self.fractions) != 3 or not all(f > 0 for f in self.fractions):  # a NaN fails too
            raise DataError(f"fractions must be three positive numbers, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-12:
            raise DataError("fractions must sum to 1")


@contextmanager
def _read_csv(path: str):
    """Open a UTF-8 CSV and yield its header and a reader over the remaining rows.

    An unreadable, empty or non-UTF-8 file, a header that names a column
    twice, and a line the tokenizer rejects (such as a field longer than
    ``csv.field_size_limit()``) raise DataError naming the path.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            _no_repeats(header, f"{path}: header")
            yield header, reader
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _no_repeats(names, where: str) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"{where} names column {name!r} more than once")
        seen.add(name)


def _blocks(reader, width: int):
    """The reader's rows in blocks of up to ``_BLOCK_ROWS``, as (first row index, rows, columns).

    ``columns`` holds the block's cells column by column, or is None when a
    row is not ``width`` cells wide.
    """
    start = 0
    while block := list(islice(reader, _BLOCK_ROWS)):
        columns = list(zip(*block)) if set(map(len, block)) == {width} else None
        yield start, block, columns
        start += len(block)


def parse_schema(spec: str) -> list:
    """Parse ``name:kind,name:kind,...`` into ColumnSchema entries."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = [piece.strip() for piece in part.split(":")]
        if len(pieces) != 2 or not pieces[0] or pieces[1] not in KINDS:
            raise DataError(f"malformed schema entry {part!r} (want name:kind)")
        out.append(ColumnSchema(*pieces))
    if not out:
        raise DataError("empty schema")
    return out


def _sniff(cells, floor: str = "binary") -> str:
    """The narrowest kind, no narrower than ``floor``, that takes every one of ``cells``.

    Kinds widen from binary (each cell is the text 0 or 1) to numeric (each
    parses as a float) to categorical (any cell).
    """
    if floor == "binary" and set(cells) <= {"0", "1"}:
        return "binary"
    if floor != "categorical":
        try:
            list(map(float, cells))
            return "numeric"
        except ValueError:
            pass
    return "categorical"


def infer_schema(path: str, response_column: Optional[str]) -> list:
    """Sniff feature kinds from every cell of a CSV.

    A column whose cells are all 0/1 is binary, one whose cells all parse as
    floats is numeric, and any other is categorical; with no rows every
    column is numeric. A row whose width differs from the header's raises
    DataError naming it.
    """
    with _read_csv(path) as (header, reader):
        kinds = {name: "binary" for name in header if name != response_column}
        has_rows = False
        for start, block, columns in _blocks(reader, len(header)):
            if columns is None:
                _reject_block(path, header, (), None, block, start)
            has_rows = True
            for name, cells in zip(header, columns):
                if name in kinds:
                    kinds[name] = _sniff(cells, kinds[name])
    if not has_rows:
        kinds = dict.fromkeys(kinds, "numeric")
    return [ColumnSchema(name, kind) for name, kind in kinds.items()]


def _reject_block(path: str, header, schema, response_column: Optional[str], rows, start: int) -> NoReturn:
    """Raise the DataError of the first bad row among ``rows``, numbered from ``start``.

    These are the checks one row at a time. They run only on a block that
    failed a column check, so that the message names the first bad row and
    cell; every earlier block passed them all.
    """
    positions = {name: i for i, name in enumerate(header)}
    for row_idx, row in enumerate(rows, start):
        if len(row) != len(header):
            raise DataError(f"{path}: row {row_idx}: expected {len(header)} cells, got {len(row)}")
        for col in schema:
            cell = row[positions[col.name]]
            if cell == "":
                raise DataError(f"{path}: row {row_idx}: missing value in {col.name!r}")
            if col.kind == "categorical":
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {row_idx}: non-numeric cell {cell!r} in {col.name!r}") from None
            if col.kind == "binary" and value not in (0.0, 1.0):
                raise DataError(f"{path}: row {row_idx}: binary column {col.name!r} got {cell!r}")
        if response_column is not None:
            cell = row[positions[response_column]]
            try:
                float(cell)
            except ValueError:
                raise DataError(f"{path}: row {row_idx}: non-numeric response {cell!r}") from None
    raise RuntimeError(f"{path}: rows {start} to {start + len(rows) - 1} failed a column check but no row check")


def _convert_block(columns: list, n: int, fields: list) -> Optional[list]:
    """One block's arrays, one per field, or None if a cell fails a check.

    ``fields`` holds (kind, position, table) triples. A categorical field's
    ``table`` maps its labels to codes, and gains the block's new labels in
    first-appearance order; an empty label fails. Every other field is parsed
    by ``float``, and a binary one must hold only 0s and 1s.
    """
    arrays = []
    for kind, position, table in fields:
        cells = columns[position]
        if kind == "categorical":
            for label in dict.fromkeys(cells):
                table.setdefault(label, len(table))
            if "" in table:
                return None
            arrays.append(np.fromiter(map(table.__getitem__, cells), np.int64, n))
            continue
        try:
            values = np.fromiter(map(float, cells), np.float64, n)
        except ValueError:
            return None
        if kind == "binary" and not ((values == 0) | (values == 1)).all():
            return None
        arrays.append(values)
    return arrays


def _finite(path: str, name: str, values: np.ndarray) -> np.ndarray:
    """``values``, unless one is nan or infinite: that raises DataError naming its row."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise DataError(f"{path}: row {bad[0]}: non-finite value {float(values[bad[0]])!r} in {name!r}")
    return values


def _fields(schema, positions: dict, response_column: Optional[str]):
    """The (kind, position, table) fields of ``_convert_block``, and the categorical columns' tables by name."""
    tables = {col.name: {} for col in schema if col.kind == "categorical"}
    fields = [(col.kind, positions[col.name], tables.get(col.name)) for col in schema]
    if response_column is not None:
        fields.append(("response", positions[response_column], None))
    return fields, tables


def _convert_blocks(blocks, fields: list, binary_text=()):
    """Each field's arrays, one per block, and the first block that failed as (start, rows), or None.

    Conversion stops at the first failed block. A block fails when a row is
    not the header's width, when ``_convert_block`` rejects a cell, or when a
    column at a position in ``binary_text`` holds a cell other than the text
    0 or 1.
    """
    parts = [[] for _ in fields]
    for start, block, columns in blocks:
        arrays = None
        if columns is not None and all(_sniff(columns[i]) == "binary" for i in binary_text):
            arrays = _convert_block(columns, len(block), fields)
        if arrays is None:
            return parts, (start, block)
        for part, values in zip(parts, arrays):
            part.append(values)
    return parts, None


def _dataset(path: str, schema, tables: dict, parts: list, response_column: Optional[str]) -> Dataset:
    """Join the blocks' arrays into a Dataset, after the checks that need whole columns."""
    if not parts or not parts[0]:
        raise DataError(f"{path}: no data rows")
    arrays = [np.concatenate(part) for part in parts]
    final_schema = []
    columns = {}
    for col, values in zip(schema, arrays):
        if col.kind == "categorical":
            final_schema.append(ColumnSchema(col.name, "categorical", tuple(tables[col.name])))
        else:
            final_schema.append(col)
            _finite(path, col.name, values)
        columns[col.name] = values
    resp = None if response_column is None else _finite(path, response_column, arrays[-1])
    if resp is not None:
        with np.errstate(over="ignore"):
            if not np.isfinite(resp @ resp):
                # Every split cost is computed from these squares.
                raise DataError(f"{path}: the sum of squares of {response_column!r} overflows float64")
    return Dataset(tuple(final_schema), columns, resp, response_column or "y")


def _load_sniffed(path: str, response_column: Optional[str]) -> Optional[Dataset]:
    """``load_csv`` under the kinds ``infer_schema`` would find, from one read of the file, or None.

    The kinds are sniffed from the first block, and every block is converted
    under them. None means this read cannot tell the outcome: a later block
    widens a kind, a row or cell fails a check, the header lacks the response
    column, or there are no features or no rows. Every other outcome,
    including a non-finite value or an overflowing response, is the one
    ``load_csv(path, infer_schema(path, response_column), response_column)``
    gives, because that path reads the same blocks under the same kinds.
    """
    with _read_csv(path) as (header, reader):
        positions = {name: i for i, name in enumerate(header)}
        if response_column is not None and response_column not in positions:
            return None
        features = [name for name in header if name != response_column]
        blocks = _blocks(reader, len(header))
        first = next(blocks, None)
        if not features or first is None or first[2] is None:
            return None
        schema = [ColumnSchema(name, _sniff(first[2][positions[name]])) for name in features]
        fields, tables = _fields(schema, positions, response_column)
        binary_text = [positions[col.name] for col in schema if col.kind == "binary"]
        # An exhausted list iterator lets go of its list, and the name is
        # dropped: the first block's text is freed once it is converted.
        blocks, first = chain(iter([first]), blocks), None
        parts, failed = _convert_blocks(blocks, fields, binary_text)
    if failed is not None:
        return None
    return _dataset(path, schema, tables, parts, response_column)


def load_csv(path: str, schema: Optional[Sequence[ColumnSchema]], response_column: Optional[str]) -> Dataset:
    """Load a header-first CSV against ``schema``, or with ``schema=None`` against the kinds it sniffs.

    Categorical category lists are taken in first-appearance order. Missing
    values, unparseable cells and non-finite numbers (``nan``, ``inf``) are
    rejected with the offending row index, and so is a response whose sum of
    squares overflows. A schema that names a column twice, or names the
    response column, is rejected too, and so is an empty schema.
    With ``response_column=None`` the result is a prediction-only frame.

    Rows are converted in blocks of ``_BLOCK_ROWS``, one column at a time.
    ``schema=None`` gives exactly what ``infer_schema`` and then ``load_csv``
    give, Dataset or DataError, but reads the file once unless a block
    contradicts the kinds of the first or fails a check; then the file is
    read again by those two steps.
    """
    if schema is None:
        data = _load_sniffed(path, response_column)
        return data if data is not None else load_csv(path, infer_schema(path, response_column), response_column)
    if not schema:
        raise DataError("empty schema")
    _no_repeats([col.name for col in schema], "the schema")
    if any(col.name == response_column for col in schema):
        raise DataError(f"the schema lists the response column {response_column!r} as a feature")
    with _read_csv(path) as (header, reader):
        positions = {name: i for i, name in enumerate(header)}
        for col in schema:
            if col.name not in positions:
                raise DataError(f"{path}: header is missing schema column {col.name!r}")
        if response_column is not None and response_column not in positions:
            raise DataError(f"{path}: header is missing response column {response_column!r}")
        fields, tables = _fields(schema, positions, response_column)
        parts, failed = _convert_blocks(_blocks(reader, len(header)), fields)
        if failed is not None:
            _reject_block(path, header, schema, response_column, failed[1], failed[0])
    return _dataset(path, schema, tables, parts, response_column)


class _Echo:
    """A file whose ``write`` returns its text, so that ``csv.writer(_Echo()).writerow`` returns the row's text."""

    def write(self, text: str) -> str:
        return text


def _format_distinct(values: np.ndarray, fmt) -> list:
    """``fmt`` of each float of ``values``, called once per distinct bit pattern.

    Bit patterns, not values, so that 0.0 and -0.0 keep their own text.
    """
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    texts = np.array([fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def format_floats(values: np.ndarray) -> list:
    """Each value's shortest round-trip repr, as text that never needs CSV quoting."""
    return _format_distinct(values, float.__repr__)


def _format_binary(values: np.ndarray) -> list:
    return _format_distinct(values, lambda v: str(int(v)))


def write_csv(data: Dataset, path: str) -> None:
    """Write a dataset back out with decoded category labels.

    Floats use shortest round-trip repr so reruns are byte-identical. The
    bytes are those of ``csv.writer`` writing one row at a time, except that
    a label or column name holding a lone carriage return is quoted. Rows
    are formatted and written in chunks of ``_WRITE_ROWS``, column by column.
    """
    header = [c.name for c in data.schema] + ([data.response_name] if data.response is not None else [])
    # csv.writer quotes a field holding a character of its line terminator.
    # With "\r\n" named, a lone carriage return in a label or column name is
    # quoted too, as csv.reader needs to read it back; each line still ends
    # in "\n".
    quoter = csv.writer(_Echo(), lineterminator="\r\n")
    # A label's text as the quoter writes it in a row of the file's width:
    # a row of one empty field is quoted, an empty field among others is not.
    pad = [""][:len(header) - 1]
    cut = len(pad) + 2
    columns = []
    for col in data.schema:
        values = data.columns[col.name]
        if col.kind == "categorical":
            labels = np.array([quoter.writerow([label, *pad])[:-cut] for label in col.categories], dtype=object)
            codes = values.astype(np.int64, copy=False)  # whole-number float codes index too
            columns.append((codes, lambda chunk, labels=labels: labels[chunk].tolist()))
        elif col.kind == "binary":
            columns.append((values, _format_binary))
        else:
            columns.append((values, format_floats))
    if data.response is not None:
        columns.append((data.response, format_floats))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(quoter.writerow(header)[:-2] + "\n")
        for lo in range(0, data.n_rows, _WRITE_ROWS):
            texts = [fmt(values[lo:lo + _WRITE_ROWS]) for values, fmt in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def partition(data: Dataset, spec: SplitSpecification):
    """Deterministic disjoint (train, validation, test) split.

    Sizes are floor(fraction * N) for validation and test, remainder to
    train. The permutation depends only on the seed, never on the values.
    """
    n = data.n_rows
    if n < 4:
        raise DataError("partition requires at least 4 rows")
    f_train, f_val, f_test = spec.fractions
    n_val = int(np.floor(f_val * n))
    n_test = int(np.floor(f_test * n))
    n_train = n - n_val - n_test
    keys = Rng(derive_seed(spec.seed, 0x5B17)).shuffle_keys(n)
    order = np.argsort(keys, kind="stable")
    train = np.sort(order[:n_train])
    val = np.sort(order[n_train:n_train + n_val])
    test = np.sort(order[n_train + n_val:])
    return data.subset(train), data.subset(val), data.subset(test)
