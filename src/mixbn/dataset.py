"""Typed tabular data with explicit missingness, stored one array per column.

A continuous column is a read-only float64 array with NaN for a missing
cell.  A categorical column is a read-only int64 array of codes into a
sorted tuple of labels, with -1 for a missing cell; the labels are exactly
those that occur in the column, so a subset of a table behaves like the
same rows built afresh.

Cells are validated once, when a table is built: ``Dataset(schema, rows)``
checks rows of Python cells (a label ``str``, a finite real, or ``None``
for missing) and ``load_csv`` parses a file straight into columns.  Tables
derived from a table take its arrays without checking cells again;
``select_rows`` is an index take.  ``row``, ``rows`` and ``column`` are
Python-cell views built from the arrays.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DatasetError, MixbnError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

#: a single cell: category label, finite real, or missing
Value = Union[str, float, None]

MISSING_MARKERS = ("", "NA")

@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str  # CATEGORICAL or CONTINUOUS

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise DatasetError(f"unknown column kind {self.kind!r} for {self.name!r}")


class Dataset:
    """Immutable table of one read-only array per column, aligned to a column schema."""

    def __init__(self, schema: Sequence[ColumnSchema], rows: Iterable[Sequence[Value]]):
        schema, rows = tuple(schema), tuple(rows)
        for i, row in enumerate(rows):
            if len(row) != len(schema):
                raise DatasetError(f"row {i} has {len(row)} values, expected {len(schema)}")
            check_row(row, schema, f"row {i}")
        columns = [_column(col, [row[j] for row in rows], (None,)) for j, col in enumerate(schema)]
        self._store(schema, len(rows), columns)

    @classmethod
    def _from_columns(cls, schema: tuple[ColumnSchema, ...], n_rows: int, columns: list) -> "Dataset":
        """A Dataset over arrays that hold only valid cells already."""
        d = cls.__new__(cls)
        d._store(schema, n_rows, columns)
        return d

    def _store(self, schema, n_rows, columns) -> None:
        self._index = {c.name: j for j, c in enumerate(schema)}
        if len(self._index) != len(schema):
            raise DatasetError("duplicate column names in schema")
        for array, _ in columns:
            array.flags.writeable = False
        self.schema, self.n_rows, self._columns = schema, n_rows, tuple(columns)
        self._present = tuple(a >= 0 if labels is not None else ~np.isnan(a) for a, labels in columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.schema]

    def col_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DatasetError(f"unknown column {name!r}") from None

    def kind(self, name: str) -> str:
        return self.schema[self.col_index(name)].kind

    def array(self, name: str) -> np.ndarray:
        """The stored column: float64 values (NaN missing) or int64 label codes (-1 missing)."""
        return self._columns[self.col_index(name)][0]

    def labels(self, name: str) -> Optional[tuple[str, ...]]:
        """Sorted labels of a categorical column (code k is labels[k]); None if continuous."""
        return self._columns[self.col_index(name)][1]

    def present(self, *names: str) -> np.ndarray:
        """Boolean mask of the rows where none of the named columns is missing."""
        mask = np.ones(self.n_rows, dtype=bool)
        for name in names:
            mask &= self._present[self.col_index(name)]
        return mask

    def row(self, i: int) -> tuple:
        """Row i as Python cells: label, float, or None for missing."""
        cells = ((array[i].item(), labels) for array, labels in self._columns)
        return tuple(
            (labels[v] if v >= 0 else None) if labels is not None else (None if math.isnan(v) else v)
            for v, labels in cells
        )

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(self.row(i) for i in range(self.n_rows))

    def column(self, name: str) -> list[Value]:
        """Column name as Python cells, like the rows' cells at its index."""
        array, labels = self._columns[self.col_index(name)]
        if labels is None:
            return [None if math.isnan(v) else v for v in array.tolist()]
        return [labels[k] if k >= 0 else None for k in array.tolist()]


def _column(col: ColumnSchema, cells: Sequence, missing: tuple) -> tuple:
    """A stored column from checked Python cells; cells in ``missing`` are missing."""
    if col.kind == CONTINUOUS:
        return np.array([math.nan if v is None else v for v in cells], dtype=np.float64), None
    labels = tuple(sorted(set(cells).difference(missing)))
    index = {lab: k for k, lab in enumerate(labels)} | dict.fromkeys(missing, -1)
    return np.array([index[c] for c in cells], dtype=np.int64), labels


def cell_problem(v: Value, kind: str) -> Optional[str]:
    """Why ``v`` is not a present cell of ``kind`` (a label ``str``, or a finite
    real that is not a ``bool``), or None if it is."""
    if kind == CATEGORICAL:
        return None if isinstance(v, str) else f"expected a label, got {v!r}"
    # NaN fails the comparison, and so does an int too large for a float
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return None
    return f"expected a finite real, got {v!r}"


def integer(value, what: str, error: type[MixbnError]) -> int:
    """``value`` as an int, or ``error`` naming ``what`` if it is not a Python or
    NumPy integer; a ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_row(row: Sequence[Value], schema: Sequence[ColumnSchema], where: str) -> None:
    """Raise DatasetError for the first cell of ``row`` that is neither missing nor valid."""
    for col, v in zip(schema, row):
        problem = None if v is None else cell_problem(v, col.kind)
        if problem:
            raise DatasetError(f"{where}, column {col.name!r}: {problem}")


def schema_from_json(obj: Mapping) -> list[ColumnSchema]:
    """Parse ``{"columns": [{"name": ..., "kind": ...}, ...]}``."""
    cols = obj.get("columns") if isinstance(obj, dict) else None
    if not isinstance(cols, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str) and "kind" in c for c in cols):
        raise DatasetError('schema JSON must contain a "columns" list of {"name", "kind"} objects')
    return [ColumnSchema(c["name"], c["kind"]) for c in cols]


def read_json(path: str):
    """The JSON value in a UTF-8 file.  Bad JSON, bad UTF-8, nesting too deep to
    parse or an integer past Python's digit limit raises MixbnError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise MixbnError(f"{path}: not a readable JSON file ({exc})") from None


def load_schema(path: str) -> list[ColumnSchema]:
    return schema_from_json(read_json(path))


def load_csv(path: str, schema: Sequence[ColumnSchema]) -> Dataset:
    """Read a CSV with a header row into a Dataset.

    The header must match the schema names as a set (order may differ).
    Empty cells and the literal "NA" are missing; anything else in a
    continuous column must parse as a finite decimal real.  A UTF-8
    byte-order mark before the header (spreadsheet "CSV UTF-8") is skipped.
    """
    schema = tuple(schema)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            lines = list(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, no header row")
        except csv.Error as exc:  # a cell longer than csv.field_size_limit()
            raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(set(header)) != len(header):
        raise DatasetError(f"{path}: duplicate header names")
    if set(header) != {c.name for c in schema}:
        unknown = set(header) - {c.name for c in schema}
        missing = {c.name for c in schema} - set(header)
        raise DatasetError(
            f"{path}: header mismatch (unknown: {sorted(unknown)}, missing: {sorted(missing)})"
        )
    for r, raw in enumerate(lines, start=1):
        if len(raw) != len(header):
            raise DatasetError(f"{path}: row {r} has {len(raw)} cells, expected {len(header)}")
    columns = []
    for col in schema:
        pos = header.index(col.name)
        cells = [raw[pos] for raw in lines]
        if col.kind == CATEGORICAL:
            columns.append(_column(col, cells, MISSING_MARKERS))
            continue
        missing = np.array([c in MISSING_MARKERS for c in cells], dtype=bool)
        values = np.array([math.nan if m else _to_float(c) for c, m in zip(cells, missing.tolist())])
        bad = np.flatnonzero(~missing & ~np.isfinite(values))
        if bad.size:
            raise DatasetError(f"{path}: row {bad[0] + 1}, column {col.name!r}: "
                               f"cannot parse {cells[bad[0]]!r} as a finite number")
        columns.append((values, None))
    return Dataset._from_columns(schema, len(lines), columns)


def _to_float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def quantile_edges(values: np.ndarray, bins: int) -> tuple[float, ...]:
    """Edges at the ceil(k*n/bins)-th order statistic, k = 1..bins-1, deduplicated."""
    n = len(values)
    stats = np.sort(values)[[math.ceil(k * n / bins) - 1 for k in range(1, bins)]].tolist()
    return tuple(e for k, e in enumerate(stats) if k == 0 or e > stats[k - 1])


def quantile_discretize(d: Dataset, bins: int) -> tuple[Dataset, dict[str, tuple[float, ...]]]:
    """Replace continuous columns by categorical bin labels "0".."bins-1".

    Returns the discretized table and the quantile edges per continuous
    column.  A value v gets the label of bin ``bisect_left(edges, v)``:
    values less than or equal to an edge stay below it, so bins hold equal
    counts on distinct data.  A column with fewer distinct values than
    ``bins`` gets fewer bins; one with no value at all raises.  Missing
    stays missing; categorical columns pass through unchanged.
    """
    if integer(bins, "bins", DatasetError) < 2:
        raise DatasetError(f"bins must be >= 2, got {bins}")
    edges: dict[str, tuple[float, ...]] = {}
    columns = []
    for col, (array, labels) in zip(d.schema, d._columns):
        if col.kind != CONTINUOUS:
            columns.append((array, labels))
            continue
        present = ~np.isnan(array)
        if not present.any():
            raise DatasetError(f"column {col.name!r} has no non-missing values to discretize")
        edges[col.name] = quantile_edges(array[present], bins)
        bin_of = np.array(edges[col.name]).searchsorted(array, side="left")
        # labels sort as strings, so "10" precedes "2" once there are more than 10 bins
        labels = tuple(sorted(map(str, range(len(edges[col.name]) + 1))))
        code_of = np.argsort([int(lab) for lab in labels])
        columns.append(_drop_unheld(np.where(present, code_of[bin_of], -1), labels))
    new_schema = tuple(ColumnSchema(c.name, CATEGORICAL) for c in d.schema)
    return Dataset._from_columns(new_schema, d.n_rows, columns), edges


def normalize_ranges(d: Dataset) -> dict[str, Optional[tuple[float, float]]]:
    """(min, max) over non-missing values per continuous column.

    All-missing columns are flagged rangeless with ``None`` rather than
    raising.
    """
    out: dict[str, Optional[tuple[float, float]]] = {}
    for col in d.schema:
        if col.kind == CONTINUOUS:
            x = d.array(col.name)[d.present(col.name)]
            out[col.name] = (float(x.min()), float(x.max())) if x.size else None
    return out


def select_rows(d: Dataset, indices: Iterable[int]) -> Dataset:
    """The rows at ``indices``, in that order; labels no selected row holds are dropped."""
    idx = np.fromiter(indices, dtype=np.intp)
    bad = idx[(idx < 0) | (idx >= d.n_rows)]
    if bad.size:
        raise DatasetError(f"row index {bad[0]} out of range [0, {d.n_rows})")
    columns = [(a[idx], None) if labels is None else _drop_unheld(a[idx], labels)
               for a, labels in d._columns]
    return Dataset._from_columns(d.schema, len(idx), columns)


def _drop_unheld(codes: np.ndarray, labels: tuple[str, ...]) -> tuple:
    """Codes and labels with the labels no row holds left out."""
    held = np.bincount(codes[codes >= 0], minlength=len(labels)) > 0
    if held.all():
        return codes, labels
    # new code of each held label; a trailing -1 keeps missing at -1
    code_of = np.append(np.cumsum(held) - 1, -1)
    return code_of[codes], tuple(lab for lab, h in zip(labels, held) if h)
