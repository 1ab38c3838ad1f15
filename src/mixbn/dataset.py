"""Typed tabular data with explicit missingness.

A cell value is either a category label (``str``), a finite real
(``float``), or ``None`` for missing.  Columns are declared categorical or
continuous up front and the discipline is enforced at construction time,
so everything downstream can trust the types.
"""
from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DatasetError

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


@dataclass(frozen=True)
class Dataset:
    """Immutable rows-of-tuples table aligned to a column schema."""

    schema: tuple[ColumnSchema, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        schema = tuple(self.schema)
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise DatasetError("duplicate column names in schema")
        rows = []
        for i, row in enumerate(self.rows):
            if len(row) != len(schema):
                raise DatasetError(f"row {i} has {len(row)} values, expected {len(schema)}")
            rows.append(tuple(_check_value(v, schema[j], i) for j, v in enumerate(row)))
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.schema]

    def col_index(self, name: str) -> int:
        for i, c in enumerate(self.schema):
            if c.name == name:
                return i
        raise DatasetError(f"unknown column {name!r}")

    def kind(self, name: str) -> str:
        return self.schema[self.col_index(name)].kind

    def column(self, name: str) -> list[Value]:
        j = self.col_index(name)
        return [row[j] for row in self.rows]


def _check_value(v: Value, col: ColumnSchema, row_idx: int) -> Value:
    if v is None:
        return None
    if col.kind == CATEGORICAL:
        if not isinstance(v, str):
            raise DatasetError(
                f"row {row_idx}, column {col.name!r}: categorical column holds {v!r}"
            )
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DatasetError(
            f"row {row_idx}, column {col.name!r}: continuous column holds {v!r}"
        )
    v = float(v)
    if not math.isfinite(v):
        raise DatasetError(f"row {row_idx}, column {col.name!r}: non-finite value")
    return v


def schema_from_json(obj: Mapping) -> list[ColumnSchema]:
    """Parse ``{"columns": [{"name": ..., "kind": ...}, ...]}``."""
    try:
        cols = obj["columns"]
    except (KeyError, TypeError):
        raise DatasetError('schema JSON must contain a "columns" list')
    return [ColumnSchema(c["name"], c["kind"]) for c in cols]


def load_schema(path: str) -> list[ColumnSchema]:
    with open(path) as fh:
        return schema_from_json(json.load(fh))


def load_csv(path: str, schema: Sequence[ColumnSchema]) -> Dataset:
    """Read a CSV with a header row into a Dataset.

    The header must match the schema names as a set (order may differ).
    Empty cells and the literal "NA" are missing; anything else in a
    continuous column must parse as a decimal real.
    """
    schema = tuple(schema)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, no header row")
        if len(set(header)) != len(header):
            raise DatasetError(f"{path}: duplicate header names")
        if set(header) != {c.name for c in schema}:
            unknown = set(header) - {c.name for c in schema}
            missing = {c.name for c in schema} - set(header)
            raise DatasetError(
                f"{path}: header mismatch (unknown: {sorted(unknown)}, missing: {sorted(missing)})"
            )
        positions = [header.index(c.name) for c in schema]
        rows = []
        for r, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                raise DatasetError(f"{path}: row {r} has {len(raw)} cells, expected {len(header)}")
            row = []
            for col, pos in zip(schema, positions):
                cell = raw[pos]
                if cell in MISSING_MARKERS:
                    row.append(None)
                elif col.kind == CATEGORICAL:
                    row.append(cell)
                else:
                    try:
                        row.append(float(cell))
                    except ValueError:
                        raise DatasetError(
                            f"{path}: row {r}, column {col.name!r}: cannot parse {cell!r} as a number"
                        )
            rows.append(tuple(row))
    return Dataset(schema, tuple(rows))


def quantile_edges(values: Sequence[float], bins: int) -> tuple[float, ...]:
    """Edges at the ceil(k*n/bins)-th order statistic, k = 1..bins-1, deduplicated."""
    vals = sorted(values)
    n = len(vals)
    edges: list[float] = []
    for k in range(1, bins):
        e = vals[math.ceil(k * n / bins) - 1]
        if not edges or e > edges[-1]:
            edges.append(e)
    return tuple(edges)


def quantile_discretize(d: Dataset, bins: int) -> tuple[Dataset, dict[str, tuple[float, ...]]]:
    """Replace continuous columns by categorical bin labels "0".."bins-1".

    Returns the discretized table and the quantile edges per continuous
    column.  A value v gets the label of bin ``bisect_left(edges, v)``:
    values less than or equal to an edge stay below it, so bins hold equal
    counts on distinct data.  Missing stays missing; categorical columns
    pass through unchanged.
    """
    if bins < 2:
        raise DatasetError(f"bins must be >= 2, got {bins}")
    edges: dict[str, tuple[float, ...]] = {}
    for col in d.schema:
        if col.kind != CONTINUOUS:
            continue
        present = [v for v in d.column(col.name) if v is not None]
        if len(present) < bins:
            raise DatasetError(
                f"column {col.name!r} has {len(present)} non-missing values, needs >= {bins}"
            )
        edges[col.name] = quantile_edges(present, bins)

    new_schema = tuple(ColumnSchema(c.name, CATEGORICAL) for c in d.schema)
    cont_idx = {i for i, c in enumerate(d.schema) if c.kind == CONTINUOUS}
    new_rows = []
    for row in d.rows:
        new_rows.append(
            tuple(
                None
                if v is None
                else (str(bisect_left(edges[d.schema[j].name], v)) if j in cont_idx else v)
                for j, v in enumerate(row)
            )
        )
    return Dataset(new_schema, tuple(new_rows)), edges


def normalize_ranges(d: Dataset) -> dict[str, Optional[tuple[float, float]]]:
    """(min, max) over non-missing values per continuous column.

    All-missing columns are flagged rangeless with ``None`` rather than
    raising.
    """
    out: dict[str, Optional[tuple[float, float]]] = {}
    for col in d.schema:
        if col.kind != CONTINUOUS:
            continue
        present = [v for v in d.column(col.name) if v is not None]
        out[col.name] = (min(present), max(present)) if present else None
    return out


def select_rows(d: Dataset, indices: Iterable[int]) -> Dataset:
    rows = []
    for i in indices:
        if not 0 <= i < d.n_rows:
            raise DatasetError(f"row index {i} out of range [0, {d.n_rows})")
        rows.append(d.rows[i])
    return Dataset(d.schema, tuple(rows))
