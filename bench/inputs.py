"""Seeded inputs for the benchmark: a reservoir-shaped pool table and records.

The generator follows the shape of the paper's table: 6 categorical and 5
continuous parameters driven by 3 latent regimes.  Each categorical column
shows its regime's label with probability ``PURITY``; the continuous
columns share a per-row latent offset on top of regime means, so rows that
are close in one continuous column tend to be close in all of them.

Everything here uses numpy and the standard library only; the program
under test receives nothing but the files written by ``write_pool`` and
``write_record``.  Every draw comes from ``stream(seed, kind, index)``, so
a seed fixes every input and the k-th input of a kind does not depend on
how many inputs of another kind were drawn before it.
"""
from __future__ import annotations

import csv
import json

import numpy as np

POOL_ROWS = 1073
POOL_MISSING = 0.05
# Pools per run.  Every pool drawn from the generator learns a somewhat
# different structure, and that alone moved op latency by up to 20% and
# restore quality by 25% between seeds; rotating over several pools
# averages it out within one run.
POOLS = 8
PURITY = 0.6
INJECT_FRACTION = 0.10

CATEGORICAL = (
    ("Tectonic regime", ("compression", "extension", "strike-slip")),
    ("Period", ("Jurassic", "Cretaceous", "Paleogene", "Neogene")),
    ("Depositional system", ("fluvial", "deltaic", "shelf")),
    ("Lithology", ("sandstone", "carbonate", "shale", "conglomerate")),
    ("Structural setting", ("rift", "foreland", "passive margin")),
    ("Trapping mechanism", ("anticline", "fault", "stratigraphic")),
)
# name, location, scale of the affine map applied to the latent value
CONTINUOUS = (
    ("Gross", 200.0, 100.0),
    ("Netpay", 30.0, 20.0),
    ("Porosity", 0.12, 0.05),
    ("Permeability", 100.0, 150.0),
    ("Depth", 1500.0, 800.0),
)
CAT_NAMES = tuple(name for name, _ in CATEGORICAL)
CONT_NAMES = tuple(name for name, _, _ in CONTINUOUS)
NAMES = CAT_NAMES + CONT_NAMES

# stream identifiers; one per kind of input
POOL, LEARN_TABLE, RESTORE_RECORD, QUERY_RECORD, PROBE_RECORD, LOO_CHUNK, ORACLE = range(7)
# inputs of warm-up ops are numbered from here, apart from the timed ops
WARM_UP = 2**40


def stream(seed: int, kind: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, kind, index]))




def draw_rows(rng: np.random.Generator, n: int) -> list[dict]:
    """n complete records as {name: value} dicts."""
    regime = rng.integers(0, 3, size=n)
    out = [dict() for _ in range(n)]
    for name, labels in CATEGORICAL:
        pure = rng.random(n) < PURITY
        other = rng.integers(1, len(labels), size=n)
        for i in range(n):
            z = int(regime[i])
            out[i][name] = labels[z] if pure[i] else labels[(z + int(other[i])) % len(labels)]
    latent = 0.3 * rng.standard_normal(n)
    for k, (name, loc, scale) in enumerate(CONTINUOUS):
        noise = 0.1 * rng.standard_normal(n)
        values = loc + scale * (regime + 0.2 * k + latent + noise)
        for i in range(n):
            out[i][name] = float(values[i])
    return out


def table_rows(rng: np.random.Generator) -> list[dict]:
    """A paper-sized table: POOL_ROWS records with about POOL_MISSING of cells blank."""
    rows = draw_rows(rng, POOL_ROWS)
    blank = rng.random((POOL_ROWS, len(NAMES))) < POOL_MISSING
    for i, row in enumerate(rows):
        for j, name in enumerate(NAMES):
            if blank[i, j]:
                row[name] = None
    return rows


def pool_rows(seed: int, pool: int) -> list[dict]:
    return table_rows(stream(seed, POOL, pool))


def learn_table_rows(seed: int, op: int) -> list[dict]:
    """The table of the op-th learn op, distinct for every op."""
    return table_rows(stream(seed, LEARN_TABLE, op))


def write_schema(path: str) -> None:
    columns = [{"name": n, "kind": "categorical"} for n in CAT_NAMES]
    columns += [{"name": n, "kind": "continuous"} for n in CONT_NAMES]
    with open(path, "w") as fh:
        json.dump({"columns": columns}, fh, indent=2)


def write_table(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NAMES)
        for row in rows:
            writer.writerow(["" if row[n] is None else row[n] for n in NAMES])


def write_record(record: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


def column_ranges(rows: list[dict]) -> dict[str, tuple[float, float]]:
    """(min, max) over the non-missing values of each continuous column."""
    out = {}
    for name in CONT_NAMES:
        present = [r[name] for r in rows if r[name] is not None]
        out[name] = (min(present), max(present))
    return out


def restore_record(seed: int, op: int) -> tuple[dict, dict]:
    """(truth, record) for a held-out record with 1 to 3 fields blanked."""
    rng = stream(seed, RESTORE_RECORD, op)
    truth = draw_rows(rng, 1)[0]
    blanked = rng.choice(len(NAMES), size=int(rng.integers(1, 4)), replace=False)
    record = dict(truth)
    for j in blanked:
        record[NAMES[j]] = None
    return truth, record


def sparse_copy(rng: np.random.Generator, truth: dict, keep: int = 4) -> dict:
    kept = {NAMES[j] for j in rng.choice(len(NAMES), size=keep, replace=False)}
    return {n: (v if n in kept else None) for n, v in truth.items()}


def inject(rng: np.random.Generator, record: dict, name: str, ranges) -> dict:
    """Replace one continuous value by a uniform draw over the column range.

    The value stays in range but is jointly inconsistent with the rest of
    the record, as in the program's anomaly benchmark.
    """
    lo, hi = ranges[name]
    out = dict(record)
    out[name] = float(rng.uniform(lo, hi))
    return out


def query_record(seed: int, op: int, ranges) -> tuple[dict, dict, dict, str | None]:
    """(truth, sparse copy of the truth, incoming record, injected column or None)."""
    rng = stream(seed, QUERY_RECORD, op)
    truth = draw_rows(rng, 1)[0]
    sparse = sparse_copy(rng, truth)
    injected = None
    incoming = truth
    if rng.random() < INJECT_FRACTION:
        injected = CONT_NAMES[int(rng.integers(0, len(CONT_NAMES)))]
        incoming = inject(rng, truth, injected, ranges)
    return truth, sparse, incoming, injected


def probe_record(seed: int, index: int, ranges) -> tuple[dict, dict, str, dict]:
    """(truth, sparse copy, scored column, copy with that column injected)."""
    rng = stream(seed, PROBE_RECORD, index)
    truth = draw_rows(rng, 1)[0]
    sparse = sparse_copy(rng, truth)
    column = CONT_NAMES[int(rng.integers(0, len(CONT_NAMES)))]
    return truth, sparse, column, inject(rng, truth, column, ranges)


def loo_chunk_seed(seed: int, chunk: int) -> int:
    return int(stream(seed, LOO_CHUNK, chunk).integers(0, 2**31 - 1))


def op_seed(seed: int, op: int) -> int:
    """Sampling seed handed to the program for one op."""
    return (seed * 1_000_003 + op) % (2**31 - 1)
