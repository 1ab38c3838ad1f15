"""Mixed-type distances and analogue retrieval.

Rows are value tuples aligned to a schema.  A variable is comparable for
a pair only when both sides are non-missing; all metrics work over the
comparable variables and treat an empty comparable set as an error, not
as maximal distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset, Value, normalize_ranges
from .errors import SimilarityError

Row = Sequence[Value]
Ranges = Mapping[str, Optional[tuple[float, float]]]

GOWER = "gower"
GOWER_WEIGHTED = "gower_weighted"
COSINE = "cosine"
FILTER = "filter"
METRICS = (GOWER, GOWER_WEIGHTED, COSINE, FILTER)


@dataclass(frozen=True)
class DistanceSpec:
    metric: str = GOWER
    weights: Mapping[str, float] = field(default_factory=dict)
    epsilon: Optional[float] = None
    ranges: Optional[Ranges] = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise SimilarityError(f"unknown metric {self.metric!r}")
        if any(w < 0 for w in self.weights.values()):
            raise SimilarityError("weights must be non-negative")
        if self.metric == FILTER:
            if self.epsilon is None or not 0 < self.epsilon <= 1:
                raise SimilarityError("filter metric requires epsilon in (0, 1]")
        elif self.epsilon is not None:
            raise SimilarityError("epsilon is only meaningful for the filter metric")

    def weight(self, name: str) -> float:
        return self.weights.get(name, 1.0)


@dataclass(frozen=True)
class AnalogueQuery:
    target: tuple
    spec: DistanceSpec
    n_analogues: int = 40


def _column_range(ranges: Optional[Ranges], name: str) -> Optional[tuple[float, float]]:
    if ranges is None:
        return None
    return ranges.get(name)


def gower_distance(u: Row, t: Row, schema: Sequence[ColumnSchema], spec: DistanceSpec) -> float:
    """1 - weighted Gower similarity over comparable variables.

    Categorical: similarity 1 on a label match, else 0.  Continuous:
    1 - |u - t| / range, with zero-range columns contributing 1 (no
    information, no penalty).
    """
    num = 0.0
    den = 0.0
    for j, col in enumerate(schema):
        a, b = u[j], t[j]
        if a is None or b is None:
            continue
        w = spec.weight(col.name)
        if col.kind == CATEGORICAL:
            s = 1.0 if a == b else 0.0
        else:
            rng = _column_range(spec.ranges, col.name)
            if rng is None or rng[1] == rng[0]:
                s = 1.0
            else:
                s = 1.0 - min(abs(a - b) / (rng[1] - rng[0]), 1.0)
        num += w * s
        den += w
    if den == 0.0:
        raise SimilarityError("no comparable variables between the two rows")
    return 1.0 - num / den


def cosine_distance(u: Row, t: Row, schema: Sequence[ColumnSchema], ranges: Ranges) -> float:
    """1 - cosine similarity of the match/normalized encoding.

    Categorical variables encode the target coordinate as 1 and the
    candidate as the match indicator; continuous variables are min-max
    normalized.  A zero candidate vector gives distance 1.
    """
    uv: list[float] = []
    tv: list[float] = []
    for j, col in enumerate(schema):
        a, b = u[j], t[j]
        if a is None or b is None:
            continue
        if col.kind == CATEGORICAL:
            tv.append(1.0)
            uv.append(1.0 if a == b else 0.0)
        else:
            rng = _column_range(ranges, col.name)
            if rng is None or rng[1] == rng[0]:
                uv.append(0.0)
                tv.append(0.0)
            else:
                span = rng[1] - rng[0]
                uv.append(min(max((a - rng[0]) / span, 0.0), 1.0))
                tv.append(min(max((b - rng[0]) / span, 0.0), 1.0))
    if not uv:
        raise SimilarityError("no comparable variables between the two rows")
    nu = math.sqrt(sum(x * x for x in uv))
    nt = math.sqrt(sum(x * x for x in tv))
    if nt == 0.0:
        raise SimilarityError("encoded target vector is zero")
    if nu == 0.0:
        return 1.0
    dot = sum(x * y for x, y in zip(uv, tv))
    return min(max(1.0 - dot / (nu * nt), 0.0), 1.0)


def _close_count(target: Row, row: Row, schema, ranges: Ranges, epsilon: float) -> int:
    count = 0
    for j, col in enumerate(schema):
        a, b = row[j], target[j]
        if a is None or b is None:
            continue
        if col.kind == CATEGORICAL:
            close = a == b
        else:
            rng = _column_range(ranges, col.name)
            span = 0.0 if rng is None else rng[1] - rng[0]
            close = abs(a - b) <= epsilon * span
        if close:
            count += 1
    return count


def filter_analogues(target: Row, pool: Dataset, epsilon: float, n: int) -> list[int]:
    """Level-by-level closeness filtering.

    Level k admits rows close to the target in at least p - k of the p
    variables; levels are emitted in order until n rows are collected,
    rows within a level ordered by (close count desc, row index asc).
    """
    if not 0 < epsilon <= 1:
        raise SimilarityError(f"epsilon must be in (0, 1], got {epsilon}")
    if pool.n_rows < n:
        raise SimilarityError(f"pool of {pool.n_rows} rows cannot supply {n} analogues")
    ranges = normalize_ranges(pool)
    counts = [
        _close_count(target, row, pool.schema, ranges, epsilon) for row in pool.rows
    ]
    order = sorted(range(pool.n_rows), key=lambda i: (-counts[i], i))
    return order[:n]


def nearest_analogues(q: AnalogueQuery, pool: Dataset) -> list[int]:
    """Ranked indices of the n nearest pool rows under the query's metric.

    The caller is responsible for excluding the target itself from the
    pool (leave-one-out discipline).
    """
    if pool.n_rows < q.n_analogues:
        raise SimilarityError(
            f"pool of {pool.n_rows} rows cannot supply {q.n_analogues} analogues"
        )
    spec = q.spec
    ranges = spec.ranges if spec.ranges is not None else normalize_ranges(pool)
    if spec.metric == FILTER:
        return filter_analogues(q.target, pool, spec.epsilon, q.n_analogues)
    if spec.metric == COSINE:
        dists = [
            cosine_distance(row, q.target, pool.schema, ranges) for row in pool.rows
        ]
    else:
        resolved = DistanceSpec(spec.metric, dict(spec.weights), None, ranges)
        dists = [
            gower_distance(row, q.target, pool.schema, resolved) for row in pool.rows
        ]
    order = sorted(range(pool.n_rows), key=lambda i: (dists[i], i))
    return order[: q.n_analogues]


def penalty_weights(pool: Dataset, seed: int = 0) -> tuple[dict[str, Optional[float]], float]:
    """Mean per-variable Gower penalties and the derived continuous weight.

    The penalty of a variable on a comparable pair is its unweighted
    dissimilarity 1 - S_j.  Means are exact at any pool size: label
    counts for categorical columns, sorted prefix sums for continuous
    ones, O(n log n) per column.  ``seed`` is unused; it is kept so that
    existing ``penalty_weights(pool, seed=...)`` calls still work.
    The weight is the categorical-to-continuous ratio of mean penalties;
    variables without comparable pairs are excluded (reported as None).
    """
    if pool.n_rows < 2:
        raise SimilarityError("penalty analysis needs at least 2 rows")
    kinds = {c.name: c.kind for c in pool.schema}
    if CATEGORICAL not in kinds.values() or CONTINUOUS not in kinds.values():
        raise SimilarityError("penalty analysis needs both categorical and continuous columns")
    ranges = normalize_ranges(pool)
    table: dict[str, Optional[float]] = {}
    for col in pool.schema:
        values = [v for v in pool.column(col.name) if v is not None]
        m = len(values)
        pairs = m * (m - 1) // 2
        if pairs == 0:
            table[col.name] = None
            continue
        if col.kind == CATEGORICAL:
            counts: dict[str, int] = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            matches = sum(c * (c - 1) // 2 for c in counts.values())
            table[col.name] = 1.0 - matches / pairs
        else:
            rng = ranges[col.name]
            span = 0.0 if rng is None else rng[1] - rng[0]
            if span == 0.0:
                table[col.name] = 0.0
                continue
            # mean pairwise |x_i - x_j| via sorted prefix sums
            xs = np.sort(np.asarray(values, dtype=float))
            ranks = np.arange(m, dtype=float)
            total = float(np.sum((2 * ranks - m + 1) * xs))
            table[col.name] = total / pairs / span

    cat = [table[c.name] for c in pool.schema if kinds[c.name] == CATEGORICAL and table[c.name] is not None]
    cont = [table[c.name] for c in pool.schema if kinds[c.name] == CONTINUOUS and table[c.name] is not None]
    if not cat or not cont:
        raise SimilarityError("degenerate pool: a whole kind has no comparable pairs")
    mean_cont = sum(cont) / len(cont)
    if mean_cont == 0.0:
        raise SimilarityError("degenerate pool: continuous mean penalty is zero")
    return table, (sum(cat) / len(cat)) / mean_cont
