"""Mixed-type distances and analogue retrieval.

A variable is comparable for a pair only when both sides are non-missing;
all metrics work over the comparable variables and treat an empty
comparable set as an error, not as maximal distance.

``gower_distance`` and ``cosine_distance`` score one pair of value tuples
aligned to a schema; they are the reference definitions.
``nearest_analogues`` ranks a whole pool at once: each metric is one
masked array expression per column over the pool's stored arrays, summed
in schema order with the same operations as the per-pair functions, so
its keys equal theirs bit for bit.
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
    """A metric and its settings.

    ``weights`` (finite, >= 0; 1 when absent) weigh gower columns.  The
    filter metric calls a variable close to the target when the labels
    match, or, for a continuous one, when the values differ by at most
    ``epsilon`` times the column's range.
    """

    metric: str = GOWER
    weights: Mapping[str, float] = field(default_factory=dict)
    epsilon: Optional[float] = None
    ranges: Optional[Ranges] = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise SimilarityError(f"unknown metric {self.metric!r} (choose from {list(METRICS)})")
        if not all(0 <= w < math.inf for w in self.weights.values()):
            raise SimilarityError("weights must be finite and non-negative")
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

    def __post_init__(self):
        if self.n_analogues < 1:
            raise SimilarityError(f"n_analogues must be at least 1, got {self.n_analogues}")


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
            rng = (spec.ranges or {}).get(col.name)
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
            rng = (ranges or {}).get(col.name)
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


def nearest_analogues(q: AnalogueQuery, pool: Dataset) -> list[int]:
    """Ranked indices of the n nearest pool rows under the query's metric.

    Rows sort by (key, row index): the distance for gower, gower_weighted
    and cosine, minus the close count for filter.  Filter ranking is
    level-by-level closeness filtering: level k admits rows close to the
    target in at least p - k of its p non-missing variables, and levels
    are emitted in order until n rows are collected.  Continuous ranges come
    from the spec, or from the pool when the spec has none.  The caller is
    responsible for excluding the target itself from the pool
    (leave-one-out discipline).
    """
    if pool.n_rows < q.n_analogues:
        raise SimilarityError(
            f"pool of {pool.n_rows} rows cannot supply {q.n_analogues} analogues"
        )
    ranges = q.spec.ranges if q.spec.ranges is not None else normalize_ranges(pool)
    keys = _keys(q.spec, ranges, q.target, pool)
    return np.argsort(keys, kind="stable")[: q.n_analogues].tolist()


def _keys(spec: DistanceSpec, ranges: Ranges, target: Row, pool: Dataset) -> np.ndarray:
    """Sort key of every pool row under the spec's metric.

    For each column the target holds, one masked array expression adds
    that column's term to the rows comparable with the target.  Columns go
    in schema order through the same operations as the per-pair
    functions, so the keys equal theirs bit for bit.
    """
    n, metric = pool.n_rows, spec.metric
    num, den, uu, tt = np.zeros((4, n))
    for col, b in zip(pool.schema, target):
        if b is None:
            continue
        ok, a = pool.present(col.name), pool.array(col.name)
        rng = ranges.get(col.name)
        span = 0.0 if rng is None else rng[1] - rng[0]
        if col.kind == CATEGORICAL:
            labels = pool.labels(col.name)
            s = u = (a == (labels.index(b) if b in labels else -2)).astype(float)
            t = 1.0
        elif metric == FILTER:
            s = (np.abs(a - b) <= spec.epsilon * span).astype(float)
        elif metric == COSINE:
            u = np.minimum(np.maximum((a - rng[0]) / span, 0.0), 1.0) if span else np.zeros(n)
            t = min(max((b - rng[0]) / span, 0.0), 1.0) if span else 0.0
        else:
            s = 1.0 - np.minimum(np.abs(a - b) / span, 1.0) if span else np.ones(n)
        w = spec.weight(col.name) if metric in (GOWER, GOWER_WEIGHTED) else 1.0
        den[ok] += w
        if metric == COSINE:  # num is the dot product u.t
            uu[ok] += (u * u)[ok]
            tt[ok] += t * t
            num[ok] += (u * t)[ok]
        else:
            num[ok] += w * s[ok]
    if metric == FILTER:
        return -num
    nt = np.sqrt(tt)
    bad = np.flatnonzero((den == 0.0) | ((nt == 0.0) & (metric == COSINE)))
    if bad.size:
        raise SimilarityError(
            "no comparable variables between the two rows" if den[bad[0]] == 0.0
            else "encoded target vector is zero"
        )
    if metric != COSINE:
        return 1.0 - num / den
    nu = np.sqrt(uu)
    cos = num / np.where(nu == 0.0, 1.0, nu * nt)
    return np.where(nu == 0.0, 1.0, np.minimum(np.maximum(1.0 - cos, 0.0), 1.0))


def metric_spec(
    metric: str, pool: Dataset, weight: Optional[float] = None, epsilon: float = 0.1
) -> DistanceSpec:
    """The spec a metric name selects; ``gower-weighted`` spells ``gower_weighted``.

    gower_weighted weighs continuous columns by ``weight`` and categorical
    ones by 1.  Without a weight it uses the pool's penalty ratio, which
    raises SimilarityError on a degenerate pool.  ``epsilon`` reaches the
    filter metric only.
    """
    name = metric.replace("-", "_")
    weights = {}
    if name == GOWER_WEIGHTED:
        if weight is None:
            _, weight = penalty_weights(pool)
        weights = {c.name: (weight if c.kind == CONTINUOUS else 1.0) for c in pool.schema}
    return DistanceSpec(name, weights=weights, epsilon=epsilon if name == FILTER else None)


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
    table: dict[str, Optional[float]] = {}
    for col in pool.schema:
        values = pool.array(col.name)[pool.present(col.name)]
        m = len(values)
        pairs = m * (m - 1) // 2
        if pairs == 0:
            table[col.name] = None
        elif col.kind == CATEGORICAL:
            counts = np.bincount(values)
            matches = int((counts * (counts - 1) // 2).sum())
            table[col.name] = 1.0 - matches / pairs
        else:
            # mean pairwise |x_i - x_j| via sorted prefix sums
            xs = np.sort(values)
            span = float(xs[-1]) - float(xs[0])
            ranks = np.arange(m, dtype=float)
            total = float(np.sum((2 * ranks - m + 1) * xs))
            table[col.name] = total / pairs / span if span else 0.0

    cat = [table[c.name] for c in pool.schema if kinds[c.name] == CATEGORICAL and table[c.name] is not None]
    cont = [table[c.name] for c in pool.schema if kinds[c.name] == CONTINUOUS and table[c.name] is not None]
    if not cat or not cont:
        raise SimilarityError("degenerate pool: a whole kind has no comparable pairs")
    mean_cont = sum(cont) / len(cont)
    if mean_cont == 0.0:
        raise SimilarityError("degenerate pool: continuous mean penalty is zero")
    return table, (sum(cat) / len(cat)) / mean_cont
