"""Brute-force analogue ranking to check ``nearest_analogues`` against.

Gower, weighted Gower and cosine rankings sort the per-pair
``gower_distance`` / ``cosine_distance`` values by (distance, row index);
the filter ranking counts close variables directly.  Rows and column
ranges come from the benchmark's own copy of the pool, not from the
program's ``Dataset``.  The query is built as ``mixbn restore --metric``
builds it, so the check covers the ranking each restore op trained on.
"""
from __future__ import annotations

EPSILON = 0.1  # the CLI's default filter epsilon
TOLERANCE = 1e-12


def _close_count(row, target, schema, ranges) -> int:
    count = 0
    for j, col in enumerate(schema):
        a, b = row[j], target[j]
        if a is None or b is None:
            continue
        if col.kind == "categorical":
            count += a == b
        else:
            lo, hi = ranges[col.name]
            count += abs(a - b) <= EPSILON * (hi - lo)
    return count


def _keys(rows, schema, target, metric, weights, ranges) -> list:
    """Sort key per pool row; the oracle ranking is the ascending order."""
    from mixbn.similarity import DistanceSpec, cosine_distance, gower_distance

    if metric == "filter":
        return [-_close_count(row, target, schema, ranges) for row in rows]
    if metric == "cosine":
        return [cosine_distance(row, target, schema, ranges) for row in rows]
    spec = DistanceSpec(metric, weights, None, ranges)
    return [gower_distance(row, target, schema, spec) for row in rows]


def check_ranking(pool, pool_rows, schema, ranges, record, metric, n, seed) -> list[str]:
    """Failure descriptions (empty when nearest_analogues matches the oracle).

    ``pool`` is the program's dataset; ``pool_rows`` (dicts), ``schema``
    and ``ranges`` are the benchmark's own description of the same table.
    """
    from mixbn.similarity import AnalogueQuery, DistanceSpec, nearest_analogues, penalty_weights

    target = tuple(record[c.name] for c in schema)
    weights = {}
    if metric == "gower_weighted":
        _, w = penalty_weights(pool, seed=seed)
        weights = {c.name: (w if c.kind == "continuous" else 1.0) for c in schema}
    spec = DistanceSpec(metric, weights=weights, epsilon=EPSILON if metric == "filter" else None)
    got = nearest_analogues(AnalogueQuery(target, spec, n), pool)

    rows = [tuple(r[c.name] for c in schema) for r in pool_rows]
    keys = _keys(rows, schema, target, metric, weights, ranges)
    want = sorted(range(len(rows)), key=lambda i: (keys[i], i))[:n]
    if got == want:
        return []
    # equal keys may come back in another order only if they are equal to within rounding
    if len(got) == n and len(set(got)) == n and all(
        abs(keys[g] - keys[w]) <= TOLERANCE for g, w in zip(got, want)
    ):
        return []
    return [f"ranking oracle: {metric} ranking differs for record {record}: got {got[:5]}..., want {want[:5]}..."]

