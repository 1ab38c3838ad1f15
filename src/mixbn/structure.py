"""Score-based structure learning: K2 scoring plus hill climbing search.

Scoring runs on a fully discretized dataset.  The score is the
Cooper-Herskovits K2 marginal likelihood in log form,

    sum_j [ lnGamma(r) - lnGamma(N_ij + r) + sum_k lnGamma(N_ijk + 1) ]

summed over the parent configurations j actually observed in the data
(unobserved configurations contribute nothing).  Rows missing any family
member are dropped from that family's counts.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset
from .errors import GraphError, StructureError
from .graph import Dag, Edge, EdgeConstraints

ForbiddenPredicate = Callable[[str, str], bool]


class _Encoded:
    """Integer-coded view of a categorical dataset (-1 marks missing)."""

    def __init__(self, d: Dataset):
        self.names = d.names
        self.codes: dict[str, np.ndarray] = {}
        self.card: dict[str, int] = {}
        for col in d.schema:
            if col.kind != CATEGORICAL:
                raise StructureError(f"column {col.name!r} is continuous; discretize first")
            values = d.column(col.name)
            labels = sorted({v for v in values if v is not None})
            index = {lab: i for i, lab in enumerate(labels)}
            self.codes[col.name] = np.array(
                [index[v] if v is not None else -1 for v in values], dtype=np.int64
            )
            self.card[col.name] = len(labels)


def _family_score(enc: _Encoded, child: str, parents: Sequence[str]) -> float:
    child_codes = enc.codes[child]
    r = enc.card[child]
    mask = child_codes >= 0
    for p in parents:
        mask &= enc.codes[p] >= 0
    if not mask.any():
        raise StructureError(
            f"no complete-case rows for family ({child!r} | {sorted(parents)})"
        )
    y = child_codes[mask]
    if r == 0:
        raise StructureError(f"column {child!r} has no observed values")
    if parents:
        combined = np.zeros(y.shape, dtype=np.int64)
        for p in parents:
            combined = combined * enc.card[p] + enc.codes[p][mask]
        _, config = np.unique(combined, return_inverse=True)
        q = int(config.max()) + 1
    else:
        config = np.zeros(y.shape, dtype=np.int64)
        q = 1
    n_jk = np.bincount(config * r + y, minlength=q * r).reshape(q, r)
    n_j = n_jk.sum(axis=1)
    return float(
        q * gammaln(r) - gammaln(n_j + r).sum() + gammaln(n_jk + 1).sum()
    )


class FamilyScoreCache:
    """Memo of (child, sorted parent set) -> log family score for one dataset."""

    def __init__(self):
        self._table: dict[tuple[str, tuple[str, ...]], float] = {}
        self.hits = 0
        self.misses = 0

    def get(self, enc: _Encoded, child: str, parents: Iterable[str]) -> float:
        key = (child, tuple(sorted(parents)))
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        score = _family_score(enc, child, key[1])
        self._table[key] = score
        return score


def k2_family_score(d: Dataset, child: str, parents: Iterable[str]) -> float:
    """Log K2 score of one node family on a discretized dataset."""
    parents = tuple(parents)
    for name in (child, *parents):
        if d.kind(name) != CATEGORICAL:
            raise StructureError(f"column {name!r} is continuous; discretize first")
    return _family_score(_Encoded(d), child, parents)


def k2_total_score(
    d: Dataset, g: Dag, cache: Optional[FamilyScoreCache] = None
) -> float:
    """Sum of family scores over all nodes of g (decomposable)."""
    enc = _Encoded(d)
    cache = cache or FamilyScoreCache()
    return sum(cache.get(enc, node, g.parents(node)) for node in g.nodes)


def orientation_guard(schema: Sequence[ColumnSchema]) -> ForbiddenPredicate:
    """Forbid edges from continuous-kind into categorical-kind columns.

    Structure search runs on discretized data, so the original kinds must
    be captured here; the rule keeps learned structures within the
    conditional linear-Gaussian family.
    """
    kinds = {c.name: c.kind for c in schema}

    def forbidden(parent: str, child: str) -> bool:
        return kinds.get(parent) == CONTINUOUS and kinds.get(child) == CATEGORICAL

    return forbidden


def _creates_cycle(parents: dict[str, set[str]], new_parent: str, child: str) -> bool:
    """Would adding new_parent -> child close a cycle? (is child an ancestor of new_parent)"""
    stack = [new_parent]
    seen = {new_parent}
    while stack:
        cur = stack.pop()
        for p in parents[cur]:
            if p == child:
                return True
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return False

# accepted move kinds in tie-break order
_ADD, _DELETE, _REVERSE = 0, 1, 2
_IMPROVE_EPS = 1e-9


def hill_climb(
    d: Dataset,
    constraints: Optional[EdgeConstraints] = None,
    max_parents: int = 4,
    forbidden: Optional[ForbiddenPredicate] = None,
) -> Dag:
    """Steepest-ascent hill climbing over DAGs under the K2 score.

    Starts from the graph holding exactly the required edges.  Each step
    scores every legal add/delete/reverse move and applies the best
    strictly improving one; ties break by move kind (add < delete <
    reverse), then parent schema index, then child schema index.  With
    ``constraints.removable`` false, required edges may not be deleted or
    reversed.  Deterministic for fixed inputs.
    """
    constraints = constraints or EdgeConstraints()
    if max_parents < 1:
        raise StructureError(f"max_parents must be >= 1, got {max_parents}")
    enc = _Encoded(d)
    cache = FamilyScoreCache()
    nodes = d.names
    idx = {n: i for i, n in enumerate(nodes)}

    constraints.validate(nodes)
    required = set(constraints.required_edges)
    protected = required if not constraints.removable else set()
    if forbidden is not None:
        for p, c in sorted(required, key=lambda e: (idx[e[0]], idx[e[1]])):
            if forbidden(p, c):
                raise GraphError(f"required edge ({p!r}, {c!r}) violates the edge predicate")

    parents: dict[str, set[str]] = {n: set() for n in nodes}
    for p, c in required:
        parents[c].add(p)

    def family(child: str) -> float:
        return cache.get(enc, child, parents[child])

    while True:
        best = None  # (delta, kind, p_idx, c_idx, apply)
        for p in nodes:
            for c in nodes:
                if p == c:
                    continue
                if p in parents[c] or c in parents[p]:
                    continue
                if forbidden is not None and forbidden(p, c):
                    continue
                if len(parents[c]) >= max_parents:
                    continue
                if _creates_cycle(parents, p, c):
                    continue
                delta = cache.get(enc, c, parents[c] | {p}) - family(c)
                key = (delta, _ADD, idx[p], idx[c])
                if best is None or _better(key, best[0]):
                    best = (key, ("add", p, c))
        for p in nodes:
            for c in nodes:
                if p not in parents[c] or (p, c) in protected:
                    continue
                delta = cache.get(enc, c, parents[c] - {p}) - family(c)
                key = (delta, _DELETE, idx[p], idx[c])
                if best is None or _better(key, best[0]):
                    best = (key, ("delete", p, c))
                # reversal = delete p->c, add c->p
                if forbidden is not None and forbidden(c, p):
                    continue
                if len(parents[p]) >= max_parents:
                    continue
                parents[c].discard(p)
                cyclic = _creates_cycle(parents, c, p)
                parents[c].add(p)
                if cyclic:
                    continue
                delta = (
                    cache.get(enc, c, parents[c] - {p})
                    - family(c)
                    + cache.get(enc, p, parents[p] | {c})
                    - family(p)
                )
                key = (delta, _REVERSE, idx[p], idx[c])
                if best is None or _better(key, best[0]):
                    best = (key, ("reverse", p, c))

        if best is None or best[0][0] <= _IMPROVE_EPS:
            break
        kind, p, c = best[1]
        if kind == "add":
            parents[c].add(p)
        elif kind == "delete":
            parents[c].discard(p)
        else:
            parents[c].discard(p)
            parents[p].add(c)

    edges: set[Edge] = {(p, c) for c in nodes for p in parents[c]}
    return Dag(tuple(nodes), frozenset(edges))


def _better(key, incumbent) -> bool:
    """Strictly larger delta wins; on a near-tie the smaller tie-break key wins."""
    if key[0] > incumbent[0] + _IMPROVE_EPS:
        return True
    if key[0] < incumbent[0] - _IMPROVE_EPS:
        return False
    return key[1:] < incumbent[1:]
