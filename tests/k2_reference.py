"""Reference K2 hill climbing: the full-rescan search that ``structure.hill_climb`` must match.

Every step rescores each legal move through a memo of family scores, finds
cycles by depth-first search, and numbers parent configurations with
``np.unique``.  ``hill_climb_reference`` returns the learned DAG together with
every family score it computed, so tests can check the incremental search
move for move and the counting kernel score for score.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from mixbn.dataset import Dataset
from mixbn.errors import GraphError, StructureError
from mixbn.graph import Dag, EdgeConstraints

_ADD, _DELETE, _REVERSE = 0, 1, 2
_IMPROVE_EPS = 1e-9
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def family_score_reference(d: Dataset, child: str, parents: Sequence[str]) -> float:
    mask = d.present(child, *parents)
    if not mask.any():
        raise StructureError(
            f"no complete-case rows for family ({child!r} | {sorted(parents)})"
        )
    y = d.array(child)[mask]
    r = len(d.labels(child))
    if parents:
        combined = np.zeros(y.shape, dtype=np.int64)
        for p in parents:
            combined = combined * len(d.labels(p)) + d.array(p)[mask]
        _, config = np.unique(combined, return_inverse=True)
        q = int(config.max()) + 1
    else:
        config = np.zeros(y.shape, dtype=np.int64)
        q = 1
    n_jk = np.bincount(config * r + y, minlength=q * r).reshape(q, r)
    n_j = n_jk.sum(axis=1)
    return float(
        q * math.lgamma(r) - _lgamma(n_j + r).sum() + _lgamma(n_jk + 1).sum()
    )


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


def hill_climb_reference(
    d: Dataset,
    constraints: Optional[EdgeConstraints] = None,
    max_parents: int = 4,
    forbidden=None,
) -> tuple[Dag, dict[tuple[str, tuple[str, ...]], float]]:
    """The learned DAG and the memo of (child, sorted parents) -> score it filled."""
    constraints = constraints or EdgeConstraints()
    scores: dict[tuple[str, tuple[str, ...]], float] = {}

    def get(child, parents):
        key = (child, tuple(sorted(parents)))
        if key not in scores:
            scores[key] = family_score_reference(d, child, key[1])
        return scores[key]

    nodes = d.names
    idx = {n: i for i, n in enumerate(nodes)}
    Dag(tuple(nodes), constraints.required_edges)
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
        return get(child, parents[child])

    while True:
        best = None
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
                delta = get(c, parents[c] | {p}) - family(c)
                key = (delta, _ADD, idx[p], idx[c])
                if best is None or _better(key, best[0]):
                    best = (key, ("add", p, c))
        for p in nodes:
            for c in nodes:
                if p not in parents[c] or (p, c) in protected:
                    continue
                delta = get(c, parents[c] - {p}) - family(c)
                key = (delta, _DELETE, idx[p], idx[c])
                if best is None or _better(key, best[0]):
                    best = (key, ("delete", p, c))
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
                    get(c, parents[c] - {p})
                    - family(c)
                    + get(p, parents[p] | {c})
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

    edges = {(p, c) for c in nodes for p in parents[c]}
    return Dag(tuple(nodes), frozenset(edges)), scores


def _better(key, incumbent) -> bool:
    if key[0] > incumbent[0] + _IMPROVE_EPS:
        return True
    if key[0] < incumbent[0] - _IMPROVE_EPS:
        return False
    return key[1:] < incumbent[1:]
