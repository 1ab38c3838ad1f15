"""Score-based structure learning: K2 scoring plus hill climbing search.

Scoring runs on a fully discretized dataset.  The score is the
Cooper-Herskovits K2 marginal likelihood in log form,

    sum_j [ lnGamma(r) - lnGamma(N_ij + r) + sum_k lnGamma(N_ijk + 1) ]

summed over the parent configurations j actually observed in the data
(unobserved configurations contribute nothing).  Rows missing any family
member are dropped from that family's counts.

Every family score comes from one counting kernel behind
``FamilyScoreCache``: parent configurations are numbered by mixed-radix
arithmetic over the parents in name order, counted with ``bincount`` and
scored from a log-gamma table built with ``math.lgamma`` (one read-only
table per size, memoized), so a family always gets the same score, bit for
bit, whichever caller asks.

``hill_climb`` is steepest ascent with incremental bookkeeping.  Each node
keeps its current family score and one score slot per candidate parent:
its family with that parent toggled.  A move's delta is read from the
slots, and an applied move empties only the slots of the families it
changed (the child's, and the parent's too for a reversal).  A slot is
scored lazily, the first time its move is legal, so the search scores
exactly the families that rescoring every legal move at every step would.
Cycle checks read one ancestor bitset per node, recomputed after each
move.  Moves are compared in the rescan's order under its near-tie rule,
so the learned graph is the same too.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset, integer
from .errors import GraphError, StructureError
from .graph import Dag, Edge, EdgeConstraints

ForbiddenPredicate = Callable[[str, str], bool]


def _require_discrete(d: Dataset, names: Iterable[str]) -> None:
    for name in names:
        if d.kind(name) != CATEGORICAL:
            raise StructureError(f"column {name!r} is continuous; discretize first")


def _no_rows(child: str, parents: Iterable[str], need: int = 1) -> StructureError:
    have = "no" if need == 1 else f"fewer than {need}"
    return StructureError(f"{have} complete-case rows for family ({child!r} | {sorted(parents)})")


@lru_cache(maxsize=16)
def lgamma_table(size: int) -> np.ndarray:
    """Read-only lnGamma(k) for k = 0..size-1; k = 0 reads inf and is never looked up."""
    table = np.array([math.inf, *map(math.lgamma, range(1, size))])
    table.flags.writeable = False
    return table


class FamilyScoreCache:
    """Memo of (child, sorted parent set) -> (log K2 family score, complete-case
    rows) for one dataset.

    The first ``get`` on a dataset builds what every family shares: the
    categorical code arrays, their presence masks and cardinalities, and a
    log-gamma table.  A later ``get`` on another dataset starts afresh.
    ``misses`` counts family scores computed, ``hits`` scores served from
    the memo.
    """

    def __init__(self):
        self._data: Optional[Dataset] = None
        self.hits = 0
        self.misses = 0

    def _bind(self, d: Dataset) -> None:
        cat = [n for n in d.names if d.labels(n) is not None]
        # a missing cell reads as code 0, so codes combine over whole columns;
        # each family's presence mask then drops its incomplete rows once
        self._codes = {n: np.maximum(d.array(n), 0) for n in cat}
        self._present = {n: d.present(n) for n in cat}
        self._card = {n: len(d.labels(n)) for n in cat}
        self._lgamma = lgamma_table(d.n_rows + max(self._card.values(), default=0) + 2)
        self._zeros = np.zeros(d.n_rows, dtype=np.int64)
        self._table: dict[tuple[str, tuple[str, ...]], tuple[float, int]] = {}
        self._data = d

    def get(self, d: Dataset, child: str, parents: Iterable[str], min_rows: int = 1) -> float:
        """Family score; ``StructureError`` if fewer than min_rows rows are complete."""
        if d is not self._data:
            self._bind(d)
        key = (child, tuple(sorted(parents)))
        entry = self._table.get(key)
        if entry is None:
            entry = self._table[key] = self._score(child, key[1])
            self.misses += 1
        else:
            self.hits += 1
        score, rows = entry
        if rows < min_rows:
            raise _no_rows(child, key[1], min_rows)
        return score

    def _score(self, child: str, parents: tuple[str, ...]) -> tuple[float, int]:
        """K2 score of child given parents (in name order) and its complete-case
        row count; raises if no row is complete."""
        codes, card = self._codes, self._card
        mask = self._present[child]
        for p in parents:
            mask = mask & self._present[p]
        y = codes[child][mask]
        if len(y) == 0:
            raise _no_rows(child, parents)
        # Mixed-radix configuration codes, parents in name order.  Whenever the
        # radix product passes the row count, the codes in use are renumbered
        # 0.. in order, which bounds every counting array by rows x cardinality.
        config, size = self._zeros, 1
        for p in parents:
            # while size is 1 every code is 0, and the product starts at p's codes
            config = config * card[p] + codes[p] if size > 1 else codes[p]
            size *= card[p]
            if size > len(mask):
                rank = np.cumsum(np.bincount(config, minlength=size) > 0)
                config = rank[config] - 1
                size = int(rank[-1])
        config = config[mask]
        r = card[child]
        n_j = np.bincount(config, minlength=size)
        n_jk = np.bincount(config * r + y, minlength=size * r).reshape(size, r)
        seen = n_j > 0  # observed configurations in ascending code order
        n_j, n_jk = n_j[seen], n_jk[seen]
        lg = self._lgamma
        return float(len(n_j) * lg[r] - lg[r:][n_j].sum() + lg[1:][n_jk].sum()), len(y)


def k2_family_score(d: Dataset, child: str, parents: Iterable[str]) -> float:
    """Log K2 score of one node family on a discretized dataset."""
    parents = tuple(parents)
    if child in parents or len(set(parents)) != len(parents):
        raise StructureError(f"family ({child!r} | {list(parents)}) names a node twice")
    _require_discrete(d, (child, *parents))
    return FamilyScoreCache().get(d, child, parents)


def k2_total_score(d: Dataset, g: Dag) -> float:
    """Sum of family scores over all nodes of g (decomposable)."""
    _require_discrete(d, d.names)
    cache = FamilyScoreCache()
    return sum(cache.get(d, node, g.parents(node)) for node in g.nodes)


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


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ancestors(parents: list[int]) -> list[int]:
    """Ancestor bitset of every node, from the parent bitsets of a DAG."""
    anc: list[Optional[int]] = [None] * len(parents)

    def visit(x: int) -> int:
        if anc[x] is None:
            a = 0
            for q in _bits(parents[x]):
                a |= (1 << q) | visit(q)
            anc[x] = a
        return anc[x]

    return [visit(x) for x in range(len(parents))]


# accepted move kinds in tie-break order
_ADD, _DELETE, _REVERSE = 0, 1, 2
_IMPROVE_EPS = 1e-9
_EMPTY = object()  # slot of a family with fewer complete-case rows than its floor


def hill_climb(
    d: Dataset,
    constraints: Optional[EdgeConstraints] = None,
    max_parents: int = 4,
    forbidden: Optional[ForbiddenPredicate] = None,
    min_rows: Optional[Mapping[str, int]] = None,
) -> Dag:
    """Steepest-ascent hill climbing over DAGs under the K2 score.

    Starts from the graph holding exactly the required edges; an unknown
    node, a self-loop or a cycle among them raises ``GraphError`` (or
    ``CycleError``), and so does a required edge the predicate forbids.
    Each step scores every legal add/delete/reverse move and applies the
    best strictly improving one; ties break by move kind (add < delete <
    reverse), then parent schema index, then child schema index.  With
    ``constraints.removable`` false, required edges may not be deleted or
    reversed.  ``min_rows`` maps a child to the complete-case rows each of
    its families needs (1 for a child it does not name); a move whose new
    family has fewer is not legal, and a required edge whose family has
    fewer raises ``StructureError``.
    Deterministic for fixed inputs.

    Bookkeeping per node: a parent bitset, an ancestor bitset, the current
    family score and one score slot per candidate parent, the family with
    that parent toggled.  Adding p -> c is legal iff c is not an ancestor of
    p; reversing it iff p is not an ancestor of any other parent of c.  A
    delta is slot minus family score (two such terms for a reversal, added
    in the order a full rescan adds them), so each step picks exactly the
    move that rescoring every family would.  Slots fill lazily, when their
    move is legal, and an applied move empties only the changed families'
    slots.  Moves are compared with ``_better`` in one fixed scan order:
    all adds, then each deletion followed by its reversal, parent index
    outer and child index inner.  ``forbidden`` is asked once per ordered
    pair.
    """
    constraints = constraints or EdgeConstraints()
    if integer(max_parents, "max_parents", StructureError) < 1:
        raise StructureError(f"max_parents must be >= 1, got {max_parents}")
    _require_discrete(d, d.names)
    nodes = tuple(d.names)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    required = sorted((idx[p], idx[c]) for p, c in Dag(nodes, constraints.required_edges).edges)

    def names(mask: int) -> list[str]:
        return [nodes[q] for q in _bits(mask)]

    # allowed[p]: children p may take under the predicate; protected[p]: its required children
    allowed = [
        sum(1 << c for c in range(n) if c != p and not (forbidden and forbidden(nodes[p], nodes[c])))
        for p in range(n)
    ]
    protected = [0] * n
    parents = [0] * n
    children = [0] * n
    for p, c in required:
        if not allowed[p] >> c & 1:
            raise GraphError(f"required edge ({nodes[p]!r}, {nodes[c]!r}) violates the edge predicate")
        parents[c] |= 1 << p
        children[p] |= 1 << c
        if not constraints.removable:
            protected[p] |= 1 << c
    floor = [(min_rows or {}).get(v, 1) for v in nodes]
    for c in range(n):
        if parents[c] and d.present(nodes[c], *names(parents[c])).sum() < floor[c]:
            raise _no_rows(nodes[c], names(parents[c]), floor[c])
    anc = _ancestors(parents)

    cache = FamilyScoreCache()
    fam: list[Optional[float]] = [None] * n  # current family score, scored on first use
    slots: list[list] = [[None] * n for _ in range(n)]  # slots[c][q]: c's family with q toggled

    def delta(q: int, c: int) -> Optional[float]:
        """slots[c][q] - fam[c], filling the slot on first use; None if that family is below c's floor."""
        s = slots[c][q]
        if s is None:
            try:
                s = slots[c][q] = cache.get(d, nodes[c], names(parents[c] ^ (1 << q)), floor[c])
            except StructureError:
                s = slots[c][q] = _EMPTY
            if fam[c] is None and s is not _EMPTY:
                fam[c] = cache.get(d, nodes[c], names(parents[c]))
        return None if s is _EMPTY else s - fam[c]

    while True:
        best = None  # best legal move so far in scan order: (delta, kind, p, c)
        full = sum(1 << c for c in range(n) if parents[c].bit_count() >= max_parents)
        for p in range(n):
            for c in _bits(allowed[p] & ~(anc[p] | children[p] | full)):
                move = (delta(p, c), _ADD, p, c)
                if move[0] is not None and _better(move, best):
                    best = move
        for p in range(n):
            for c in _bits(children[p] & ~protected[p]):
                # dropping a parent keeps every complete row, so this delta exists
                move = (delta(p, c), _DELETE, p, c)
                if _better(move, best):
                    best = move
                # reversal = delete p->c, add c->p
                if not allowed[c] >> p & 1 or full >> p & 1:
                    continue
                if any(anc[q] >> p & 1 for q in _bits(parents[c] ^ (1 << p))) or delta(c, p) is None:
                    continue
                move = (move[0] + slots[p][c] - fam[p], _REVERSE, p, c)
                if _better(move, best):
                    best = move
        if best is None or best[0] <= _IMPROVE_EPS:
            break
        _, kind, p, c = best
        for child, parent in ((c, p), (p, c)) if kind == _REVERSE else ((c, p),):
            fam[child] = slots[child][parent]
            slots[child] = [None] * n
            parents[child] ^= 1 << parent
            children[parent] ^= 1 << child
        anc = _ancestors(parents)

    edges: set[Edge] = {(nodes[p], nodes[c]) for c in range(n) for p in _bits(parents[c])}
    return Dag(nodes, frozenset(edges))


def _better(key, incumbent) -> bool:
    """No incumbent, or a strictly larger delta; on a near-tie the smaller tie-break key wins."""
    if incumbent is None or key[0] > incumbent[0] + _IMPROVE_EPS:
        return True
    if key[0] < incumbent[0] - _IMPROVE_EPS:
        return False
    return key[1:] < incumbent[1:]
