"""Directed acyclic graphs over named variables.

Dag values are immutable and their constructor refuses unknown nodes,
self-loops and cycles, so a Dag in hand is always valid; a changed graph
is a new ``Dag(nodes, edges)``.  The constructor also fixes each node's
ordered parents and the topological order, so each read is a lookup.
Node declaration order is significant: it drives every deterministic
tie-break downstream (topological order, search move ordering).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CycleError, GraphError

Edge = tuple[str, str]


@dataclass(frozen=True)
class Dag:
    nodes: tuple[str, ...]
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node names")
        known = set(self.nodes)
        for p, c in self.edges:
            if p not in known or c not in known:
                raise GraphError(f"edge ({p!r}, {c!r}) references unknown node")
            if p == c:
                raise GraphError(f"self-loop on {p!r}")
        parents = {c: tuple(p for p in self.nodes if (p, c) in self.edges) for c in self.nodes}
        # Kahn's algorithm; among ready nodes the earliest-declared wins
        indeg = {n: len(ps) for n, ps in parents.items()}
        order: list[str] = []
        remaining = list(self.nodes)
        while remaining:
            ready = next((n for n in remaining if indeg[n] == 0), None)
            if ready is None:
                raise CycleError("graph contains a directed cycle")
            order.append(ready)
            remaining.remove(ready)
            for c in remaining:
                if ready in parents[c]:
                    indeg[c] -= 1
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_order", tuple(order))

    def parents(self, node: str) -> tuple[str, ...]:
        """Parents of node in declaration order."""
        if node not in self._parents:
            raise GraphError(f"unknown node {node!r}")
        return self._parents[node]

    def topological_order(self) -> list[str]:
        """Nodes with every parent before its children; ties go to the earliest-declared."""
        return list(self._order)


@dataclass(frozen=True)
class EdgeConstraints:
    """Expert-supplied edges; protected from deletion/reversal unless removable."""

    required_edges: frozenset[Edge] = field(default_factory=frozenset)
    removable: bool = False

    def __post_init__(self):
        object.__setattr__(self, "required_edges", frozenset(self.required_edges))
