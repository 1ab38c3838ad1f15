"""Directed acyclic graphs over named variables.

Dag values are immutable and their constructor refuses unknown nodes,
self-loops and cycles, so a Dag in hand is always valid; a changed graph
is a new ``Dag(nodes, edges)``.
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
        # raises CycleError if the edge set is cyclic
        self.topological_order()

    def parents(self, node: str) -> frozenset[str]:
        if node not in self.nodes:
            raise GraphError(f"unknown node {node!r}")
        return frozenset(p for p, c in self.edges if c == node)

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; among ready nodes the earliest-declared wins."""
        indeg = {n: 0 for n in self.nodes}
        for _, c in self.edges:
            indeg[c] += 1
        order: list[str] = []
        remaining = list(self.nodes)
        while remaining:
            ready = next((n for n in remaining if indeg[n] == 0), None)
            if ready is None:
                raise CycleError("graph contains a directed cycle")
            order.append(ready)
            remaining.remove(ready)
            for p, c in self.edges:
                if p == ready:
                    indeg[c] -= 1
        return order


@dataclass(frozen=True)
class EdgeConstraints:
    """Expert-supplied edges; protected from deletion/reversal unless removable."""

    required_edges: frozenset[Edge] = field(default_factory=frozenset)
    removable: bool = False

    def __post_init__(self):
        object.__setattr__(self, "required_edges", frozenset(self.required_edges))
