import random

import pytest

from synth import random_binary_dataset

from mixbn.errors import CycleError, GraphError
from mixbn.graph import Dag, EdgeConstraints
from mixbn.structure import hill_climb


def dag(nodes, edges=()):
    return Dag(tuple(nodes), frozenset(edges))


class TestConstructor:
    def test_cycle_refused(self):
        with pytest.raises(CycleError):
            dag("ABC", {("A", "B"), ("B", "C"), ("C", "A")})

    def test_cycle_beside_acyclic_tail_refused(self):
        # the chain A->B->C->D->E with its shortcut A->D turned round to D->A
        with pytest.raises(CycleError):
            dag("ABCDE", {("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"), ("D", "E")})

    def test_self_loop_refused(self):
        with pytest.raises(GraphError):
            dag("A", {("A", "A")})

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            dag("AB", {("A", "Z")})

    def test_duplicate_node_names(self):
        with pytest.raises(GraphError, match="duplicate node names"):
            dag("ABA")


class TestTopologicalOrder:
    def test_chain(self):
        assert dag("ABC", {("A", "B"), ("B", "C")}).topological_order() == ["A", "B", "C"]

    def test_declaration_order_without_edges(self):
        assert dag(["X", "Y"]).topological_order() == ["X", "Y"]

    def test_ties_by_declaration_order(self):
        assert dag("ABC", {("A", "C"), ("B", "C")}).topological_order() == ["A", "B", "C"]

    def test_parent_precedes_child_property(self):
        rng = random.Random(11)
        for _ in range(30):
            nodes = [f"n{i}" for i in range(6)]
            # edges point forward in a random node order, so the graph is acyclic
            rank = rng.sample(nodes, len(nodes))
            edges = {tuple(sorted(rng.sample(nodes, 2), key=rank.index)) for _ in range(10)}
            g = dag(nodes, edges)
            order = g.topological_order()
            for p, c in g.edges:
                assert order.index(p) < order.index(c)


class TestParents:
    def test_parent_set(self):
        g = dag("ABC", {("A", "C"), ("B", "C")})
        assert g.parents("C") == ("A", "B")
        assert g.parents("A") == ()

    def test_parents_follow_declaration_order_not_edge_order(self):
        g = Dag(("C", "A", "X", "B"), [("A", "X"), ("B", "X"), ("C", "X")])
        assert g.parents("X") == ("C", "A", "B")

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            dag("AB").parents("Z")


class TestEdgeConstraints:
    """The search's start graph, Dag(nodes, required_edges), checks the required set."""

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphError, match="unknown node"):
            hill_climb(random_binary_dataset(0, 10, names=("A", "B")),
                       EdgeConstraints(frozenset({("A", "Z")})))

    def test_cyclic_required_set_rejected(self):
        ec = EdgeConstraints(frozenset({("A", "B"), ("B", "A")}))
        with pytest.raises(CycleError):
            hill_climb(random_binary_dataset(0, 10, names=("A", "B")), ec)
