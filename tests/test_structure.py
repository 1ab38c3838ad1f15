import itertools
import math
import tracemalloc

import numpy as np
import pytest

from k2_reference import hill_climb_reference
from synth import clg5_dataset, clg5_weak_dataset, random_binary_dataset, reservoir_like_dataset
from synth import with_blanks as _with_blanks

from mixbn import structure
from mixbn.dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset, quantile_discretize, select_rows
from mixbn.errors import GraphError, StructureError
from mixbn.graph import Dag, EdgeConstraints
from mixbn.parameters import mixlearn
from mixbn.structure import (
    FamilyScoreCache,
    hill_climb,
    k2_family_score,
    k2_total_score,
    orientation_guard,
)


def cat_dataset(columns):
    names = sorted(columns)
    schema = tuple(ColumnSchema(n, CATEGORICAL) for n in names)
    n = len(next(iter(columns.values())))
    rows = tuple(tuple(columns[name][i] for name in names) for i in range(n))
    return Dataset(schema, rows)


def oracle_family_score(dataset, child, parents):
    """Independent factorial evaluation of the K2 family score."""
    ci = dataset.col_index(child)
    pis = [dataset.col_index(p) for p in parents]
    rows = [r for r in dataset.rows if r[ci] is not None and all(r[j] is not None for j in pis)]
    states = sorted({v for v in dataset.column(child) if v is not None})
    r = len(states)
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[j] for j in pis), []).append(row[ci])
    total = 0.0
    for vals in groups.values():
        n_j = len(vals)
        total += math.log(math.factorial(r - 1)) - math.log(math.factorial(n_j + r - 1))
        for s in states:
            total += math.log(math.factorial(vals.count(s)))
    return total


def all_three_node_dags(names):
    """Every DAG over three labeled nodes (25 of them)."""
    pairs = list(itertools.permutations(names, 2))
    dags = []
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        edges = {e for e, b in zip(pairs, bits) if b}
        if any((c, p) in edges for p, c in edges):
            continue
        try:
            dags.append(Dag(tuple(names), frozenset(edges)))
        except GraphError:
            continue
    return dags


class TestK2FamilyScore:
    def test_two_state_no_parent_hand_value(self):
        d = cat_dataset({"A": ["x", "x", "y"]})
        assert k2_family_score(d, "A", []) == pytest.approx(math.log(2 / 24), abs=1e-12)

    def test_single_state_child_scores_zero(self):
        d = cat_dataset({"A": ["x", "x", "x"], "B": ["p", "q", "p"]})
        assert k2_family_score(d, "A", ["B"]) == pytest.approx(0.0, abs=1e-12)

    def test_all_families_match_factorial_oracle(self):
        cols = {
            "A": ["0", "0", "0", "0", "1", "1", "1", "1"],
            "B": ["0", "0", "1", "1", "0", "0", "1", "1"],
            "C": ["0", "1", "0", "1", "0", "1", "0", "1"],
        }
        d = cat_dataset(cols)
        for child in cols:
            others = [n for n in cols if n != child]
            for k in range(len(others) + 1):
                for parents in itertools.combinations(others, k):
                    assert k2_family_score(d, child, parents) == pytest.approx(
                        oracle_family_score(d, child, parents), abs=1e-9
                    )

    def test_continuous_column_rejected(self):
        d = Dataset((ColumnSchema("A", CONTINUOUS),), ((1.0,),))
        with pytest.raises(StructureError):
            k2_family_score(d, "A", [])

    def test_child_among_its_own_parents_rejected(self):
        with pytest.raises(StructureError, match="names a node twice"):
            k2_family_score(random_binary_dataset(0, 20), "A", ["A"])

    def test_repeated_parent_rejected(self):
        with pytest.raises(StructureError, match="names a node twice"):
            k2_family_score(random_binary_dataset(0, 20), "A", ["B", "B"])

    def test_high_cardinality_parents_match_oracle(self):
        # 60**4 parent configurations on 200 rows: the codes must be compacted
        rng = np.random.default_rng(0)
        cols = {p: [f"v{k}" for k in rng.integers(0, 60, 200)] for p in ("P1", "P2", "P3", "P4")}
        cols["Y"] = [("y0", "y1", "y2")[k] for k in rng.integers(0, 3, 200)]
        cols["P2"][::7] = [None] * len(cols["P2"][::7])
        d = cat_dataset(cols)
        parents = ["P4", "P1", "P3", "P2"]
        tracemalloc.start()
        try:
            score = k2_family_score(d, "Y", parents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert score == pytest.approx(oracle_family_score(d, "Y", parents), abs=1e-9)
        assert peak < 2**20  # counting arrays stay near rows x cardinality

    def test_missing_rows_excluded_per_family(self):
        d = cat_dataset({"A": ["x", "y", None], "B": [None, "p", "q"]})
        assert k2_family_score(d, "A", []) == pytest.approx(
            oracle_family_score(d, "A", []), abs=1e-12
        )
        assert k2_family_score(d, "A", ["B"]) == pytest.approx(
            oracle_family_score(d, "A", ["B"]), abs=1e-12
        )


class TestK2TotalScore:
    def test_empty_graph_is_sum_of_parentless_families(self):
        d = random_binary_dataset(0, 12)
        g = Dag(tuple(d.names))
        expected = sum(k2_family_score(d, n, []) for n in d.names)
        assert k2_total_score(d, g) == pytest.approx(expected, abs=1e-12)

    def test_edge_changes_only_child_term(self):
        d = random_binary_dataset(1, 12)
        g0 = Dag(tuple(d.names))
        g1 = Dag(g0.nodes, {("A", "B")})
        delta = k2_total_score(d, g1) - k2_total_score(d, g0)
        family_delta = k2_family_score(d, "B", ["A"]) - k2_family_score(d, "B", [])
        assert delta == pytest.approx(family_delta, abs=1e-9)

    def test_all_25_dags_match_enumeration_oracle(self):
        d = random_binary_dataset(2, 10)
        dags = all_three_node_dags(d.names)
        assert len(dags) == 25
        for g in dags:
            expected = sum(oracle_family_score(d, n, sorted(g.parents(n))) for n in g.nodes)
            assert k2_total_score(d, g) == pytest.approx(expected, abs=1e-9)

    def test_cache_transparency(self):
        d = random_binary_dataset(3, 14)
        cache = FamilyScoreCache()
        for g in all_three_node_dags(d.names):
            cached = sum(cache.get(d, n, g.parents(n)) for n in g.nodes)
            assert cached == pytest.approx(k2_total_score(d, g), abs=1e-12)
        assert cache.hits > 0


class TestHillClimb:
    def test_copied_column_gets_an_edge(self):
        labels = [("0", "1")[i % 2] for i in range(50)]
        d = cat_dataset({"X": labels, "Y": list(labels)})
        g = hill_climb(d)
        assert g.edges in ({("X", "Y")}, {("Y", "X")})

    def test_single_column_dataset(self):
        d = cat_dataset({"X": ["0", "1", "0"]})
        assert hill_climb(d).edges == frozenset()

    def test_protected_expert_edge_survives_independence(self):
        rng_labels = [("0", "1")[(i // 2) % 2] for i in range(40)]
        other = [("0", "1")[i % 2] for i in range(40)]
        d = cat_dataset({"A": rng_labels, "B": other})
        ec = EdgeConstraints(frozenset({("A", "B")}), removable=False)
        g = hill_climb(d, constraints=ec)
        assert ("A", "B") in g.edges

    def test_removable_expert_edge_is_warm_start_only(self):
        # A and B independent: with removable=True the useless edge is dropped
        a = [("0", "1")[(i // 2) % 2] for i in range(40)]
        b = [("0", "1")[i % 2] for i in range(40)]
        d = cat_dataset({"A": a, "B": b})
        ec = EdgeConstraints(frozenset({("A", "B")}), removable=True)
        g = hill_climb(d, constraints=ec)
        assert ("A", "B") not in g.edges

    def test_local_optimality_by_exhaustive_rescan(self):
        d = random_binary_dataset(5, 16)
        g = hill_climb(d)
        base = k2_total_score(d, g)
        for move in _single_moves(g):
            assert k2_total_score(d, move) <= base + 1e-9

    def test_determinism(self):
        d = random_binary_dataset(6, 16)
        assert hill_climb(d).edges == hill_climb(d).edges

    def test_max_parents_below_one_rejected(self):
        with pytest.raises(StructureError, match="max_parents must be >= 1"):
            hill_climb(random_binary_dataset(0, 12), max_parents=0)

    def test_max_parents_respected(self):
        d = random_binary_dataset(7, 16, names=("A", "B", "C", "D"))
        g = hill_climb(d, max_parents=1)
        for n in g.nodes:
            assert len(g.parents(n)) <= 1

    def test_forbidden_predicate_respected(self):
        labels = [("0", "1")[i % 2] for i in range(50)]
        d = cat_dataset({"X": labels, "Y": list(labels)})
        g = hill_climb(d, forbidden=lambda p, c: (p, c) == ("X", "Y"))
        assert ("X", "Y") not in g.edges

    def test_required_edge_violating_predicate_errors(self):
        d = random_binary_dataset(8, 10, names=("A", "B"))
        ec = EdgeConstraints(frozenset({("A", "B")}))
        with pytest.raises(GraphError):
            hill_climb(d, constraints=ec, forbidden=lambda p, c: True)


    def test_move_below_the_row_floor_is_skipped(self):
        # B and C overlap in row 9 only: C | B has one complete row
        d = cat_dataset({
            "A": [str(i % 2) for i in range(20)],
            "B": [str(i // 3 % 2) if i < 10 else None for i in range(20)],
            "C": [str(i // 2 % 2) if i >= 9 else None for i in range(20)],
        })
        assert ("B", "C") in hill_climb(d).edges
        g = hill_climb(d, min_rows={"B": 2, "C": 2})
        assert g.edges == {("B", "A"), ("C", "A")}
        for child in ("B", "C"):
            assert d.present(child, *g.parents(child)).sum() >= 2
        with pytest.raises(StructureError, match="fewer than 2 complete-case rows"):
            hill_climb(d, EdgeConstraints(frozenset({("B", "C")})), min_rows={"C": 2})

    def test_cache_applies_the_row_floor(self):
        d = random_binary_dataset(9, 12)
        cache = FamilyScoreCache()
        score = cache.get(d, "A", ["B"])
        assert cache.get(d, "A", ["B"], min_rows=12) == score
        with pytest.raises(StructureError, match="fewer than 13"):
            cache.get(d, "A", ["B"], min_rows=13)
        assert (cache.misses, cache.hits) == (1, 2)

    def test_move_whose_family_has_no_complete_rows_is_skipped(self):
        # A is present on odd rows only and B on even rows only
        schema = (ColumnSchema("A", CATEGORICAL), ColumnSchema("B", CATEGORICAL),
                  ColumnSchema("X", CONTINUOUS))
        rows = [
            (None if i % 2 == 0 else ("a0", "a1")[i % 4 // 2],
             None if i % 2 == 1 else ("b0", "b1", "b2")[i % 3],
             float(i % 4 // 2 * 3.0 + 0.1 * (i % 5)))
            for i in range(60)
        ]
        d = Dataset(schema, rows)
        model = mixlearn(d, bins=3)
        assert not {("A", "B"), ("B", "A")} & model.dag.edges
        with pytest.raises(StructureError, match="no complete-case rows"):
            mixlearn(d, EdgeConstraints(frozenset({("A", "B")})), bins=3)

    def test_constructs_the_cache_class_through_the_module_global(self, monkeypatch):
        # bench/tracing.py counts family scores by patching this name the same way
        made = []

        class Recorded(structure.FamilyScoreCache):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(structure, "FamilyScoreCache", Recorded)
        d = _with_blanks(reservoir_like_dataset(3, 200), 0.05, 3)
        disc, _ = quantile_discretize(d, 5)
        guard = orientation_guard(d.schema)
        dag = hill_climb(disc, forbidden=guard)
        ref_dag, ref_scores = hill_climb_reference(disc, forbidden=guard)
        assert dag == ref_dag
        assert len(made) == 1
        assert made[0].misses == len(ref_scores)


_GENERATORS = {
    "clg5": (clg5_dataset, frozenset({("A", "X"), ("B", "Y")})),
    "clg5_weak": (clg5_weak_dataset, frozenset({("A", "X"), ("B", "Y")})),
    "reservoir": (reservoir_like_dataset, frozenset({("Period", "Lithology"), ("Lithology", "Porosity")})),
}
_REFERENCE_CASES = [
    (generator, n_rows, max_parents, required)
    for generator in _GENERATORS
    for n_rows in (40, 500)
    for max_parents in (1, 2, 4)
    for required in ("none", "removable", "protected")
]


@pytest.mark.parametrize(
    "seed, generator, n_rows, bins, max_parents, required",
    [
        pytest.param(seed, g, n, 3 if seed % 2 else 5, mp, req, id=f"{seed}-{g}-{n}rows-mp{mp}-{req}")
        for seed, (g, n, mp, req) in enumerate(_REFERENCE_CASES)
    ],
)
def test_search_and_scores_match_the_full_rescan_reference(
    seed, generator, n_rows, bins, max_parents, required
):
    make, edges = _GENERATORS[generator]
    d = _with_blanks(make(seed, n_rows), 0.05, seed)
    disc, _ = quantile_discretize(d, bins)
    constraints = None
    if required != "none":
        constraints = EdgeConstraints(edges, removable=required == "removable")
    guard = orientation_guard(d.schema)
    dag = hill_climb(disc, constraints, max_parents=max_parents, forbidden=guard)
    ref_dag, ref_scores = hill_climb_reference(disc, constraints, max_parents=max_parents, forbidden=guard)
    assert dag == ref_dag
    cache = FamilyScoreCache()
    for (child, parents), score in ref_scores.items():
        assert cache.get(disc, child, parents) == score


def test_lgamma_table_keeps_the_graphs_scipy_gammaln_gave(monkeypatch):
    # the K2 table once came from scipy.special.gammaln; math.lgamma differs in the last bits
    gammaln = pytest.importorskip("scipy.special").gammaln
    size = 10**5 + 1
    table, old = structure.lgamma_table(size), gammaln(np.arange(size))
    assert table[0] == old[0] == math.inf
    assert np.all(np.abs(table[1:] - old[1:]) <= 4 * np.spacing(np.abs(old[1:])))
    assert not table.flags.writeable

    tables = []
    for seed in (1, 7919):
        d = _with_blanks(reservoir_like_dataset(seed, 1073), 0.05, seed)
        rng = np.random.default_rng(seed)
        tables += [d, *(select_rows(d, rng.choice(d.n_rows, 40, replace=False)) for _ in range(15))]

    def learned():
        return [hill_climb(quantile_discretize(t, 5)[0], forbidden=orientation_guard(t.schema)) for t in tables]

    graphs = learned()
    monkeypatch.setattr(structure, "lgamma_table", lambda n: gammaln(np.arange(n)))
    assert learned() == graphs


def _single_moves(g):
    nodes = g.nodes
    for p in nodes:
        for c in nodes:
            if p == c:
                continue
            if (p, c) not in g.edges and (c, p) not in g.edges:
                try:
                    yield Dag(g.nodes, g.edges | {(p, c)})
                except GraphError:
                    pass
    for p, c in g.edges:
        yield Dag(g.nodes, g.edges - {(p, c)})
        try:
            yield Dag(g.nodes, g.edges - {(p, c)} | {(c, p)})
        except GraphError:
            pass


class TestOrientationGuard:
    schema = [
        ColumnSchema("Lithology", CATEGORICAL),
        ColumnSchema("Period", CATEGORICAL),
        ColumnSchema("Porosity", CONTINUOUS),
    ]

    def test_continuous_into_categorical_forbidden(self):
        assert orientation_guard(self.schema)("Porosity", "Lithology")

    def test_categorical_into_continuous_allowed(self):
        assert not orientation_guard(self.schema)("Lithology", "Porosity")

    def test_categorical_pair_allowed(self):
        assert not orientation_guard(self.schema)("Period", "Lithology")
