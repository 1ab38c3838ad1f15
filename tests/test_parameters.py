import numpy as np
import pytest

from synth import CLG5_SKELETON, clg5_dataset, reservoir_like_dataset, with_blanks

from mixbn.dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset, select_rows
from mixbn.errors import ParameterError
from mixbn.graph import EdgeConstraints
from mixbn.parameters import (
    MIN_FIT_ROWS,
    BayesianNetworkModel,
    ConditionalLinearGaussian,
    Cpt,
    LinearGaussian,
    fit_conditional_linear_gaussian,
    fit_cpt,
    fit_linear_gaussian,
    mixlearn,
)


def make(columns, rows):
    return Dataset(tuple(ColumnSchema(n, k) for n, k in columns), tuple(rows))


class TestFitCpt:
    def test_laplace_smoothing(self):
        d = make([("A", CATEGORICAL)], [("a",), ("a",), ("b",)])
        cpt = fit_cpt(d, "A", [])
        assert cpt.states == ("a", "b")
        assert cpt.table[()] == pytest.approx((3 / 5, 2 / 5))

    def test_one_parent_against_counting_oracle(self):
        rows = [("p", "a"), ("p", "a"), ("p", "b"), ("p", "a"),
                ("q", "b"), ("q", "b"), ("q", "a"), ("q", "b")]
        d = make([("P", CATEGORICAL), ("A", CATEGORICAL)], rows)
        cpt = fit_cpt(d, "A", ["P"])
        # counts (3, 1) and (1, 3), each plus one pseudo-count
        assert cpt.table[("p",)] == pytest.approx((4 / 6, 2 / 6))
        assert cpt.table[("q",)] == pytest.approx((2 / 6, 4 / 6))

    def test_rows_sum_to_one(self):
        rows = [("p", "a"), ("q", "b"), ("p", "b"), ("q", "c")]
        d = make([("P", CATEGORICAL), ("A", CATEGORICAL)], rows)
        cpt = fit_cpt(d, "A", ["P"])
        for probs in cpt.table.values():
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_continuous_column_rejected(self):
        d = make([("A", CONTINUOUS)], [(1.0,)])
        with pytest.raises(ParameterError):
            fit_cpt(d, "A", [])

    def test_all_missing_column_rejected(self):
        d = make([("A", CATEGORICAL)], [(None,), (None,)])
        with pytest.raises(ParameterError, match="no complete-case rows"):
            fit_cpt(d, "A", [])

    @pytest.mark.parametrize("states", [(), ("a", "a"), (1, 2), ["a", "b"], "ab"])
    def test_states_must_be_distinct_labels(self, states):
        with pytest.raises(ParameterError, match="states"):
            Cpt(states, {})


class TestFitLinearGaussian:
    def test_exact_linear_relation(self):
        rows = [(float(x), 2.0 * x) for x in range(1, 11)]
        d = make([("X", CONTINUOUS), ("Y", CONTINUOUS)], rows)
        lg = fit_linear_gaussian(d, "Y", ["X"])
        assert lg.coefficients["X"] == pytest.approx(2.0, abs=1e-4)
        assert lg.residual_variance == pytest.approx(0.0, abs=1e-6)

    def test_no_parents_population_moments(self):
        d = make([("Y", CONTINUOUS)], [(1.0,), (3.0,)])
        lg = fit_linear_gaussian(d, "Y", [])
        assert lg.intercept == pytest.approx(2.0)
        assert lg.residual_variance == pytest.approx(1.0)  # divide-by-n convention
        assert lg.coefficients == {}

    def test_two_parents_against_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        x1 = rng.uniform(-2, 2, 500)
        x2 = rng.uniform(-2, 2, 500)
        y = 3.0 + 0.5 * x1 - 2.0 * x2 + 0.1 * rng.standard_normal(500)
        d = make(
            [("X1", CONTINUOUS), ("X2", CONTINUOUS), ("Y", CONTINUOUS)],
            list(zip(x1, x2, y)),
        )
        lg = fit_linear_gaussian(d, "Y", ["X1", "X2"])
        assert lg.coefficients["X1"] == pytest.approx(0.5, abs=0.05)
        assert lg.coefficients["X2"] == pytest.approx(-2.0, abs=0.05)
        # independent oracle: unregularized normal equations
        a = np.column_stack([np.ones(500), x1, x2])
        beta = np.linalg.solve(a.T @ a, a.T @ y)
        assert lg.intercept == pytest.approx(beta[0], abs=1e-4)
        assert lg.coefficients["X1"] == pytest.approx(beta[1], abs=1e-4)
        assert lg.coefficients["X2"] == pytest.approx(beta[2], abs=1e-4)

    def test_residual_never_exceeds_marginal_variance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            d = make([("X", CONTINUOUS), ("Y", CONTINUOUS)], list(zip(x, y)))
            lg = fit_linear_gaussian(d, "Y", ["X"])
            assert lg.residual_variance <= np.var(y) + 1e-9

    def test_too_few_rows(self):
        d = make([("Y", CONTINUOUS)], [(1.0,)])
        with pytest.raises(ParameterError):
            fit_linear_gaussian(d, "Y", [])


class TestFitConditionalLinearGaussian:
    def test_constant_groups(self):
        rows = [("u", 10.0)] * 3 + [("v", 20.0)] * 3
        d = make([("G", CATEGORICAL), ("Y", CONTINUOUS)], rows)
        clg = fit_conditional_linear_gaussian(d, "Y", ["G"], [])
        assert clg.table[("u",)].intercept == pytest.approx(10.0)
        assert clg.table[("v",)].intercept == pytest.approx(20.0)
        assert clg.table[("u",)].residual_variance == pytest.approx(0.0)

    def test_unseen_combination_uses_fallback(self):
        rows = [("u", 10.0)] * 4
        d = make([("G", CATEGORICAL), ("Y", CONTINUOUS)], rows)
        clg = fit_conditional_linear_gaussian(d, "Y", ["G"], [])
        assert clg.for_combination(("w",)) is clg.fallback

    def test_singleton_group_falls_back(self):
        rows = [("u", 10.0), ("u", 12.0), ("v", 99.0)]
        d = make([("G", CATEGORICAL), ("Y", CONTINUOUS)], rows)
        clg = fit_conditional_linear_gaussian(d, "Y", ["G"], [])
        assert ("v",) not in clg.table
        assert clg.for_combination(("v",)) is clg.fallback

    def test_combination_counts_only_rows_that_hold_the_child_and_every_parent(self):
        # "v" appears 4 times but holds the child and X together only once
        rows = [("u", 1.0, 2.0), ("u", 2.0, 4.0), ("u", 3.0, 6.0),
                ("v", 1.0, None), ("v", None, 5.0), ("v", None, None), ("v", 2.0, 9.0)]
        d = make([("G", CATEGORICAL), ("X", CONTINUOUS), ("Y", CONTINUOUS)], rows)
        clg = fit_conditional_linear_gaussian(d, "Y", ["G"], ["X"])
        assert list(clg.table) == [("u",)]
        assert clg.table[("u",)].coefficients["X"] == pytest.approx(2.0, abs=1e-4)

    def test_per_group_slopes_against_oracle(self):
        rng = np.random.default_rng(17)
        slopes = {("u", "s"): 1.0, ("u", "t"): -1.5, ("v", "s"): 2.5, ("v", "t"): 0.3}
        rows = []
        for (g1, g2), slope in slopes.items():
            x = rng.uniform(-3, 3, 200)
            y = slope * x + 0.1 * rng.standard_normal(200)
            rows += [(g1, g2, float(a), float(b)) for a, b in zip(x, y)]
        d = make(
            [("G1", CATEGORICAL), ("G2", CATEGORICAL), ("X", CONTINUOUS), ("Y", CONTINUOUS)],
            rows,
        )
        clg = fit_conditional_linear_gaussian(d, "Y", ["G1", "G2"], ["X"])
        for combo, slope in slopes.items():
            assert clg.table[combo].coefficients["X"] == pytest.approx(slope, abs=0.05)

    def test_intercept_only_group_mean(self):
        rows = [("u", 1.0), ("u", 2.0), ("u", 6.0), ("v", 5.0), ("v", 7.0)]
        d = make([("G", CATEGORICAL), ("Y", CONTINUOUS)], rows)
        clg = fit_conditional_linear_gaussian(d, "Y", ["G"], [])
        assert clg.table[("u",)].intercept == pytest.approx(3.0, abs=1e-9)
        assert clg.table[("v",)].intercept == pytest.approx(6.0, abs=1e-9)

    def test_child_must_be_continuous(self):
        d = make([("G", CATEGORICAL), ("A", CATEGORICAL)], [("u", "a")])
        with pytest.raises(ParameterError):
            fit_conditional_linear_gaussian(d, "A", ["G"], [])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Cpt(("a", "b"), {(): (1.0,)}), "length mismatch", id="short CPT row"),
        pytest.param(lambda: Cpt(("a", "b"), {(): (0.5, 0.6)}), "not a finite distribution",
                     id="CPT row summing to 1.1"),
        pytest.param(lambda: LinearGaussian(np.nan, {}, 1.0), "must be finite", id="NaN intercept"),
        pytest.param(lambda: LinearGaussian(0.0, {"X": np.inf}, 1.0), "must be finite", id="infinite coefficient"),
        pytest.param(lambda: LinearGaussian(0.0, {}, np.inf), "residual variance", id="infinite variance"),
        pytest.param(lambda: fit_linear_gaussian(make([("A", CATEGORICAL)], [("a",), ("b",)]), "A", []),
                     "'A' is not continuous", id="LG on a categorical column"),
        pytest.param(lambda: fit_conditional_linear_gaussian(
            make([("X", CONTINUOUS), ("Y", CONTINUOUS)], [(1.0, 2.0), (2.0, 3.0)]), "Y", ["X"], []),
            "'X' is not categorical", id="CLG on a continuous discrete parent"),
    ],
)
def test_bad_input_raises_a_parameter_error(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


class TestMixlearn:
    def test_single_categorical_column(self):
        d = make([("A", CATEGORICAL)], [("a",), ("b",), ("a",), ("b",)])
        model = mixlearn(d, bins=2)
        assert model.dag.edges == frozenset()
        assert isinstance(model.distributions["A"], Cpt)

    def test_three_case_dispatch(self):
        d = clg5_dataset(0, 400)
        model = mixlearn(d, bins=5)
        for node in model.dag.nodes:
            dist = model.distributions[node]
            if model.node_kind[node] == CATEGORICAL:
                assert isinstance(dist, Cpt)
            elif model.discrete_parents(node):
                assert isinstance(dist, ConditionalLinearGaussian)
            else:
                assert isinstance(dist, LinearGaussian)

    def test_skeleton_recovery_single_seed(self):
        d = clg5_dataset(0, 5000, noise=1.5)
        model = mixlearn(d, bins=10)
        skel = frozenset(frozenset(e) for e in model.dag.edges)
        assert skel == CLG5_SKELETON

    def test_expert_edge_passes_through(self):
        d = clg5_dataset(1, 200)
        ec = EdgeConstraints(frozenset({("A", "B")}), removable=False)
        model = mixlearn(d, constraints=ec, bins=4)
        assert ("A", "B") in model.dag.edges

    def test_deterministic(self):
        d = clg5_dataset(2, 300)
        m1 = mixlearn(d)
        m2 = mixlearn(d)
        assert m1.dag.edges == m2.dag.edges
        assert m1.distributions.keys() == m2.distributions.keys()

    def test_sparse_continuous_column_learns(self):
        # X keeps 3 of 40 values, fewer than the 5 bins: it gets fewer bins, not an error
        d = clg5_dataset(3, 40)
        j = d.col_index("X")
        d = Dataset(d.schema, [tuple(None if k == j and i % 15 else v for k, v in enumerate(row))
                               for i, row in enumerate(d.rows)])
        assert np.count_nonzero(d.present("X")) == 3
        model = mixlearn(d, bins=5)
        assert set(model.distributions) == set(d.names)

    def test_search_leaves_every_continuous_family_enough_rows_to_fit(self):
        # Permeability kept in about 10% of a 5%-blank table: on 40-row subsets the
        # search used to give a continuous child a family with one complete row
        d = with_blanks(reservoir_like_dataset(2, 200), 0.05, 2)
        j, rng = d.col_index("Permeability"), np.random.default_rng(2)
        d = Dataset(d.schema, [tuple(None if k == j and rng.random() < 0.9 else v
                                     for k, v in enumerate(row)) for row in d.rows])
        rng = np.random.default_rng(0)
        learned = 0
        for _ in range(30):
            sub = select_rows(d, sorted(rng.choice(d.n_rows, 40, replace=False).tolist()))
            if sub.present("Permeability").sum() < MIN_FIT_ROWS:
                continue  # no family of Permeability itself can be fitted
            model = mixlearn(sub)
            for node in model.dag.nodes:
                if model.node_kind[node] == CONTINUOUS:
                    assert sub.present(node, *model.dag.parents(node)).sum() >= MIN_FIT_ROWS
            learned += 1
        assert learned >= 25

    def test_empty_dataset_rejected(self):
        d = make([("A", CATEGORICAL)], [])
        with pytest.raises(ParameterError):
            mixlearn(d)
