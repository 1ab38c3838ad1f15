import math
import random

import numpy as np
import pytest

from mixbn.dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset, normalize_ranges
from mixbn.errors import SimilarityError
from mixbn.similarity import (
    AnalogueQuery,
    DistanceSpec,
    cosine_distance,
    gower_distance,
    metric_spec,
    nearest_analogues,
    penalty_weights,
)

MIXED = (
    ColumnSchema("K", CATEGORICAL),
    ColumnSchema("V", CONTINUOUS),
)


def spec(ranges=None, weights=None, metric="gower"):
    return DistanceSpec(metric, weights=weights or {}, ranges=ranges)


def _assert_matches_pairwise_oracle(n_rows, missing, seed):
    """penalty_weights against the mean over every comparable row pair."""
    rng = random.Random(seed)

    def cell(value):
        return None if missing and rng.random() < missing else value

    rows = tuple(
        (cell(rng.choice(["a", "b", "c"])), cell(rng.uniform(0, 7))) for _ in range(n_rows)
    )
    pool = Dataset(MIXED, rows)
    table, _ = penalty_weights(pool)
    lo, hi = normalize_ranges(pool)["V"]
    ii, jj = np.triu_indices(n_rows, k=1)
    labels = np.array([r[0] for r in rows], dtype=object)
    has_label = np.array([r[0] is not None for r in rows])
    cat_pen = (labels[ii] != labels[jj])[has_label[ii] & has_label[jj]]
    xs = np.array([np.nan if r[1] is None else r[1] for r in rows])
    cont_pen = np.abs(xs[ii] - xs[jj]) / (hi - lo)
    cont_pen = cont_pen[~np.isnan(cont_pen)]
    assert table["K"] == pytest.approx(cat_pen.mean(), abs=1e-9)
    assert table["V"] == pytest.approx(cont_pen.mean(), abs=1e-9)


class TestGowerDistance:
    def test_identity(self):
        s = spec(ranges={"V": (0.0, 10.0)})
        assert gower_distance(("x", 5.0), ("x", 5.0), MIXED, s) == 0.0

    def test_half_match_formula(self):
        s = spec(ranges={"V": (0.0, 10.0)})
        assert gower_distance(("x", 5.0), ("y", 5.0), MIXED, s) == pytest.approx(0.5)

    def test_weight_ratio_balances_penalties(self):
        # categorical mismatch (penalty 1) against a 0.1724 continuous penalty:
        # weighting the continuous column 5.8x equalizes the two contributions
        s = spec(ranges={"V": (0.0, 10.0)}, weights={"V": 5.8}, metric="gower_weighted")
        d = gower_distance(("x", 0.0), ("y", 1.724), MIXED, s)
        cat_contrib = 1.0 * 1.0 / 6.8
        cont_contrib = 5.8 * 0.1724 / 6.8
        assert cat_contrib == pytest.approx(cont_contrib, abs=1e-3)
        assert d == pytest.approx(cat_contrib + cont_contrib, abs=1e-3)

    def test_zero_range_column_contributes_no_penalty(self):
        s = spec(ranges={"V": (3.0, 3.0)})
        assert gower_distance(("x", 3.0), ("x", 3.0), MIXED, s) == 0.0

    def test_missing_excluded_variable_wise(self):
        s = spec(ranges={"V": (0.0, 10.0)})
        assert gower_distance(("x", None), ("x", 5.0), MIXED, s) == 0.0

    def test_no_comparable_variables(self):
        s = spec(ranges={"V": (0.0, 10.0)})
        with pytest.raises(SimilarityError):
            gower_distance((None, None), ("x", 5.0), MIXED, s)

    def test_symmetry_bounds_and_rescaling(self):
        rng = random.Random(5)
        schema = (
            ColumnSchema("K", CATEGORICAL),
            ColumnSchema("L", CATEGORICAL),
            ColumnSchema("V", CONTINUOUS),
            ColumnSchema("W", CONTINUOUS),
        )
        ranges = {"V": (0.0, 1.0), "W": (-2.0, 2.0)}
        for _ in range(300):
            def row():
                return (
                    rng.choice(["a", "b", None]),
                    rng.choice(["p", "q", "r"]),
                    rng.uniform(0, 1) if rng.random() > 0.2 else None,
                    rng.uniform(-2, 2),
                )
            u, t = row(), row()
            s1 = spec(ranges=ranges)
            try:
                d1 = gower_distance(u, t, schema, s1)
            except SimilarityError:
                continue
            assert 0.0 <= d1 <= 1.0
            assert gower_distance(t, u, schema, s1) == pytest.approx(d1)
            s2 = spec(ranges=ranges, weights={n: 3.5 for n in ["K", "L", "V", "W"]})
            assert gower_distance(u, t, schema, s2) == pytest.approx(d1)


class TestCosineDistance:
    ranges = {"V": (0.0, 10.0)}

    def test_identity(self):
        assert cosine_distance(("x", 5.0), ("x", 5.0), MIXED, self.ranges) == pytest.approx(0.0)

    def test_all_categorical_mismatch_gives_one(self):
        schema = (ColumnSchema("K", CATEGORICAL), ColumnSchema("L", CATEGORICAL))
        assert cosine_distance(("a", "b"), ("x", "y"), schema, {}) == 1.0

    def test_hand_dot_product(self):
        # encodings u = (1, 0.5), t = (1, 1.0)
        d = cosine_distance(("x", 5.0), ("x", 10.0), MIXED, self.ranges)
        expected = 1.0 - 1.5 / (math.sqrt(1.25) * math.sqrt(2.0))
        assert d == pytest.approx(expected, abs=1e-9)

    def test_bounds(self):
        rng = random.Random(8)
        for _ in range(200):
            u = (rng.choice(["x", "y"]), rng.uniform(0, 10))
            t = (rng.choice(["x", "y"]), rng.uniform(0.5, 10))
            d = cosine_distance(u, t, MIXED, self.ranges)
            assert 0.0 <= d <= 1.0

    def test_zero_target_vector_rejected(self):
        # all-continuous schema with the target at the range minimum
        schema = (ColumnSchema("V", CONTINUOUS),)
        with pytest.raises(SimilarityError):
            cosine_distance((5.0,), (0.0,), schema, self.ranges)


def five_cat_pool(rows):
    schema = tuple(ColumnSchema(f"C{i}", CATEGORICAL) for i in range(5))
    return Dataset(schema, tuple(rows))


class TestFilterAnalogues:
    def test_exact_duplicate_ranks_first(self):
        pool = five_cat_pool([("t",) * 5, ("t", "t", "x", "x", "x"), ("x",) * 5])
        q = AnalogueQuery(("t",) * 5, DistanceSpec("filter", epsilon=0.5), 2)
        assert nearest_analogues(q, pool) == [0, 1]

    def test_epsilon_one_degenerates_to_categorical_matching(self):
        schema = (ColumnSchema("K", CATEGORICAL), ColumnSchema("V", CONTINUOUS))
        pool = Dataset(schema, (("t", 0.0), ("t", 100.0), ("x", 50.0)))
        # V always close at eps=1, ranking driven by the label match
        q = AnalogueQuery(("t", 50.0), DistanceSpec("filter", epsilon=1.0), 3)
        assert nearest_analogues(q, pool) == [0, 1, 2]

    def test_planted_closeness_counts(self):
        target = ("t",) * 5
        pool = five_cat_pool(
            [
                ("t", "t", "t", "t", "t"),  # 5 close
                ("t", "t", "t", "t", "x"),  # 4
                ("t", "t", "t", "x", "t"),  # 4
                ("t", "t", "t", "x", "x"),  # 3
                ("t", "t", "x", "x", "x"),  # 2
            ]
        )
        q = AnalogueQuery(target, DistanceSpec("filter", epsilon=0.5), 3)
        assert nearest_analogues(q, pool) == [0, 1, 2]

    def test_level_nesting(self):
        target = ("t",) * 5
        pool = five_cat_pool(
            [tuple("t" if j < 5 - i else "x" for j in range(5)) for i in range(5)]
        )
        filtered = DistanceSpec("filter", epsilon=0.5)
        admitted = [nearest_analogues(AnalogueQuery(target, filtered, n), pool) for n in range(1, 6)]
        for smaller, larger in zip(admitted, admitted[1:]):
            assert set(smaller) <= set(larger)

    def test_pool_too_small(self):
        pool = five_cat_pool([("t",) * 5])
        q = AnalogueQuery(("t",) * 5, DistanceSpec("filter", epsilon=0.5), 2)
        with pytest.raises(SimilarityError):
            nearest_analogues(q, pool)


class TestNearestAnalogues:
    def test_duplicate_first_under_every_metric(self):
        schema = MIXED
        rows = (("x", 5.0), ("y", 9.0), ("x", 1.0))
        pool = Dataset(schema, rows)
        target = ("x", 5.0)
        for metric in ("gower", "gower_weighted", "cosine", "filter"):
            eps = 0.1 if metric == "filter" else None
            q = AnalogueQuery(target, DistanceSpec(metric, epsilon=eps), 1)
            assert nearest_analogues(q, pool) == [0]

    def test_full_pool_is_a_permutation(self):
        pool = Dataset(MIXED, (("x", 5.0), ("y", 9.0), ("x", 1.0)))
        q = AnalogueQuery(("x", 5.0), DistanceSpec("gower"), 3)
        assert sorted(nearest_analogues(q, pool)) == [0, 1, 2]

    @pytest.mark.parametrize("metric", ["gower", "gower_weighted", "cosine", "filter"])
    def test_matches_brute_force_sort_oracle(self, metric):
        rng = random.Random(13)
        schema = MIXED + (ColumnSchema("L", CATEGORICAL), ColumnSchema("W", CONTINUOUS))

        def cell(value):
            return None if rng.random() < 0.1 else value

        # W is rounded so that some rows tie on their key
        rows = tuple(
            (cell(rng.choice("abc")), cell(rng.uniform(0, 20)), cell(rng.choice("xy")),
             cell(round(rng.uniform(-5, 5), 1)))
            for _ in range(200)
        )
        pool = Dataset(schema, rows)
        assert sum(v is None for r in rows for v in r) > 0.08 * 4 * len(rows)
        ranges = normalize_ranges(pool)
        weights = {"K": 1.0, "V": 0.5, "L": 2.0, "W": 3.0} if metric == "gower_weighted" else {}
        epsilon = 0.1 if metric == "filter" else None

        def close_count(row, target):
            count = 0
            for col, a, b in zip(schema, row, target):
                if a is not None and b is not None:
                    lo, hi = ranges.get(col.name, (0.0, 0.0))
                    count += a == b if col.kind == CATEGORICAL else abs(a - b) <= epsilon * (hi - lo)
            return count

        # the second target misses a column and holds a label no pool row has
        for target in (("a", 10.0, "x", 0.5), ("z", 3.0, None, -1.0)):
            if metric == "filter":
                keys = [-close_count(r, target) for r in rows]
            elif metric == "cosine":
                keys = [cosine_distance(r, target, schema, ranges) for r in rows]
            else:
                s = DistanceSpec(metric, weights=weights, ranges=ranges)
                keys = [gower_distance(r, target, schema, s) for r in rows]
            oracle = sorted(range(len(rows)), key=lambda i: (keys[i], i))
            q = AnalogueQuery(target, DistanceSpec(metric, weights=weights, epsilon=epsilon), len(rows))
            assert nearest_analogues(q, pool) == oracle

    def test_filter_honours_explicit_ranges(self):
        pool = Dataset(MIXED, (("x", 0.0), ("t", 10.0), ("t", 100.0)))
        target = ("t", 0.0)
        own = DistanceSpec("filter", epsilon=0.5)
        given = DistanceSpec("filter", epsilon=0.5, ranges={"V": (0.0, 10.0)})
        # the pool's own V range is 100, so only |dV| <= 50 counts as close
        assert nearest_analogues(AnalogueQuery(target, own, 3), pool) == [1, 0, 2]
        assert nearest_analogues(AnalogueQuery(target, given, 3), pool) == [0, 1, 2]

    def test_weight_rescaling_rank_invariance(self):
        rng = random.Random(21)
        rows = tuple(
            (rng.choice(["a", "b"]), rng.uniform(0, 5)) for _ in range(25)
        )
        pool = Dataset(MIXED, rows)
        target = ("a", 2.0)
        w = {"K": 1.0, "V": 5.8}
        q1 = AnalogueQuery(target, DistanceSpec("gower_weighted", weights=w), 25)
        q2 = AnalogueQuery(
            target,
            DistanceSpec("gower_weighted", weights={k: 7.0 * v for k, v in w.items()}),
            25,
        )
        assert nearest_analogues(q1, pool) == nearest_analogues(q2, pool)


class TestMetricSpec:
    POOL = Dataset(MIXED, (("a", 0.0), ("b", 10.0), ("c", 5.0), ("d", 5.0)))

    def test_both_spellings_select_gower_weighted(self):
        hyphen = metric_spec("gower-weighted", self.POOL, weight=3.0)
        assert hyphen == metric_spec("gower_weighted", self.POOL, weight=3.0)
        assert hyphen.metric == "gower_weighted"
        assert hyphen.weights == {"K": 1.0, "V": 3.0}

    def test_unknown_metric_rejected(self):
        with pytest.raises(SimilarityError):
            metric_spec("euclid", self.POOL)

    def test_weight_derived_from_penalty_ratio(self):
        _, ratio = penalty_weights(self.POOL)
        assert metric_spec("gower_weighted", self.POOL).weights == {"K": 1.0, "V": ratio}

    def test_epsilon_reaches_the_filter_metric_only(self):
        assert metric_spec("filter", self.POOL, epsilon=0.3).epsilon == 0.3
        assert metric_spec("gower", self.POOL, epsilon=0.3).epsilon is None


class TestPenaltyWeights:
    def test_planted_ratio_two(self):
        schema = (ColumnSchema("K", CATEGORICAL), ColumnSchema("V", CONTINUOUS))
        # categorical mismatches on every pair; continuous penalties average 0.5
        pool = Dataset(schema, (("a", 0.0), ("b", 10.0), ("c", 5.0), ("d", 5.0)))
        table, weight = penalty_weights(pool)
        assert table["K"] == pytest.approx(1.0)
        assert table["V"] == pytest.approx(0.5)
        assert weight == pytest.approx(2.0)

    def test_identical_rows_degenerate(self):
        schema = (ColumnSchema("K", CATEGORICAL), ColumnSchema("V", CONTINUOUS))
        pool = Dataset(schema, (("a", 1.0),) * 4)
        with pytest.raises(SimilarityError):
            penalty_weights(pool)

    def test_exact_matches_pairwise_enumeration_oracle(self):
        _assert_matches_pairwise_oracle(n_rows=30, missing=0.0, seed=3)

    def test_exact_matches_oracle_past_old_sampling_switch(self):
        # 1500 rows give over a million pairs; the means must stay exact there
        _assert_matches_pairwise_oracle(n_rows=1500, missing=0.05, seed=4)

    def test_needs_both_kinds(self):
        schema = (ColumnSchema("K", CATEGORICAL),)
        pool = Dataset(schema, (("a",), ("b",)))
        with pytest.raises(SimilarityError):
            penalty_weights(pool)
