import itertools
import math

import numpy as np
import pytest

from synth import clg5_dataset, cluster_dataset, flat_continuous_dataset

from mixbn.dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset
from mixbn.errors import EvaluationError
from mixbn.evaluation import (
    EvalConfig,
    anomaly_benchmark,
    format_report,
    leave_one_out,
    roc_auc,
    run_eval,
    train_model,
)
from mixbn.dataset import select_rows
from mixbn.similarity import AnalogueQuery, DistanceSpec, metric_spec, nearest_analogues


def pairwise_auc_oracle(scores, labels):
    """Enumerate every positive-negative pair; ties count half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1, 2, 3, 4], [False, False, True, True]) == 1.0

    def test_all_ties_give_half(self):
        assert roc_auc([5, 5, 5, 5], [False, True, False, True]) == 0.5

    def test_mixed_case_matches_pairwise_oracle(self):
        scores = [3.0, 1.0, 2.0, 4.0]
        labels = [False, True, False, True]
        expected = pairwise_auc_oracle(scores, labels)  # 2 wins of 4 pairs
        assert expected == 0.5
        assert roc_auc(scores, labels) == pytest.approx(expected)

    def test_random_inputs_match_oracle(self):
        rng = np.random.default_rng(2)
        # few levels make ties common; anomaly_score returns inf when its sample has no spread
        levels = np.array([-np.inf, 0.0, 1.0, 2.0, 3.0, np.inf])
        for size in (2, 12, 60, 200) * 10:
            scores = rng.choice(levels, size=size).tolist()
            labels = (rng.random(size) < rng.random()).tolist()
            if not any(labels) or all(labels):
                continue
            # both count ties as exact halves, so the quotients are the same float
            assert roc_auc(scores, labels) == pairwise_auc_oracle(scores, labels)

    def test_nan_score_rejected(self):
        with pytest.raises(EvaluationError):
            roc_auc([0.1, np.nan, 0.3], [False, True, True])

    def test_negation_complement_for_tie_free_inputs(self):
        scores = [0.3, 1.2, 0.7, 2.5, 1.9]
        labels = [False, True, False, True, False]
        a = roc_auc(scores, labels)
        b = roc_auc([-s for s in scores], labels)
        assert a + b == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            roc_auc([1, 2], [True, True])


def small_config(**kw):
    defaults = dict(
        regimes=("all_dataset", "gower"),
        n_analogues=10,
        bins=3,
        m_samples=40,
        seed=0,
    )
    defaults.update(kw)
    return EvalConfig(**defaults)


class TestEvalConfig:
    @pytest.mark.parametrize("field", ["m_samples", "n_analogues"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, 40.5, True, "40"])
    def test_counts_below_one_rejected(self, field, value):
        # leave_one_out can use none of these, so the config takes none
        with pytest.raises(EvaluationError):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("bins", 1), ("bins", 0), ("max_parents", 0), ("max_parents", -1),
         ("bins", 4.5), ("bins", True), ("max_parents", 2.0), ("max_parents", None),
         ("epsilon", 0.0), ("epsilon", -0.1), ("epsilon", 1.5), ("epsilon", math.nan)],
    )
    def test_training_settings_that_cannot_train_rejected(self, field, value):
        # each would make every train_model fail into training_failures
        with pytest.raises(EvaluationError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field, value", [("seed", 0.5), ("seed", False), ("max_rows", 5.0), ("max_rows", True)])
    def test_non_integer_seed_or_row_cap_rejected(self, field, value):
        with pytest.raises(EvaluationError, match=f"{field} must be an integer"):
            small_config(**{field: value})

    def test_numpy_integer_counts_accepted_as_ints(self):
        fields = ("n_analogues", "bins", "max_parents", "m_samples", "seed", "max_rows")
        config = small_config(**{f: np.int64(3) for f in fields})
        assert all(type(getattr(config, f)) is int and getattr(config, f) == 3 for f in fields)

    def test_epsilon_of_one_accepted(self):
        assert small_config(epsilon=1.0).epsilon == 1.0

    def test_duplicate_regimes_rejected(self):
        # each would train every model twice and report the regime twice
        with pytest.raises(EvaluationError, match="once"):
            small_config(regimes=("gower", "gower"))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: EvalConfig(regimes=()), "at least one regime", id="no regimes"),
        pytest.param(lambda: roc_auc([0.1, 0.2], [True]), "must align", id="misaligned roc_auc"),
    ],
)
def test_bad_input_raises_an_evaluation_error(call, message):
    with pytest.raises(EvaluationError, match=message):
        call()


class TestLeaveOneOut:
    def test_identical_rows_are_perfectly_restored(self):
        schema = (ColumnSchema("K", CATEGORICAL), ColumnSchema("V", CONTINUOUS))
        d = Dataset(schema, (("a", 5.0),) * 15)
        rep = leave_one_out(d, small_config(max_rows=5))
        for regime in ("all_dataset", "gower"):
            assert rep.accuracy["K"][regime] == 1.0
            assert rep.rmse["V"][regime] == pytest.approx(0.0, abs=1e-9)

    def test_leave_one_out_discipline(self):
        d = cluster_dataset(3, 40)
        captured = []
        leave_one_out(
            d,
            small_config(max_rows=6),
            training_capture=lambda t, regime, train: captured.append((t, train)),
        )
        assert captured
        for target, train in captured:
            assert target not in train

    def test_all_configured_cells_present(self):
        d = cluster_dataset(4, 40)
        cfg = small_config(max_rows=6)
        rep = leave_one_out(d, cfg)
        for col in d.schema:
            cells = rep.accuracy if col.kind == CATEGORICAL else rep.rmse
            for regime in cfg.regimes:
                assert regime in cells[col.name]

    def test_determinism(self):
        d = cluster_dataset(5, 40)
        cfg = small_config(max_rows=5)
        r1 = leave_one_out(d, cfg)
        r2 = leave_one_out(d, cfg)
        assert r1.accuracy == r2.accuracy
        assert r1.rmse == r2.rmse

    def test_analogue_regime_beats_marginal_baseline(self):
        d = cluster_dataset(6, 120)
        cfg = small_config(regimes=("gower",), n_analogues=30, bins=4, max_rows=25, seed=1)
        rep = leave_one_out(d, cfg)
        # baseline oracle: column mode / mean of the remaining rows
        wins = 0
        cont = [c.name for c in d.schema if c.kind == CONTINUOUS]
        for p in cont:
            values = [v for v in d.column(p) if v is not None]
            mean = sum(values) / len(values)
            baseline_rmse = float(np.sqrt(np.mean([(v - mean) ** 2 for v in values])))
            if rep.rmse[p]["gower"] < baseline_rmse:
                wins += 1
        assert wins >= 4

    def test_degenerate_pool_fails_gower_weighted_training(self):
        # no continuous penalty: each pool's derived weight fails, as in mixbn restore --data
        d = flat_continuous_dataset()
        captured = []
        rep = leave_one_out(d, small_config(regimes=("all_dataset", "gower_weighted"), max_rows=3),
                            training_capture=lambda t, regime, train: captured.append(regime))
        assert rep.metadata["training_failures"] == 3
        assert captured == ["all_dataset"] * 3
        assert not any("weight" in key for key in rep.metadata)

    def test_gower_weighted_ranks_each_pool_without_its_target(self):
        # one of these 5 targets gets other analogues under the whole table's penalty ratio
        d = cluster_dataset(3, 40)
        captured = {}
        leave_one_out(d, small_config(regimes=("gower_weighted",), max_rows=5),
                      training_capture=lambda t, regime, train: captured.setdefault(t, train))
        assert len(captured) == 5
        for t, train in captured.items():
            others = [i for i in range(d.n_rows) if i != t]
            pool = select_rows(d, others)
            query = AnalogueQuery(d.row(t), metric_spec("gower_weighted", pool), 10)
            assert train == [others[i] for i in nearest_analogues(query, pool)]

    def test_unlearnable_regime_is_counted_and_skipped(self):
        d = cluster_dataset(3, 40)
        j = d.col_index("X1")
        cont = {k for k, c in enumerate(d.schema) if c.kind == CONTINUOUS}
        # X1 is kept only in rows 0 and 20, whose other continuous cells are moved far out: the
        # full pool can fit X1, but no record's 10 analogues hold an X1 value to discretize
        far = (0, 20)
        d = Dataset(d.schema, [
            tuple((v if i in far else None) if k == j else v + 100.0 if i in far and k in cont else v
                  for k, v in enumerate(row))
            for i, row in enumerate(d.rows)])
        captured = []
        rep = leave_one_out(d, small_config(max_rows=6),
                            training_capture=lambda t, regime, train: captured.append(regime))
        assert rep.metadata["training_failures"] == 6
        assert captured == ["all_dataset"] * 6
        for col in d.schema:
            cells = rep.accuracy if col.kind == CATEGORICAL else rep.rmse
            if col.name != "X1":
                assert set(cells[col.name]) == {"all_dataset"}

    def test_all_missing_target_row_is_skipped(self):
        d = cluster_dataset(4, 12)
        d = Dataset(d.schema, ((None,) * len(d.schema), *d.rows[1:]))
        captured = []
        rep = leave_one_out(d, small_config(regimes=("all_dataset",)),
                            training_capture=lambda t, regime, train: captured.append(t))
        assert rep.metadata["rows_evaluated"] == 12
        assert rep.metadata["rows_skipped"] == 1
        assert captured == list(range(1, 12))

    def test_too_few_rows_rejected(self):
        d = cluster_dataset(7, 8)
        with pytest.raises(EvaluationError):
            leave_one_out(d, small_config(n_analogues=10))

    def test_row_floor_applies_only_to_analogue_regimes(self):
        d = cluster_dataset(7, 30)
        with pytest.raises(EvaluationError, match="41 rows"):
            leave_one_out(d, small_config(regimes=("all_dataset", "gower"), n_analogues=40))
        rep = leave_one_out(d, small_config(regimes=("all_dataset",), n_analogues=40, max_rows=3))
        assert rep.metadata["training_failures"] == 0
        assert all(set(cells) == {"all_dataset"} for cells in rep.accuracy.values())


class TestTrainModel:
    def test_training_rows_follow_the_regime(self):
        d = cluster_dataset(10, 40)
        row = d.rows[0]
        cfg = small_config()
        _, idx = train_model(d, row, "all_dataset", cfg)
        assert idx == list(range(40))
        _, idx = train_model(d, row, "gower", cfg)
        assert idx == nearest_analogues(AnalogueQuery(row, DistanceSpec("gower"), 10), d)
        _, idx = train_model(d, row, "filter", small_config(epsilon=0.3))
        filtered = AnalogueQuery(row, DistanceSpec("filter", epsilon=0.3), 10)
        assert idx == nearest_analogues(filtered, d)


class TestAnomalyBenchmark:
    def test_strongly_coupled_targets_detectable(self):
        d = clg5_dataset(1, 250, noise=0.5)
        cfg = EvalConfig(regimes=("all_dataset",), m_samples=150, seed=3)
        aucs = anomaly_benchmark(d, cfg)
        assert set(aucs) == {"X", "Y", "Z"}
        for v in aucs.values():
            assert v >= 0.8

    def test_deterministic(self):
        d = clg5_dataset(2, 150, noise=0.5)
        cfg = EvalConfig(regimes=("all_dataset",), m_samples=60, seed=4)
        assert anomaly_benchmark(d, cfg) == anomaly_benchmark(d, cfg)

    def test_zero_range_column_is_skipped(self):
        d = clg5_dataset(2, 150, noise=0.5)
        j = d.col_index("Y")
        d = Dataset(d.schema, tuple(r[:j] + (1.0,) + r[j + 1:] for r in d.rows))
        aucs = anomaly_benchmark(d, EvalConfig(regimes=("all_dataset",), m_samples=60, seed=4))
        assert set(aucs) == {"X", "Z"}

    def test_short_column_is_skipped_and_the_study_kept(self):
        # 9 present values leave no room for a 10% injection in any continuous column
        d = cluster_dataset(7, 9)
        rep = run_eval(d, small_config(regimes=("all_dataset",)))
        assert rep.metadata["training_failures"] == 0
        assert rep.auc == {}
        assert set(rep.rmse) == {f"X{i}" for i in range(1, 6)}

    def test_no_continuous_columns_rejected(self):
        d = Dataset((ColumnSchema("K", CATEGORICAL),), (("a",), ("b",)))
        with pytest.raises(EvaluationError):
            anomaly_benchmark(d, EvalConfig(regimes=("all_dataset",)))


class TestReportFormatting:
    def test_table_and_reference_notes(self):
        d = cluster_dataset(8, 40)
        cfg = small_config(max_rows=4)
        rep = run_eval(d, cfg)
        text = format_report(rep)
        assert "Accuracy" in text
        assert "RMSE" in text
        assert "ROC-AUC" in text
        assert "Reference results" in text
        assert "399.92" in text and "306.61" in text

    def test_json_shape(self):
        d = cluster_dataset(9, 40)
        rep = run_eval(d, small_config(max_rows=4))
        obj = rep.to_dict()
        assert set(obj) == {"accuracy", "rmse", "roc_auc", "metadata"}
        assert obj["metadata"]["rows_evaluated"] == 4
