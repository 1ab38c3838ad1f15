import itertools

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
from mixbn.similarity import AnalogueQuery, DistanceSpec, nearest_analogues


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
        for _ in range(20):
            scores = rng.integers(0, 5, size=12).astype(float).tolist()
            labels = (rng.random(12) < 0.5).tolist()
            if not any(labels) or all(labels):
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc_oracle(scores, labels), abs=1e-12
            )

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
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(EvaluationError):
            small_config(**{field: value})


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

    def test_degenerate_pool_falls_back_to_unit_gower_weight(self):
        d = flat_continuous_dataset()
        rep = leave_one_out(d, small_config(regimes=("gower_weighted",), max_rows=3))
        assert rep.metadata["gower_weight_source"] == "degenerate_fallback"
        assert rep.metadata["gower_weight"] == 1.0

    def test_too_few_rows_rejected(self):
        d = cluster_dataset(7, 8)
        with pytest.raises(EvaluationError):
            leave_one_out(d, small_config(n_analogues=10))


class TestTrainModel:
    def test_training_rows_follow_the_regime(self):
        d = cluster_dataset(10, 40)
        row = d.rows[0]
        _, idx = train_model(d, row, "all_dataset", 10, bins=3, max_parents=4)
        assert idx == list(range(40))
        _, idx = train_model(d, row, "gower", 10, bins=3, max_parents=4)
        assert idx == nearest_analogues(AnalogueQuery(row, DistanceSpec("gower"), 10), d)
        _, idx = train_model(d, row, "filter", 10, bins=3, max_parents=4, epsilon=0.3)
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

    def test_train_on_perturbed_supported(self):
        d = clg5_dataset(3, 150, noise=0.5)
        cfg = EvalConfig(
            regimes=("all_dataset",), m_samples=60, seed=5, train_on_perturbed=True
        )
        aucs = anomaly_benchmark(d, cfg)
        assert set(aucs) == {"X", "Y", "Z"}

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
