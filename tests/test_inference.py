import functools
import math

import numpy as np
import pytest

from sampler_reference import forward_sample_reference
from synth import reservoir_like_dataset, with_blanks

from mixbn import inference
from mixbn.dataset import CATEGORICAL, CONTINUOUS
from mixbn.errors import InferenceError
from mixbn.graph import Dag
from mixbn.inference import (
    anomaly_score,
    forward_sample,
    posterior,
    restore,
    sanitize_evidence,
    validate_evidence,
)
from mixbn.parameters import (
    BayesianNetworkModel,
    ConditionalLinearGaussian,
    Cpt,
    LinearGaussian,
    mixlearn,
)


def chain_model(p_b_given_a=None):
    """A -> B categorical chain with configurable CPT rows."""
    dag = Dag(("A", "B"), frozenset({("A", "B")}))
    p_b_given_a = p_b_given_a or {("a",): (1.0, 0.0), ("c",): (0.0, 1.0)}
    return BayesianNetworkModel(
        dag,
        {
            "A": Cpt(("a", "c"), {(): (0.5, 0.5)}),
            "B": Cpt(("b", "d"), p_b_given_a),
        },
    )


def lg_model(intercept=3.0, coef=0.5, resvar=0.01):
    dag = Dag(("X", "Y"), frozenset({("X", "Y")}))
    return BayesianNetworkModel(
        dag,
        {
            "X": LinearGaussian(0.0, {}, 1.0),
            "Y": LinearGaussian(intercept, {"X": coef}, resvar),
        },
    )


def mixed_model():
    """Two categorical and two continuous roots, no edges."""
    dag = Dag(("A", "B", "X", "Y"))
    return BayesianNetworkModel(
        dag,
        {
            "A": Cpt(("a", "c"), {(): (0.5, 0.5)}),
            "B": Cpt(("b", "d"), {(): (0.5, 0.5)}),
            "X": LinearGaussian(0.0, {}, 1.0),
            "Y": LinearGaussian(0.0, {}, 1.0),
        },
    )


class TestForwardSample:
    def test_full_evidence_clamps_everything(self):
        model = chain_model()
        ss = forward_sample(model, {"A": "c", "B": "b"}, 25, seed=0)
        assert ss["A"] == ["c"] * 25
        assert ss["B"] == ["b"] * 25

    def test_deterministic_cpt_chain(self):
        model = chain_model()
        ss = forward_sample(model, {"A": "a"}, 50, seed=1)
        assert ss["B"] == ["b"] * 50

    def test_linear_gaussian_conditional_mean(self):
        model = lg_model()
        m = 1000
        ss = forward_sample(model, {"X": 4.0}, m, seed=2)
        mean = float(np.mean(ss["Y"]))
        assert abs(mean - 5.0) <= 3 * (0.1 / math.sqrt(m))

    def test_seed_determinism(self):
        model = lg_model()
        s1 = forward_sample(model, {"X": 1.0}, 100, seed=7)
        s2 = forward_sample(model, {"X": 1.0}, 100, seed=7)
        assert s1 == s2

    def test_invalid_evidence_label(self):
        with pytest.raises(InferenceError):
            forward_sample(chain_model(), {"A": "zzz"}, 5, seed=0)

    def test_zero_samples_rejected(self):
        with pytest.raises(InferenceError):
            forward_sample(chain_model(), {}, 0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InferenceError, match="seed"):
            forward_sample(chain_model(), {}, 5, seed=-1)

    @pytest.mark.parametrize("m, seed", [(2.5, 0), (True, 0), ("5", 0), (None, 0),
                                         (5, 0.5), (5, False), (5, "0"), (5, None)])
    def test_non_integer_count_or_seed_rejected(self, m, seed):
        with pytest.raises(InferenceError, match="must be an integer"):
            forward_sample(chain_model(), {}, m, seed)

    def test_non_integer_count_rejected_by_restore_and_anomaly_score(self):
        with pytest.raises(InferenceError, match="must be an integer"):
            restore(lg_model(), {"X": 1.0, "Y": None}, 2.5, 0)
        with pytest.raises(InferenceError, match="must be an integer"):
            anomaly_score(lg_model(), {"X": 1.0, "Y": 3.5}, "Y", 20, 0.5)

    def test_numpy_integers_accepted(self):
        got = forward_sample(lg_model(), {"X": 1.0}, np.int64(20), np.uint8(7))
        assert got == forward_sample(lg_model(), {"X": 1.0}, 20, 7)

    def test_root_cpt_frequencies(self):
        model = chain_model()
        m = 10000
        ok = 0
        for seed in range(20):
            ss = forward_sample(model, {}, m, seed=seed)
            freq = ss["A"].count("a") / m
            env = 4 * math.sqrt(0.5 * 0.5 / m)
            ok += abs(freq - 0.5) <= env
        assert ok >= 19  # >= 95% of seeded runs

    def test_unseen_parent_configuration_uniform_fallback(self):
        model = chain_model(p_b_given_a={("c",): (1.0, 0.0)})
        ss = forward_sample(model, {"A": "a"}, 200, seed=3)
        freq = ss["B"].count("b") / 200
        assert 0.35 <= freq <= 0.65


def clg_model():
    """A -> B, A -> X <- Y, S: declared order A, B, X, Y, S but Y is drawn before X.

    B has no row for A = "c" and a zero-probability state; X has no table
    entry for A = "c"; S has a single state.
    """
    dag = Dag(("A", "B", "X", "Y", "S"), frozenset({("A", "B"), ("A", "X"), ("Y", "X")}))
    return BayesianNetworkModel(
        dag,
        {
            "A": Cpt(("a", "c"), {(): (0.3, 0.7)}),
            "B": Cpt(("b", "d", "e"), {("a",): (0.2, 0.0, 0.8)}),
            "X": ConditionalLinearGaussian(
                {("a",): LinearGaussian(1.0, {"Y": 2.0}, 0.25)},
                LinearGaussian(-1.0, {"Y": -0.5}, 4.0),
            ),
            "Y": LinearGaussian(0.5, {}, 1.0),
            "S": Cpt(("only",), {(): (1.0,)}),
        },
    )


@functools.lru_cache(maxsize=None)
def learned_model(n_rows, seed):
    return mixlearn(with_blanks(reservoir_like_dataset(seed, n_rows), 0.05, seed))


HELD_OUT = reservoir_like_dataset(99, 1)
NAMES = HELD_OUT.names
EVIDENCE_FIELDS = {
    "none": (),
    "four fields": NAMES[0::3],
    "all but a continuous field": tuple(n for n in NAMES if n != "Porosity"),
    "all but a categorical field": tuple(n for n in NAMES if n != "Lithology"),
}
# case -> (model builder, evidence, sample count)
HAND_BUILT = {
    "CPT row unseen in training": (lambda: chain_model({("c",): (1.0, 0.0)}), {}, 300),
    "CLG combination missing from the table": (clg_model, {}, 300),
    "unseen rows under evidence": (clg_model, {"A": "c"}, 300),
    "LG with zero residual variance": (lambda: lg_model(resvar=0.0), {}, 300),
    "zero residual variance under evidence": (lambda: lg_model(resvar=0.0), {"X": 1.5}, 300),
    "int evidence for a continuous node": (lg_model, {"X": 2}, 300),
    "evidence in non-topological order": (clg_model, {"X": 3.0, "S": "only", "A": "c"}, 300),
    # one free node: all m values come from one generator call
    "lone free node, CPT row unseen": (clg_model, {"A": "c", "X": 0.5, "Y": -1.0, "S": "only"}, 300),
    "lone free node, CPT row with a zero": (clg_model, {"A": "a", "X": 0.5, "Y": -1.0, "S": "only"}, 300),
    "lone free node, single-state CPT": (clg_model, {"A": "a", "B": "d", "X": 0.5, "Y": -1.0}, 300),
    "lone free node, CLG combination": (clg_model, {"A": "a", "B": "b", "Y": -1.0, "S": "only"}, 300),
    "lone free node, CLG fallback": (clg_model, {"A": "c", "B": "e", "Y": 2, "S": "only"}, 300),
    "lone free root": (chain_model, {"B": "d"}, 300),
    "lone free node, one sample": (clg_model, {"A": "a", "X": 0.5, "Y": -1.0, "S": "only"}, 1),
}


def assert_same_as_reference(model, ev, m, seed):
    got = forward_sample(model, ev, m, seed)
    ref = forward_sample_reference(model, ev, m, seed)
    assert got == ref
    # repr also tells 2 from 2.0 and -0.0 from 0.0, and shows key order
    assert repr(got) == repr(ref)


class TestMatchesReference:
    @pytest.mark.parametrize("fields", sorted(EVIDENCE_FIELDS))
    @pytest.mark.parametrize("n_rows, seed", [(1073, 11), (40, 1), (40, 2), (40, 3), (40, 4)])
    def test_learned_model(self, n_rows, seed, fields):
        model = learned_model(n_rows, seed)
        offered = {n: v for n, v in zip(NAMES, HELD_OUT.rows[0]) if n in EVIDENCE_FIELDS[fields]}
        ev, _ = sanitize_evidence(model, offered)
        for sample_seed in (0, 7):
            assert_same_as_reference(model, ev, 150, sample_seed)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_model(self, case):
        build, ev, m = HAND_BUILT[case]
        for sample_seed in (0, 3):
            assert_same_as_reference(build(), ev, m, sample_seed)

    def test_restore_and_anomaly_score_sample_through_the_module_global(self, monkeypatch):
        # bench/tracing.py counts node draws by patching this name the same way
        evidence = []

        def recorded(model, ev, m, seed):
            evidence.append(dict(ev))
            return forward_sample(model, ev, m, seed)

        monkeypatch.setattr(inference, "forward_sample", recorded)
        model = lg_model()
        restore(model, {"X": 1.0, "Y": None}, 20, 0)
        anomaly_score(model, {"X": 1.0, "Y": 3.5}, "Y", 20, 0)
        assert evidence == [{"X": 1.0}, {"X": 1.0}]


class TestSanitizeEvidence:
    def test_drops_unknown_labels_only(self):
        model = chain_model()
        valid, dropped = sanitize_evidence(model, {"A": "a", "B": "nope"})
        assert valid == {"A": "a"}
        assert dropped == ["B"]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("Z", 1.0),  # unknown node
            ("A", None),
            ("X", None),
            ("A", 1.0),  # wrong kind
            ("X", "1.0"),
            ("X", True),
            ("X", math.nan),  # non-finite
            ("Y", -math.inf),
            ("B", "nope"),  # label the node does not know
        ],
    )
    def test_drops_each_bad_entry_and_keeps_order(self, name, value):
        good = [(k, v) for k, v in {"A": "a", "X": 1.0, "B": "d", "Y": 2.0}.items() if k != name]
        ev = dict(good[:2] + [(name, value)] + good[2:])
        valid, dropped = sanitize_evidence(mixed_model(), ev)
        assert list(valid.items()) == good
        assert dropped == [name]
        with pytest.raises(InferenceError):
            validate_evidence(mixed_model(), ev)

    def test_validate_type_mismatch(self):
        with pytest.raises(InferenceError):
            validate_evidence(chain_model(), {"A": 1.0})
        with pytest.raises(InferenceError):
            validate_evidence(lg_model(), {"X": "oops"})


class TestRestore:
    def test_nothing_missing_is_an_error(self):
        with pytest.raises(InferenceError):
            restore(chain_model(), {"A": "a", "B": "b"}, 10, seed=0)

    def test_deterministic_chain_restoration(self):
        out = restore(chain_model(), {"A": "a", "B": None}, 50, seed=0)
        assert out == {"A": "a", "B": "b"}

    def test_continuous_mean_near_analytic_value(self):
        model = lg_model(intercept=3.0, coef=0.5, resvar=0.04)
        m = 2000
        out = restore(model, {"X": 4.0, "Y": None}, m, seed=4)
        stderr = 0.2 / math.sqrt(m)
        assert abs(out["Y"] - 5.0) <= 3 * stderr

    def test_mode_tie_broken_by_label_order(self):
        # states in reverse label order, and two draws that tie: "d" first, then "b"
        flat = BayesianNetworkModel(Dag(("B",)), {"B": Cpt(("d", "b"), {(): (0.5, 0.5)})})
        assert forward_sample(flat, {}, 2, seed=8) == {"B": ["d", "b"]}
        p = posterior(flat, {"B": None}, ["B"], 2, seed=8)["B"]
        assert list(p.items()) == [("d", 0.5), ("b", 0.5)]
        # the smaller label wins, not the first state or the first draw
        assert restore(flat, {"B": None}, 2, seed=8) == {"B": "b"}

    def test_unknown_record_field(self):
        with pytest.raises(InferenceError):
            restore(chain_model(), {"A": "a", "Z": None}, 5, seed=0)


def assert_posterior_summarizes_the_draws(model, record, fields, m, seed):
    got = posterior(model, record, fields, m, seed)
    ev = {k: v for k, v in record.items() if k not in fields and v is not None}
    draws = forward_sample(model, ev, m, seed)
    assert list(got) == list(fields)
    for node in fields:
        if model.node_kind[node] == CATEGORICAL:
            states = model.distributions[node].states
            assert list(got[node].items()) == [(s, draws[node].count(s) / m) for s in states]
            assert all(type(v) is float for v in got[node].values())
            assert math.isclose(sum(got[node].values()), 1.0, abs_tol=1e-12)
        else:
            mean, sd = got[node]
            # bit for bit the mean and population sd numpy gives
            assert (mean, sd) == (float(np.mean(draws[node])), float(np.std(draws[node])))
            assert type(mean) is float and type(sd) is float


class TestPosterior:
    @pytest.mark.parametrize("fields", sorted(EVIDENCE_FIELDS))
    @pytest.mark.parametrize("n_rows, seed", [(1073, 11), (40, 1), (40, 2)])
    def test_learned_model_summarizes_the_draws(self, n_rows, seed, fields):
        model = learned_model(n_rows, seed)
        offered = {n: v for n, v in zip(NAMES, HELD_OUT.rows[0]) if n in EVIDENCE_FIELDS[fields]}
        ev, _ = sanitize_evidence(model, offered)
        record = {n: ev.get(n) for n in NAMES}
        missing = [n for n in NAMES if record[n] is None]
        for sample_seed in (0, 7):
            assert_posterior_summarizes_the_draws(model, record, missing, 150, sample_seed)
            # a field given in the record is not evidence for itself
            assert_posterior_summarizes_the_draws(model, record, NAMES[::-1], 150, sample_seed)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_model_summarizes_the_draws(self, case):
        build, ev, m = HAND_BUILT[case]
        model = build()
        free = [n for n in model.dag.nodes if n not in ev]
        for sample_seed in (0, 3):
            assert_posterior_summarizes_the_draws(model, dict(ev), free, m, sample_seed)

    def test_zero_probability_states_are_listed(self):
        # B's CPT row under A = "a" gives "d" probability 0, so "d" is never drawn
        p = posterior(clg_model(), {"A": "a"}, ["B"], 50, seed=0)["B"]
        assert list(p) == ["b", "d", "e"] and p["d"] == 0.0

    @pytest.mark.parametrize("n_rows, seed", [(1073, 11), (40, 3)])
    def test_restore_and_anomaly_score_read_the_posterior(self, n_rows, seed):
        model = learned_model(n_rows, seed)
        row, _ = sanitize_evidence(model, dict(zip(NAMES, HELD_OUT.rows[0])))
        sparse = {n: (row.get(n) if k % 3 == 0 else None) for k, n in enumerate(NAMES)}
        missing = [n for n in NAMES if sparse[n] is None]
        p = posterior(model, sparse, missing, 200, 5)
        expected = {n: min(p[n], key=lambda s: (-p[n][s], s)) if isinstance(p[n], dict) else p[n][0]
                    for n in missing}
        assert restore(model, sparse, 200, 5) == {**sparse, **expected}
        for target in NAMES:
            if model.node_kind[target] == CONTINUOUS and target in row:
                mean, sd = posterior(model, row, [target], 200, 9)[target]
                assert anomaly_score(model, row, target, 200, 9) == (
                    abs(row[target] - mean) / sd, abs(row[target] - mean) / sd > 2.0)

    @pytest.mark.parametrize("fields", [[], ["Z"], ["A", "Z"], ["B", "B"], ("A", "B", "A")])
    def test_bad_fields_rejected(self, fields):
        with pytest.raises(InferenceError, match="fields"):
            posterior(chain_model(), {"A": "a"}, fields, 10, 0)

    def test_unknown_record_name_rejected_before_the_fields(self):
        with pytest.raises(InferenceError, match="unknown nodes"):
            posterior(chain_model(), {"A": "a", "Z": None}, [], 10, 0)
        with pytest.raises(InferenceError, match="unknown nodes"):
            restore(chain_model(), {"A": "a", "B": "b", "Z": None}, 10, 0)


class TestAnomalyScore:
    def test_value_at_mean_scores_zero(self):
        model = lg_model(intercept=5.0, coef=0.0, resvar=1.0)
        score, flag = anomaly_score(model, {"X": 0.0, "Y": 5.0}, "Y", 1000, seed=5)
        assert score <= 0.15
        assert not flag

    def test_planted_z_score_of_four(self):
        model = lg_model(intercept=5.0, coef=0.0, resvar=1.0)
        score, flag = anomaly_score(model, {"X": 0.0, "Y": 9.0}, "Y", 1000, seed=6)
        assert score == pytest.approx(4.0, abs=0.4)
        assert flag

    def test_one_sigma_is_not_anomalous(self):
        model = lg_model(intercept=5.0, coef=0.0, resvar=1.0)
        score, flag = anomaly_score(model, {"X": 0.0, "Y": 6.0}, "Y", 2000, seed=7)
        assert not flag

    def test_zero_spread_conventions(self):
        model = lg_model(intercept=5.0, coef=0.0, resvar=0.0)
        score, flag = anomaly_score(model, {"X": 0.0, "Y": 5.0}, "Y", 100, seed=8)
        assert score == 0.0 and not flag
        score, flag = anomaly_score(model, {"X": 0.0, "Y": 6.0}, "Y", 100, seed=9)
        assert math.isinf(score) and flag

    def test_categorical_target_rejected(self):
        with pytest.raises(InferenceError):
            anomaly_score(chain_model(), {"A": "a", "B": "b"}, "B", 10, seed=0)

    def test_missing_target_rejected(self):
        model = lg_model()
        with pytest.raises(InferenceError):
            anomaly_score(model, {"X": 0.0, "Y": None}, "Y", 10, seed=0)
