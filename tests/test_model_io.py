import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import clg5_dataset, cluster_dataset

from mixbn.dataset import CATEGORICAL, CONTINUOUS
from mixbn.errors import ParameterError
from mixbn.graph import Dag
from mixbn.model_io import dumps, loads, model_from_dict
from mixbn.parameters import (
    BayesianNetworkModel,
    ConditionalLinearGaussian,
    Cpt,
    LinearGaussian,
    mixlearn,
)


class TestRoundTrip:
    def test_serialize_parse_serialize_is_identity(self):
        model = mixlearn(clg5_dataset(0, 300), bins=4)
        text = dumps(model)
        again = dumps(loads(text))
        assert text == again

    def test_round_trip_preserves_structure_and_kinds(self):
        model = mixlearn(cluster_dataset(1, 120), bins=4)
        back = loads(dumps(model))
        assert back.dag.nodes == model.dag.nodes
        assert back.dag.edges == model.dag.edges
        assert dict(back.node_kind) == dict(model.node_kind)
        assert back.bins == model.bins
        assert back.alpha == model.alpha

    def test_top_level_layout(self):
        model = mixlearn(clg5_dataset(2, 200), bins=4)
        obj = json.loads(dumps(model))
        assert set(obj) == {"nodes", "edges", "bins", "alpha"}
        for node in obj["nodes"]:
            assert set(node) == {"name", "kind", "parents", "distribution"}
            assert node["distribution"]["type"] in ("cpt", "lg", "clg")

    def test_distribution_values_survive(self):
        model = mixlearn(clg5_dataset(3, 250), bins=4)
        back = loads(dumps(model))
        for name, dist in model.distributions.items():
            other = back.distributions[name]
            assert type(other) is type(dist)
            if isinstance(dist, Cpt):
                assert other.table == dist.table


finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-3, 1e6)


@st.composite
def probabilities(draw, k):
    weights = draw(st.lists(positive, min_size=k, max_size=k))
    return tuple(w / sum(weights) for w in weights)


@st.composite
def linear_gaussians(draw, parents):
    return LinearGaussian(
        draw(finite),
        {p: draw(finite) for p in parents},
        draw(positive),
        draw(finite),
        draw(positive),
    )


@st.composite
def models(draw):
    """A -> B, A -> X, Y -> X: CPT root, one-parent CPT, LG root, CLG child.

    A's labels always include "" and "|", the labels that broke the
    earlier "|"-joined key format.
    """
    extra = draw(st.lists(st.text(), max_size=3, unique=True))
    a_states = tuple(dict.fromkeys(["", "|", *extra]))
    b_states = tuple(draw(st.lists(st.text(), min_size=1, max_size=3, unique=True)))
    a_rows = draw(st.lists(st.sampled_from(a_states), min_size=1, unique=True))
    dag = Dag(("A", "B", "Y", "X"), frozenset({("A", "B"), ("A", "X"), ("Y", "X")}))
    return BayesianNetworkModel(
        dag,
        {"A": CATEGORICAL, "B": CATEGORICAL, "Y": CONTINUOUS, "X": CONTINUOUS},
        {
            "A": Cpt(a_states, {(): draw(probabilities(len(a_states)))}),
            "B": Cpt(b_states, {(a,): draw(probabilities(len(b_states))) for a in a_rows}),
            "Y": draw(linear_gaussians([])),
            "X": ConditionalLinearGaussian(
                {(a,): draw(linear_gaussians(["Y"])) for a in a_rows},
                draw(linear_gaussians(["Y"])),
            ),
        },
        draw(st.integers(2, 10)),
        draw(positive),
    )


class TestDelimiterSafety:
    @settings(deadline=None)
    @given(models())
    def test_model_survives_round_trip(self, model):
        text = dumps(model)
        back = loads(text)
        assert back == model
        assert dumps(back) == text

    def test_old_delimited_key_rejected(self):
        model = BayesianNetworkModel(
            Dag(("A", "B"), frozenset({("A", "B")})),
            {"A": CATEGORICAL, "B": CATEGORICAL},
            {"A": Cpt(("a",), {(): (1.0,)}), "B": Cpt(("b",), {("a",): (1.0,)})},
        )
        obj = json.loads(dumps(model))
        obj["nodes"][1]["distribution"]["table"] = {"a|b": [1.0]}
        with pytest.raises(ParameterError):
            model_from_dict(obj)

    def test_unknown_distribution_tag_rejected(self):
        with pytest.raises(ParameterError):
            model_from_dict(
                {
                    "nodes": [
                        {"name": "A", "kind": "categorical", "parents": [],
                         "distribution": {"type": "bogus"}}
                    ],
                    "edges": [],
                    "bins": 5,
                    "alpha": 1.0,
                }
            )
