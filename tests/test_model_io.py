import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import clg5_dataset, cluster_dataset

from mixbn.cli import main
from mixbn.dataset import CATEGORICAL, CONTINUOUS
from mixbn.errors import CycleError, GraphError, ParameterError
from mixbn.graph import Dag
from mixbn.inference import restore
from mixbn.model_io import _join_key, _split_key, dumps, load, loads, model_from_dict
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
        with pytest.raises(TypeError):
            back.node_kind["C1"] = CATEGORICAL

    def test_top_level_layout(self):
        model = mixlearn(clg5_dataset(2, 200), bins=4)
        obj = json.loads(dumps(model))
        assert set(obj) == {"nodes"}
        for node in obj["nodes"]:
            assert set(node) == {"name", "parents", "distribution"}
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
        {
            "A": Cpt(a_states, {(): draw(probabilities(len(a_states)))}),
            "B": Cpt(b_states, {(a,): draw(probabilities(len(b_states))) for a in a_rows}),
            "Y": draw(linear_gaussians([])),
            "X": ConditionalLinearGaussian(
                {(a,): draw(linear_gaussians(["Y"])) for a in a_rows},
                draw(linear_gaussians(["Y"])),
            ),
        },
    )


def indented(text):
    """The same model file as the writer before single-line files wrote it (2-space indent)."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestDelimiterSafety:
    @settings(deadline=None)
    @given(models())
    def test_model_survives_round_trip(self, model):
        text = dumps(model)
        back = loads(text)
        assert back == model
        assert dumps(back) == text
        assert loads(indented(text)) == model

    @settings(deadline=None)
    @given(models())
    def test_file_is_one_canonical_line_with_json_keys(self, model):
        text = dumps(model)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        for n in json.loads(text)["nodes"]:
            table = n["distribution"].get("table", {})
            labels = getattr(model.distributions[n["name"]], "table", {})
            assert sorted(table) == sorted(json.dumps(list(k)) for k in labels)

    def test_old_delimited_key_rejected(self):
        model = BayesianNetworkModel(
            Dag(("A", "B"), frozenset({("A", "B")})),
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


def assert_read_like_json_loads(text):
    """_split_key(text) gives the labels json.loads reads, and fails where json.loads
    fails or reads something other than a list of strings."""
    try:
        value = json.loads(text)
    except ValueError:
        value = None
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        assert _split_key(text) == tuple(value)
    else:
        with pytest.raises(ParameterError):
            _split_key(text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
padding = st.sampled_from(["", " ", "\t\n\r ", "\ufeff", "\u00a0", "x", "]", ",", "NaN", "[]"])
key_texts = st.text() | st.builds(
    lambda value, seps, ascii_only, before, after:
        before + json.dumps(value, separators=seps, ensure_ascii=ascii_only) + after,
    st.lists(st.text(), max_size=3) | json_values,
    st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", ":")]), st.booleans(), padding, padding)


class TestKeyCodec:
    @given(st.lists(st.text(), max_size=4))
    def test_writer_equals_json_dumps(self, labels):
        assert _join_key(tuple(labels)) == json.dumps(labels)

    @pytest.mark.parametrize("labels", [
        (), ("",), ("|",), ('"', "\\"), ("\x00\n\x1f",), ("é", "漢", "\U0001f600"), ("\ud800",), ("a", "b", "c"),
    ])
    def test_writer_on_edge_labels(self, labels):
        assert _join_key(labels) == json.dumps(list(labels))
        assert _split_key(_join_key(labels)) == labels

    @given(key_texts)
    def test_reader_accepts_exactly_what_json_loads_reads(self, text):
        assert_read_like_json_loads(text)

    @pytest.mark.parametrize("text", [
        '[]', ' ["a"] ', '\t\n\r["a","b"]\n', '[ "a" , "b" ]', '["\\u00e9\\"\\\\"]', '["\\ud800"]',
        '', ' ', '\ufeff["a"]', '["a"] x', '["a"]\u00a0', '["a"] ["b"]', '["a",]', '[', '"a"',
        '[NaN]', '[1]', '["a", null]', '[true]', '[["a"]]', '{"a": 1}', '["\x01"]',
        pytest.param('[' + '9' * 5001 + ']', id="5001-digit integer"),
    ])
    def test_reader_on_edge_texts(self, text):
        assert_read_like_json_loads(text)


# written by mixbn before the model file lost its "edges", "bins", "alpha"
# and "marginal_*" keys: mixlearn(clg5_dataset(0, 300), bins=4)
OLD_LAYOUT = Path(__file__).parent / "data" / "clg5_model_old_layout.json"


def records(n):
    """Rows of a fresh clg5 table with one or two fields blanked."""
    d = clg5_dataset(7, n)
    out = []
    for i, row in enumerate(d.rows):
        record = dict(zip(d.names, row))
        for name in d.names[i % 5: i % 5 + 1 + i % 2]:
            record[name] = None
        out.append(record)
    return out


class TestOldLayout:
    def test_file_from_the_old_layout_loads_and_restores_the_same(self):
        obj = json.loads(OLD_LAYOUT.read_text())
        assert {"edges", "bins", "alpha"} <= set(obj)
        old = model_from_dict(obj)
        fresh = mixlearn(clg5_dataset(0, 300), bins=4)
        assert old.dag == fresh.dag
        for i, record in enumerate(records(8)):
            assert restore(old, record, 50, i) == restore(fresh, record, 50, i)

    def test_file_from_the_old_layout_loads_as_its_single_line_text(self):
        old = load(str(OLD_LAYOUT))
        assert loads(dumps(old)) == old == loads(dumps(mixlearn(clg5_dataset(0, 300), bins=4)))

    def test_kind_is_read_from_the_distribution(self):
        obj = json.loads(OLD_LAYOUT.read_text())
        for n in obj["nodes"]:
            n["kind"] = CONTINUOUS if n["distribution"]["type"] == "cpt" else CATEGORICAL
        model = model_from_dict(obj)
        assert dict(model.node_kind) == dict(mixlearn(clg5_dataset(0, 300), bins=4).node_kind)
        assert model.node_kind["A"] == CATEGORICAL and model.node_kind["Z"] == CONTINUOUS


def node(obj, name):
    return next(n for n in obj["nodes"] if n["name"] == name)


def set_key(path_of, value):
    """Mutation that sets obj[...][key] = value at the dict path_of(obj) returns."""
    def mutate(obj):
        target, key = path_of(obj)
        target[key] = value
    return mutate


def rekey(name, old, new):
    def mutate(obj):
        table = node(obj, name)["distribution"]["table"]
        table[new] = table.pop(old)
    return mutate


# the clg5 model is A, B -> CPT roots; X | A and Y | A, B, X -> CLG; Z | Y -> LG
INVALID = {
    "coefficient on a non-parent": set_key(lambda o: (node(o, "Z")["distribution"]["coefficients"], "X"), 10.0),
    "coefficient on the node itself": set_key(lambda o: (node(o, "Z")["distribution"]["coefficients"], "Z"), 1.0),
    "fallback coefficient on a child": set_key(
        lambda o: (node(o, "Y")["distribution"]["fallback"]["coefficients"], "Z"), 1.0),
    "root CPT keyed by one label": rekey("A", "[]", '["a0"]'),
    "CLG key missing a label": rekey("Y", '["a0", "b0"]', '["a0"]'),
    "categorical node with a Gaussian": set_key(
        lambda o: (node(o, "A"), "distribution"), {"type": "lg", "intercept": 0.0,
                                                  "coefficients": {}, "residual_variance": 1.0}),
    "CPT with a continuous parent": set_key(lambda o: (node(o, "B"), "parents"), ["X"]),
    "LG with a categorical parent": set_key(lambda o: (node(o, "Z"), "parents"), ["A", "Y"]),
    "empty file": lambda obj: obj.clear(),
    "nodes not a list of objects": set_key(lambda o: (o, "nodes"), "AB"),
    "coefficients not an object": set_key(lambda o: (node(o, "Z")["distribution"], "coefficients"), [1.0]),
    "intercept not a number": set_key(lambda o: (node(o, "Z")["distribution"], "intercept"), "abc"),
    "probabilities not a list": set_key(lambda o: (node(o, "A")["distribution"]["table"], "[]"), 1.0),
    "probabilities NaN": set_key(lambda o: (node(o, "A")["distribution"]["table"], "[]"), [math.nan] * 2),
    "intercept past the float range": set_key(lambda o: (node(o, "Z")["distribution"], "intercept"), 10**400),
    "intercept NaN": set_key(lambda o: (node(o, "Z")["distribution"], "intercept"), math.nan),
    "coefficient infinite": set_key(lambda o: (node(o, "Z")["distribution"]["coefficients"], "Y"), math.inf),
    "fallback intercept NaN": set_key(lambda o: (node(o, "X")["distribution"]["fallback"], "intercept"), math.nan),
    "residual variance negative": set_key(lambda o: (node(o, "Z")["distribution"], "residual_variance"), -5.0),
    "residual variance infinite": set_key(lambda o: (node(o, "Z")["distribution"], "residual_variance"), math.inf),
    "intercept a numeric string": set_key(lambda o: (node(o, "Z")["distribution"], "intercept"), "5"),
    "intercept null": set_key(lambda o: (node(o, "Z")["distribution"], "intercept"), None),
    "coefficient a numeric string": set_key(
        lambda o: (node(o, "Z")["distribution"]["coefficients"], "Y"), "1.5"),
    "coefficient a bool": set_key(lambda o: (node(o, "Z")["distribution"]["coefficients"], "Y"), True),
    "residual variance true": set_key(lambda o: (node(o, "Z")["distribution"], "residual_variance"), True),
    "residual variance null": set_key(lambda o: (node(o, "Z")["distribution"], "residual_variance"), None),
    "fallback residual variance false": set_key(
        lambda o: (node(o, "X")["distribution"]["fallback"], "residual_variance"), False),
    "CLG intercept a numeric string": set_key(
        lambda o: (node(o, "X")["distribution"]["table"]['["a0"]'], "intercept"), "1"),
    "probabilities as strings": set_key(lambda o: (node(o, "A")["distribution"]["table"], "[]"),
                                        ["0.45695364238410596", "0.543046357615894"]),
    "probabilities as bools": set_key(lambda o: (node(o, "A")["distribution"]["table"], "[]"), [True, False]),
    "probability null": set_key(lambda o: (node(o, "A")["distribution"]["table"], "[]"), [None, 1.0]),
    "CLG key label unknown to its parent": rekey("X", '["a0"]', '["zz"]'),
    # a string of one-letter names would otherwise be read as its characters, A, B and X
    "parents a string": set_key(lambda o: (node(o, "Y"), "parents"), "ABX"),
    "parent not a string": set_key(lambda o: (node(o, "X"), "parents"), [["A"]]),
    "CLG key label of another parent": rekey("Y", '["a0", "b0"]', '["b0", "a0"]'),
}


class TestInvalidModels:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_rejected_on_load(self, case):
        obj = json.loads(OLD_LAYOUT.read_text())
        model_from_dict(obj)  # the unmutated file is valid
        INVALID[case](obj)
        with pytest.raises(ParameterError):
            model_from_dict(obj)

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_cli_restore_exits_1(self, case, tmp_path, capsys):
        obj = json.loads(OLD_LAYOUT.read_text())
        INVALID[case](obj)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(obj))
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(records(1)[0]))
        assert main(["restore", "--model", str(model_path), "--record", str(rec_path),
                     "--out", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "text", ['{"nodes": [}', '{"nodes": [' + "9" * 5001 + "]}", "[" * 100000],
        ids=["bad JSON", "5001-digit integer", "nested 100000 deep"],
    )
    def test_text_that_is_not_json_is_rejected_on_loads(self, text):
        with pytest.raises(ParameterError, match="not JSON"):
            loads(text)

    def test_unknown_parent_is_a_graph_error(self):
        obj = json.loads(OLD_LAYOUT.read_text())
        node(obj, "Z")["parents"] = ["Y", "W"]
        with pytest.raises(GraphError):
            model_from_dict(obj)

    def test_cycle_is_a_cycle_error(self):
        obj = json.loads(OLD_LAYOUT.read_text())
        node(obj, "X")["parents"] = ["A", "Z"]
        with pytest.raises(CycleError):
            model_from_dict(obj)
