import json
import os
import re
import subprocess
import sys
from csv import field_size_limit

import pytest

from synth import cluster_dataset, flat_continuous_dataset

import mixbn
from mixbn.cli import main
from mixbn.dataset import Dataset, load_csv, load_schema
from mixbn.evaluation import ALL_DATASET, EvalConfig, train_model
from mixbn.graph import Dag
from mixbn.inference import restore
from mixbn.model_io import load as load_model, save as save_model
from mixbn.parameters import BayesianNetworkModel, Cpt


def write_dataset(tmp_path, dataset, stem="data"):
    csv_path = tmp_path / f"{stem}.csv"
    schema_path = tmp_path / f"{stem}.schema.json"
    header = ",".join(c.name for c in dataset.schema)
    lines = [header]
    for row in dataset.rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(v)
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n")
    schema_path.write_text(
        json.dumps({"columns": [{"name": c.name, "kind": c.kind} for c in dataset.schema]})
    )
    return str(csv_path), str(schema_path)


@pytest.fixture()
def small_data(tmp_path):
    return write_dataset(tmp_path, cluster_dataset(0, 60))


class TestLearn:
    def test_minimal_two_column_learn(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("A,B\n" + "".join(f"x,{i}.0\ny,{i + 5}.0\n" for i in range(6)))
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "A", "kind": "categorical"}, {"name": "B", "kind": "continuous"}]}))
        out = tmp_path / "model.json"
        assert main(["learn", "--data", str(csv), "--schema", str(schema),
                     "--bins", "3", "--out", str(out)]) == 0
        model = load_model(str(out))
        assert len(model.dag.edges) <= 1
        assert (tmp_path / "model.json.manifest.json").exists()

    def test_expert_edge_forced(self, small_data, tmp_path):
        csv, schema = small_data
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps([["C1", "C2"]]))
        out = tmp_path / "model.json"
        assert main(["learn", "--data", csv, "--schema", schema,
                     "--expert-edges", str(edges), "--out", str(out)]) == 0
        model = load_model(str(out))
        assert ("C1", "C2") in model.dag.edges

    def test_cyclic_expert_edges_fail(self, small_data, tmp_path, capsys):
        csv, schema = small_data
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps([["C1", "C2"], ["C2", "C1"]]))
        out = tmp_path / "model.json"
        assert main(["learn", "--data", csv, "--schema", schema,
                     "--expert-edges", str(edges), "--out", str(out)]) == 1
        assert "cycle" in capsys.readouterr().err.lower()

    def test_expert_edge_naming_unknown_column_fails(self, small_data, tmp_path, capsys):
        csv, schema = small_data
        edges = tmp_path / "edges.json"
        edges.write_text(json.dumps([["C1", "Nowhere"]]))
        assert main(["learn", "--data", csv, "--schema", schema,
                     "--expert-edges", str(edges), "--out", str(tmp_path / "model.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edges", [[["C1", "C2", "C3"]], {"C1": "C2"}, "C1C2"])
    def test_malformed_expert_edges_are_an_input_error(self, small_data, tmp_path, capsys, edges):
        csv, schema = small_data
        path = tmp_path / "edges.json"
        path.write_text(json.dumps(edges))
        assert main(["learn", "--data", csv, "--schema", schema,
                     "--expert-edges", str(path), "--out", str(tmp_path / "model.json")]) == 1
        assert "[parent, child] pairs" in capsys.readouterr().err

    def test_model_file_round_trips_byte_identically(self, small_data, tmp_path):
        csv, schema = small_data
        out = tmp_path / "model.json"
        assert main(["learn", "--data", csv, "--schema", schema, "--out", str(out)]) == 0
        text = out.read_text()
        from mixbn.model_io import dumps, loads

        assert dumps(loads(text)) == text


class TestRestore:
    def test_fills_missing_field_and_keeps_the_rest(self, small_data, tmp_path):
        csv, schema = small_data
        model_path = tmp_path / "model.json"
        assert main(["learn", "--data", csv, "--schema", schema, "--out", str(model_path)]) == 0
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[0])}
        record["C3"] = None
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        out = tmp_path / "restored.json"
        assert main(["restore", "--model", str(model_path), "--record", str(rec_path),
                     "--seed", "3", "--out", str(out)]) == 0
        restored = json.loads(out.read_text())
        assert restored["C3"] is not None
        for k, v in record.items():
            if k != "C3":
                assert restored[k] == pytest.approx(v) if isinstance(v, float) else restored[k] == v

    def test_same_seed_gives_byte_identical_output(self, small_data, tmp_path):
        csv, schema = small_data
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[1])}
        record["X2"] = None
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["restore", "--data", csv, "--schema", schema,
                         "--record", str(rec_path), "--metric", "gower",
                         "--n-analogues", "20", "--seed", "11", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("metric", [None, "gower", "gower-weighted", "cosine", "filter"])
    def test_data_restore_runs_the_shared_train_step(self, small_data, tmp_path, metric):
        csv, schema = small_data
        d = load_csv(csv, load_schema(schema))
        record = {c.name: v for c, v in zip(d.schema, d.rows[5])}
        record["C2"] = None
        record["X4"] = None
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        out = tmp_path / "restored.json"
        argv = ["restore", "--data", csv, "--schema", schema, "--record", str(rec_path),
                "--n-analogues", "20", "--samples", "50", "--seed", "4", "--out", str(out)]
        assert main(argv + (["--metric", metric] if metric else [])) == 0
        row = tuple(record[c.name] for c in d.schema)
        regime = metric.replace("-", "_") if metric else ALL_DATASET  # the library's spelling
        model, _ = train_model(d, row, regime, EvalConfig(n_analogues=20))
        expected = restore(model, record, 50, 4)
        assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        config = json.loads((tmp_path / "restored.json.manifest.json").read_text())["config"]
        resolved = {"bins": 5, "max_parents": 4, "n_analogues": 20, "epsilon": 0.1}
        assert {k: config[k] for k in resolved} == resolved

    @pytest.mark.parametrize("metric", ["gower", "gower-weighted", "cosine", "filter"])
    def test_label_the_analogues_lack_is_dropped_from_evidence_only(self, tmp_path, capsys, metric):
        d = cluster_dataset(0, 60)
        j = d.col_index("C1")
        # rows 29 and 32 rank last from row 5 under gower, so no 20-row analogue set holds them
        d = Dataset(d.schema, [r[:j] + ("rare",) + r[j + 1:] if i in (29, 32) else r
                               for i, r in enumerate(d.rows)])
        csv, schema = write_dataset(tmp_path, d)
        record = {c.name: v for c, v in zip(d.schema, d.rows[5])}
        record.update(C1="rare", X2=None)
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        out = tmp_path / "restored.json"
        capsys.readouterr()
        assert main(["restore", "--data", csv, "--schema", schema, "--record", str(rec_path),
                     "--metric", metric, "--n-analogues", "20", "--seed", "3", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: C1 = 'rare'") and err.count("\n") == 1
        restored = json.loads(out.read_text())
        assert {k: v for k, v in restored.items() if k != "X2"} == {k: v for k, v in record.items() if k != "X2"}
        model, train = train_model(d, tuple(record[c.name] for c in d.schema), metric.replace("-", "_"),
                                   EvalConfig(n_analogues=20))
        assert not {29, 32} & set(train)
        assert restored["X2"] == restore(model, {**record, "C1": None}, 100, 3)["X2"]
        # a dropped label is still a given value: a record with nothing else missing fails
        rec_path.write_text(json.dumps({**record, "X2": 1.0}))
        assert main(["restore", "--data", csv, "--schema", schema, "--record", str(rec_path),
                     "--metric", metric, "--n-analogues", "20", "--out", str(out)]) == 1
        assert "nothing to restore" in capsys.readouterr().err

    def test_nothing_missing_fails(self, small_data, tmp_path, capsys):
        csv, schema = small_data
        model_path = tmp_path / "model.json"
        main(["learn", "--data", csv, "--schema", schema, "--out", str(model_path)])
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[2])}
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        assert main(["restore", "--model", str(model_path), "--record", str(rec_path),
                     "--out", str(tmp_path / "o.json")]) == 1


    @pytest.mark.parametrize("flag", ["--data", "--schema", "--metric", "--bins",
                                      "--max-parents", "--n-analogues", "--epsilon"])
    def test_model_is_not_combined_with_training_flags(self, small_data, tmp_path, capsys, flag):
        csv, schema = small_data
        model_path = str(tmp_path / "model.json")
        assert main(["learn", "--data", csv, "--schema", schema, "--out", model_path]) == 0
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps({"X1": None}))
        value = {"--data": csv, "--schema": schema, "--metric": "cosine",
                 "--bins": "9", "--max-parents": "1", "--n-analogues": "3", "--epsilon": "0.5"}[flag]
        capsys.readouterr()
        assert main(["restore", "--model", model_path, "--record", str(rec_path), flag, value,
                     "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not (tmp_path / "o.json").exists()


class TestAnalogues:
    def test_duplicate_ranks_first(self, small_data, tmp_path):
        csv, schema = small_data
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[7])}
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        out = tmp_path / "analogues.json"
        assert main(["analogues", "--data", csv, "--schema", schema,
                     "--record", str(rec_path), "--metric", "gower",
                     "--n-analogues", "5", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["indices"][0] == 7

    def test_gower_weighted_derives_weight(self, small_data, tmp_path):
        csv, schema = small_data
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[0])}
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        out = tmp_path / "a.json"
        assert main(["analogues", "--data", csv, "--schema", schema,
                     "--record", str(rec_path), "--metric", "gower-weighted",
                     "--n-analogues", "5", "--out", str(out)]) == 0


class TestRegimeNames:
    def test_hyphen_and_underscore_spellings_give_identical_outputs(self, small_data, tmp_path):
        csv, schema = small_data
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[5])}
        record["X4"] = None
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))

        def run(command, metric):
            out = tmp_path / f"{command}-{metric}.json"
            assert main([command, "--data", csv, "--schema", schema, "--record", str(rec_path),
                         "--metric", metric, "--n-analogues", "20", "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            assert manifest["config"]["metric"] == metric.replace("-", "_")
            return out.read_bytes()

        for hyphen in ("gower-weighted", "all-dataset"):
            assert run("restore", hyphen) == run("restore", hyphen.replace("-", "_"))
        assert run("analogues", "gower-weighted") == run("analogues", "gower_weighted")
        assert json.loads(run("analogues", "gower-weighted"))["metric"] == "gower_weighted"


class TestDegeneratePool:
    @pytest.mark.parametrize("command", ["analogues", "restore"])
    def test_derived_gower_weight_is_an_input_error(self, tmp_path, capsys, command):
        csv, schema = write_dataset(tmp_path, flat_continuous_dataset())
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps({"K": "a", "L": None, "V": 5.0, "W": 1.0}))
        assert main([command, "--data", csv, "--schema", schema, "--record", str(rec_path),
                     "--metric", "gower-weighted", "--n-analogues", "5",
                     "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err.startswith("error: degenerate pool")


class TestBadAnalogueAndEvalInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analogues", "--metric", "all-dataset"],  # a regime that ranks nothing
            ["analogues", "--metric", "euclid"],
            ["analogues", "--n-analogues", "-3"],
            ["analogues", "--n-analogues", "0"],
            ["restore", "--metric", "euclid"],
            ["eval", "--regimes", "gower-weighted", "gower_weighted", "--max-rows", "2"],
            ["eval", "--regimes", "euclid", "--max-rows", "2"],
            ["eval", "--max-rows", "-1"],
            ["eval", "--max-rows", "0"],
            ["restore", "--seed", "-1"],
            ["eval", "--seed", "-1", "--max-rows", "2"],
            ["eval", "--epsilon", "2", "--max-rows", "2"],
            ["eval", "--epsilon", "0", "--max-rows", "2"],
            ["eval", "--bins", "1", "--max-rows", "2"],
            ["eval", "--max-parents", "0", "--max-rows", "2"],
            ["restore", "--metric", "all-dataset", "--epsilon", "0"],
            ["restore", "--metric", "gower", "--epsilon", "5"],
            ["eval", "--regimes", "all-dataset", "all_dataset", "--max-rows", "2"],
            ["analogues", "--metric", "gower", "--epsilon", "5"],
            ["eval", "--regimes", "gower", "gower", "--max-rows", "2"],
        ],
    )
    def test_fails_with_an_input_error(self, small_data, tmp_path, capsys, argv):
        csv, schema = small_data
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[3])}
        record["X1"] = None
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        extra = ["--samples", "10"] if argv[0] == "eval" else ["--record", str(rec_path)]
        assert main([*argv, *extra, "--data", csv, "--schema", schema,
                     "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestAnomalies:
    def test_scores_record(self, small_data, tmp_path):
        csv, schema = small_data
        model_path = tmp_path / "model.json"
        main(["learn", "--data", csv, "--schema", schema, "--out", str(model_path)])
        d = cluster_dataset(0, 60)
        record = {c.name: v for c, v in zip(d.schema, d.rows[4])}
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        out = tmp_path / "anom.json"
        assert main(["anomalies", "--model", str(model_path), "--record", str(rec_path),
                     "--target", "X1", "--samples", "200", "--seed", "5",
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert set(result) == {"target", "score", "is_anomaly"}


class TestEval:
    def test_small_run_populates_all_cells(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path, cluster_dataset(2, 50))
        out = tmp_path / "report.json"
        assert main(["eval", "--data", csv, "--schema", schema,
                     "--regimes", "all_dataset", "gower",
                     "--n-analogues", "15", "--bins", "3", "--samples", "40",
                     "--max-rows", "4", "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for p in [f"C{i}" for i in range(1, 7)]:
            assert set(report["accuracy"][p]) == {"all_dataset", "gower"}
        for p in [f"X{i}" for i in range(1, 6)]:
            assert set(report["rmse"][p]) == {"all_dataset", "gower"}
            assert p in report["roc_auc"]
        text = capsys.readouterr().out
        assert "Reference results" in text


    def test_zero_samples_is_an_input_error(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path, cluster_dataset(2, 50))
        assert main(["eval", "--data", csv, "--schema", schema, "--samples", "0",
                     "--out", str(tmp_path / "report.json")]) == 1
        assert "m_samples" in capsys.readouterr().err


class TestExportDot:
    def test_dot_output_shape(self, small_data, tmp_path):
        csv, schema = small_data
        model_path = tmp_path / "model.json"
        main(["learn", "--data", csv, "--schema", schema, "--out", str(model_path)])
        out = tmp_path / "model.dot"
        assert main(["export-dot", "--model", str(model_path), "--out", str(out)]) == 0
        text = out.read_text()
        model = load_model(str(model_path))
        assert text.startswith("digraph")
        assert text.count("->") == len(model.dag.edges)
        assert "fillcolor=red" in text  # continuous nodes
        assert "fillcolor=lightblue" in text  # categorical nodes

    def test_names_are_escaped_in_quoted_ids(self, tmp_path):
        names = ('a"b', "c\\", 'd\\"e')
        model = BayesianNetworkModel(
            Dag(names, frozenset({(names[0], names[1]), (names[1], names[2])})),
            {names[0]: Cpt(("x",), {(): (1.0,)}), names[1]: Cpt(("x",), {("x",): (1.0,)}),
             names[2]: Cpt(("x",), {("x",): (1.0,)})},
        )
        model_path, out = tmp_path / "model.json", tmp_path / "model.dot"
        save_model(model, str(model_path))
        assert main(["export-dot", "--model", str(model_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert '  "a\\"b" -> "c\\\\";' in text.splitlines()
        # every quoted DOT ID, with \" and \\ read back, is a node name
        ids = [re.sub(r"\\(.)", r"\1", m) for m in re.findall(r'"((?:[^"\\]|\\.)*)"', text)]
        assert ids == [*names, names[0], names[1], names[1], names[2]]


BIG_INT = "9" * 5001  # past Python's 4300-digit limit on parsing an int
DEEP = "[" * 100000  # past Python's recursion limit on parsing JSON
HEADER = ",".join(cluster_dataset(0, 60).names)

# case -> (command, input to break, its content; None makes the path a directory)
UNREADABLE = {
    "record with a 5001-digit integer (restore)": ("restore", "record", f'{{"X1": {BIG_INT}}}'),
    "record with a 5001-digit integer (analogues)": ("analogues", "record", f'{{"X1": {BIG_INT}}}'),
    "expert edges with a 5001-digit integer": ("learn", "edges", f'[["C1", "C2"], [{BIG_INT}, "C1"]]'),
    "schema entry without a kind": ("learn", "schema", '{"columns": [{"name": "C1"}]}'),
    "schema columns an object": ("learn", "schema", '{"columns": {"C1": "categorical"}}'),
    "record path a directory": ("restore", "record", None),
    "CSV not UTF-8": ("learn", "data", b"C1,C2\ncaf\xe9,x\n"),
    "model file not UTF-8": ("restore", "model", b'{"nodes": ["caf\xe9"]}'),
    "record nested too deep": ("restore", "record", DEEP),
    "schema nested too deep": ("learn", "schema", DEEP),
    "model file nested too deep": ("restore", "model", DEEP),
    "expert edges nested too deep": ("learn", "edges", DEEP),
    "CSV cell past the field size limit": (
        "learn", "data", f"{HEADER}\n{'x' * (field_size_limit() + 1)}{',' * HEADER.count(',')}\n"),
}


class TestErrorSurface:
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_unreadable_input_file_is_an_input_error(self, small_data, tmp_path, capsys, case):
        command, broken, content = UNREADABLE[case]
        csv, schema = small_data
        paths = {"data": csv, "schema": schema, "model": str(tmp_path / "model.json"),
                 "record": str(tmp_path / "rec.json"), "edges": str(tmp_path / "edges.json")}
        assert main(["learn", "--data", csv, "--schema", schema, "--out", paths["model"]]) == 0
        (tmp_path / "rec.json").write_text(json.dumps({"X1": None}))
        (tmp_path / "edges.json").write_text(json.dumps([["C1", "C2"]]))
        path = tmp_path / "broken"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths[broken] = str(path)
        argv = {
            "learn": ["--data", paths["data"], "--schema", paths["schema"], "--expert-edges", paths["edges"]],
            "restore": ["--model", paths["model"], "--record", paths["record"]],
            "analogues": ["--data", paths["data"], "--schema", paths["schema"], "--record", paths["record"]],
        }[command]
        capsys.readouterr()
        assert main([command, *argv, "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [["restore", "--bogus", "1"], ["eval", "--max-rows", "x"],
                                      ["restore"], ["restore", "--weight", "0.5"], ["frobnicate"]])
    def test_usage_error_exits_1(self, small_data, tmp_path, capsys, argv):
        csv, schema = small_data
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps({"X1": None}))
        # a bare ["restore"] lacks its required --record
        extra = ["--record", str(rec_path)] if argv[0] == "restore" and len(argv) > 1 else []
        assert main([*argv, *extra, "--data", csv, "--schema", schema,
                     "--out", str(tmp_path / "o.json")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["restore", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert mixbn.__version__ in out if argv == ["--version"] else out.startswith("usage:")

    @pytest.mark.parametrize(
        "command, states, name",
        [
            pytest.param("restore", [], "A", id="no states"),  # with "table": {}
            pytest.param("restore", [1, 2], "A", id="number states"),
            pytest.param("restore", "ab", "A", id="states a string"),
            pytest.param("export-dot", ["a", "b"], 5, id="number name"),
        ],
    )
    def test_model_file_with_bad_labels_is_an_input_error(self, tmp_path, capsys, command, states, name):
        table = {"[]": [0.5, 0.5]} if states else {}
        node = {"name": name, "parents": [], "distribution": {"type": "cpt", "states": states, "table": table}}
        model_path, rec_path = tmp_path / "model.json", tmp_path / "rec.json"
        model_path.write_text(json.dumps({"nodes": [node]}))
        rec_path.write_text(json.dumps({"A": None}))
        argv = ["--record", str(rec_path)] if command == "restore" else []
        assert main([command, "--model", str(model_path), *argv, "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_restore_data_without_schema(self, small_data, tmp_path, capsys):
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps({"X1": None}))
        assert main(["restore", "--data", small_data[0], "--record", str(rec_path),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert "both --data and --schema" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["learn", "--data", str(tmp_path / "nope.csv"),
                     "--schema", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, record",
        [
            ("restore", []),
            ("anomalies", []),
            ("analogues", {"X1": "abc"}),
            ("analogues", {"X1": True}),
            ("restore", {"X1": None, "Nope": None}),
            ("anomalies", {"X1": 1.0, "Nope": None}),
            ("anomalies", {"X1": "abc"}),
            ("anomalies", {"X1": "5"}),
            ("anomalies", {"X1": True}),
            ("anomalies", {"X1": float("nan")}),
            ("analogues", {"X1": 10**400}),
        ],
    )
    def test_malformed_record_is_an_input_error(self, small_data, tmp_path, capsys,
                                                command, record):
        csv, schema = small_data
        model_path = tmp_path / "model.json"
        assert main(["learn", "--data", csv, "--schema", schema, "--out", str(model_path)]) == 0
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(record))
        args = {
            "restore": ["--model", str(model_path)],
            "anomalies": ["--model", str(model_path), "--target", "X1"],
            "analogues": ["--data", csv, "--schema", schema],
        }[command]
        capsys.readouterr()
        assert main([command, *args, "--record", str(rec_path),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_import_loads_no_scipy():
    # every command pays for what importing the CLI loads; mixbn needs numpy only
    code = "import sys, mixbn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(mixbn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
