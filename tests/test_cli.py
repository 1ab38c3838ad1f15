import json

import pytest

from synth import cluster_dataset, flat_continuous_dataset

from mixbn.cli import main
from mixbn.dataset import load_csv, load_schema
from mixbn.evaluation import ALL_DATASET, train_model
from mixbn.inference import restore
from mixbn.model_io import load as load_model


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
        model, _ = train_model(d, row, metric or ALL_DATASET, 20, bins=5, max_parents=4)
        expected = restore(model, record, 50, 4)
        assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"

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
            ["analogues", "--metric", "gower-weighted", "--weight", "nan"],
            ["analogues", "--metric", "gower-weighted", "--weight", "inf"],
            ["analogues", "--n-analogues", "-3"],
            ["analogues", "--n-analogues", "0"],
            ["restore", "--metric", "gower-weighted", "--weight", "nan"],
            ["eval", "--regimes", "gower-weighted", "--weight", "nan", "--max-rows", "2"],
            ["eval", "--regimes", "gower", "--weight", "nan", "--max-rows", "2"],
            ["eval", "--max-rows", "-1"],
            ["eval", "--max-rows", "0"],
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


class TestErrorSurface:
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
