"""Command-line surface: learn, restore, analogues, anomalies, eval, export-dot.

Each ``cmd_*`` maps parsed arguments to its output and the input paths it
read.  The output is the model file or DOT text for ``learn`` and
``export-dot``, and a JSON-able object otherwise.  ``main`` runs the
command, writes the output to ``--out`` (JSON canonically: sorted keys,
2-space indent) and a run manifest (resolved config, seed, input digests,
tool version, duration) next to it.
Exit codes: 0 success, 1 input error (bad or unreadable input), 2 internal invariant violation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .dataset import CONTINUOUS, Dataset, check_row, load_csv, load_schema, read_json
from .errors import MixbnError
from .evaluation import ALL_DATASET, REGIMES, EvalConfig, format_report, run_eval, train_model
from .graph import EdgeConstraints
from .inference import anomaly_score, restore
from .model_io import dumps, load as load_model
from .parameters import mixlearn
from .similarity import AnalogueQuery, metric_spec, nearest_analogues


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_manifest(args, inputs: list[str], started: float) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": {p: _digest(p) for p in inputs},
        "version": __version__,
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    with open(args.out + ".manifest.json", "w") as fh:
        fh.write(_dump(manifest))


def _load_data(args) -> Dataset:
    schema = load_schema(args.schema)
    return load_csv(args.data, schema)


def _load_record(path: str) -> dict:
    rec = read_json(path)
    if not isinstance(rec, dict):
        raise MixbnError(f"{path}: record must be a JSON object")
    return rec


def _record_to_row(record: dict, dataset: Dataset) -> tuple:
    unknown = set(record) - set(dataset.names)
    if unknown:
        raise MixbnError(f"record names unknown columns {sorted(unknown)}")
    row = tuple(record.get(name) for name in dataset.names)
    check_row(row, dataset.schema, "record")
    return row


def _expert_constraints(args) -> EdgeConstraints:
    if not args.expert_edges:
        return EdgeConstraints()
    edges = read_json(args.expert_edges)
    pairs = isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)
    if not pairs or not all(isinstance(v, str) for e in edges for v in e):
        raise MixbnError(f"{args.expert_edges}: expected a JSON list of [parent, child] pairs")
    return EdgeConstraints(frozenset(map(tuple, edges)), removable=args.allow_remove_expert_edges)


def cmd_learn(args) -> tuple[str, list[str]]:
    d, constraints = _load_data(args), _expert_constraints(args)
    model = mixlearn(d, constraints, bins=args.bins, max_parents=args.max_parents)
    return dumps(model), [args.data, args.schema] + ([args.expert_edges] if args.expert_edges else [])


# the defaulted training options; restore parses them as None so that --model can reject them
TRAINING_DEFAULTS = {"bins": 5, "max_parents": 4, "n_analogues": 40, "epsilon": 0.1}


def _obtain_model(args, record: dict):
    """Model from --model, or trained for --record on --data (its analogues under --metric)."""
    given = [f for f in ("data", "schema", "metric", "weight", *TRAINING_DEFAULTS)
             if getattr(args, f) is not None]
    for f, default in TRAINING_DEFAULTS.items():  # the manifest records resolved values
        if getattr(args, f) is None:
            setattr(args, f, default)
    if args.model:
        if given:
            flags = ", ".join("--" + f.replace("_", "-") for f in given)
            raise MixbnError(f"--model cannot be combined with {flags}")
        return load_model(args.model), [args.model]
    if not (args.data and args.schema):
        raise MixbnError("provide either --model or both --data and --schema")
    dataset = _load_data(args)
    row = _record_to_row(record, dataset)
    model, _ = train_model(dataset, row, args.metric or ALL_DATASET, args.n_analogues,
                           args.bins, args.max_parents, args.weight, args.epsilon)
    return model, [args.data, args.schema]


def cmd_restore(args) -> tuple[dict, list[str]]:
    record = _load_record(args.record)
    model, inputs = _obtain_model(args, record)
    return restore(model, record, args.samples, args.seed), inputs + [args.record]


def cmd_analogues(args) -> tuple[dict, list[str]]:
    dataset = _load_data(args)
    row = _record_to_row(_load_record(args.record), dataset)
    spec = metric_spec(args.metric, dataset, args.weight, args.epsilon)
    idxs = nearest_analogues(AnalogueQuery(row, spec, args.n_analogues), dataset)
    return {"metric": args.metric, "indices": idxs}, [args.data, args.schema, args.record]


def cmd_anomalies(args) -> tuple[dict, list[str]]:
    model = load_model(args.model)
    record = _load_record(args.record)
    score, flag = anomaly_score(model, record, args.target, args.samples, args.seed)
    score = score if score != float("inf") else "inf"
    return {"target": args.target, "score": score, "is_anomaly": flag}, [args.model, args.record]


def cmd_eval(args) -> tuple[dict, list[str]]:
    cfg = EvalConfig(
        regimes=tuple(args.regimes),
        n_analogues=args.n_analogues,
        bins=args.bins,
        max_parents=args.max_parents,
        m_samples=args.samples,
        seed=args.seed,
        anomaly_fraction=args.anomaly_fraction,
        epsilon=args.epsilon,
        gower_weight=args.weight,
        max_rows=args.max_rows,
    )
    report = run_eval(_load_data(args), cfg)
    sys.stdout.write(format_report(report))
    return report.to_dict(), [args.data, args.schema]


def _dot_id(name: str) -> str:
    """name as a quoted DOT ID, its backslashes and double quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export_dot(args) -> tuple[str, list[str]]:
    model = load_model(args.model)
    lines = ["digraph model {"]
    for node in model.dag.nodes:
        color = "red" if model.node_kind[node] == CONTINUOUS else "lightblue"
        lines.append(f"  {_dot_id(node)} [style=filled, fillcolor={color}];")
    for p, c in sorted(model.dag.edges):
        lines.append(f"  {_dot_id(p)} -> {_dot_id(c)};")
    lines.append("}")
    return "\n".join(lines) + "\n", [args.model]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixbn",
        description="Bayesian-network learning, restoration, analogue search and anomaly detection for mixed-type tables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data(p):
        p.add_argument("--data", required=True, help="CSV file with header row")
        p.add_argument("--schema", required=True, help="JSON column schema")

    def add_learn_opts(p):
        p.add_argument("--bins", type=int, default=TRAINING_DEFAULTS["bins"])
        p.add_argument("--max-parents", type=int, default=TRAINING_DEFAULTS["max_parents"])

    def add_analogue_opts(p):
        p.add_argument("--n-analogues", type=int, default=TRAINING_DEFAULTS["n_analogues"])
        p.add_argument("--weight", type=float, help="continuous-column weight for gower-weighted")
        p.add_argument("--epsilon", type=float, default=TRAINING_DEFAULTS["epsilon"])

    def add_sampling_opts(p):
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("learn", help="learn a model from a dataset")
    add_data(p)
    add_learn_opts(p)
    p.add_argument("--expert-edges", help="JSON list of [parent, child] pairs")
    p.add_argument("--allow-remove-expert-edges", action="store_true")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("restore", help="fill missing fields of a record")
    p.add_argument("--model", help="learned model JSON")
    p.add_argument("--data", help="CSV pool for on-the-fly analogue training")
    p.add_argument("--schema", help="JSON column schema (with --data)")
    p.add_argument("--record", required=True, help="record JSON with null for missing")
    p.add_argument("--metric", help="train on analogues under this metric")
    add_analogue_opts(p)
    add_learn_opts(p)
    add_sampling_opts(p)
    p.set_defaults(func=cmd_restore, **dict.fromkeys(TRAINING_DEFAULTS))

    p = sub.add_parser("analogues", help="rank nearest analogues of a record")
    add_data(p)
    p.add_argument("--record", required=True)
    p.add_argument("--metric", default="gower")
    add_analogue_opts(p)
    p.set_defaults(func=cmd_analogues)

    p = sub.add_parser("anomalies", help="score one record's target parameter")
    p.add_argument("--model", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--target", required=True)
    add_sampling_opts(p)
    p.set_defaults(func=cmd_anomalies)

    p = sub.add_parser("eval", help="run the full evaluation harness")
    add_data(p)
    # regime names are normalized here, so the manifest records what ran
    p.add_argument("--regimes", nargs="+", default=list(REGIMES),
                   type=lambda r: r.replace("-", "_"))
    add_analogue_opts(p)
    add_learn_opts(p)
    add_sampling_opts(p)
    p.add_argument("--anomaly-fraction", type=float, default=0.10)
    p.add_argument("--max-rows", type=int, help="evaluate a seeded subsample of rows")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-dot", help="write the model graph as DOT")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_export_dot)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        output, inputs = args.func(args)
        with open(args.out, "w") as fh:
            fh.write(output if isinstance(output, str) else _dump(output))
        _write_manifest(args, inputs, started)
        return 0
    except (MixbnError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
