"""The four workloads.  Each is closed loop with one client.

A workload does its program-side preparation in ``setup`` (counted in
``setup_s``), a few untimed ``warm_up`` ops, and then ``step`` calls.  A
step prepares its input untimed, times the call into the program, and
checks the answer untimed.  Answers of the first ``quality_steps`` steps
feed the quality metrics, so a faster program that fits more steps into a
run is scored on the same inputs as a slower one.

Modules of the program are imported inside ``setup`` so that their import
time is part of set-up.
"""
from __future__ import annotations

import json
import math
import os
from time import perf_counter

import inputs
import oracle

BINS = 5
MAX_PARENTS = 4
N_ANALOGUES = 40
SAMPLES = 100
# held-out records of the answer-quality probe, spread over the probed models
PROBE_RECORDS = 600


def _is_finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


class NullTracer:
    def begin(self, op):
        pass

    def end(self):
        pass


class Step:
    """Outcome of one step: per-op latencies and failure descriptions."""

    def __init__(self, latencies, failures=()):
        self.latencies = latencies
        self.failures = list(failures)


class Answers:
    """Restored fields and anomaly scores kept for the quality metrics.

    Continuous errors are kept in units of the pool's column range.
    """

    def __init__(self):
        self.hits: list[float] = []
        self.sq_err: dict[str, list[float]] = {n: [] for n in inputs.CONT_NAMES}
        self.scores: list[float] = []
        self.labels: list[bool] = []

    def add_restore(self, truth, record, restored, ranges) -> None:
        for name in inputs.NAMES:
            if record[name] is not None:
                continue
            if name in inputs.CAT_NAMES:
                self.hits.append(1.0 if restored[name] == truth[name] else 0.0)
                continue
            lo, hi = ranges[name]
            self.sq_err[name].append(((restored[name] - truth[name]) / (hi - lo)) ** 2)

    def metrics(self) -> dict:
        from mixbn.evaluation import roc_auc

        nrmse = [math.sqrt(sum(v) / len(v)) for v in self.sq_err.values() if v]
        return {
            "cat_accuracy": sum(self.hits) / len(self.hits),
            "cont_nrmse": sum(nrmse) / len(nrmse),
            "anomaly_auc": roc_auc(self.scores, self.labels),
        }


def learn_and_check(table):
    """mixlearn followed by the dumps -> loads -> dumps identity check."""
    from mixbn import model_io
    from mixbn.parameters import mixlearn

    model = mixlearn(table, bins=BINS, max_parents=MAX_PARENTS)
    text = model_io.dumps(model)
    return model, text, model_io.dumps(model_io.loads(text))


def k2_nll_per_row(table, dag) -> float:
    """Negative K2 log score of dag on the discretized table, per row."""
    from mixbn.dataset import quantile_discretize
    from mixbn.structure import k2_total_score

    disc, _ = quantile_discretize(table, BINS)
    return -k2_total_score(disc, dag) / table.n_rows


def probe(seed, models) -> Answers:
    """Answer-quality pass over PROBE_RECORDS held-out records.

    ``models`` is a list of (model, column ranges of its training table);
    record k goes to model k mod len(models).  Each record is restored from
    a sparse copy of itself and scored for anomaly on one continuous
    column, once as drawn and once with that column injected.
    """
    from mixbn.inference import anomaly_score, restore

    answers = Answers()
    for k in range(PROBE_RECORDS):
        model, ranges = models[k % len(models)]
        truth, sparse, column, injected = inputs.probe_record(seed, k, ranges)
        op_seed = inputs.op_seed(seed, k)
        answers.add_restore(truth, sparse, restore(model, sparse, SAMPLES, op_seed), ranges)
        for record, label in ((truth, False), (injected, True)):
            answers.scores.append(anomaly_score(model, record, column, SAMPLES, op_seed)[0])
            answers.labels.append(label)
    return answers


class Workload:
    name = ""
    quality_steps = 0

    def __init__(self, ctx):
        self.ctx = ctx
        self.tracer = NullTracer()

    def timed(self, op, fn, *args):
        """Run fn(*args) as one timed op; returns (result, seconds, error)."""
        self.tracer.begin(op)
        try:
            t0 = perf_counter()
            try:
                out = fn(*args)
                err = None
            except Exception as exc:  # an op that raises is a failed op
                out, err = None, f"op {op} raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
        finally:
            self.tracer.end()
        return out, t1 - t0, err

    def load_pools(self, count=inputs.POOLS):
        from mixbn.dataset import load_csv, load_schema

        self.schema = load_schema(self.ctx.schema_path)
        self.pools = [load_csv(self.ctx.pool_csv(k), self.schema) for k in range(count)]

    def pool_quality(self) -> dict:
        """Quality metrics of models learned on the run's pools, from the probe."""
        from mixbn.parameters import mixlearn

        models = [mixlearn(p, bins=BINS, max_parents=MAX_PARENTS) for p in self.pools]
        answers = probe(self.ctx.seed, list(zip(models, self.ctx.ranges)))
        k2 = [k2_nll_per_row(p, m.dag) for p, m in zip(self.pools, models)]
        return {**answers.metrics(), "k2_nll_per_row": sum(k2) / len(k2)}

    def oracle_checks(self) -> tuple[int, list[str]]:
        return 0, []

    def check_restored(self, op, record, restored, labels) -> list[str]:
        """Blank fields filled with a pool label or a finite float; the rest unchanged."""
        if set(restored) != set(inputs.NAMES):
            return [f"op {op}: restored record has fields {sorted(restored)}"]
        fails = []
        for name in inputs.NAMES:
            value = restored[name]
            if record[name] is not None:
                if value != record[name]:
                    fails.append(f"op {op}: observed {name!r} changed to {value!r}")
            elif name in labels:
                if value not in labels[name]:
                    fails.append(f"op {op}: {name!r} filled with unknown label {value!r}")
            elif not _is_finite(value):
                fails.append(f"op {op}: {name!r} filled with {value!r}")
        return fails


class Learn(Workload):
    """Write path: mixlearn on a distinct table per op, then a model_io round trip."""

    name = "learn"
    quality_steps = 60

    def setup(self):
        self.load_pools(count=1)
        self.k2: list[float] = []
        self.probed: list = []  # (model, ranges) of the first POOLS ops

    def warm_up(self):
        for _ in range(2):
            learn_and_check(self.pools[0])

    def step(self, op):
        from mixbn.dataset import load_csv

        rows = inputs.learn_table_rows(self.ctx.seed, op)
        path = os.path.join(self.ctx.workdir, "learn.csv")
        inputs.write_table(rows, path)
        table = load_csv(path, self.schema)
        out, seconds, err = self.timed(op, learn_and_check, table)
        if err:
            return Step([seconds], [err])
        model, text, again = out
        fails = []
        if set(model.distributions) != set(model.dag.nodes):
            fails.append(f"op {op}: nodes without a distribution")
        if text != again:
            fails.append(f"op {op}: dumps(loads(x)) differs from x")
        if op < self.quality_steps:
            self.k2.append(k2_nll_per_row(table, model.dag))
        if op < inputs.POOLS:
            self.probed.append((model, inputs.column_ranges(rows)))
        return Step([seconds], fails)

    def quality(self):
        return {
            **probe(self.ctx.seed, self.probed).metrics(),
            "k2_nll_per_row": sum(self.k2) / len(self.k2),
        }


class Restore(Workload):
    """Online user path: one `mixbn restore` per held-out record, analogue-trained."""

    name = "restore"
    quality_steps = 0  # its quality figures come from the probe
    METRICS = ("gower", "gower-weighted", "cosine", "filter")
    ORACLE_RECORDS = 8

    def setup(self):
        import mixbn.cli  # noqa: F401

        self.load_pools()
        self.ops_done = 0

    @staticmethod
    def pool_of(op) -> int:
        # metrics rotate fastest, so every metric meets every pool
        return (op // len(Restore.METRICS)) % inputs.POOLS

    def run_cli(self, op, record, tag):
        from mixbn.cli import main

        metric = self.METRICS[op % len(self.METRICS)]
        record_path = os.path.join(self.ctx.workdir, f"record-{tag}.json")
        out_path = os.path.join(self.ctx.workdir, f"restored-{tag}.json")
        inputs.write_record(record, record_path)
        argv = [
            "restore", "--data", self.ctx.pool_csv(self.pool_of(op)), "--schema", self.ctx.schema_path,
            "--record", record_path, "--metric", metric,
            "--n-analogues", str(N_ANALOGUES), "--samples", str(SAMPLES),
            "--bins", str(BINS), "--max-parents", str(MAX_PARENTS),
            "--seed", str(inputs.op_seed(self.ctx.seed, op)), "--out", out_path,
        ]
        code, seconds, err = self.timed(op, main, argv)
        if err:
            return None, seconds, [err]
        if code != 0:
            return None, seconds, [f"op {op}: mixbn restore --metric {metric} exited {code}"]
        with open(out_path) as fh:
            return json.load(fh), seconds, []

    def warm_up(self):
        for k in range(len(self.METRICS)):
            op = inputs.WARM_UP + k
            self.run_cli(op, inputs.restore_record(self.ctx.seed, op)[1], f"warm{os.getpid()}")

    def step(self, op):
        _, record = inputs.restore_record(self.ctx.seed, op)
        restored, seconds, fails = self.run_cli(op, record, "op")
        if restored is not None:
            fails = self.check_restored(op, record, restored, self.ctx.labels[self.pool_of(op)])
        self.ops_done = op + 1
        return Step([seconds], fails)

    def oracle_checks(self):
        """Rank the pool for a seeded subset of this run's records under each metric."""
        picks = inputs.stream(self.ctx.seed, inputs.ORACLE).choice(
            self.ops_done, size=min(self.ORACLE_RECORDS, self.ops_done), replace=False
        )
        fails = []
        for op in picks.tolist():
            _, record = inputs.restore_record(self.ctx.seed, op)
            k = self.pool_of(op)
            for metric in self.METRICS:
                fails += oracle.check_ranking(
                    self.pools[k], self.ctx.pool_rows[k], self.schema, self.ctx.ranges[k], record,
                    metric.replace("-", "_"), N_ANALOGUES, inputs.op_seed(self.ctx.seed, op),
                )
        return len(picks) * len(self.METRICS), fails

    def quality(self):
        return self.pool_quality()


class Query(Workload):
    """Read path on global models: a sparse restore and 5 anomaly scores per record."""

    name = "query"
    quality_steps = 1600

    def setup(self):
        from mixbn.parameters import mixlearn

        self.load_pools()
        self.models = [mixlearn(p, bins=BINS, max_parents=MAX_PARENTS) for p in self.pools]
        self.answers = Answers()

    def answer(self, model, sparse, incoming, seed):
        from mixbn.inference import anomaly_score, restore

        restored = restore(model, sparse, SAMPLES, seed)
        scores = [
            anomaly_score(model, incoming, name, SAMPLES, seed + k)[0]
            for k, name in enumerate(inputs.CONT_NAMES)
        ]
        return restored, scores

    def warm_up(self):
        for k in range(2):
            rng = inputs.stream(self.ctx.seed, inputs.QUERY_RECORD, inputs.WARM_UP + k)
            truth = inputs.draw_rows(rng, 1)[0]
            self.answer(self.models[k % len(self.models)], inputs.sparse_copy(rng, truth), truth, k)

    def step(self, op):
        k = op % inputs.POOLS
        ranges = self.ctx.ranges[k]
        truth, sparse, incoming, injected = inputs.query_record(self.ctx.seed, op, ranges)
        out, seconds, err = self.timed(
            op, self.answer, self.models[k], sparse, incoming, inputs.op_seed(self.ctx.seed, op)
        )
        if err:
            return Step([seconds], [err])
        restored, scores = out
        fails = self.check_restored(op, sparse, restored, self.ctx.labels[k])
        fails += [
            f"op {op}: anomaly score {s!r} for {n!r}"
            for n, s in zip(inputs.CONT_NAMES, scores)
            if not (_is_finite(s) and s >= 0)
        ]
        if not fails and op < self.quality_steps:
            self.answers.add_restore(truth, sparse, restored, ranges)
            self.answers.scores += scores
            self.answers.labels += [n == injected for n in inputs.CONT_NAMES]
        return Step([seconds], fails)

    def quality(self):
        k2 = [k2_nll_per_row(p, m.dag) for p, m in zip(self.pools, self.models)]
        return {**self.answers.metrics(), "k2_nll_per_row": sum(k2) / len(k2)}


class Loo(Workload):
    """The paper's study: leave_one_out over all 5 regimes, CHUNK target rows per call.

    One op is one target row.  Its latency runs from the first trained
    model of that target to the first trained model of the next one (the
    last target also takes the call's head and tail), so the latencies of
    a call add up to the call's wall time.
    """

    name = "loo"
    CHUNK = 5
    quality_steps = 10

    def setup(self):
        import mixbn.evaluation  # noqa: F401

        self.load_pools()
        self.acc: list[float] = []

    def config(self, seed, rows):
        from mixbn.evaluation import REGIMES, EvalConfig

        return EvalConfig(
            regimes=REGIMES, n_analogues=N_ANALOGUES, bins=BINS, max_parents=MAX_PARENTS,
            m_samples=SAMPLES, seed=seed, max_rows=rows,
        )

    def warm_up(self):
        from mixbn.evaluation import leave_one_out

        leave_one_out(self.pools[0], self.config(inputs.loo_chunk_seed(self.ctx.seed, inputs.WARM_UP), 1))

    def step(self, op):
        from mixbn.evaluation import REGIMES, leave_one_out

        firsts: dict[int, float] = {}

        def capture(target, regime, rows):
            firsts.setdefault(target, perf_counter())

        cfg = self.config(inputs.loo_chunk_seed(self.ctx.seed, op), self.CHUNK)
        t0 = perf_counter()
        report, seconds, err = self.timed(op, leave_one_out, self.pools[op % inputs.POOLS], cfg, capture)
        t1 = t0 + seconds
        if err:
            return Step([seconds], [err])
        marks = sorted(firsts.values())
        if len(marks) != self.CHUNK:
            return Step([seconds], [f"op {op}: {len(marks)} of {self.CHUNK} targets trained"])
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        latencies.append((t1 - marks[-1]) + (marks[0] - t0))
        fails = [
            f"op {op}: report lacks {p!r} under {r!r}"
            for table, names in ((report.accuracy, inputs.CAT_NAMES), (report.rmse, inputs.CONT_NAMES))
            for p in names
            for r in REGIMES
            if r not in table.get(p, {})
        ]
        if not fails and op < self.quality_steps:
            self.acc += [v for p in inputs.CAT_NAMES for v in report.accuracy[p].values()]
        return Step(latencies, fails)

    def quality(self):
        return {**self.pool_quality(), "cat_accuracy": sum(self.acc) / len(self.acc)}


WORKLOADS = {w.name: w for w in (Learn, Restore, Query, Loo)}
