"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces the layer functions listed in ``SPANNED`` by
timing wrappers.  It patches every module global that holds the original
function, so calls that go through another module's imported name (for
example ``parameters.hill_climb`` or ``cli.nearest_analogues``) are timed
too.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op]``.  Only calls made while a
root span is open (``begin``/``end``) are recorded, so the benchmark's own
checks and quality passes stay out of the trace.  A span's self time is
its duration minus the durations of its direct children; since the
program is single-threaded, children never overlap.

Per-row and per-field helpers (``gower_distance``, ``cosine_distance``,
``filter_analogues``, ``validate_evidence``, ``quantile_edges``,
``normalize_ranges``, ``Dag.parents``) are left unwrapped: their time
belongs to the caller's span, and a span per row would cost more than the
work it measures.  ``parents_in_order`` runs once per node per sample, so
it is counted, not timed.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

SPANNED = {
    "dataset": ("load_csv", "quantile_discretize", "select_rows"),
    "structure": ("hill_climb",),
    "parameters": (
        "fit_cpt",
        "fit_linear_gaussian",
        "fit_conditional_linear_gaussian",
        "mixlearn",
    ),
    "inference": ("sanitize_evidence", "forward_sample", "restore", "anomaly_score"),
    "similarity": ("nearest_analogues", "penalty_weights"),
    "evaluation": ("leave_one_out",),
    "model_io": ("dumps", "loads"),
    "cli": ("main",),
}
SPANNED_METHODS = (("graph", "Dag", "topological_order"),)
COUNTED_METHODS = (("parameters", "BayesianNetworkModel", "parents_in_order"),)

LAYERS = ("dataset", "graph", "structure", "parameters", "inference",
          "similarity", "evaluation", "model_io", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_select_rows(counts, args, kwargs, out):
    counts["dataset.select_rows.rows"] += out.n_rows


def _count_nearest(counts, args, kwargs, out):
    counts["similarity.rows_scored"] += _arg(args, kwargs, 1, "pool").n_rows


def _count_forward(counts, args, kwargs, out):
    model = _arg(args, kwargs, 0, "model")
    ev = _arg(args, kwargs, 1, "ev")
    m = _arg(args, kwargs, 2, "m")
    counts["inference.node_draws"] += m * (len(model.dag.nodes) - len(ev))


def _count_sanitize(counts, args, kwargs, out):
    counts["inference.evidence_offered"] += len(_arg(args, kwargs, 1, "ev"))
    counts["inference.evidence_dropped"] += len(out[1])


def _count_dumps(counts, args, kwargs, out):
    counts["model_io.bytes"] += len(out)


def _count_loo(counts, args, kwargs, out):
    counts["evaluation.restore_failures"] += out.metadata["restore_failures"]


COUNTERS = {
    "dataset.select_rows": _count_select_rows,
    "similarity.nearest_analogues": _count_nearest,
    "inference.forward_sample": _count_forward,
    "inference.sanitize_evidence": _count_sanitize,
    "model_io.dumps": _count_dumps,
    "evaluation.leave_one_out": _count_loo,
}


def _nearest_name(args, kwargs):
    return "similarity.nearest_analogues." + _arg(args, kwargs, 0, "q").spec.metric


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []
        self._caches: list = []

    # --- root spans -------------------------------------------------------
    def begin(self, op) -> None:
        """Open a root span for op; nested inside another root (a warm-up op
        during set-up), it becomes a child span of that root's op."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(["setup" if op == "setup" else "op", perf_counter(), 0.0, parent, self._op])

    def end(self) -> None:
        root = self.spans[self._stack.pop()]
        root[2] = perf_counter()
        for cache in self._caches:
            self.counts["structure.cache_hits"] += cache.hits
            self.counts["structure.family_scores"] += cache.misses
        self._caches.clear()

    # --- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, namer=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [namer(args, kwargs) if namer else name, 0.0, 0.0, stack[-1], tracer._op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mixbn" or mod_name.startswith("mixbn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module("mixbn." + layer)
        for layer, names in SPANNED.items():
            mod = sys.modules["mixbn." + layer]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                namer = _nearest_name if fn_name == "nearest_analogues" else None
                self._patch_everywhere(fn, self._span_wrapper(f"{layer}.{fn_name}", fn, namer))
        for layer, cls_name, meth in SPANNED_METHODS + COUNTED_METHODS:
            cls = getattr(importlib.import_module("mixbn." + layer), cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{meth}"
            if (layer, cls_name, meth) in COUNTED_METHODS:
                wrapper = self._count_wrapper(name + ".calls", fn)
            else:
                wrapper = self._span_wrapper(name, fn)
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, wrapper)

        structure = importlib.import_module("mixbn.structure")
        base = structure.FamilyScoreCache
        tracer = self

        class RecordedCache(base):
            """FamilyScoreCache that hands itself to the tracer for counting."""

            def __init__(self):
                super().__init__()
                if tracer._stack:
                    tracer._caches.append(self)

        self._patch_everywhere(base, RecordedCache)

    def take_counts(self) -> dict[str, float]:
        """Counts recorded since the last call, then reset."""
        out = dict(self.counts)
        self.counts.clear()
        return out

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- summaries --------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, phase) -> dict:
        """Self time per span name, call count per name and root wall time.

        ``phase`` selects the roots: ``"setup"`` or ``"ops"`` (every root
        opened with an integer op id).
        """
        own = self.self_times()
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        wall = 0.0
        for span, t in zip(self.spans, own):
            op = span[4]
            if (op == "setup") != (phase == "setup"):
                continue
            self_s[span[0]] += t
            calls[span[0]] += 1
            if span[3] is None:
                wall += span[2] - span[1]
        return {"self_s": dict(self_s), "calls": dict(calls), "wall_s": wall}
