"""Leave-one-out restoration benchmark and anomaly-injection ROC-AUC.

The restoration harness mirrors the published protocol: pick a record,
train on everything else (or on its nearest analogues under a metric),
delete one parameter at a time, restore it, and aggregate accuracy
(categorical) or RMSE (continuous) per parameter and training regime.

The paper's figures for its 1073-reservoir dataset are in
``REFERENCE_NOTES``; ``format_report`` prints them for comparison only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from .dataset import CATEGORICAL, CONTINUOUS, Dataset, normalize_ranges, select_rows
from .errors import EvaluationError, MixbnError, SimilarityError
from .inference import anomaly_score, restore, sanitize_evidence
from .parameters import BayesianNetworkModel, mixlearn
from .similarity import (
    COSINE,
    FILTER,
    GOWER,
    GOWER_WEIGHTED,
    AnalogueQuery,
    metric_spec,
    nearest_analogues,
    penalty_weights,
)

ALL_DATASET = "all_dataset"
REGIMES = (ALL_DATASET, COSINE, GOWER, FILTER, GOWER_WEIGHTED)

REFERENCE_NOTES = [
    "Reference results from the original 1073-reservoir study (not asserted here):",
    "  Tectonic regime accuracy: 0.48 (all dataset) -> 0.85 (cosine) / 0.90 (filtering)",
    "  Gross RMSE: 399.92 (all dataset) -> 306.61 (weighted Gower)",
    "  Anomaly ROC-AUC [Gross, Netpay, Porosity, Permeability, Depth]: "
    "[0.85, 0.97, 0.8, 0.71, 0.7]",
]


@dataclass(frozen=True)
class EvalConfig:
    regimes: tuple[str, ...] = REGIMES
    n_analogues: int = 40
    bins: int = 5
    max_parents: int = 4
    m_samples: int = 100
    seed: int = 0
    anomaly_fraction: float = 0.10
    epsilon: float = 0.1
    gower_weight: Optional[float] = None  # derived from penalties when None
    max_rows: Optional[int] = None  # evaluate a seeded row subsample
    train_on_perturbed: bool = False  # anomaly benchmark training set choice

    def __post_init__(self):
        if not self.regimes:
            raise EvaluationError("at least one regime required")
        for r in self.regimes:
            if r not in REGIMES:
                raise EvaluationError(f"unknown regime {r!r}")
        if not 0 < self.anomaly_fraction < 1:
            raise EvaluationError("anomaly_fraction must be in (0, 1)")
        if self.m_samples < 1 or self.n_analogues < 1:
            raise EvaluationError("m_samples and n_analogues must be at least 1")
        if self.gower_weight is not None and not 0 <= self.gower_weight < math.inf:
            raise EvaluationError(f"gower_weight must be finite and >= 0, got {self.gower_weight}")
        if self.max_rows is not None and self.max_rows < 1:
            raise EvaluationError(f"max_rows must be at least 1, got {self.max_rows}")


@dataclass
class EvalReport:
    accuracy: dict[str, dict[str, float]]  # categorical param -> regime -> value
    rmse: dict[str, dict[str, float]]  # continuous param -> regime -> value
    auc: dict[str, float]  # continuous param -> ROC-AUC
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "rmse": self.rmse,
            "roc_auc": self.auc,
            "metadata": self.metadata,
        }


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Mann-Whitney rank statistic with midrank tie handling."""
    if len(scores) != len(labels):
        raise EvaluationError("scores and labels must align")
    labels = [bool(b) for b in labels]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("both classes must be present")
    ranks = rankdata(np.asarray(scores, dtype=float))
    pos_rank_sum = float(sum(r for r, lab in zip(ranks, labels) if lab))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _row_seed(base: int, row: int, salt: int = 0) -> int:
    # per-record seeds independent of scheduling order
    return (base ^ (row * 0x9E3779B1) ^ (salt * 0x85EBCA77)) & 0x7FFFFFFF


def _derive_gower_weight(d: Dataset, cfg: EvalConfig) -> tuple[float, str]:
    if cfg.gower_weight is not None:
        return cfg.gower_weight, "configured"
    try:
        _, weight = penalty_weights(d)
        return weight, "penalty_ratio"
    except SimilarityError:
        return 1.0, "degenerate_fallback"


def train_model(
    pool: Dataset,
    row: tuple,
    regime: str,
    n_analogues: int,
    bins: int,
    max_parents: int,
    weight: Optional[float] = None,
    epsilon: float = 0.1,
) -> tuple[BayesianNetworkModel, list[int]]:
    """Model for one record and the pool indices it was learned on.

    ``all_dataset`` learns on the whole pool; a metric name learns on the
    record's ``n_analogues`` nearest pool rows under ``metric_spec``.
    """
    if regime == ALL_DATASET:
        indices = list(range(pool.n_rows))
        train = pool
    else:
        spec = metric_spec(regime, pool, weight, epsilon)
        indices = nearest_analogues(AnalogueQuery(row, spec, n_analogues), pool)
        train = select_rows(pool, indices)
    return mixlearn(train, bins=bins, max_parents=max_parents), indices


def leave_one_out(
    d: Dataset,
    cfg: EvalConfig,
    training_capture: Optional[Callable[[int, str, list[int]], None]] = None,
) -> EvalReport:
    """Per-parameter restoration quality under each configured regime.

    ``training_capture``, when given, receives (target original row index,
    regime, training row original indices) for every trained model.
    """
    if d.n_rows < cfg.n_analogues + 1:
        raise EvaluationError(
            f"need at least n_analogues + 1 = {cfg.n_analogues + 1} rows, got {d.n_rows}"
        )
    rng = np.random.default_rng(cfg.seed)
    targets = list(range(d.n_rows))
    if cfg.max_rows is not None and cfg.max_rows < len(targets):
        targets = sorted(rng.choice(len(targets), size=cfg.max_rows, replace=False).tolist())

    params = d.names
    hits: dict[tuple[str, str], list[float]] = {}
    sqerr: dict[tuple[str, str], list[float]] = {}
    skipped_rows = 0
    dropped_evidence = 0
    restore_failures = 0
    weight, weight_source = _derive_gower_weight(d, cfg)

    for t in targets:
        row = d.row(t)
        if all(v is None for v in row):
            skipped_rows += 1
            continue
        others = [i for i in range(d.n_rows) if i != t]
        pool = select_rows(d, others)
        for regime in cfg.regimes:
            model, train_local = train_model(
                pool, row, regime, cfg.n_analogues, cfg.bins, cfg.max_parents, weight, cfg.epsilon
            )
            if training_capture is not None:
                training_capture(t, regime, [others[i] for i in train_local])
            for p_idx, p in enumerate(params):
                truth = row[p_idx]
                if truth is None:
                    continue
                ev = {
                    name: v for name, v in zip(params, row) if name != p and v is not None
                }
                valid_ev, dropped = sanitize_evidence(model, ev)
                dropped_evidence += len(dropped)
                try:
                    restored = restore(
                        model, valid_ev, cfg.m_samples, _row_seed(cfg.seed, t, p_idx)
                    )
                except MixbnError:
                    restore_failures += 1
                    continue
                value = restored[p]
                if d.kind(p) == CATEGORICAL:
                    hits.setdefault((p, regime), []).append(1.0 if value == truth else 0.0)
                else:
                    sqerr.setdefault((p, regime), []).append((value - truth) ** 2)

    accuracy: dict[str, dict[str, float]] = {}
    rmse: dict[str, dict[str, float]] = {}
    for (p, regime), vals in hits.items():
        accuracy.setdefault(p, {})[regime] = sum(vals) / len(vals)
    for (p, regime), vals in sqerr.items():
        rmse.setdefault(p, {})[regime] = math.sqrt(sum(vals) / len(vals))
    metadata = {
        "seed": cfg.seed,
        "regimes": list(cfg.regimes),
        "n_analogues": cfg.n_analogues,
        "bins": cfg.bins,
        "m_samples": cfg.m_samples,
        "rows_evaluated": len(targets),
        "rows_skipped": skipped_rows,
        "dropped_evidence_fields": dropped_evidence,
        "restore_failures": restore_failures,
        "gower_weight": weight,
        "gower_weight_source": weight_source,
    }
    return EvalReport(accuracy, rmse, {}, metadata)


def anomaly_benchmark(d: Dataset, cfg: EvalConfig) -> dict[str, float]:
    """ROC-AUC of the conditional anomaly score after in-range injection.

    For each continuous parameter, a seeded 10% (anomaly_fraction) of the
    non-missing values is replaced by uniform draws over the observed
    [min, max] - in range, but jointly inconsistent.  By default the
    model trains on the untouched remainder rows.
    """
    ranges = normalize_ranges(d)
    cont = [c.name for c in d.schema if c.kind == CONTINUOUS]
    if not cont:
        raise EvaluationError("dataset has no continuous columns")
    out: dict[str, float] = {}
    rng = np.random.default_rng(cfg.seed)
    for target in cont:
        span = ranges[target]
        if span is None or span[1] == span[0]:
            continue  # zero range: skipped, reported by absence
        j = d.col_index(target)
        present = np.flatnonzero(d.present(target)).tolist()
        k = int(math.floor(cfg.anomaly_fraction * len(present)))
        if k == 0 or k == len(present):
            raise EvaluationError(
                f"anomaly fraction {cfg.anomaly_fraction} leaves no usable split for {target!r}"
            )
        injected = set(rng.choice(present, size=k, replace=False).tolist())
        values = d.array(target).copy()
        for i in sorted(injected):
            values[i] = rng.uniform(span[0], span[1])
        if cfg.train_on_perturbed:
            train = d.with_values(target, values)
        else:
            train = select_rows(d, [i for i in range(d.n_rows) if i not in injected])
        model = mixlearn(train, bins=cfg.bins, max_parents=cfg.max_parents)
        scores: list[float] = []
        labels: list[bool] = []
        for i in present:
            ev = {
                name: v for name, v in zip(d.names, d.row(i)) if name != target and v is not None
            }
            valid_ev, _ = sanitize_evidence(model, ev)
            try:
                score, _flag = anomaly_score(
                    model,
                    {**valid_ev, target: float(values[i])},
                    target,
                    cfg.m_samples,
                    _row_seed(cfg.seed, i, j),
                )
            except MixbnError:
                continue
            scores.append(score)
            labels.append(i in injected)
        out[target] = roc_auc(scores, labels)
    return out


def run_eval(d: Dataset, cfg: EvalConfig) -> EvalReport:
    """Full harness: leave-one-out restoration plus the anomaly benchmark."""
    report = leave_one_out(d, cfg)
    report.auc = anomaly_benchmark(d, cfg)
    return report


def format_report(report: EvalReport) -> str:
    """Aligned text table: parameters x regimes, accuracy then RMSE, then AUC."""
    regimes = report.metadata.get("regimes", list(REGIMES))
    width = max([len("Parameter")] + [len(p) for p in list(report.accuracy) + list(report.rmse)])
    colw = max(14, max((len(r) for r in regimes), default=14))
    lines = []
    header = "Parameter".ljust(width) + "".join(r.rjust(colw) for r in regimes)
    sep = "-" * len(header)

    def section(title: str, cells: dict[str, dict[str, float]]):
        lines.append(sep)
        lines.append(title)
        lines.append(sep)
        lines.append(header)
        for p, by_regime in cells.items():
            lines.append(
                p.ljust(width)
                + "".join(
                    (f"{by_regime[r]:.4f}" if r in by_regime else "-").rjust(colw)
                    for r in regimes
                )
            )

    if report.accuracy:
        section("Accuracy (categorical parameters)", report.accuracy)
    if report.rmse:
        section("RMSE (continuous parameters)", report.rmse)
    if report.auc:
        lines.append(sep)
        lines.append("Anomaly ROC-AUC (continuous parameters)")
        lines.append(sep)
        for p, v in report.auc.items():
            lines.append(f"{p.ljust(width)}{v:.4f}".rstrip())
    lines.append(sep)
    lines.extend(REFERENCE_NOTES)
    return "\n".join(lines) + "\n"
