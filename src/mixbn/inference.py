"""Forward sampling with evidence, and the posterior that restoration and anomaly scoring read.

An evidence entry names a node of the model and holds a present cell of
the node's kind under ``dataset.cell_problem``; a categorical label must be
one of the node's states.  ``validate_evidence`` raises on the first bad
entry and ``sanitize_evidence`` keeps the good ones in order.  ``posterior``
samples fields of a record given its other present fields; the record may
hold None for missing, but not a field the model lacks.  ``restore`` and
``anomaly_score``, whose target value is checked too, reduce that posterior.

Evidence nodes are clamped and draw nothing.  A categorical draw takes one
``random()`` from the generator and a continuous one ``standard_normal()``,
or nothing at zero residual variance.  A lone free node draws its m values
in one generator call, which takes the same numbers as m single calls
would.  With more free nodes, each sample draws them in topological order
given their parents' values, and a draw plan the evidence fixes is found
once per call.  Either way a seed gives the samples of the reference in
``tests/sampler_reference.py``.
Unseen parent configurations never abort a chain: CPT nodes fall back to a
uniform draw over their states and conditional linear-Gaussian nodes fall
back to their whole-column parameters.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, Value, cell_problem, integer
from .errors import InferenceError
from .parameters import BayesianNetworkModel, ConditionalLinearGaussian, Cpt

Evidence = Mapping[str, Value]
Posterior = Union[dict[str, float], tuple[float, float]]  # state probabilities, or (mean, sd)


def _evidence_problem(model: BayesianNetworkModel, name: str, value: Value) -> Optional[str]:
    """Why ``name = value`` is not evidence the model can take, or None if it is."""
    if name not in model.dag.nodes:
        return f"unknown node {name!r}"
    kind = model.node_kind[name]
    problem = cell_problem(value, kind)
    if problem:
        return f"node {name!r}: {problem}"
    if kind == CATEGORICAL:
        states = model.distributions[name].states
        if value not in states:
            return f"node {name!r}: label {value!r} unknown to the model (known: {list(states)})"
    return None


def validate_evidence(model: BayesianNetworkModel, ev: Evidence) -> None:
    """Raise InferenceError for the first entry the model cannot take."""
    for name, value in ev.items():
        problem = _evidence_problem(model, name, value)
        if problem:
            raise InferenceError(problem)


def sanitize_evidence(
    model: BayesianNetworkModel, ev: Evidence
) -> tuple[dict[str, Value], list[str]]:
    """Split evidence into the entries the model can take and the names of the rest.

    Used by batch harnesses where a held-out record may carry labels the
    locally trained model never saw.  Both parts keep the order of ``ev``.
    """
    valid = {name: value for name, value in ev.items() if not _evidence_problem(model, name, value)}
    return valid, [name for name in ev if name not in valid]


def forward_sample(
    model: BayesianNetworkModel, ev: Evidence, m: int, seed: int
) -> dict[str, list]:
    """Draw m ancestral samples with evidence nodes clamped.

    Returns one column of m values per node; the seed fully determines it.
    """
    m = integer(m, "sample count", InferenceError)
    seed = integer(seed, "seed", InferenceError)
    if m <= 0:
        raise InferenceError(f"sample count must be positive, got {m}")
    if seed < 0:
        raise InferenceError(f"seed must be non-negative, got {seed}")
    validate_evidence(model, ev)
    rng = np.random.default_rng(seed)
    current = {n: float(v) if model.node_kind[n] == CONTINUOUS else v for n, v in ev.items()}
    columns = {n: [current[n]] * m if n in current else [] for n in model.dag.nodes}
    # a CPT's parents are all discrete, so discrete parents key every node's draw; a node
    # whose key the evidence fixes gets its plan here, and None in place of its key parents
    free = []
    for n in model.dag.topological_order():
        if n not in current:
            dist, key_parents = model.distributions[n], model.discrete_parents(n)
            fixed = all(p in current for p in key_parents)
            plan = _draw_plan(dist, tuple([current[p] for p in key_parents])) if fixed else None
            free.append((n, dist, model.node_kind[n] == CATEGORICAL, None if fixed else key_parents,
                         plan, {}, columns[n].append))
    if len(free) == 1:
        node, dist, categorical, _, plan, _, _ = free[0]
        columns[node] = _draw_column(dist, categorical, plan, current, m, rng)
        return columns
    for _ in range(m):
        for node, dist, categorical, key_parents, plan, plans, append in free:
            if key_parents is not None:
                key = tuple([current[p] for p in key_parents])
                try:
                    plan = plans[key]
                except KeyError:
                    plan = plans[key] = _draw_plan(dist, key)
            if categorical:
                u, states = rng.random(), dist.states
                value = states[min(int(u * len(states)), len(states) - 1) if plan is None else bisect_left(plan, u)]
            else:
                intercept, coefficients, std = plan
                mean = intercept + sum(coef * current[p] for p, coef in coefficients)
                value = float(mean + std * rng.standard_normal()) if std > 0 else float(mean)
            current[node] = value
            append(value)
    return columns


def _draw_column(dist, categorical: bool, plan, current: dict, m: int, rng) -> list:
    """m draws of a lone free node from its plan in one generator call, which
    takes the same numbers from the generator as m single calls."""
    if categorical:
        u, states = rng.random(m), dist.states
        if plan is None:
            picks = np.minimum((u * len(states)).astype(np.intp), len(states) - 1)
        else:
            picks = np.searchsorted(plan, u, side="left")
        return [states[i] for i in picks.tolist()]
    intercept, coefficients, std = plan
    mean = intercept + sum(coef * current[p] for p, coef in coefficients)
    return (mean + std * rng.standard_normal(m)).tolist() if std > 0 else [float(mean)] * m


def _draw_plan(dist, key: tuple):
    """A CPT row's running sums but the last, the last state taking what rounding leaves (None
    for a row unseen in training, drawn uniformly); or a Gaussian's mean terms and std."""
    if isinstance(dist, Cpt):
        probs = dist.table.get(key)
        return None if probs is None else tuple(accumulate(probs))[:-1]
    lg = dist.for_combination(key) if isinstance(dist, ConditionalLinearGaussian) else dist
    return lg.intercept, tuple(lg.coefficients.items()), math.sqrt(lg.residual_variance)


def posterior(
    model: BayesianNetworkModel, record: Mapping[str, Value], fields: Sequence[str], m: int, seed: int
) -> dict[str, Posterior]:
    """The conditional of each of ``fields`` given the other present fields of ``record``,
    from one ``forward_sample`` call of m samples: ``{state: count / m}`` in state order
    for a categorical field, the (mean, population sd) of its draws for a continuous one."""
    unknown = set(record) - set(model.dag.nodes)
    if unknown:
        raise InferenceError(f"record names unknown nodes {sorted(unknown)}")
    if not fields:
        raise InferenceError("no fields to infer; a record with no missing fields has nothing to restore")
    if not set(fields) <= set(model.dag.nodes) or len(set(fields)) < len(fields):
        raise InferenceError(f"fields must be distinct nodes of the model, got {list(fields)}")
    ev = {k: v for k, v in record.items() if k not in fields and v is not None}
    samples = forward_sample(model, ev, m, seed)
    out: dict[str, Posterior] = {}
    for node in fields:
        drawn = samples[node]
        if model.node_kind[node] == CATEGORICAL:
            out[node] = {s: drawn.count(s) / len(drawn) for s in model.distributions[node].states}
        else:
            x = np.asarray(drawn, dtype=float)
            mean = float(x.mean())
            # the sum, division and square root of np.std, in one pass over x
            d = x - mean
            out[node] = mean, math.sqrt((d * d).mean())
    return out


def restore(
    model: BayesianNetworkModel,
    record: Mapping[str, Value],
    m: int,
    seed: int,
) -> dict[str, Value]:
    """Fill the missing fields of a partial record with the point estimates of their
    posterior: a categorical gap takes its most probable state (ties by label order), a
    continuous gap its posterior mean; observed fields pass through."""
    missing = [n for n in model.dag.nodes if record.get(n) is None]
    out: dict[str, Value] = dict(record)
    for node, p in posterior(model, record, missing, m, seed).items():
        out[node] = min(p, key=lambda s: (-p[s], s)) if isinstance(p, dict) else p[0]
    return out


def anomaly_score(
    model: BayesianNetworkModel,
    record: Mapping[str, Value],
    target: str,
    m: int,
    seed: int,
) -> tuple[float, bool]:
    """(score, flag): |x - mean| / sd of the target value x under its posterior (at sd 0, 0 if
    x is the mean and inf if not), and whether x lies outside two posterior standard deviations."""
    value = record.get(target)
    validate_evidence(model, {target: value})
    if model.node_kind[target] != CONTINUOUS:
        raise InferenceError(f"target {target!r} is not continuous")
    mean, std = posterior(model, record, [target], m, seed)[target]
    if std == 0.0:
        score = 0.0 if value == mean else math.inf
    else:
        score = abs(float(value) - mean) / std
    return score, score > 2.0
