"""Reference forward sampler: the per-sample loop that ``inference.forward_sample`` must match.

Every sample walks all nodes in topological order, converts and appends
each evidence value again, rebuilds each node's parent list and walks its
CPT row with a running sum.  ``forward_sample_reference`` takes the same
arguments as ``forward_sample`` and, for the same seed, must return equal
columns in the same key order.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from mixbn.dataset import CONTINUOUS, Value
from mixbn.errors import InferenceError
from mixbn.inference import Evidence, validate_evidence
from mixbn.parameters import BayesianNetworkModel, ConditionalLinearGaussian, Cpt


def forward_sample_reference(
    model: BayesianNetworkModel, ev: Evidence, m: int, seed: int
) -> dict[str, list]:
    """Draw m ancestral samples with evidence nodes clamped.

    Returns one column of m values per node; the seed fully determines it.
    """
    if m <= 0:
        raise InferenceError(f"sample count must be positive, got {m}")
    if seed < 0:
        raise InferenceError(f"seed must be non-negative, got {seed}")
    validate_evidence(model, ev)
    rng = np.random.default_rng(seed)
    order = model.dag.topological_order()
    columns: dict[str, list] = {n: [] for n in model.dag.nodes}
    for _ in range(m):
        current: dict[str, Value] = {}
        for node in order:
            if node in ev:
                value = float(ev[node]) if model.node_kind[node] == CONTINUOUS else ev[node]
            else:
                value = _draw(model, node, current, rng)
            current[node] = value
            columns[node].append(value)
    return columns


def _draw(model: BayesianNetworkModel, node: str, current: Mapping[str, Value], rng) -> Value:
    dist = model.distributions[node]
    if isinstance(dist, Cpt):
        cfg = tuple(current[p] for p in model.parents_in_order(node))
        probs = dist.table.get(cfg)
        u = rng.random()
        if probs is None:
            # configuration never observed in training: uniform over states
            return dist.states[min(int(u * len(dist.states)), len(dist.states) - 1)]
        acc = 0.0
        for state, p in zip(dist.states, probs):
            acc += p
            if u <= acc:
                return state
        return dist.states[-1]
    if isinstance(dist, ConditionalLinearGaussian):
        combo = tuple(current[p] for p in model.discrete_parents(node))
        lg = dist.for_combination(combo)
    else:
        lg = dist
    mean = lg.intercept + sum(
        coef * current[p] for p, coef in lg.coefficients.items()
    )
    std = math.sqrt(lg.residual_variance)
    return float(mean + std * rng.standard_normal()) if std > 0 else float(mean)
