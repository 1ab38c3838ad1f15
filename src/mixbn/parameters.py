"""Node-distribution fitting on the raw mixed dataset.

Given a learned structure, each node gets one of three distribution
families depending on its own kind and its parents' kinds:

  * categorical node                      -> conditional probability table
  * continuous node, no discrete parents  -> linear-Gaussian regression
  * continuous node, >=1 discrete parent  -> per-discrete-combination
                                             linear-Gaussian regressions

Structure is learned on discretized data but parameters are always fit on
the raw values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import (
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    quantile_discretize,
    select_rows,
)
from .errors import ParameterError
from .graph import Dag, EdgeConstraints
from .structure import hill_climb, orientation_guard

# near-flat prior precision for the regression coefficients; keeps the fit
# defined on rank-deficient subsamples without visibly shrinking good data
RIDGE_LAMBDA = 1e-6


@dataclass(frozen=True)
class Cpt:
    """Per parent-configuration categorical distribution.

    Table keys are parent-label tuples in the node's parent order
    (schema order); only configurations observed in training appear.
    """

    states: tuple[str, ...]
    table: Mapping[tuple[str, ...], tuple[float, ...]]

    def __post_init__(self):
        for cfg, probs in self.table.items():
            if len(probs) != len(self.states):
                raise ParameterError(f"probability vector length mismatch at {cfg}")
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise ParameterError(f"probabilities at {cfg} do not sum to 1")


@dataclass(frozen=True)
class LinearGaussian:
    intercept: float
    coefficients: Mapping[str, float]
    residual_variance: float
    marginal_mean: float
    marginal_variance: float


@dataclass(frozen=True)
class ConditionalLinearGaussian:
    """Linear-Gaussian parameters per observed discrete-parent combination."""

    table: Mapping[tuple[str, ...], LinearGaussian]
    fallback: LinearGaussian

    def for_combination(self, combo: tuple[str, ...]) -> LinearGaussian:
        return self.table.get(combo, self.fallback)


Distribution = object  # Cpt | LinearGaussian | ConditionalLinearGaussian


@dataclass(frozen=True)
class BayesianNetworkModel:
    dag: Dag
    node_kind: Mapping[str, str]
    distributions: Mapping[str, Distribution]
    bins: int = 5
    alpha: float = 1.0

    def __post_init__(self):
        for node in self.dag.nodes:
            if node not in self.distributions:
                raise ParameterError(f"node {node!r} has no distribution")

    def parents_in_order(self, node: str) -> list[str]:
        """Parents of node in schema (declaration) order."""
        ps = self.dag.parents(node)
        return [n for n in self.dag.nodes if n in ps]

    def discrete_parents(self, node: str) -> list[str]:
        return [p for p in self.parents_in_order(node) if self.node_kind[p] == CATEGORICAL]


def _complete_rows(d: Dataset, names: Sequence[str]) -> list[tuple]:
    cols = [d.col_index(n) for n in names]
    return [row for row in d.rows if all(row[j] is not None for j in cols)]


def fit_cpt(d: Dataset, child: str, parents: Sequence[str], alpha: float = 1.0) -> Cpt:
    """Laplace-smoothed conditional frequencies over observed parent configurations."""
    for name in (child, *parents):
        if d.kind(name) != CATEGORICAL:
            raise ParameterError(f"column {name!r} is not categorical")
    states = tuple(sorted({v for v in d.column(child) if v is not None}))
    if not states:
        raise ParameterError(f"column {child!r} has no observed values")
    rows = _complete_rows(d, [child, *parents])
    if not rows:
        raise ParameterError(f"no complete-case rows for {child!r} given {list(parents)}")
    ci = d.col_index(child)
    pis = [d.col_index(p) for p in parents]
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for row in rows:
        cfg = tuple(row[j] for j in pis)
        counts.setdefault(cfg, {})
        counts[cfg][row[ci]] = counts[cfg].get(row[ci], 0) + 1
    r = len(states)
    table = {}
    for cfg, by_state in counts.items():
        n_j = sum(by_state.values())
        table[cfg] = tuple(
            (by_state.get(s, 0) + alpha) / (n_j + alpha * r) for s in states
        )
    return Cpt(states, table)


def fit_linear_gaussian(d: Dataset, child: str, parents: Sequence[str]) -> LinearGaussian:
    """Posterior-mean ridge regression of child on its continuous parents.

    Intercept unpenalized; population (divide-by-n) variance convention
    for both residual and marginal variance.
    """
    for name in (child, *parents):
        if d.kind(name) != CONTINUOUS:
            raise ParameterError(f"column {name!r} is not continuous")
    rows = _complete_rows(d, [child, *parents])
    if len(rows) < 2:
        raise ParameterError(
            f"need >= 2 complete-case rows to fit {child!r}, got {len(rows)}"
        )
    ci = d.col_index(child)
    y = np.array([row[ci] for row in rows], dtype=float)
    marginal_mean = float(y.mean())
    marginal_variance = float(y.var())
    if not parents:
        return LinearGaussian(marginal_mean, {}, marginal_variance, marginal_mean, marginal_variance)
    pis = [d.col_index(p) for p in parents]
    x = np.array([[row[j] for j in pis] for row in rows], dtype=float)
    x_mean = x.mean(axis=0)
    xc = x - x_mean
    yc = y - marginal_mean
    gram = xc.T @ xc + RIDGE_LAMBDA * np.eye(len(parents))
    beta = np.linalg.solve(gram, xc.T @ yc)
    intercept = marginal_mean - float(x_mean @ beta)
    residuals = yc - xc @ beta
    return LinearGaussian(
        intercept,
        {p: float(b) for p, b in zip(parents, beta)},
        float(np.mean(residuals**2)),
        marginal_mean,
        marginal_variance,
    )


def fit_conditional_linear_gaussian(
    d: Dataset,
    child: str,
    discrete_parents: Sequence[str],
    continuous_parents: Sequence[str],
) -> ConditionalLinearGaussian:
    """One linear-Gaussian per observed discrete-parent combination.

    Combinations with fewer than 2 usable rows reuse the fallback, which
    is fitted on all rows.
    """
    if d.kind(child) != CONTINUOUS:
        raise ParameterError(f"column {child!r} is not continuous")
    if not discrete_parents:
        raise ParameterError("conditional fit requires at least one discrete parent")
    fallback = fit_linear_gaussian(d, child, continuous_parents)
    dis = [d.col_index(p) for p in discrete_parents]
    combos: dict[tuple[str, ...], list[int]] = {}
    for i, row in enumerate(d.rows):
        if any(row[j] is None for j in dis):
            continue
        combos.setdefault(tuple(row[j] for j in dis), []).append(i)
    table = {}
    for combo, indices in combos.items():
        sub = select_rows(d, indices)
        try:
            table[combo] = fit_linear_gaussian(sub, child, continuous_parents)
        except ParameterError:
            table[combo] = fallback
    return ConditionalLinearGaussian(table, fallback)


def mixlearn(
    d: Dataset,
    constraints: Optional[EdgeConstraints] = None,
    bins: int = 5,
    max_parents: int = 4,
    alpha: float = 1.0,
) -> BayesianNetworkModel:
    """Full pipeline: discretize, learn structure, fit parameters on raw data."""
    if d.n_rows == 0:
        raise ParameterError("cannot learn from an empty dataset")
    disc_d, _ = quantile_discretize(d, bins)
    guard = orientation_guard(d.schema)
    dag = hill_climb(disc_d, constraints=constraints, max_parents=max_parents, forbidden=guard)
    kinds = {c.name: c.kind for c in d.schema}
    distributions: dict[str, Distribution] = {}
    for node in dag.nodes:
        parents = [n for n in dag.nodes if n in dag.parents(node)]
        if kinds[node] == CATEGORICAL:
            distributions[node] = fit_cpt(d, node, parents, alpha)
        else:
            disc = [p for p in parents if kinds[p] == CATEGORICAL]
            cont = [p for p in parents if kinds[p] == CONTINUOUS]
            if disc:
                distributions[node] = fit_conditional_linear_gaussian(d, node, disc, cont)
            else:
                distributions[node] = fit_linear_gaussian(d, node, cont)
    return BayesianNetworkModel(dag, kinds, distributions, bins, alpha)
