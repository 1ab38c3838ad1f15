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

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, Dataset, quantile_discretize
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
            if not all(0 <= p <= 1 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise ParameterError(f"probabilities at {cfg} are not a finite distribution")


@dataclass(frozen=True)
class LinearGaussian:
    intercept: float
    coefficients: Mapping[str, float]
    residual_variance: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.intercept, *self.coefficients.values())):
            raise ParameterError("linear-Gaussian intercept and coefficients must be finite")
        if not 0 <= self.residual_variance < math.inf:
            raise ParameterError("linear-Gaussian residual variance must be finite and >= 0")


@dataclass(frozen=True)
class ConditionalLinearGaussian:
    """Linear-Gaussian parameters per fitted discrete-parent combination.

    Any combination not in the table uses the fallback.
    """

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

    def __post_init__(self):
        """Each node needs a distribution that fits its kind and its parents in the graph."""
        kind = self.node_kind.get
        for node in self.dag.nodes:
            dist, parents = self.distributions.get(node), self.dag.parents(node)
            disc = [p for p in parents if kind(p) == CATEGORICAL]
            cont = set(parents) - set(disc)
            if kind(node) == CATEGORICAL:
                fits, lgs = isinstance(dist, Cpt) and not cont, ()
            elif isinstance(dist, ConditionalLinearGaussian):
                fits, lgs = kind(node) == CONTINUOUS, (dist.fallback, *dist.table.values())
            else:
                fits, lgs = kind(node) == CONTINUOUS and isinstance(dist, LinearGaussian) and not disc, (dist,)
            # table keys hold one state of each categorical parent, in parent order;
            # coefficients name continuous parents
            states = [getattr(self.distributions.get(p), "states", ()) for p in disc]
            fits = fits and all(
                len(key) == len(disc) and all(lab in s for lab, s in zip(key, states))
                for key in getattr(dist, "table", ())
            )
            if not fits or any(set(lg.coefficients) - cont for lg in lgs):
                raise ParameterError(f"node {node!r} has no distribution that fits its kind and parents")

    def parents_in_order(self, node: str) -> list[str]:
        """Parents of node in schema (declaration) order."""
        return list(self.dag.parents(node))

    def discrete_parents(self, node: str) -> list[str]:
        return [p for p in self.parents_in_order(node) if self.node_kind[p] == CATEGORICAL]


def _groups(d: Dataset, names: Sequence[str], mask: np.ndarray) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Label tuples of the combinations of names seen under mask, in order of first
    appearance, and each row's combination number (-1 outside mask)."""
    combined = np.zeros(d.n_rows, dtype=np.int64)
    for name in names:
        combined = combined * len(d.labels(name)) + d.array(name)
    _, first, inverse = np.unique(combined[mask], return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.full(d.n_rows, -1, dtype=np.int64)
    group[mask] = np.argsort(order)[inverse]
    rows = np.flatnonzero(mask)[first[order]].tolist()
    return [tuple(d.labels(n)[d.array(n)[i]] for n in names) for i in rows], group


def fit_cpt(d: Dataset, child: str, parents: Sequence[str], alpha: float = 1.0) -> Cpt:
    """Laplace-smoothed conditional frequencies over observed parent configurations."""
    for name in (child, *parents):
        if d.kind(name) != CATEGORICAL:
            raise ParameterError(f"column {name!r} is not categorical")
    states = d.labels(child)
    if not states:
        raise ParameterError(f"column {child!r} has no observed values")
    mask = d.present(child, *parents)
    if not mask.any():
        raise ParameterError(f"no complete-case rows for {child!r} given {list(parents)}")
    configs, group = _groups(d, parents, mask)
    r = len(states)
    n_jk = np.bincount(group[mask] * r + d.array(child)[mask], minlength=len(configs) * r)
    n_jk = n_jk.reshape(len(configs), r)
    probs = (n_jk + alpha) / (n_jk.sum(axis=1, keepdims=True) + alpha * r)
    return Cpt(states, dict(zip(configs, map(tuple, probs.tolist()))))


def fit_linear_gaussian(
    d: Dataset, child: str, parents: Sequence[str], rows: Optional[np.ndarray] = None
) -> LinearGaussian:
    """Posterior-mean ridge regression of child on its continuous parents.

    Fitted on the rows of the boolean mask ``rows`` (all rows by default)
    that hold the child and every parent.  Intercept unpenalized;
    population (divide-by-n) variance convention for the residual variance.
    """
    for name in (child, *parents):
        if d.kind(name) != CONTINUOUS:
            raise ParameterError(f"column {name!r} is not continuous")
    mask = d.present(child, *parents)
    if rows is not None:
        mask &= rows
    n = int(mask.sum())
    if n < 2:
        raise ParameterError(f"need >= 2 complete-case rows to fit {child!r}, got {n}")
    y = d.array(child)[mask]
    y_mean = float(y.mean())
    if not parents:
        return LinearGaussian(y_mean, {}, float(y.var()))
    x = np.empty((n, len(parents)))
    for k, p in enumerate(parents):
        x[:, k] = d.array(p)[mask]
    x_mean = x.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + RIDGE_LAMBDA * np.eye(len(parents))
    beta = np.linalg.solve(gram, xc.T @ yc)
    intercept = y_mean - float(x_mean @ beta)
    residuals = yc - xc @ beta
    return LinearGaussian(
        intercept, {p: float(b) for p, b in zip(parents, beta)}, float(np.mean(residuals**2))
    )


def fit_conditional_linear_gaussian(
    d: Dataset,
    child: str,
    discrete_parents: Sequence[str],
    continuous_parents: Sequence[str],
) -> ConditionalLinearGaussian:
    """One linear-Gaussian per observed discrete-parent combination.

    Combinations with fewer than 2 usable rows are left out of the table
    and use the fallback, which is fitted on all rows.
    """
    if d.kind(child) != CONTINUOUS:
        raise ParameterError(f"column {child!r} is not continuous")
    if not discrete_parents:
        raise ParameterError("conditional fit requires at least one discrete parent")
    fallback = fit_linear_gaussian(d, child, continuous_parents)
    combos, group = _groups(d, discrete_parents, d.present(*discrete_parents))
    table = {}
    for k, combo in enumerate(combos):
        try:
            table[combo] = fit_linear_gaussian(d, child, continuous_parents, group == k)
        except ParameterError:
            pass  # too few usable rows: the combination uses the fallback
    return ConditionalLinearGaussian(table, fallback)


def mixlearn(
    d: Dataset,
    constraints: Optional[EdgeConstraints] = None,
    bins: int = 5,
    max_parents: int = 4,
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
        parents = dag.parents(node)
        if kinds[node] == CATEGORICAL:
            distributions[node] = fit_cpt(d, node, parents)
        else:
            disc = [p for p in parents if kinds[p] == CATEGORICAL]
            cont = [p for p in parents if kinds[p] == CONTINUOUS]
            if disc:
                distributions[node] = fit_conditional_linear_gaussian(d, node, disc, cont)
            else:
                distributions[node] = fit_linear_gaussian(d, node, cont)
    return BayesianNetworkModel(dag, kinds, distributions)
