"""Node-distribution fitting on the raw mixed dataset.

Given a learned structure, each node gets one of three distribution
families depending on its own kind and its parents' kinds:

  * categorical node                      -> conditional probability table
  * continuous node, no discrete parents  -> linear-Gaussian regression
  * continuous node, >=1 discrete parent  -> per-discrete-combination
                                             linear-Gaussian regressions

Every regression, of a node or of one combination, is the same ridge fit
over an array of row indices.  Structure is learned on discretized data
but parameters are always fit on the raw values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, Dataset, quantile_discretize
from .errors import ParameterError
from .graph import Dag, EdgeConstraints
from .structure import hill_climb, orientation_guard

# near-flat prior precision for the regression coefficients; keeps the fit
# defined on rank-deficient subsamples without visibly shrinking good data
RIDGE_LAMBDA = 1e-6
# complete-case rows a linear-Gaussian fit and each fitted CLG combination need;
# mixlearn's structure search gives every continuous family the same floor
MIN_FIT_ROWS = 2
# Laplace pseudo-count added to every state count of a CPT row
LAPLACE_ALPHA = 1.0


@dataclass(frozen=True)
class Cpt:
    """Per parent-configuration categorical distribution.

    States are distinct labels, at least one.  Table keys are parent-label
    tuples in parent (schema) order; only configurations seen in training appear.
    """

    states: tuple[str, ...]
    table: Mapping[tuple[str, ...], tuple[float, ...]]

    def __post_init__(self):
        s = self.states
        if not (s and type(s) is tuple and all(isinstance(x, str) for x in s) and len(set(s)) == len(s)):
            raise ParameterError(f"states must be a non-empty tuple of distinct labels, got {s!r}")
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
    """A DAG and one distribution per node.  A node is categorical if its distribution
    is a ``Cpt`` and continuous otherwise; ``node_kind``, derived on construction, says which."""

    dag: Dag
    distributions: Mapping[str, Distribution]
    node_kind: Mapping[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        """Each node needs a distribution that fits its parents in the graph."""
        dists = self.distributions
        kinds = {v: CATEGORICAL if isinstance(dists.get(v), Cpt) else CONTINUOUS for v in self.dag.nodes}
        object.__setattr__(self, "node_kind", MappingProxyType(kinds))
        for node in self.dag.nodes:
            dist, parents = dists.get(node), self.dag.parents(node)
            disc = [p for p in parents if kinds[p] == CATEGORICAL]
            cont = set(parents) - set(disc)
            if isinstance(dist, Cpt):
                fits, lgs = not cont, ()
            elif isinstance(dist, ConditionalLinearGaussian):
                fits, lgs = True, (dist.fallback, *dist.table.values())
            else:
                fits, lgs = isinstance(dist, LinearGaussian) and not disc, (dist,)
            # table keys hold one state of each categorical parent, in parent order;
            # coefficients name continuous parents
            states = [set(dists[p].states) for p in disc]
            fits = fits and all(
                len(key) == len(disc) and all(lab in s for lab, s in zip(key, states))
                for key in getattr(dist, "table", ())
            )
            if not fits or any(set(lg.coefficients) - cont for lg in lgs):
                raise ParameterError(f"node {node!r} has no distribution that fits its parents")

    def parents_in_order(self, node: str) -> list[str]:
        """Parents of node in schema (declaration) order."""
        return list(self.dag.parents(node))

    def discrete_parents(self, node: str) -> list[str]:
        return [p for p in self.parents_in_order(node) if self.node_kind[p] == CATEGORICAL]


def _groups(d: Dataset, names: Sequence[str], mask: np.ndarray) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Label tuples of the combinations of names seen under mask, in code order,
    and each row's combination number (-1 outside mask)."""
    combined = np.zeros(d.n_rows, dtype=np.int64)
    for name in names:
        combined = combined * len(d.labels(name)) + d.array(name)
    _, first, inverse = np.unique(combined[mask], return_index=True, return_inverse=True)
    group = np.full(d.n_rows, -1, dtype=np.int64)
    group[mask] = inverse
    rows = np.flatnonzero(mask)[first].tolist()
    return [tuple(d.labels(n)[d.array(n)[i]] for n in names) for i in rows], group


def _require(d: Dataset, names: Sequence[str], kind: str) -> None:
    for name in names:
        if d.kind(name) != kind:
            raise ParameterError(f"column {name!r} is not {kind}")


def fit_cpt(d: Dataset, child: str, parents: Sequence[str]) -> Cpt:
    """Laplace-smoothed (LAPLACE_ALPHA) conditional frequencies over observed parent configurations."""
    _require(d, (child, *parents), CATEGORICAL)
    states = d.labels(child)
    mask = d.present(child, *parents)
    if not mask.any():
        raise ParameterError(f"no complete-case rows for {child!r} given {list(parents)}")
    configs, group = _groups(d, parents, mask)
    r = len(states)
    n_jk = np.bincount(group[mask] * r + d.array(child)[mask], minlength=len(configs) * r)
    n_jk = n_jk.reshape(len(configs), r)
    probs = (n_jk + LAPLACE_ALPHA) / (n_jk.sum(axis=1, keepdims=True) + LAPLACE_ALPHA * r)
    return Cpt(states, dict(zip(configs, map(tuple, probs.tolist()))))


def _regress(d: Dataset, child: str, parents: Sequence[str], rows: np.ndarray) -> LinearGaussian:
    """Posterior-mean ridge regression of child on its continuous parents over the
    row indices ``rows``, where all of them are present.  Intercept unpenalized;
    population (divide-by-n) variance convention for the residual variance."""
    y = d.array(child)[rows]
    y_mean = float(y.mean())
    if not parents:
        return LinearGaussian(y_mean, {}, float(y.var()))
    x = np.column_stack([d.array(p)[rows] for p in parents])
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


def fit_linear_gaussian(d: Dataset, child: str, parents: Sequence[str]) -> LinearGaussian:
    """Ridge regression of child on its continuous parents over the rows that hold
    the child and every parent, at least MIN_FIT_ROWS of them."""
    _require(d, (child, *parents), CONTINUOUS)
    rows = np.flatnonzero(d.present(child, *parents))
    if len(rows) < MIN_FIT_ROWS:
        raise ParameterError(f"need >= {MIN_FIT_ROWS} complete-case rows to fit {child!r}, got {len(rows)}")
    return _regress(d, child, parents, rows)


def fit_conditional_linear_gaussian(
    d: Dataset,
    child: str,
    discrete_parents: Sequence[str],
    continuous_parents: Sequence[str],
) -> ConditionalLinearGaussian:
    """One linear-Gaussian per discrete-parent combination with at least MIN_FIT_ROWS
    rows that hold the child and every parent; any other combination uses the
    fallback, fitted on the rows that hold the child and its continuous parents."""
    if not discrete_parents:
        raise ParameterError("conditional fit requires at least one discrete parent")
    _require(d, discrete_parents, CATEGORICAL)
    fallback = fit_linear_gaussian(d, child, continuous_parents)
    usable = d.present(child, *discrete_parents, *continuous_parents)
    combos, group = _groups(d, discrete_parents, usable)
    counts = np.bincount(group[usable], minlength=len(combos))
    table = {combo: _regress(d, child, continuous_parents, np.flatnonzero(group == k))
             for k, combo in enumerate(combos) if counts[k] >= MIN_FIT_ROWS}
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
    floor = {c.name: MIN_FIT_ROWS for c in d.schema if c.kind == CONTINUOUS}
    dag = hill_climb(disc_d, constraints=constraints, max_parents=max_parents, forbidden=guard,
                     min_rows=floor)
    distributions: dict[str, Distribution] = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        if d.kind(node) == CATEGORICAL:
            distributions[node] = fit_cpt(d, node, parents)
        else:
            disc = [p for p in parents if d.kind(p) == CATEGORICAL]
            cont = [p for p in parents if d.kind(p) == CONTINUOUS]
            distributions[node] = (fit_conditional_linear_gaussian(d, node, disc, cont) if disc
                                   else fit_linear_gaussian(d, node, cont))
    return BayesianNetworkModel(dag, distributions)
