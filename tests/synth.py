"""Synthetic data generators shared by the test suite.

Everything is seeded and returns plain Dataset values so tests stay
deterministic and self-contained.
"""
from __future__ import annotations

import numpy as np

from mixbn.dataset import CATEGORICAL, CONTINUOUS, ColumnSchema, Dataset


def random_binary_dataset(seed: int, n_rows: int, names=("A", "B", "C")) -> Dataset:
    """Uniformly random binary categorical table."""
    rng = np.random.default_rng(seed)
    schema = tuple(ColumnSchema(n, CATEGORICAL) for n in names)
    rows = tuple(
        tuple(("0", "1")[rng.integers(0, 2)] for _ in names) for _ in range(n_rows)
    )
    return Dataset(schema, rows)


CLG5_SCHEMA = (
    ColumnSchema("A", CATEGORICAL),
    ColumnSchema("B", CATEGORICAL),
    ColumnSchema("X", CONTINUOUS),
    ColumnSchema("Y", CONTINUOUS),
    ColumnSchema("Z", CONTINUOUS),
)

#: undirected skeleton of the generator below
CLG5_SKELETON = frozenset(
    {frozenset(e) for e in [("A", "X"), ("X", "Y"), ("B", "Y"), ("Y", "Z")]}
)


def clg5_dataset(seed: int, n_rows: int, noise: float = 0.5) -> Dataset:
    """Two categorical roots driving a chain of three continuous nodes.

    A -> X, B -> Y, X -> Y, Y -> Z.  With the default noise the
    conditional R-squared of every continuous node given its observable
    context is well above 0.9.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n_rows)
    b = rng.integers(0, 2, size=n_rows)
    x = np.where(a == 1, 3.0, -3.0) + noise * rng.standard_normal(n_rows)
    y = 2.0 * x + np.where(b == 1, 2.0, -2.0) + noise * rng.standard_normal(n_rows)
    z = 1.5 * y + noise * rng.standard_normal(n_rows)
    rows = tuple(
        (f"a{a[i]}", f"b{b[i]}", float(x[i]), float(y[i]), float(z[i]))
        for i in range(n_rows)
    )
    return Dataset(CLG5_SCHEMA, rows)


def clg5_weak_dataset(seed: int, n_rows: int) -> Dataset:
    """Weak-coupling variant: roughly 30% of each node's variance explained."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n_rows)
    b = rng.integers(0, 2, size=n_rows)
    # binary shift d against unit noise: explained share d^2 / (d^2 + 1)
    d = 0.655
    x = np.where(a == 1, d, -d) + rng.standard_normal(n_rows)
    y = 0.35 * x + np.where(b == 1, d, -d) + rng.standard_normal(n_rows)
    z = 0.5 * y + rng.standard_normal(n_rows)
    rows = tuple(
        (f"a{a[i]}", f"b{b[i]}", float(x[i]), float(y[i]), float(z[i]))
        for i in range(n_rows)
    )
    return Dataset(CLG5_SCHEMA, rows)


def cluster_dataset(
    seed: int,
    n_rows: int = 300,
    cat_names=("C1", "C2", "C3", "C4", "C5", "C6"),
    cont_names=("X1", "X2", "X3", "X4", "X5"),
    purity: float = 0.6,
    noise: float = 1.0,
) -> Dataset:
    """Three latent cluster regimes over 6 categorical + 5 continuous columns.

    Each categorical column shows the cluster's label with the given
    purity.  Continuous columns share a per-row latent offset on top of
    well-separated cluster means, so rows that are close in continuous
    space stay close in every continuous column.
    """
    rng = np.random.default_rng(seed)
    schema = tuple(
        [ColumnSchema(n, CATEGORICAL) for n in cat_names]
        + [ColumnSchema(n, CONTINUOUS) for n in cont_names]
    )
    rows = []
    for _ in range(n_rows):
        z = int(rng.integers(0, 3))
        cats = []
        for _name in cat_names:
            if rng.random() < purity:
                cats.append(f"c{z}")
            else:
                cats.append(f"c{(z + 1 + int(rng.integers(0, 2))) % 3}")
        latent = 3.0 * rng.standard_normal()
        conts = [
            float(10.0 * z + 2.0 * k + latent + noise * rng.standard_normal())
            for k in range(len(cont_names))
        ]
        rows.append(tuple(cats + conts))
    return Dataset(schema, tuple(rows))


RESERVOIR_CAT = (
    "Tectonic regime",
    "Period",
    "Depositional system",
    "Lithology",
    "Structural setting",
    "Trapping mechanism",
)
RESERVOIR_CONT = ("Gross", "Netpay", "Porosity", "Permeability", "Depth")


def reservoir_like_dataset(seed: int, n_rows: int = 90) -> Dataset:
    """Synthetic table shaped like the 11-parameter reservoir schema."""
    return cluster_dataset(
        seed, n_rows, cat_names=RESERVOIR_CAT, cont_names=RESERVOIR_CONT
    )


def flat_continuous_dataset(n_rows: int = 24) -> Dataset:
    """Two varying categorical columns beside two constant continuous ones.

    Every continuous pairwise penalty is zero, so ``penalty_weights``
    finds any pool of these rows degenerate.
    """
    schema = (
        ColumnSchema("K", CATEGORICAL),
        ColumnSchema("L", CATEGORICAL),
        ColumnSchema("V", CONTINUOUS),
        ColumnSchema("W", CONTINUOUS),
    )
    rows = tuple((("a", "b", "c")[i % 3], ("x", "y")[i % 2], 5.0, 1.0) for i in range(n_rows))
    return Dataset(schema, rows)
