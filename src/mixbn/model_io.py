"""JSON persistence for learned models.

Layout::

    {"nodes": [{"name", "parents": [...], "distribution": {...}}, ...]}

The graph is the nodes' ordered ``"parents"`` lists, and a node's kind is
its distribution's type.  The loader reads only the keys a model needs,
so older files with extra keys (``"kind"``, ``"edges"``, ``"bins"``,
``"alpha"``) still load; text that is not JSON, a missing key, a number
that is not a finite JSON number or a wrong-shaped entry raises
``ParameterError``.

Association keys (parent-label tuples) are JSON-encoded label lists,
e.g. ``'["a", "b"]'`` and ``'[]'`` for a parentless row, so any label
survives the round trip.  Each key is exactly ``json.dumps(list(labels))``
and is read back as ``json.loads`` would read it, without a ``json`` call
per key.  Output is canonical single-line JSON (sorted keys, ``","`` and
``":"`` separators, a final newline), written and read by json's C codec,
so serialize -> parse -> serialize round-trips byte-identically.  Indented
files written by earlier versions load unchanged.
"""
from __future__ import annotations

import json
from itertools import repeat
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii

from .dataset import CONTINUOUS, cell_problem, read_json
from .errors import ParameterError
from .graph import Dag
from .parameters import (
    BayesianNetworkModel,
    ConditionalLinearGaussian,
    Cpt,
    LinearGaussian,
)


_scan = json.JSONDecoder().scan_once


def _join_key(labels: tuple[str, ...]) -> str:
    """``json.dumps(list(labels))``, one C call per label."""
    return "[" + ", ".join(map(encode_basestring_ascii, labels)) + "]"


def _split_key(key: str) -> tuple[str, ...]:
    """The labels of ``json.loads(key)``, which must be a list of strings; like
    ``json.loads``, one value with only JSON whitespace around it (a BOM fails the scan)."""
    try:
        labels, end = _scan(key, WHITESPACE.match(key).end())
    except (StopIteration, ValueError, RecursionError):
        labels = end = None
    if (not isinstance(labels, list) or WHITESPACE.match(key, end).end() != len(key)
            or not all(map(isinstance, labels, repeat(str)))):
        raise ParameterError(f"association key {key!r} is not a JSON list of labels")
    return tuple(labels)


def _real(v) -> float:
    """v as a float if it is a finite JSON number (the rule for a continuous cell)."""
    problem = cell_problem(v, CONTINUOUS)
    if problem:
        raise ParameterError(f"model parameter: {problem}")
    return float(v)


def _lg_to_dict(lg: LinearGaussian) -> dict:
    return {"intercept": lg.intercept, "coefficients": dict(lg.coefficients),
            "residual_variance": lg.residual_variance}


def _lg_from_dict(obj: dict) -> LinearGaussian:
    coefficients = {p: _real(c) for p, c in obj["coefficients"].items()}
    return LinearGaussian(_real(obj["intercept"]), coefficients, _real(obj["residual_variance"]))


def _distribution_to_dict(dist) -> dict:
    if isinstance(dist, Cpt):
        return {
            "type": "cpt",
            "states": list(dist.states),
            "table": {_join_key(cfg): list(probs) for cfg, probs in dist.table.items()},
        }
    if isinstance(dist, ConditionalLinearGaussian):
        return {
            "type": "clg",
            "table": {_join_key(cfg): _lg_to_dict(lg) for cfg, lg in dist.table.items()},
            "fallback": _lg_to_dict(dist.fallback),
        }
    if isinstance(dist, LinearGaussian):
        return {"type": "lg", **_lg_to_dict(dist)}
    raise ParameterError(f"unknown distribution type {type(dist).__name__}")


def _distribution_from_dict(obj: dict):
    kind = obj.get("type")
    if kind == "cpt":
        if not isinstance(obj["states"], list):
            raise ParameterError(f"cpt states {obj['states']!r} are not a JSON list")
        return Cpt(
            tuple(obj["states"]),
            {_split_key(k): tuple(map(_real, v)) for k, v in obj["table"].items()},
        )
    if kind == "clg":
        return ConditionalLinearGaussian(
            {_split_key(k): _lg_from_dict(v) for k, v in obj["table"].items()},
            _lg_from_dict(obj["fallback"]),
        )
    if kind == "lg":
        return _lg_from_dict(obj)
    raise ParameterError(f"unknown distribution type tag {kind!r}")


def model_from_dict(obj: dict) -> BayesianNetworkModel:
    try:
        for n in obj["nodes"]:
            if not (isinstance(n["name"], str) and isinstance(n["parents"], list)
                    and all(map(isinstance, n["parents"], repeat(str)))):
                raise ParameterError(f"node {n['name']!r} needs a string name and a JSON list of parent names")
        names = tuple(n["name"] for n in obj["nodes"])
        edges = frozenset((p, n["name"]) for n in obj["nodes"] for p in n["parents"])
        dists = {n["name"]: _distribution_from_dict(n["distribution"]) for n in obj["nodes"]}
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ParameterError):
            raise
        raise ParameterError(f"malformed model file ({type(exc).__name__}: {exc})") from exc
    return BayesianNetworkModel(Dag(names, edges), dists)


def dumps(model: BayesianNetworkModel) -> str:
    nodes = [{"name": name, "parents": model.parents_in_order(name),
              "distribution": _distribution_to_dict(model.distributions[name])} for name in model.dag.nodes]
    return json.dumps({"nodes": nodes}, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> BayesianNetworkModel:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep, or an overlong integer
        raise ParameterError(f"model text is not JSON ({exc})") from None
    return model_from_dict(obj)


def save(model: BayesianNetworkModel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(model))


def load(path: str) -> BayesianNetworkModel:
    return model_from_dict(read_json(path))
