"""JSON wire formats.

Rationals travel as canonical strings "p" or "p/q" with positive
denominator; lattice vectors as arrays of integers.  Schemas:

* graph:   {"vertices": [{"self": -3, "genus": 2}, ...], "edges": [[i, j, mult], ...]}
* cone:    {"dim": 3, "rays": [[1, 0, 0], ...]}
* divisor: {"coeffs": ["2", "1", "2", "1"]}
* ideal:   {"gens": [[1, 0], [0, 2]]}
* matrix:  {"matrix": [[2, 0], [0, 2]]}
"""

from __future__ import annotations

import json

from .errors import InputError
from .exactmath import _as_int, parse_rational
from .surface import ResolutionGraph
from .toric import MonomialIdeal, ToricCone, ToricDivisor


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # Bad JSON, bad UTF-8 and an integer of more digits than the interpreter
    # converts raise ValueErrors; deep nesting raises RecursionError.
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _require(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{path}: missing required key {key!r}")
    return obj[key]


def _integer_arrays(obj, key, path, arrays_of, each):
    arrays = _require(obj, key, path)
    if not isinstance(arrays, list) or not all(isinstance(a, list) for a in arrays):
        raise InputError(f"{path}: {key} must be an array of integer {arrays_of}")
    for a in arrays:
        if any(_as_int(x) is None for x in a):
            raise InputError(f"{path}: {each} {a} must contain integers")
    return arrays


def graph_from_obj(obj, path="<graph>") -> ResolutionGraph:
    raw_vertices = _require(obj, "vertices", path)
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise InputError(f"{path}: vertices and edges must be arrays")
    vertices = []
    for v in raw_vertices:
        if not isinstance(v, dict) or "self" not in v:
            raise InputError(f"{path}: each vertex needs a 'self' intersection number")
        if _as_int(v["self"]) is None or _as_int(v.get("genus", 0)) is None:
            raise InputError(f"{path}: vertex data must be integers")
        vertices.append((v["self"], v.get("genus", 0)))
    edges = []
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) in (2, 3) and all(_as_int(x) is not None for x in e)):
            raise InputError(f"{path}: each edge must be [i, j] or [i, j, mult]")
        edges.append((e[0], e[1], e[2] if len(e) == 3 else 1))
    return ResolutionGraph(vertices, edges)


def graph_to_obj(graph: ResolutionGraph) -> dict:
    return {
        "vertices": [{"self": v.self_int, "genus": v.genus} for v in graph.vertices],
        "edges": [[i, j, m] for i, j, m in graph.edges],
    }


def cone_from_obj(obj, path="<cone>") -> ToricCone:
    rays = _integer_arrays(obj, "rays", path, "arrays", "ray")
    dim = obj.get("dim")
    if dim is not None and (_as_int(dim) is None or rays and len(rays[0]) != dim):
        raise InputError(f"{path}: stated dim {dim} does not match the rays")
    return ToricCone(rays)


def divisor_from_obj(cone: ToricCone, obj, path="<divisor>") -> ToricDivisor:
    coeffs = _require(obj, "coeffs", path)
    if not isinstance(coeffs, list):
        raise InputError(f"{path}: coeffs must be an array")
    return ToricDivisor(cone, coeffs)


def exc_divisor_from_obj(graph: ResolutionGraph, obj, path="<divisor>"):
    coeffs = _require(obj, "coeffs", path)
    if not isinstance(coeffs, list):
        raise InputError(f"{path}: coeffs must be an array")
    values = tuple(parse_rational(c) for c in coeffs)
    if len(values) != len(graph):
        raise InputError(
            f"{path}: expected {len(graph)} coefficients, got {len(values)}"
        )
    return values


def ideal_from_obj(cone: ToricCone, obj, path="<ideal>") -> MonomialIdeal:
    return MonomialIdeal(cone, _integer_arrays(obj, "gens", path, "arrays", "generator"))


def matrix_from_obj(obj, path="<matrix>"):
    return [list(r) for r in _integer_arrays(obj, "matrix", path, "rows", "matrix row")]
