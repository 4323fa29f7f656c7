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
from .exactmath import parse_rational
from .surface import ResolutionGraph
from .toric import MonomialIdeal, ToricCone, ToricDivisor


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _is_int(x) -> bool:
    """JSON integers only: true and false load as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{path}: missing required key {key!r}")
    return obj[key]


def graph_from_obj(obj, path="<graph>") -> ResolutionGraph:
    raw_vertices = _require(obj, "vertices", path)
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise InputError(f"{path}: vertices and edges must be arrays")
    vertices = []
    for v in raw_vertices:
        if not isinstance(v, dict) or "self" not in v:
            raise InputError(f"{path}: each vertex needs a 'self' intersection number")
        if not _is_int(v["self"]) or not _is_int(v.get("genus", 0)):
            raise InputError(f"{path}: vertex data must be integers")
        vertices.append((v["self"], v.get("genus", 0)))
    edges = []
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) in (2, 3) and all(_is_int(x) for x in e)):
            raise InputError(f"{path}: each edge must be [i, j] or [i, j, mult]")
        edges.append((e[0], e[1], e[2] if len(e) == 3 else 1))
    return ResolutionGraph(vertices, edges)


def graph_to_obj(graph: ResolutionGraph) -> dict:
    return {
        "vertices": [{"self": v.self_int, "genus": v.genus} for v in graph.vertices],
        "edges": [[i, j, m] for i, j, m in graph.edges],
    }


def cone_from_obj(obj, path="<cone>") -> ToricCone:
    rays = _require(obj, "rays", path)
    if not isinstance(rays, list) or not all(isinstance(r, list) for r in rays):
        raise InputError(f"{path}: rays must be an array of integer arrays")
    for r in rays:
        if not all(_is_int(x) for x in r):
            raise InputError(f"{path}: ray {r} must contain integers")
    dim = obj.get("dim")
    if dim is not None and (not _is_int(dim) or rays and len(rays[0]) != dim):
        raise InputError(f"{path}: stated dim {dim} does not match the rays")
    return ToricCone(rays, dim=dim)


def divisor_from_obj(cone: ToricCone, obj, path="<divisor>") -> ToricDivisor:
    coeffs = _require(obj, "coeffs", path)
    if not isinstance(coeffs, list):
        raise InputError(f"{path}: coeffs must be an array")
    return ToricDivisor(cone, tuple(parse_rational(c) for c in coeffs))


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
    gens = _require(obj, "gens", path)
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise InputError(f"{path}: gens must be an array of integer arrays")
    for g in gens:
        if not all(_is_int(x) for x in g):
            raise InputError(f"{path}: generator {g} must contain integers")
    return MonomialIdeal(cone, gens)


def matrix_from_obj(obj, path="<matrix>"):
    rows = _require(obj, "matrix", path)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{path}: matrix must be an array of integer rows")
    for r in rows:
        if not all(_is_int(x) for x in r):
            raise InputError(f"{path}: matrix row {r} must contain integers")
    return [list(r) for r in rows]


def validate_file(kind: str, path: str, cone: ToricCone | None = None) -> dict:
    """Schema plus semantic validation; raises on failure, returns diagnostics."""
    obj = load_json(path)
    if kind == "graph":
        graph = graph_from_obj(obj, path)
        return {
            "ok": True,
            "kind": "graph",
            "vertices": len(graph),
            "edges": len(graph.edges),
        }
    if kind == "cone":
        parsed = cone_from_obj(obj, path)
        return {
            "ok": True,
            "kind": "cone",
            "dim": parsed.dim,
            "rays": len(parsed.rays),
            "facets": len(parsed.facet_normals),
            "isolated_checked": True,  # ToricCone checks isolation in every dimension
        }
    if kind == "divisor":
        if cone is None:
            raise InputError("validating a divisor needs --cone for the ray count")
        divisor_from_obj(cone, obj, path)
        return {"ok": True, "kind": "divisor"}
    if kind == "ideal":
        if cone is None:
            raise InputError("validating an ideal needs --cone for the ambient cone")
        ideal = ideal_from_obj(cone, obj, path)
        return {"ok": True, "kind": "ideal", "minimal_gens": len(ideal.gens), "m_primary": ideal.is_m_primary}
    if kind == "matrix":
        rows = matrix_from_obj(obj, path)
        return {"ok": True, "kind": "matrix", "rows": len(rows)}
    raise InputError(f"unknown kind {kind!r}")
