"""JSON wire formats.

Rationals travel as canonical strings "p" or "p/q" with positive
denominator; lattice vectors as arrays of integers.  Schemas:

* graph:   {"vertices": [{"self": -3, "genus": 2}, ...], "edges": [[i, j, mult], ...]}
* cone:    {"dim": 3, "rays": [[1, 0, 0], ...]}
* divisor: {"coeffs": ["2", "1", "2", "1"]}
* ideal:   {"gens": [[1, 0], [0, 2]]}
* matrix:  {"matrix": [[2, 0], [0, 2]]}

The readers unwrap these objects and supply the defaults the format
defines, genus 0 and edge multiplicity 1; every number and every
collection inside is read by the library object built from it.
"""

from __future__ import annotations

import json

from .errors import InputError
from .exactmath import as_list, integer_vector
from .surface import ResolutionGraph, _as_coeffs
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


def _require(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"missing required key {key!r}")
    return obj[key]


def graph_from_obj(obj) -> ResolutionGraph:
    raw_vertices = _require(obj, "vertices")
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise InputError("vertices and edges must be arrays")
    vertices = []
    for v in raw_vertices:
        if not isinstance(v, dict) or "self" not in v:
            raise InputError("each vertex needs a 'self' intersection number")
        vertices.append((v["self"], v.get("genus", 0)))
    edges = []
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) in (2, 3)):
            raise InputError("each edge must be [i, j] or [i, j, mult]")
        edges.append(e if len(e) == 3 else [*e, 1])
    return ResolutionGraph(vertices, edges)


def graph_to_obj(graph: ResolutionGraph) -> dict:
    return {
        "vertices": [{"self": v.self_int, "genus": v.genus} for v in graph.vertices],
        "edges": [[i, j, m] for i, j, m in graph.edges],
    }


def cone_from_obj(obj) -> ToricCone:
    cone = ToricCone(_require(obj, "rays"))
    dim = obj.get("dim")
    # type() rather than isinstance(): JSON true and false load as bools.
    if dim is not None and (type(dim) is not int or dim != cone.dim):
        raise InputError(f"stated dim {dim} does not match the rays")
    return cone


def divisor_from_obj(cone: ToricCone, obj) -> ToricDivisor:
    return ToricDivisor(cone, _require(obj, "coeffs"))


def exc_divisor_from_obj(graph: ResolutionGraph, obj):
    return _as_coeffs(graph, _require(obj, "coeffs"))


def ideal_from_obj(cone: ToricCone, obj) -> MonomialIdeal:
    return MonomialIdeal(cone, _require(obj, "gens"))


def matrix_from_obj(obj):
    """The integer rows of a matrix object: at least one entry, every row of
    one length.  Squareness is left to the endomorphism, which knows the
    dimension."""
    rows = [integer_vector(row, "matrix row") for row in as_list(_require(obj, "matrix"), "a matrix")]
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise InputError("matrix rows have inconsistent lengths")
    if not rows or not rows[0]:
        raise InputError("a matrix needs at least one entry")
    return rows
