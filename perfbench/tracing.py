"""Spans around calls into singvol, installed from the benchmark's own code.

A Tracer replaces each traced function with a wrapper wherever a module of
the package binds it (``toric`` binds ``lp_max`` at import, ``oracle`` binds
``hilbert_basis``), and wraps ``__init__`` of traced classes.  Each call
becomes a span [name, start, end, parent, query, info] kept in memory;
``info`` holds argument and result shapes for the computed counters.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from math import ceil, comb, floor
from time import perf_counter


def _matrix_shape(args, kwargs, result):
    rows = args[0]
    return len(rows), len(rows[0]) if len(rows) else 0


def _lp_shape(args, kwargs, result):
    problem = args[0]
    return len(problem.objective), len(problem.constraints), result.status, result.value


def _samuel_shape(args, kwargs, result):
    return args[0].dim, len(args[1].gens)


def _minimal_shape(args, kwargs, result):
    return len(set(args[1])), len(result)


def _count_result(args, kwargs, result):
    return len(result)


# (module, attribute, info) -- attributes that are classes get their
# __init__ wrapped.  ``oracle`` is a reference checker and is not traced.
TARGETS = (
    ("exactmath", "determinant", _matrix_shape),
    ("exactmath", "failing_principal_minor", None),
    ("exactmath", "solve_linear", _matrix_shape),
    ("exactmath", "matrix_rank", _matrix_shape),
    ("exactmath", "solve_general", _matrix_shape),
    ("exactmath", "lp_max", _lp_shape),
    ("exactmath", "convex_hull_2d", None),
    ("exactmath", "order_coplanar_polygon", None),
    ("surface", "ResolutionGraph", None),
    ("surface", "numerical_pullback", None),
    ("surface", "zariski_decompose", None),
    ("surface", "volume", None),
    ("surface", "classify", None),
    ("toric", "ToricCone", None),
    ("toric", "minimal_elements", _minimal_shape),
    ("toric", "ideal_product", None),
    ("toric", "ideal_power", None),
    ("toric", "samuel_multiplicity", _samuel_shape),
    ("toric", "mixed_multiplicity", None),
    ("toric", "module_generators", None),
    ("toric", "hilbert_basis", None),
    ("toric", "_lattice_points_between", _count_result),
    ("toric", "defect_ideal", None),
    ("toric", "envelope_certificate", None),
    ("toric", "is_numerically_cartier", None),
    ("toric", "izumi_constant", None),
    ("endo", "check_push_pull", None),
    ("jsonio", "load_json", None),
    ("jsonio", "graph_from_obj", None),
    ("jsonio", "cone_from_obj", None),
    ("jsonio", "divisor_from_obj", None),
    ("jsonio", "exc_divisor_from_obj", None),
    ("jsonio", "ideal_from_obj", None),
    ("jsonio", "matrix_from_obj", None),
    ("cli", "main", None),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr, _ in TARGETS)

# Entry points a user calls; they also report their inclusive time.
ENTRY_POINTS = (
    "surface.volume", "surface.classify", "toric.samuel_multiplicity",
    "toric.mixed_multiplicity", "toric.defect_ideal", "toric.hilbert_basis",
    "toric.envelope_certificate", "toric.is_numerically_cartier",
    "toric.izumi_constant", "endo.check_push_pull", "cli.main",
)

ELIMINATIONS = ("exactmath.determinant", "exactmath.solve_linear",
                "exactmath.matrix_rank", "exactmath.solve_general")

COMPUTED = {
    "exactmath.elim.ops_computed": "count",
    "exactmath.elim.max_order": "count",
    "exactmath.lp_max.cells_computed": "count",
    "surface.zariski_decompose.solves_per_call": "ratio",
    "toric.samuel_multiplicity.candidates_computed": "count",
    "toric.samuel_multiplicity.facet_ratio": "ratio",
    "toric.minimal_elements.kept_ratio": "ratio",
    "toric.lattice_box.points_computed": "count",
    "toric.lattice_box.hit_ratio": "ratio",
    "jsonio.parse.calls": "count",
}


class Tracer:
    """Wrappers for every binding of every target, switched on and off
    with install() and uninstall(); spans accumulate only while on."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = -1
        self._bindings = []   # (owner, attribute, original, wrapper)
        modules = [m for n, m in list(sys.modules.items()) if n == "singvol" or n.startswith("singvol.")]
        for module, attr, info in TARGETS:
            original = getattr(sys.modules[f"singvol.{module}"], attr)
            name = f"{module}.{attr}"
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._bindings.append((original, "__init__", init, self._wrap(name, init, info)))
                continue
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.query, None]
            if info is not None:
                spans[idx][5] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)


def summarize(spans):
    """Per-span-name calls, self and total time (ms), per-layer self time,
    and the computed counters, from a finished list of spans."""
    child_time = defaultdict(float)
    children = defaultdict(list)
    for idx, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(idx)
    per_name = {name: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0} for name in SPAN_NAMES}
    layers = defaultdict(float)
    for idx, (name, start, end, _, _, _) in enumerate(spans):
        row = per_name[name]
        self_ms = (end - start - child_time[idx]) * 1000.0
        row["calls"] += 1
        row["self_ms"] += self_ms
        row["total_ms"] += (end - start) * 1000.0
        layers[name.split(".")[0]] += self_ms

    def under(idx, parent_name):
        parent = spans[idx][3]
        return parent >= 0 and spans[parent][0] == parent_name

    ops = max_order = cells = 0
    zariski_solves = candidates = candidates_3d = facets = 0
    minimal_in = minimal_out = box_points = box_kept = 0
    for idx, (name, _, _, _, _, info) in enumerate(spans):
        if info is None:
            continue
        if name in ELIMINATIONS:
            r, c = info
            ops += r * c * min(r, c)
            max_order = max(max_order, min(r, c))
        elif name == "exactmath.lp_max":
            n, m = info[0], info[1]
            cells += m * (2 * n + 2 * m)
        elif name == "toric.samuel_multiplicity":
            dim, g = info
            if dim == 3:
                candidates += comb(g, 3)
                candidates_3d += comb(g, 3)
            elif dim == 2:
                candidates += comb(g, 2)
        elif name == "toric.minimal_elements":
            minimal_in += info[0]
            minimal_out += info[1]
        elif name == "toric._lattice_points_between":
            # The box is fixed by the 2n LP optima (max, then min, per axis).
            optima = [spans[c][5] for c in children[idx] if spans[c][0] == "exactmath.lp_max"]
            size = 1
            for hi, lo in zip(optima[::2], optima[1::2]):
                size *= max(0, floor(hi[3]) - ceil(-lo[3]) + 1)
            box_points += size
            box_kept += info
    for idx, (name, *_rest) in enumerate(spans):
        if name == "exactmath.solve_linear" and under(idx, "surface.zariski_decompose"):
            zariski_solves += 1
        elif name == "exactmath.order_coplanar_polygon" and under(idx, "toric.samuel_multiplicity"):
            facets += 1

    def ratio(a, b):
        return a / b if b else 0.0

    computed = {
        "exactmath.elim.ops_computed": ops,
        "exactmath.elim.max_order": max_order,
        "exactmath.lp_max.cells_computed": cells,
        "surface.zariski_decompose.solves_per_call": ratio(
            zariski_solves, per_name["surface.zariski_decompose"]["calls"]),
        "toric.samuel_multiplicity.candidates_computed": candidates,
        "toric.samuel_multiplicity.facet_ratio": ratio(facets, candidates_3d),
        "toric.minimal_elements.kept_ratio": ratio(minimal_out, minimal_in),
        "toric.lattice_box.points_computed": box_points,
        "toric.lattice_box.hit_ratio": ratio(box_kept, box_points),
        "jsonio.parse.calls": sum(
            row["calls"] for name, row in per_name.items()
            if name.startswith("jsonio.") and name.endswith("_from_obj")),
    }
    return per_name, dict(layers), computed
