"""Batch command line front end.

Reads JSON inputs, runs the exact engines and prints JSON (the contract)
or an aligned table (for humans) to standard output.  Exit codes: 0 on
success, 2 for malformed input, 3 for domain errors, 4 for unsupported
dimensions.  Output is byte-deterministic for a fixed input.

``_COMMANDS`` names every command with its handler and options; ``main``
reads the input files before the handler runs, so handlers only compute.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import endo as endo_mod
from . import exactmath as xm
from . import jsonio
from . import oracle as oracle_mod
from . import surface as surface_mod
from . import toric as toric_mod
from .errors import InputError, SingvolError
from .exactmath import format_rational

# Integer text on the command line: ASCII digits with an optional minus sign.
_INTEGER = re.compile("-?[0-9]+")
_VECTOR = re.compile("-?[0-9]+(,-?[0-9]+)*")


def _parse_vector(text: str):
    if not _VECTOR.fullmatch(text):
        raise InputError(f"expected a comma-separated integer vector, got {text!r}")
    return tuple(xm.integer(xm.parse_rational(part)) for part in text.split(","))


def _int(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _rats(xs):
    return [format_rational(x) for x in xs]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return
    rows = []

    def flatten(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                flatten(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
            for idx, sub in enumerate(value):
                flatten(f"{prefix}[{idx}]", sub)
        else:
            rows.append((prefix, json.dumps(value)))

    flatten("", payload)
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        sys.stdout.write(f"{key.ljust(width)}  {value}\n")


# -- input files --------------------------------------------------------------

# Divisors and ideals need a cone; only validate leaves --cone optional.
_NEEDS_CONE = {
    "divisor": "validating a divisor needs --cone for the ray count",
    "ideal": "validating an ideal needs --cone for the ambient cone",
}


def _read(kind: str, path: str, args):
    """The object of wire kind ``kind`` in the JSON file at ``path``.  Every
    fault in the file's content is raised with the path in front."""
    obj = jsonio.load_json(path)
    graph = getattr(args, "graph", None)
    if kind in _NEEDS_CONE and graph is None and args.cone is None:
        raise InputError(_NEEDS_CONE[kind])
    try:
        if kind == "cone":
            return jsonio.cone_from_obj(obj)
        if kind == "graph":
            return jsonio.graph_from_obj(obj)
        if kind == "matrix":
            return jsonio.matrix_from_obj(obj)
        if kind == "divisor" and graph is not None:
            return jsonio.exc_divisor_from_obj(graph, obj)
        if kind == "divisor":
            return jsonio.divisor_from_obj(args.cone, obj)
        return jsonio.ideal_from_obj(args.cone, obj)
    except SingvolError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _read_inputs(args) -> None:
    """Replace each input-file option by the object its file holds.  The cone
    and the graph come first: divisors and ideals are read against them."""
    for name in ("cone", "graph", "matrix", "divisor", "ideal", "ideals"):
        path = getattr(args, name, None)
        if name == "ideals" and path is not None:
            args.ideals = [_read("ideal", p, args) for p in path]
        elif path is not None:
            setattr(args, name, _read(name, path, args))


# -- surface commands --------------------------------------------------------


def _cmd_surface_volume(args):
    volume = surface_mod.volume(args.graph)
    return {"volume": format_rational(volume), "class": surface_mod.classify(args.graph).kind.value}


def _cmd_surface_classify(args):
    found = surface_mod.classify(args.graph)
    return {"class": found.kind.value, "log_discrepancies": _rats(found.log_discrepancies)}


def _cmd_surface_pullback(args):
    if args.divisor is None:
        return {"coeffs": _rats(surface_mod.discrepancies(args.graph))}
    return {"coeffs": _rats(surface_mod.numerical_pullback(args.graph, args.divisor))}


def _cmd_surface_zariski(args):
    graph = args.graph
    d = args.divisor if args.divisor is not None else surface_mod.log_discrepancy_divisor(graph)
    decomposition = surface_mod.zariski_decompose(graph, d)
    return {
        "nef_part": _rats(decomposition.nef_part),
        "neg_part": _rats(decomposition.neg_part),
        "local_volume": format_rational(surface_mod.nef_volume(graph, decomposition.nef_part)),
    }


# family: (the flags it needs, the message when one is missing, its graph)
_FAMILIES = {
    "cone": (("g", "d"), "--family cone needs --g and --d",
             lambda args: surface_mod.cone_graph(args.g, args.d)),
    "cusp_cycle": (("self_ints",), "--family cusp_cycle needs --self-ints like -3,-2,-2",
                   lambda args: surface_mod.cusp_cycle_graph(_parse_vector(args.self_ints))),
    "duval": (("name",), "--family duval needs --name like A2 or E6",
              lambda args: surface_mod.du_val_graph(args.name)),
}


def _cmd_surface_standard(args):
    flags, message, build = _FAMILIES[args.family]
    if any(getattr(args, flag) in (None, "") for flag in flags):
        raise InputError(message)
    return jsonio.graph_to_obj(build(args))


# -- toric commands -----------------------------------------------------------


def _cmd_toric_env(args):
    at = _parse_vector(args.at)
    value, point = toric_mod.envelope_certificate(args.cone, args.divisor, at)
    payload = {"value": format_rational(value), "optimal_m": _rats(point)}
    if args.oracle:
        problem = toric_mod.envelope_problem(args.cone, args.divisor, at)
        best = max((v for _, v in oracle_mod.lp_vertex_enumerate(problem)), default=None)
        payload["oracle_max"] = None if best is None else format_rational(best)
        payload["oracle_agrees"] = best == value
    return payload


def _cmd_toric_numcartier(args):
    result = toric_mod.is_numerically_cartier(args.cone, args.divisor)
    payload = {"numerically_cartier": result.is_numerically_cartier}
    if result.certificate is not None:
        payload["certificate"] = _rats(result.certificate)
    if result.witness is not None:
        payload["witness"] = [int(x) for x in result.witness]
        payload["gap"] = format_rational(result.gap)
    return payload


def _cmd_toric_mult(args):
    value = toric_mod.samuel_multiplicity(args.cone, args.ideal)
    payload = {"multiplicity": format_rational(value)}
    if args.oracle:
        report = oracle_mod.multiplicity_estimate(args.cone, args.ideal, (4, 8))
        fitted = zip(report.ks, report.fitted)
        payload["oracle_fitted"] = {str(k): format_rational(f) for k, f in fitted}
    return payload


def _cmd_toric_mixed(args):
    value = toric_mod.mixed_multiplicity(args.cone, args.ideals)
    return {"mixed_multiplicity": format_rational(value)}


def _cmd_toric_defect(args):
    ideal = toric_mod.defect_ideal(args.cone, args.divisor, args.m)
    payload = {"m": args.m, "gens": [list(g) for g in ideal.gens]}
    if args.at:
        z = toric_mod.z_value(ideal, _parse_vector(args.at))
        payload["z_value"] = format_rational(z)
        payload["z_value_over_m"] = format_rational(z / args.m)
    return payload


def _cmd_toric_izumi(args):
    constant = toric_mod.izumi_constant(args.cone, _parse_vector(args.v), _parse_vector(args.w))
    return {"constant": format_rational(constant)}


# -- endomorphism commands ----------------------------------------------------


def _side(value):
    """A check row's side: a rational, or a list of vertices."""
    return [_rats(v) for v in value] if isinstance(value, tuple) else format_rational(value)


def _cmd_endo_check(args):
    endomorphism = endo_mod.ToricEndo(args.cone, args.matrix)
    report = endo_mod.check_push_pull(endomorphism, divisor=args.divisor, ideal=args.ideal)
    checks = [
        {"name": c.name, "left": _side(c.left), "right": _side(c.right), "passed": c.passed}
        for c in report.checks
    ]
    return {"degree": report.degree, "passed": report.passed, "checks": checks}


# Each --case of endo monotonic, with the options it reads.
_CASES = {"surface_cover": ("--g", "--d", "--e"), "toric": ("--cone", "--matrix")}


def _check_case(args) -> None:
    """Refuse a --case of endo monotonic given another case's option, or
    missing one of its own, before any input file is read."""
    case = getattr(args, "case", None)
    if case is None:
        return
    for other, flags in _CASES.items():
        for flag in flags:
            if other != case and getattr(args, flag[2:]) is not None:
                raise InputError(f"{flag} is an option of --case {other}, not of --case {case}")
    flags = _CASES[case]
    if any(getattr(args, flag[2:]) is None for flag in flags):
        raise InputError(f"--case {case} needs {', '.join(flags[:-1])} and {flags[-1]}")


def _cmd_endo_monotonic(args):
    if args.case == "surface_cover":
        report = endo_mod.surface_cover_report(args.g, args.d, args.e)
        return {
            "case": "surface_cover",
            "degree": report.cover_degree,
            "covering_volume": format_rational(report.covering_volume),
            "base_volume": format_rational(report.base_volume),
            "scaled_base_volume": format_rational(report.cover_degree * report.base_volume),
            "passed": report.passed,
        }
    report = endo_mod.toric_volume_report(args.cone, args.matrix)
    return {
        "case": "toric",
        "degree": report.degree,
        "volume": format_rational(report.volume),
        "scaled_volume": format_rational(report.degree * report.volume),
        "certificate_m": ["0"] * args.cone.dim,  # the zero form: see ToricVolumeReport
        "passed": report.passed,
    }


# The wire kinds, each with what validate reports of the object it read.
_DIAGNOSTICS = {
    "graph": lambda graph: {"vertices": len(graph), "edges": len(graph.edges)},
    # ToricCone checks isolation in every dimension.
    "cone": lambda cone: {"dim": cone.dim, "rays": len(cone.rays),
                          "facets": len(cone.facet_normals), "isolated_checked": True},
    "divisor": lambda divisor: {},
    "ideal": lambda ideal: {"minimal_gens": len(ideal.gens), "m_primary": ideal.is_m_primary},
    "matrix": lambda rows: {"rows": len(rows)},
}


def _cmd_validate(args):
    value = _read(args.kind, args.file, args)
    return {"ok": True, "kind": args.kind, **_DIAGNOSTICS[args.kind](value)}


# -- the command table --------------------------------------------------------

_REQUIRED = {"required": True}
_INT = {"type": _int}
_ORACLE = {"action": "store_true", "help": argparse.SUPPRESS}

# group: (help, {command: (handler, options)}), or (handler, options) for a
# group that is a command itself.  Options map each flag to add_argument's
# keywords, in help-page order.
_COMMANDS = {
    "surface": ("resolution dual graph computations", {
        "volume": (_cmd_surface_volume, {"--graph": _REQUIRED}),
        "classify": (_cmd_surface_classify, {"--graph": _REQUIRED}),
        "pullback": (_cmd_surface_pullback, {
            "--graph": _REQUIRED,
            "--divisor": {"help": "intersection numbers; defaults to the canonical ones"}}),
        "zariski": (_cmd_surface_zariski, {
            "--graph": _REQUIRED, "--divisor": {"help": "defaults to the log-discrepancy divisor"}}),
        "standard": (_cmd_surface_standard, {
            "--family": {**_REQUIRED, "choices": tuple(_FAMILIES)},
            "--g": {**_INT, "help": "genus for the cone family"},
            "--d": {**_INT, "help": "degree for the cone family"},
            "--self-ints": {"help": "cycle self-intersections like -3,-2,-2"},
            "--name": {"help": "Du Val name like A2, D4, E6"}}),
    }),
    "toric": ("toric cone computations", {
        "env": (_cmd_toric_env, {
            "--cone": _REQUIRED, "--divisor": _REQUIRED,
            "--at": {**_REQUIRED, "help": "valuation vector like 1,1,0"}, "--oracle": _ORACLE}),
        "numcartier": (_cmd_toric_numcartier, {"--cone": _REQUIRED, "--divisor": _REQUIRED}),
        "mult": (_cmd_toric_mult, {"--cone": _REQUIRED, "--ideal": _REQUIRED, "--oracle": _ORACLE}),
        "mixed": (_cmd_toric_mixed, {"--cone": _REQUIRED, "--ideals": {**_REQUIRED, "nargs": "+"}}),
        "defect": (_cmd_toric_defect, {
            "--cone": _REQUIRED, "--divisor": _REQUIRED, "--m": {**_INT, "default": 1},
            "--at": {"help": "valuation vector for the divisor value"}}),
        "izumi": (_cmd_toric_izumi, {"--cone": _REQUIRED, "--v": _REQUIRED, "--w": _REQUIRED}),
    }),
    "endo": ("finite toric endomorphisms", {
        "check": (_cmd_endo_check, {
            "--cone": _REQUIRED, "--matrix": _REQUIRED, "--divisor": {}, "--ideal": {}}),
        "monotonic": (_cmd_endo_monotonic, {
            "--case": {**_REQUIRED, "choices": ("surface_cover", "toric")},
            "--g": _INT, "--d": _INT, "--e": _INT, "--cone": {}, "--matrix": {}}),
    }),
    "validate": (_cmd_validate, {
        "--kind": {**_REQUIRED, "choices": tuple(_DIAGNOSTICS)},
        "--cone": {"help": "ambient cone for divisor and ideal validation"},
        "file": {}}),
}


def _add_command(parser, handler, options) -> None:
    for flag, keywords in options.items():
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=handler)


def build_parser(group=None) -> argparse.ArgumentParser:
    """The command tree.  Every group is registered, but when ``group``
    names one (main passes the first argument) only its commands are built,
    which is all a run of that group can reach; otherwise all are."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="singvol",
        description="Exact singularity volumes on surface dual graphs and toric cones.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for name, (head, body) in _COMMANDS.items():
        if callable(head):
            _add_command(groups.add_parser(name, parents=[common]), head, body)
            continue
        group_parser = groups.add_parser(name, help=head)
        if group not in _COMMANDS or group == name:
            commands = group_parser.add_subparsers(dest="command", required=True)
            for command, (handler, options) in body.items():
                _add_command(commands.add_parser(command, parents=[common]), handler, options)
    return parser


_VECTOR_OPTIONS = ("--at", "--v", "--w", "--self-ints")


def _attach_negative_vectors(argv):
    """Join "--at", "-1,2,3" into "--at=-1,2,3".

    argparse takes any separate value that starts with "-" and is not a
    plain negative number for an option, and rejects the vector option as
    missing its argument.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and arg.startswith("-") and _VECTOR.fullmatch(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_vectors(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _check_case(args)
        _read_inputs(args)
        payload = args.func(args)
    except SingvolError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if args.group == "validate":
            _emit({"ok": False, "error": str(exc)}, args.format)
        return exc.exit_code
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
