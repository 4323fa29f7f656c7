"""Batch command line front end.

Reads JSON inputs, runs the exact engines and prints JSON (the contract)
or an aligned table (for humans) to standard output.  Exit codes: 0 on
success, 2 for malformed input, 3 for domain errors, 4 for unsupported
dimensions.  Output is byte-deterministic for a fixed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import endo as endo_mod
from . import jsonio
from . import oracle as oracle_mod
from . import surface as surface_mod
from . import toric as toric_mod
from .errors import InputError, SingvolError
from .exactmath import format_rational


def _parse_vector(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer vector, got {text!r}") from exc


def _rat(x) -> str:
    return format_rational(Fraction(x))


def _rats(xs):
    return [_rat(x) for x in xs]


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


def _load_cone(args) -> toric_mod.ToricCone:
    return jsonio.cone_from_obj(jsonio.load_json(args.cone), args.cone)


def _class_payload(classification) -> dict:
    return {
        "class": classification.kind.value,
        "log_discrepancies": _rats(classification.log_discrepancies),
    }


# -- surface commands --------------------------------------------------------


def _cmd_surface_volume(args):
    graph = jsonio.graph_from_obj(jsonio.load_json(args.graph), args.graph)
    return {
        "volume": _rat(surface_mod.volume(graph)),
        "class": surface_mod.classify(graph).kind.value,
    }


def _cmd_surface_classify(args):
    graph = jsonio.graph_from_obj(jsonio.load_json(args.graph), args.graph)
    return _class_payload(surface_mod.classify(graph))


def _cmd_surface_pullback(args):
    graph = jsonio.graph_from_obj(jsonio.load_json(args.graph), args.graph)
    if args.divisor:
        rhs = jsonio.exc_divisor_from_obj(graph, jsonio.load_json(args.divisor), args.divisor)
    else:
        rhs = surface_mod.canonical_intersections(graph)
    return {"coeffs": _rats(surface_mod.numerical_pullback(graph, rhs))}


def _cmd_surface_zariski(args):
    graph = jsonio.graph_from_obj(jsonio.load_json(args.graph), args.graph)
    if args.divisor:
        d = jsonio.exc_divisor_from_obj(graph, jsonio.load_json(args.divisor), args.divisor)
    else:
        d = surface_mod.log_discrepancy_divisor(graph)
    decomposition = surface_mod.zariski_decompose(graph, d)
    return {
        "nef_part": _rats(decomposition.nef_part),
        "neg_part": _rats(decomposition.neg_part),
        "local_volume": _rat(surface_mod.local_volume(graph, d)),
    }


# The flags each family of surface.standard_graph needs.
_FAMILY_FLAGS = {
    "cone": (("g", "d"), "--family cone needs --g and --d"),
    "cusp_cycle": (("self_ints",), "--family cusp_cycle needs --self-ints like -3,-2,-2"),
    "duval": (("name",), "--family duval needs --name like A2 or E6"),
}


def _cmd_surface_standard(args):
    flags, message = _FAMILY_FLAGS[args.family]
    if any(getattr(args, flag) in (None, "") for flag in flags):
        raise InputError(message)
    graph = surface_mod.standard_graph(
        args.family,
        genus=args.g,
        degree=args.d,
        self_ints=_parse_vector(args.self_ints) if args.self_ints else None,
        name=args.name,
    )
    return jsonio.graph_to_obj(graph)


# -- toric commands -----------------------------------------------------------


def _cmd_toric_env(args):
    cone = _load_cone(args)
    divisor = jsonio.divisor_from_obj(cone, jsonio.load_json(args.divisor), args.divisor)
    at = _parse_vector(args.at)
    value, point = toric_mod.envelope_certificate(cone, divisor, at)
    payload = {"value": _rat(value), "optimal_m": _rats(point)}
    if args.oracle:
        vertices = oracle_mod.lp_vertex_enumerate(toric_mod.envelope_problem(cone, divisor, at))
        best = max((v for _, v in vertices), default=None)
        payload["oracle_max"] = None if best is None else _rat(best)
        payload["oracle_agrees"] = best == value
    return payload


def _cmd_toric_numcartier(args):
    cone = _load_cone(args)
    divisor = jsonio.divisor_from_obj(cone, jsonio.load_json(args.divisor), args.divisor)
    result = toric_mod.is_numerically_cartier(cone, divisor)
    payload = {"numerically_cartier": result.is_numerically_cartier}
    if result.certificate is not None:
        payload["certificate"] = _rats(result.certificate)
    if result.witness is not None:
        payload["witness"] = [int(x) for x in result.witness]
        payload["gap"] = _rat(result.gap)
    return payload


def _cmd_toric_mult(args):
    cone = _load_cone(args)
    ideal = jsonio.ideal_from_obj(cone, jsonio.load_json(args.ideal), args.ideal)
    value = toric_mod.samuel_multiplicity(cone, ideal)
    payload = {"multiplicity": _rat(value)}
    if args.oracle:
        report = oracle_mod.multiplicity_estimate(cone, ideal, 8, ks=(4, 8))
        payload["oracle_fitted"] = {str(k): _rat(f) for k, f in zip(report.ks, report.fitted)}
    return payload


def _cmd_toric_mixed(args):
    cone = _load_cone(args)
    if not 2 <= len(args.ideals) <= 3:
        raise InputError("toric mixed expects two or three ideal files")
    ideals = [
        jsonio.ideal_from_obj(cone, jsonio.load_json(path), path) for path in args.ideals
    ]
    value = toric_mod.mixed_multiplicity(cone, ideals)
    return {"mixed_multiplicity": _rat(value)}


def _cmd_toric_defect(args):
    cone = _load_cone(args)
    divisor = jsonio.divisor_from_obj(cone, jsonio.load_json(args.divisor), args.divisor)
    ideal = toric_mod.defect_ideal(cone, divisor, args.m)
    payload = {"m": args.m, "gens": [list(g) for g in ideal.gens]}
    if args.at:
        at = _parse_vector(args.at)
        z = toric_mod.z_value(ideal, at)
        payload["z_value"] = _rat(z)
        payload["z_value_over_m"] = _rat(z / args.m)
    return payload


def _cmd_toric_izumi(args):
    cone = _load_cone(args)
    constant = toric_mod.izumi_constant(cone, _parse_vector(args.v), _parse_vector(args.w))
    return {"constant": _rat(constant)}


# -- endomorphism commands ----------------------------------------------------


def _cmd_endo_check(args):
    cone = _load_cone(args)
    matrix = jsonio.matrix_from_obj(jsonio.load_json(args.matrix), args.matrix)
    endomorphism = endo_mod.ToricEndo(cone, matrix)
    divisor = None
    ideal = None
    if args.divisor:
        divisor = jsonio.divisor_from_obj(cone, jsonio.load_json(args.divisor), args.divisor)
    if args.ideal:
        ideal = jsonio.ideal_from_obj(cone, jsonio.load_json(args.ideal), args.ideal)
    report = endo_mod.check_push_pull(endomorphism, divisor=divisor, ideal=ideal)
    return {
        "degree": report.degree,
        "passed": report.passed,
        "checks": [
            {
                "name": item.name,
                "left": _rat(item.left),
                "right": _rat(item.right),
                "passed": item.passed,
            }
            for item in report.checks
        ],
    }


def _cmd_endo_monotonic(args):
    if args.case == "surface_cover":
        if args.g is None or args.d is None or args.e is None:
            raise InputError("--case surface_cover needs --g, --d and --e")
        report = endo_mod.surface_cover_report(args.g, args.d, args.e)
        return {
            "case": "surface_cover",
            "degree": report.cover_degree,
            "covering_volume": _rat(report.covering_volume),
            "base_volume": _rat(report.base_volume),
            "scaled_base_volume": _rat(report.cover_degree * report.base_volume),
            "passed": report.passed,
        }
    if args.case == "toric":
        if not args.cone or not args.matrix:
            raise InputError("--case toric needs --cone and --matrix")
        cone = _load_cone(args)
        matrix = jsonio.matrix_from_obj(jsonio.load_json(args.matrix), args.matrix)
        report = endo_mod.toric_volume_report(cone, matrix)
        return {
            "case": "toric",
            "degree": report.degree,
            "volume": _rat(report.volume),
            "scaled_volume": _rat(report.degree * report.volume),
            "log_discrepancies": _rats(report.values),
            "certificate_m": ["0"] * cone.dim,  # the zero form: see ToricVolumeReport
            "passed": report.passed,
        }
    raise InputError(f"unknown case {args.case!r}")


def _cmd_validate(args):
    cone = None
    if args.cone:
        cone = _load_cone(args)
    return jsonio.validate_file(args.kind, args.file, cone=cone)


def _add_surface_commands(cmds, common):
    p = cmds.add_parser("volume", parents=[common])
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_surface_volume)

    p = cmds.add_parser("classify", parents=[common])
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_surface_classify)

    p = cmds.add_parser("pullback", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--divisor", help="intersection numbers; defaults to the canonical ones")
    p.set_defaults(func=_cmd_surface_pullback)

    p = cmds.add_parser("zariski", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--divisor", help="defaults to the log-discrepancy divisor")
    p.set_defaults(func=_cmd_surface_zariski)

    p = cmds.add_parser("standard", parents=[common])
    p.add_argument("--family", required=True, choices=("cone", "cusp_cycle", "duval"))
    p.add_argument("--g", type=int, help="genus for the cone family")
    p.add_argument("--d", type=int, help="degree for the cone family")
    p.add_argument("--self-ints", dest="self_ints", help="cycle self-intersections like -3,-2,-2")
    p.add_argument("--name", help="Du Val name like A2, D4, E6")
    p.set_defaults(func=_cmd_surface_standard)


def _add_toric_commands(cmds, common):
    p = cmds.add_parser("env", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--at", required=True, help="valuation vector like 1,1,0")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_toric_env)

    p = cmds.add_parser("numcartier", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--divisor", required=True)
    p.set_defaults(func=_cmd_toric_numcartier)

    p = cmds.add_parser("mult", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_toric_mult)

    p = cmds.add_parser("mixed", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--ideals", nargs="+", required=True)
    p.set_defaults(func=_cmd_toric_mixed)

    p = cmds.add_parser("defect", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--at", help="valuation vector for the divisor value")
    p.set_defaults(func=_cmd_toric_defect)

    p = cmds.add_parser("izumi", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(func=_cmd_toric_izumi)


def _add_endo_commands(cmds, common):
    p = cmds.add_parser("check", parents=[common])
    p.add_argument("--cone", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--divisor")
    p.add_argument("--ideal")
    p.set_defaults(func=_cmd_endo_check)

    p = cmds.add_parser("monotonic", parents=[common])
    p.add_argument("--case", required=True, choices=("surface_cover", "toric"))
    p.add_argument("--g", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--cone")
    p.add_argument("--matrix")
    p.set_defaults(func=_cmd_endo_monotonic)


# name: (help, adds its commands) for each group with commands.
_GROUPS = {
    "surface": ("resolution dual graph computations", _add_surface_commands),
    "toric": ("toric cone computations", _add_toric_commands),
    "endo": ("finite toric endomorphisms", _add_endo_commands),
}


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
    for name, (help_text, add_commands) in _GROUPS.items():
        group_parser = groups.add_parser(name, help=help_text)
        if group not in _GROUPS or group == name:
            add_commands(group_parser.add_subparsers(dest="command", required=True), common)

    p = groups.add_parser("validate", parents=[common])
    p.add_argument("--kind", required=True, choices=("graph", "cone", "divisor", "ideal", "matrix"))
    p.add_argument("--cone", help="ambient cone for divisor and ideal validation")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    return parser


_VECTOR_OPTIONS = ("--at", "--v", "--w", "--self-ints")
_NEGATIVE_VECTOR = re.compile(r"-\d+(,-?\d+)*")


def _attach_negative_vectors(argv):
    """Join "--at", "-1,2,3" into "--at=-1,2,3".

    argparse takes any separate value that starts with "-" and is not a
    plain negative number for an option, and rejects the vector option as
    missing its argument.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and _NEGATIVE_VECTOR.fullmatch(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_vectors(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
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
