import argparse
import json
import re
from fractions import Fraction as F

import pytest

from singvol import DomainError, InputError, ToricCone, jsonio, surface
from singvol.cli import build_parser, main
from singvol.endo import CheckItem, PushPullReport, SurfaceCoverReport, ToricVolumeReport
from singvol.exactmath import LPOutcome, LPProblem
from singvol.oracle import CountReport
from singvol.surface import (
    SingularityClass, SingularityKind, Vertex, ZariskiDecomposition, cusp_cycle_graph,
)
from singvol.toric import NumericallyCartierResult, ToricDivisor

from conftest import run_python


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def quadric_file(tmp_path):
    return write(
        tmp_path, "quadric.json", {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]}
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def hostile_file(content, digits):
    """Raw text, since json.dump cannot write an int of more digits than
    the interpreter converts to text."""
    return {
        "nested": b"[" * 200_000,
        "non-utf-8": b"\xff",
        "long-integer": b'{"vertices": [{"self": -%s}], "edges": []}' % digits.encode(),
    }[content]


def raw_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text)
    return str(path)


def plane_env(tmp_path, coeff, at):
    cone = write(tmp_path, "plane.json", {"dim": 2, "rays": [[1, 0], [0, 1]]})
    divisor = write(tmp_path, "d.json", {"coeffs": [coeff, "0"]})
    return ["toric", "env", "--cone", cone, "--divisor", divisor, "--at", at]


A3_GRAPH = {"vertices": [{"self": -2, "genus": 0}] * 3, "edges": [[0, 1, 1], [1, 2, 1]]}

# Inputs that made the CLI exit 1 with a traceback: undecodable graph files,
# numbers and answers of more digits than the interpreter converts; and a Du
# Val rank above the cap, which no longer builds a graph for seconds.
HOSTILE_ARGV = {
    **{
        f"graph-{content}": lambda tmp_path, digits, content=content: [
            "surface", "volume", "--graph",
            raw_file(tmp_path, "graph.json", hostile_file(content, digits))]
        for content in ("nested", "non-utf-8", "long-integer")
    },
    "at": lambda tmp_path, digits: plane_env(tmp_path, "1", f"{digits},1"),
    "divisor-coefficient": lambda tmp_path, digits: plane_env(tmp_path, digits, "1,1"),
    "self-ints": lambda tmp_path, digits: [
        "surface", "standard", "--family", "cusp_cycle", "--self-ints", f"-{digits},-2,-2"],
    "du-val-rank": lambda tmp_path, digits: [
        "surface", "standard", "--family", "duval", "--name", f"A{digits}"],
    # -P^2 has about 6,000 digits, more than the interpreter prints.
    "long-answer": lambda tmp_path, digits: [
        "surface", "zariski", "--graph", write(tmp_path, "a3.json", A3_GRAPH),
        "--divisor", write(tmp_path, "d.json", {"coeffs": [f"-{digits[:3000]}", "-1", "-2"]})],
    "du-val-rank-above-cap": lambda tmp_path, digits: [
        "surface", "standard", "--family", "duval", "--name", "A1001"],
}


class TestToricCommands:
    def test_env_with_certificate(self, capsys, tmp_path, quadric_file):
        divisor = write(tmp_path, "d.json", {"coeffs": ["2", "1", "2", "1"]})
        code, out, _ = run(
            capsys,
            ["toric", "env", "--cone", quadric_file, "--divisor", divisor, "--at", "1,1,0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "3"
        assert payload["optimal_m"] == ["2", "1", "2"]

    def test_env_oracle_flag(self, capsys, tmp_path, quadric_file):
        divisor = write(tmp_path, "d.json", {"coeffs": ["1", "1", "1", "0"]})
        code, out, _ = run(
            capsys,
            [
                "toric", "env", "--cone", quadric_file, "--divisor", divisor,
                "--at", "1,1,0", "--oracle",
            ],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == "1"
        assert payload["oracle_agrees"] is True

    def test_numcartier_both_ways(self, capsys, tmp_path, quadric_file):
        cartier = write(tmp_path, "c.json", {"coeffs": ["2", "1", "2", "1"]})
        code, out, _ = run(
            capsys, ["toric", "numcartier", "--cone", quadric_file, "--divisor", cartier]
        )
        assert code == 0
        assert json.loads(out) == {
            "numerically_cartier": True,
            "certificate": ["2", "1", "2"],
        }
        weil = write(tmp_path, "w.json", {"coeffs": ["1", "1", "1", "0"]})
        code, out, _ = run(
            capsys, ["toric", "numcartier", "--cone", quadric_file, "--divisor", weil]
        )
        payload = json.loads(out)
        assert payload["numerically_cartier"] is False
        assert payload["witness"] == [1, 1, 0]
        assert payload["gap"] == "-1"

    def test_mult_with_oracle(self, capsys, tmp_path):
        cone = write(tmp_path, "plane.json", {"dim": 2, "rays": [[1, 0], [0, 1]]})
        ideal = write(tmp_path, "a.json", {"gens": [[1, 0], [0, 2]]})
        code, out, _ = run(
            capsys, ["toric", "mult", "--cone", cone, "--ideal", ideal, "--oracle"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicity"] == "2"
        assert set(payload["oracle_fitted"]) == {"4", "8"}

    def test_mixed(self, capsys, tmp_path):
        cone = write(tmp_path, "plane.json", {"dim": 2, "rays": [[1, 0], [0, 1]]})
        a = write(tmp_path, "a.json", {"gens": [[1, 0], [0, 2]]})
        b = write(tmp_path, "b.json", {"gens": [[2, 0], [0, 1]]})
        code, out, _ = run(
            capsys, ["toric", "mixed", "--cone", cone, "--ideals", a, b]
        )
        assert code == 0
        assert json.loads(out)["mixed_multiplicity"] == "1"

    def test_mixed_three_ideals(self, capsys, tmp_path, quadric_file):
        gens = {"gens": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]}
        paths = [write(tmp_path, f"m{i}.json", gens) for i in range(3)]
        code, out, _ = run(
            capsys, ["toric", "mixed", "--cone", quadric_file, "--ideals", *paths]
        )
        assert code == 0
        assert json.loads(out)["mixed_multiplicity"] == "2"

    def test_mixed_powers_of_the_maximal_ideal(self, capsys, tmp_path, quadric_file):
        # e(m, m, m^2) = 1 * 1 * 2 * e(m) = 4 on the quadric, where e(m) = 2.
        m = write(tmp_path, "m.json", {"gens": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]})
        m2 = write(tmp_path, "m2.json", {"gens": [
            [0, 2, 0], [0, 2, 1], [0, 2, 2], [1, 1, 0], [1, 1, 1], [1, 1, 2], [2, 0, 0], [2, 0, 1], [2, 0, 2],
        ]})
        code, out, err = run(
            capsys, ["toric", "mixed", "--cone", quadric_file, "--ideals", m, m, m2]
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {"mixed_multiplicity": "4"}

    def test_mixed_on_a_line(self, capsys, tmp_path):
        # On a line e(a) is the colength of a: 3 for the ideal (x^3, x^5).
        cone = write(tmp_path, "line.json", {"dim": 1, "rays": [[-1]]})
        ideal = write(tmp_path, "a.json", {"gens": [[-3], [-5]]})
        code, out, err = run(capsys, ["toric", "mixed", "--cone", cone, "--ideals", ideal])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"mixed_multiplicity": "3"}

    def test_defect(self, capsys, tmp_path, quadric_file):
        divisor = write(tmp_path, "d.json", {"coeffs": ["1", "1", "1", "0"]})
        code, out, _ = run(
            capsys,
            [
                "toric", "defect", "--cone", quadric_file, "--divisor", divisor,
                "--m", "2", "--at", "1,1,0",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["z_value"] == "-2"
        assert payload["z_value_over_m"] == "-1"
        assert payload["gens"]

    def test_izumi(self, capsys, tmp_path):
        cone = write(tmp_path, "plane.json", {"dim": 2, "rays": [[1, 0], [0, 1]]})
        code, out, _ = run(
            capsys, ["toric", "izumi", "--cone", cone, "--v", "1,1", "--w", "1,2"]
        )
        assert code == 0
        assert json.loads(out)["constant"] == "2"

    def test_vector_outside_cone_is_domain_error(self, capsys, tmp_path, quadric_file):
        divisor = write(tmp_path, "d.json", {"coeffs": ["1", "1", "1", "0"]})
        code, _, err = run(
            capsys,
            ["toric", "env", "--cone", quadric_file, "--divisor", divisor, "--at", "0,0,-1"],
        )
        assert code == 3
        assert "outside" in err


class TestSurfaceCommands:
    def test_standard_roundtrips_into_volume(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["surface", "standard", "--family", "cone", "--g", "2", "--d", "1"]
        )
        assert code == 0
        graph_path = tmp_path / "cone.json"
        graph_path.write_text(out)
        code, out, _ = run(capsys, ["surface", "volume", "--graph", str(graph_path)])
        assert code == 0
        assert json.loads(out) == {"volume": "4", "class": "not_lc"}

    def test_du_val_volume(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["surface", "standard", "--family", "duval", "--name", "A1"]
        )
        graph_path = tmp_path / "a1.json"
        graph_path.write_text(out)
        code, out, _ = run(capsys, ["surface", "volume", "--graph", str(graph_path)])
        assert json.loads(out) == {"volume": "0", "class": "klt"}

    def test_classify_and_pullback_and_zariski(self, capsys, tmp_path):
        graph = write(
            tmp_path,
            "two.json",
            {
                "vertices": [{"self": -3, "genus": 2}, {"self": -2, "genus": 0}],
                "edges": [[0, 1, 1]],
            },
        )
        code, out, _ = run(capsys, ["surface", "classify", "--graph", graph])
        assert json.loads(out) == {
            "class": "not_lc",
            "log_discrepancies": ["-1", "0"],
        }
        code, out, _ = run(capsys, ["surface", "pullback", "--graph", graph])
        assert json.loads(out) == {"coeffs": ["-2", "-1"]}
        code, out, _ = run(capsys, ["surface", "zariski", "--graph", graph])
        assert json.loads(out) == {
            "nef_part": ["-1", "-1/2"],
            "neg_part": ["0", "1/2"],
            "local_volume": "5/2",
        }

    def test_pullback_with_explicit_divisor(self, capsys, tmp_path):
        graph = write(
            tmp_path,
            "two.json",
            {
                "vertices": [{"self": -3, "genus": 2}, {"self": -2, "genus": 0}],
                "edges": [[0, 1, 1]],
            },
        )
        rhs = write(tmp_path, "rhs.json", {"coeffs": ["5", "0"]})
        code, out, _ = run(
            capsys, ["surface", "pullback", "--graph", graph, "--divisor", rhs]
        )
        assert json.loads(out) == {"coeffs": ["-2", "-1"]}

    @pytest.mark.parametrize("divisor", [None, {"coeffs": ["-1", "1/3", "2"]}])
    def test_zariski_decomposes_once(self, capsys, tmp_path, monkeypatch, divisor):
        """The local volume is read off the decomposition already in hand."""
        graph = write(tmp_path, "cusp.json", jsonio.graph_to_obj(cusp_cycle_graph([-3, -2, -4])))
        argv = ["surface", "zariski", "--graph", graph]
        if divisor is not None:
            argv += ["--divisor", write(tmp_path, "d.json", divisor)]
        calls = []
        decompose = surface.zariski_decompose

        def counted(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(surface, "zariski_decompose", counted)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(calls) == 1
        payload = json.loads(out)
        nef = [F(c) for c in payload["nef_part"]]
        assert F(payload["local_volume"]) == -surface.intersect(calls[0][0], nef, nef)


class TestEndoCommands:
    def test_check(self, capsys, tmp_path, quadric_file):
        matrix = write(tmp_path, "m.json", {"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]})
        divisor = write(tmp_path, "d.json", {"coeffs": ["1", "1", "1", "0"]})
        code, out, _ = run(
            capsys,
            ["endo", "check", "--cone", quadric_file, "--matrix", matrix, "--divisor", divisor],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 8
        assert payload["passed"] is True
        # One row: the vertices of the section polyhedra, each a list of
        # rational strings.
        assert payload["checks"] == [{
            "name": "vertices of P(A*D) are the A^T-images of the vertices of P(D)",
            "left": [["0", "2", "2"], ["2", "0", "2"]],
            "right": [["0", "2", "2"], ["2", "0", "2"]],
            "passed": True,
        }]

    def test_check_needs_a_divisor_or_an_ideal(self, capsys, tmp_path, quadric_file):
        matrix = write(tmp_path, "m.json", {"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]})
        code, out, err = run(capsys, ["endo", "check", "--cone", quadric_file, "--matrix", matrix])
        assert (code, out, err) == (2, "", "error: a push-pull check needs a divisor or an ideal\n")

    def test_monotonic_surface_cover(self, capsys):
        code, out, _ = run(
            capsys,
            ["endo", "monotonic", "--case", "surface_cover", "--g", "2", "--d", "1", "--e", "2"],
        )
        payload = json.loads(out)
        assert payload["covering_volume"] == "8"
        assert payload["scaled_base_volume"] == "8"
        assert payload["passed"] is True

    def test_monotonic_toric(self, capsys, tmp_path, quadric_file):
        matrix = write(tmp_path, "m.json", {"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]})
        code, out, _ = run(
            capsys,
            ["endo", "monotonic", "--case", "toric", "--cone", quadric_file, "--matrix", matrix],
        )
        payload = json.loads(out)
        assert payload["volume"] == "0"
        assert payload["passed"] is True
        assert payload["certificate_m"] == ["0", "0", "0"]
        assert "log_discrepancies" not in payload

    @pytest.mark.parametrize("case, own, flag, value", [
        ("toric", "--cone {c} --matrix {m}", "--g", "5"),
        ("toric", "--cone {c} --matrix {m}", "--e", "2"),
        ("surface_cover", "--g 2 --d 1 --e 2", "--cone", "{c}"),
        ("surface_cover", "--g 2 --d 1 --e 2", "--matrix", "{m}"),
        # Refused before any file is read: the cone file does not exist.
        ("surface_cover", "--g 2 --d 1 --e 2", "--cone", "missing.json"),
        ("toric", "--cone missing.json", "--d", "1"),
    ])
    def test_monotonic_refuses_the_other_cases_options(
            self, capsys, tmp_path, quadric_file, case, own, flag, value):
        paths = {"c": quadric_file, "m": write(tmp_path, "m.json", FILES["matrix"])}
        other = "surface_cover" if case == "toric" else "toric"
        argv = ["endo", "monotonic", "--case", case, *own.format(**paths).split(), flag,
                value.format(**paths)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} is an option of --case {other}, not of --case {case}\n"

    @pytest.mark.parametrize("case, given, message", [
        ("toric", ["--cone", "missing.json"], "--case toric needs --cone and --matrix"),
        ("surface_cover", ["--g", "2", "--e", "2"], "--case surface_cover needs --g, --d and --e"),
    ])
    def test_monotonic_needs_its_own_options(self, capsys, case, given, message):
        code, out, err = run(capsys, ["endo", "monotonic", "--case", case, *given])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestValidateAndErrors:
    def test_validate_cone_ok(self, capsys, quadric_file):
        code, out, _ = run(capsys, ["validate", "--kind", "cone", quadric_file])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_readers_name_no_file(self):
        # Only the command line puts a file name in front of a message.
        plane = ToricCone([(1, 0), (0, 1)])
        with pytest.raises(DomainError, match=r"^exponent \(-1, 1\) lies outside the dual cone$"):
            jsonio.ideal_from_obj(plane, {"gens": [[1, 0], [-1, 1]]})
        with pytest.raises(InputError, match=r"^edge \[0, True, 1\] is not an integer vector$"):
            jsonio.graph_from_obj({"vertices": [{"self": -2}, {"self": -2}], "edges": [[0, True]]})
        with pytest.raises(InputError, match=r"^missing required key 'gens'$"):
            jsonio.ideal_from_obj(plane, [])

    def test_validate_checks_isolation_in_dimension_four(self, capsys, tmp_path):
        a1_times_c2 = write(
            tmp_path, "a1c2.json", {"dim": 4, "rays": [[1, 0, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        )
        code, out, err = run(capsys, ["validate", "--kind", "cone", a1_times_c2])
        assert code == 3
        assert err.count("error:") == 1 and err.startswith(f"error: {a1_times_c2}: facet spanned by")
        assert json.loads(out)["ok"] is False
        orthant = write(tmp_path, "c4.json", {"dim": 4, "rays": [[int(i == j) for j in range(4)] for i in range(4)]})
        code, out, _ = run(capsys, ["validate", "--kind", "cone", orthant])
        assert code == 0
        assert json.loads(out) == {
            "ok": True, "kind": "cone", "dim": 4, "rays": 4, "facets": 4, "isolated_checked": True
        }

    def test_validate_rejects_non_primitive_ray(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.json", {"rays": [[2, 2, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]})
        code, out, err = run(capsys, ["validate", "--kind", "cone", bad])
        assert code == 2
        assert "divide by gcd" in err
        assert json.loads(out)["ok"] is False

    def test_validate_degenerate_graph_names_minor(self, capsys, tmp_path):
        bad = write(
            tmp_path,
            "bad.json",
            {"vertices": [{"self": -2}, {"self": -2}], "edges": [[0, 1, 2]]},
        )
        code, out, err = run(capsys, ["validate", "--kind", "graph", bad])
        assert code == 3
        assert "minor of size 2" in err

    def test_validate_ideal_needs_cone(self, capsys, tmp_path, quadric_file):
        ideal = write(tmp_path, "a.json", {"gens": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]})
        code, out, _ = run(
            capsys, ["validate", "--kind", "ideal", "--cone", quadric_file, ideal]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m_primary"] is True

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["surface", "volume", "--graph", str(path)])
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("content", ["nested", "non-utf-8", "long-integer"])
    def test_load_json_turns_decode_faults_into_input_errors(self, tmp_path, long_digits, content):
        path = raw_file(tmp_path, "bad.json", hostile_file(content, long_digits))
        with pytest.raises(InputError, match=f"^invalid JSON in {re.escape(path)}: "):
            jsonio.load_json(path)

    @pytest.mark.parametrize("case", list(HOSTILE_ARGV))
    def test_decode_faults_and_long_numbers_exit_two(self, capsys, tmp_path, long_digits, case):
        argv = HOSTILE_ARGV[case](tmp_path, long_digits)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_minor_of_too_many_digits_is_exit_three(self, capsys, tmp_path, long_digits):
        """A graph whose failing minor is too long to write out is still
        not negative definite; the message names the minor by sign and
        length."""
        graph = ('{"vertices": [{"self": -%s, "genus": 0}, {"self": -1, "genus": 0}], '
                 '"edges": [[0, 1, %s]]}' % (long_digits[:4000], "3" * 3000))
        path = raw_file(tmp_path, "graph.json", graph.encode())
        code, out, err = run(capsys, ["surface", "volume", "--graph", path])
        assert (code, out) == (3, "")
        assert err == (f"error: {path}: intersection matrix is not negative definite: leading principal "
                       "minor of size 2 has a negative determinant of 6000 digits\n")

    def test_wrong_divisor_arity_is_exit_two(self, capsys, tmp_path, quadric_file):
        short = write(tmp_path, "short.json", {"coeffs": ["1", "1"]})
        code, _, err = run(
            capsys,
            ["toric", "env", "--cone", quadric_file, "--divisor", short, "--at", "1,1,0"],
        )
        assert code == 2
        assert "coefficients" in err

    def test_bad_ideal_schema_is_exit_two(self, capsys, tmp_path, quadric_file):
        bad = write(tmp_path, "bad.json", {"gens": "nope"})
        code, _, err = run(
            capsys, ["toric", "mult", "--cone", quadric_file, "--ideal", bad]
        )
        assert code == 2

    def test_unsupported_dimension_is_exit_four(self, capsys, tmp_path):
        cone = write(
            tmp_path,
            "four.json",
            {"rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        )
        ideal = write(
            tmp_path,
            "a.json",
            {"gens": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        )
        code, _, err = run(capsys, ["toric", "mult", "--cone", cone, "--ideal", ideal])
        assert code == 4
        code, _, err = run(capsys, ["toric", "mixed", "--cone", cone, "--ideals", *[ideal] * 4])
        assert code == 4
        assert err == "error: exact mixed multiplicity is implemented for dimension <= 3\n"

    def test_byte_determinism(self, capsys, tmp_path, quadric_file):
        divisor = write(tmp_path, "d.json", {"coeffs": ["2", "1", "2", "1"]})
        argv = ["toric", "env", "--cone", quadric_file, "--divisor", divisor, "--at", "1,1,0"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_json_output_revalidates(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["surface", "standard", "--family", "duval", "--name", "D4"]
        )
        graph_path = tmp_path / "d4.json"
        graph_path.write_text(out)
        code, out, _ = run(capsys, ["validate", "--kind", "graph", str(graph_path)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_table_format(self, capsys, tmp_path):
        cone = write(tmp_path, "plane.json", {"dim": 2, "rays": [[1, 0], [0, 1]]})
        code, out, _ = run(
            capsys,
            ["toric", "izumi", "--cone", cone, "--v", "1,1", "--w", "1,2", "--format", "table"],
        )
        assert code == 0
        assert out.strip() == 'constant  "2"'


GRAPH = {"vertices": [{"self": -3, "genus": 2}, {"self": -2}], "edges": [[0, 1]]}


class TestBooleansAreNotIntegers:
    """JSON true and false load as Python bools, which are ints; every reader
    rejects them with its own message, and the CLI exits 2 with one error."""

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (["surface", "volume", "--graph", "{x}"],
             {"x": {"vertices": [{"self": True}]}}, "{x}: vertex (True, 0) is not an integer vector"),
            (["validate", "--kind", "graph", "{x}"],
             {"x": {"vertices": [{"self": -2, "genus": False}]}}, "{x}: vertex (-2, False) is not an integer vector"),
            (["surface", "classify", "--graph", "{x}"],
             {"x": {"vertices": [{"self": -2}, {"self": -2}], "edges": [[0, True]]}},
             "{x}: edge [0, True, 1] is not an integer vector"),
            (["validate", "--kind", "cone", "{x}"],
             {"x": {"dim": 3, "rays": [[True, 0, 0], [0, True, 0], [0, 0, True]]}},
             "{x}: ray [True, 0, 0] is not an integer vector"),
            (["validate", "--kind", "cone", "{x}"],
             {"x": {"dim": True, "rays": [[1]]}}, "{x}: stated dim True does not match the rays"),
            (["toric", "mult", "--cone", "{c}", "--ideal", "{x}"],
             {"c": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
              "x": {"gens": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}},
             "{x}: generator [True, 0, 0] is not an integer vector"),
            (["endo", "check", "--cone", "{c}", "--matrix", "{x}"],
             {"c": {"dim": 2, "rays": [[1, 0], [0, 1]]}, "x": {"matrix": [[True, 0], [0, 2]]}},
             "{x}: matrix row [True, 0] is not an integer vector"),
            (["toric", "env", "--cone", "{c}", "--divisor", "{x}", "--at", "1,1"],
             {"c": {"dim": 2, "rays": [[1, 0], [0, 1]]}, "x": {"coeffs": [True, "1"]}},
             "{x}: not a rational in p/q form: True"),
            (["surface", "zariski", "--graph", "{c}", "--divisor", "{x}"],
             {"c": GRAPH, "x": {"coeffs": ["1", False]}}, "{x}: not a rational in p/q form: False"),
        ],
        ids=["graph-self", "graph-genus", "graph-edge", "cone-ray", "cone-dim", "ideal",
             "matrix", "divisor", "exceptional-divisor"],
    )
    def test_reader_rejects_booleans(self, capsys, tmp_path, argv, files, message):
        paths = {key: write(tmp_path, f"{key}.json", obj) for key, obj in files.items()}
        code, _, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 2
        assert err == f"error: {message.format(**paths)}\n"

    def test_integer_twin_is_accepted(self, capsys, tmp_path):
        cone = write(tmp_path, "c.json", {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        ideal = write(tmp_path, "a.json", {"gens": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        code, out, _ = run(capsys, ["toric", "mult", "--cone", cone, "--ideal", ideal])
        assert code == 0
        assert json.loads(out)["multiplicity"] == "1"


class TestNegativeVectorOptions:
    """Vector options take a leading minus both as "--at -1,4" and "--at=-1,4"."""

    @pytest.fixture
    def wedge(self, tmp_path):
        # (-1, 4) and (-1, 5) are interior points of this cone.
        return write(tmp_path, "wedge.json", {"dim": 2, "rays": [[1, 0], [-1, 3]]})

    def run_both(self, capsys, head, option, value, tail=()):
        outputs = []
        for spelled in ([option, value], [f"{option}={value}"]):
            code, out, err = run(capsys, [*head, *spelled, *tail])
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        return json.loads(outputs[0])

    def test_env_at(self, capsys, tmp_path, wedge):
        divisor = write(tmp_path, "d.json", {"coeffs": ["1", "0"]})
        payload = self.run_both(
            capsys, ["toric", "env", "--cone", wedge, "--divisor", divisor], "--at", "-1,4"
        )
        assert payload["value"] == "1/3"

    def test_defect_at(self, capsys, tmp_path, wedge):
        divisor = write(tmp_path, "d.json", {"coeffs": ["1", "0"]})
        payload = self.run_both(
            capsys, ["toric", "defect", "--cone", wedge, "--divisor", divisor], "--at", "-1,4"
        )
        assert payload["gens"]

    def test_izumi_v_and_w(self, capsys, wedge):
        head = ["toric", "izumi", "--cone", wedge]
        by_v = self.run_both(capsys, head, "--v", "-1,4", ["--w", "1,1"])
        by_w = self.run_both(capsys, head + ["--v", "1,1"], "--w", "-1,5")
        assert by_v["constant"] and by_w["constant"]

    def test_standard_self_ints(self, capsys):
        payload = self.run_both(
            capsys, ["surface", "standard", "--family", "cusp_cycle"], "--self-ints", "-3,-2,-2"
        )
        assert [v["self"] for v in payload["vertices"]] == [-3, -2, -2]


class TestStartUp:
    """import singvol.cli stays cheap: a batch user pays it once per query."""

    @pytest.fixture(scope="class")
    def imported(self):
        """(modules loaded by import singvol.cli in a fresh interpreter, all
        modules loaded after it); modules a site hook loads at start count
        as loaded before."""
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import singvol.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        new, every = proc.stdout.splitlines()
        return set(new.split()), set(every.split())

    @pytest.mark.parametrize("module", ["dataclasses", "inspect", "typing"])
    def test_import_does_not_load(self, imported, module):
        assert module not in imported[0]

    def test_import_loads_every_engine_module(self, imported):
        # The benchmark tracer finds these in sys.modules after importing cli.
        for name in ("exactmath", "surface", "toric", "endo", "jsonio", "cli"):
            assert f"singvol.{name}" in imported[1]


PLANE = ToricCone([(1, 0), (0, 1)])

# (record type, field names, one value per field, number of defaulted fields)
RECORDS = [
    (LPProblem, ("objective", "constraints"), ((1, 2), (((1, 0), 3),)), 0),
    (LPOutcome, ("status", "value", "point", "ray", "farkas"),
     ("optimal", F(1), (F(1),), None, None), 4),
    (ToricDivisor, ("cone", "coeffs"), (PLANE, (F(1), F(2))), 0),
    (NumericallyCartierResult, ("is_numerically_cartier", "certificate", "witness", "gap"),
     (False, None, (1, 1), F(-1)), 3),
    (Vertex, ("self_int", "genus"), (-2, 0), 0),
    (ZariskiDecomposition, ("nef_part", "neg_part"), ((F(1),), (F(0),)), 0),
    (SingularityClass, ("kind", "log_discrepancies"), (SingularityKind.KLT, (F(1),)), 0),
    (CheckItem, ("name", "left", "right"), ("degree", F(2), F(2)), 0),
    (PushPullReport, ("degree", "checks"), (2, ()), 0),
    (SurfaceCoverReport,
     ("genus", "polarization", "cover_degree", "covering_volume", "base_volume"),
     (2, 1, 3, F(12), F(4)), 0),
    (ToricVolumeReport, ("degree",), (2,), 0),
    (CountReport, ("ks", "colengths", "fitted"), ((1, 2), (1, 3), (F(2), F(3, 2))), 0),
]


@pytest.mark.parametrize(
    "record, fields, values, defaulted", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
class TestRecords:
    def test_fields_and_construction(self, record, fields, values, defaulted):
        by_position = record(*values)
        by_keyword = record(**dict(zip(fields, values)))
        assert record._fields == fields
        assert tuple(getattr(by_position, f) for f in fields) == values
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)

    def test_defaults(self, record, fields, values, defaulted):
        required = len(fields) - defaulted
        short = record(*values[:required])
        assert all(getattr(short, f) is None for f in fields[required:])
        with pytest.raises(TypeError):
            record(*values[:required - 1])

    def test_frozen(self, record, fields, values, defaulted):
        rec = record(*values)
        with pytest.raises(AttributeError):
            setattr(rec, fields[0], values[0])
        with pytest.raises(AttributeError):
            rec.extra = 1


class TestRecordValidation:
    def test_coercion_to_fractions(self):
        problem = LPProblem([1, 2], [([1, 0], 3)])
        assert problem == LPProblem((1, 2), (((1, 0), 3),))
        assert all(type(x) is F for x in problem.objective + problem.constraints[0][0])
        assert type(problem.constraints[0][1]) is F
        assert all(type(x) is F for x in ToricDivisor(PLANE, [1, "1/2"]).coeffs)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LPProblem((), ()), "LP objective must have positive dimension"),
            (lambda: LPProblem((1, 2), (((1,), 3),)),
             "constraint dimension 1 does not match objective dimension 2"),
            (lambda: ToricDivisor(PLANE, (1,)),
             "divisor has 1 coefficients but the cone has 2 rays"),
            (lambda: Vertex(-2.0, 0), "vertex data must be integers"),
            (lambda: Vertex(-2, -1), "genus must be nonnegative, got -1"),
            (lambda: CountReport((1,), (1, 2), (F(1),)), "report columns must have equal lengths"),
            (lambda: CountReport((1, 2), (3, 1), (F(1), F(1))),
             "colengths must be non-decreasing in k"),
            (lambda: CountReport((2, 2), (3, 1), (F(1), F(1))), "sample powers must be distinct"),
            (lambda: CountReport((), (), ()), "a report needs at least one sample power"),
        ],
    )
    def test_errors(self, build, message):
        with pytest.raises(InputError) as error:
            build()
        assert str(error.value) == message

    @pytest.mark.parametrize("self_int, genus", [(True, 0), (-2, False)])
    def test_vertex_rejects_bools(self, self_int, genus):
        with pytest.raises(InputError, match="^vertex data must be integers$"):
            Vertex(self_int, genus)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ToricDivisor(PLANE, [True, False]), "not a rational in p/q form: True"),
            (lambda: ToricDivisor(PLANE, [1, 2]).scale(False), "not a rational in p/q form: False"),
            (lambda: LPProblem([True], [([1], 1)]), "not a rational in p/q form: True"),
            (lambda: LPProblem([1], [([1], False)]), "not a rational in p/q form: False"),
            (lambda: cusp_cycle_graph([-3.7, -2]), "not an integer vector: [-3.7, -2]"),
            (lambda: cusp_cycle_graph([-3.0, -2]), "not an integer vector: [-3.0, -2]"),
            (lambda: cusp_cycle_graph([-3, True]), "not an integer vector: [-3, True]"),
        ],
        ids=["divisor", "scale", "lp-objective", "lp-bound", "cusp-float", "cusp-integral-float",
             "cusp-bool"],
    )
    def test_bools_and_fractional_integers_are_rejected(self, build, message):
        with pytest.raises(InputError) as error:
            build()
        assert str(error.value) == message


def subcommands(parser):
    """{name: parser} for the subcommands of a parser; {} for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def help_pages():
    pages = [["-h"]]
    for group, group_parser in subcommands(build_parser()).items():
        pages.append([group, "-h"])
        pages.extend([group, command, "-h"] for command in subcommands(group_parser))
    return pages


def usage_errors():
    errors = [[], ["nosuch"], ["--format", "json"]]
    for group, group_parser in subcommands(build_parser()).items():
        commands = subcommands(group_parser)
        errors.append([group])
        if commands:
            errors.append([group, "nosuch"])
        # no options: each command misses a required one
        errors.extend([group, command] for command in commands)
    return errors


class TestParserPerGroup:
    """main builds only the commands of the group it runs; every page and
    usage error it prints is the one the full tree prints."""

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exit_:
            parse(argv)
        out, err = capsys.readouterr()
        return exit_.value.code, out, err

    def test_only_the_named_group_gets_commands(self):
        groups = subcommands(build_parser("toric"))
        assert set(groups) == {"surface", "toric", "endo", "validate"}
        assert subcommands(groups["surface"]) == subcommands(groups["endo"]) == {}
        assert set(subcommands(groups["toric"])) == set(
            subcommands(subcommands(build_parser())["toric"])
        )
        for name in ("-h", "nosuch", None):
            groups = subcommands(build_parser(name))
            assert all(subcommands(groups[g]) for g in ("surface", "toric", "endo"))

    @pytest.mark.parametrize("argv", help_pages(), ids=" ".join)
    def test_help_pages(self, capsys, argv):
        full = self.outcome(capsys, build_parser().parse_args, argv)
        assert full[0] == 0 and full[1] and not full[2]
        assert self.outcome(capsys, main, argv) == full

    @pytest.mark.parametrize("argv", usage_errors(), ids=lambda argv: " ".join(argv) or "empty")
    def test_usage_errors(self, capsys, argv):
        full = self.outcome(capsys, build_parser().parse_args, argv)
        assert full[0] == 2 and not full[1] and full[2].startswith("usage: singvol")
        assert self.outcome(capsys, main, argv) == full


class TestIntegerText:
    """Integer text, on the command line and in rational strings, is ASCII
    digits with an optional sign, matched whole: underscores, a plus sign on
    a vector entry, spaces, other Unicode digits and a trailing newline all
    exit 2 with the reader's own message."""

    @pytest.fixture
    def env_argv(self, tmp_path):
        cone = write(tmp_path, "plane.json", {"dim": 2, "rays": [[1, 0], [0, 1]]})
        divisor = write(tmp_path, "d.json", {"coeffs": ["1", "0"]})
        return ["toric", "env", "--cone", cone, "--divisor", divisor]

    @pytest.mark.parametrize("text", ["1_0,1", "+1,1", " 1,1", "1, 1", "\u0661,1", "1,1\n"])
    def test_vector_option(self, capsys, env_argv, text):
        code, out, err = run(capsys, [*env_argv, "--at", text])
        assert (code, out) == (2, "")
        assert err == f"error: expected a comma-separated integer vector, got {text!r}\n"

    def test_negative_vector_with_other_digits(self, capsys, env_argv):
        code, _, err = run(capsys, [*env_argv, "--at=-\u0661,4"])
        assert code == 2
        assert err == "error: expected a comma-separated integer vector, got '-\u0661,4'\n"
        # Not joined to its option, so argparse reads it as an unknown option.
        with pytest.raises(SystemExit) as exit_:
            main([*env_argv, "--at", "-\u0661,4"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --at: expected one argument\n")

    @pytest.mark.parametrize("text", ["1\n", "\u0661", "1/\u0662", "1_0"])
    def test_rational_in_a_file(self, capsys, tmp_path, env_argv, text):
        divisor = write(tmp_path, "bad.json", {"coeffs": [text, "0"]})
        argv = [*env_argv[:-1], divisor, "--at", "1,1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {divisor}: not a rational in p/q form: {text!r}\n"

    @pytest.mark.parametrize("text", ["1_0", "+1", " 1", "\u0661"])
    def test_integer_option(self, capsys, env_argv, text):
        cone, divisor = env_argv[3], env_argv[5]
        with pytest.raises(SystemExit) as exit_:
            main(["toric", "defect", "--cone", cone, "--divisor", divisor, "--m", text])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --m: invalid int value: {text!r}\n")

    def test_du_val_name(self, capsys):
        code, out, err = run(capsys, ["surface", "standard", "--family", "duval", "--name", "A\u0661"])
        assert (code, out) == (2, "")
        assert err == "error: unknown Du Val name 'A\u0661'; expected like A2, D4, E6\n"

    def test_negative_integer_option_reaches_the_engine(self, capsys):
        code, out, err = run(capsys, ["endo", "monotonic", "--case", "surface_cover",
                                      "--g", "-1", "--d", "1", "--e", "2"])
        assert (code, out, err) == (2, "", "error: genus must be nonnegative, got -1\n")

    def test_rational_curve_cover_names_the_cover(self, capsys):
        code, out, err = run(capsys, ["endo", "monotonic", "--case", "surface_cover",
                                      "--g", "0", "--d", "1", "--e", "2"])
        assert (code, out) == (2, "")
        assert err == ("error: no degree-2 cover of the cone over a rational curve is etale away "
                       "from the vertex: the covering curve's genus e(g - 1) + 1 would be -1\n")


# Input files of the command fixtures below, by name.
FILES = {
    "quadric": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]},
    "plane": {"dim": 2, "rays": [[1, 0], [0, 1]]},
    "graph": GRAPH,
    "cartier": {"coeffs": ["2", "1", "2", "1"]},
    "weil": {"coeffs": ["1", "1", "1", "0"]},
    "a": {"gens": [[1, 0], [0, 2]]},
    "b": {"gens": [[2, 0], [0, 1]]},
    "m": {"gens": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]},
    "matrix": {"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]},
}

# One valid run of each command: its arguments, with {name} for a file above.
COMMAND_FIXTURES = {
    "surface volume": "--graph {graph}",
    "surface classify": "--graph {graph}",
    "surface pullback": "--graph {graph}",
    "surface zariski": "--graph {graph}",
    "surface standard": "--family cusp_cycle --self-ints -3,-2,-2",
    "toric env": "--cone {quadric} --divisor {cartier} --at 1,1,0 --oracle",
    "toric numcartier": "--cone {quadric} --divisor {weil}",
    "toric mult": "--cone {plane} --ideal {a} --oracle",
    "toric mixed": "--cone {plane} --ideals {a} {b}",
    "toric defect": "--cone {quadric} --divisor {weil} --m 2 --at 1,1,0",
    "toric izumi": "--cone {plane} --v 1,1 --w 1,2",
    "endo check": "--cone {quadric} --matrix {matrix} --divisor {weil} --ideal {m}",
    "endo monotonic": "--case toric --cone {quadric} --matrix {matrix}",
    "validate": "--kind ideal --cone {quadric} {m}",
}


def command_names():
    names = []
    for group, group_parser in subcommands(build_parser()).items():
        commands = subcommands(group_parser)
        names.extend([f"{group} {command}" for command in commands] if commands else [group])
    return names


def table_rows(value, key=""):
    """The (key, JSON text) rows --format table prints for a JSON value:
    objects and lists holding objects or lists open into indexed keys."""
    if isinstance(value, dict):
        return [row for k, v in value.items() for row in table_rows(v, f"{key}.{k}" if key else k)]
    if isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
        return [row for i, v in enumerate(value) for row in table_rows(v, f"{key}[{i}]")]
    return [(key, json.dumps(value))]


class TestEveryCommand:
    @pytest.mark.parametrize("command", command_names())
    def test_json_and_table(self, capsys, tmp_path, command):
        assert command in COMMAND_FIXTURES, f"no fixture for {command!r}"
        paths = {name: write(tmp_path, f"{name}.json", obj) for name, obj in FILES.items()}
        argv = command.split() + [arg.format(**paths) for arg in COMMAND_FIXTURES[command].split()]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        rows = table_rows(json.loads(out))
        width = max(len(k) for k, _ in rows)
        code, table, err = run(capsys, [*argv, "--format", "table"])
        assert (code, err) == (0, "")
        assert table == "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)
