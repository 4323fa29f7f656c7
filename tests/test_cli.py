import json

import pytest

from singvol.cli import main


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


class TestValidateAndErrors:
    def test_validate_cone_ok(self, capsys, quadric_file):
        code, out, _ = run(capsys, ["validate", "--kind", "cone", quadric_file])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_checks_isolation_in_dimension_four(self, capsys, tmp_path):
        a1_times_c2 = write(
            tmp_path, "a1c2.json", {"dim": 4, "rays": [[1, 0, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        )
        code, out, err = run(capsys, ["validate", "--kind", "cone", a1_times_c2])
        assert code == 3
        assert err.count("error:") == 1 and err.startswith("error: facet spanned by")
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
