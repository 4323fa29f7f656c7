"""Tests of the benchmark itself: smoke runs of every workload, and answer
checks that must reject a deliberately wrong expected value.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import singvol as sv  # noqa: E402
from perfbench import checks, cones, tracing, workloads  # noqa: E402

RUNNER = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUNNER), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in [*expected, "failed_frac"]:
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_smoke_trace_prints_every_per_layer_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                     "--trace-queries", "12")
    result = last_json(proc)
    assert result["correct"] and result["attempted"] == 12
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["bench.self_ms"]["value"] >= 0   # layer self times fit in the wall


def test_computed_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        result = last_json(run_bench("--workload", "toric-sections", "--seed", "5", "--trace", "1",
                                     "--trace-queries", "10"))
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["toric.lattice_box.points_computed"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "surface-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    def shapes(seed):
        return [q.run.__closure__ and [c.cell_contents for c in q.run.__closure__
                                       if isinstance(c.cell_contents, list)]
                for q in workloads.build("surface-mix", seed, rounds=5)]
    assert shapes(7) == shapes(7)
    assert shapes(7) != shapes(8)


# ---------------------------------------------------------------------------
# the tables the checks rely on
# ---------------------------------------------------------------------------


def test_cone_images_carry_their_invariants():
    for image in cones.cone_images(random.Random(4), 3):
        cone = sv.ToricCone(image.rays)
        assert set(cone.facet_normals) == set(image.normals)
        assert set(sv.hilbert_basis(cone)) == set(image.hilbert)
        m = sv.MonomialIdeal(cone, image.hilbert)
        assert sv.samuel_multiplicity(cone, m) == image.base.e_m


@pytest.mark.parametrize("p,q", [(2, 1), (5, 2), (7, 3), (11, 4)])
def test_cyclic_cones_match_closed_form(p, q):
    c = cones.cyclic_cone(p, q)
    cone = sv.ToricCone(c.rays)
    assert set(sv.hilbert_basis(cone)) == set(c.hilbert)
    assert len(c.hilbert) == c.e_m + 1    # rational: embedding dimension = e + 1


# ---------------------------------------------------------------------------
# every check rejects a wrong expected value
# ---------------------------------------------------------------------------


def surface_answer(vertices, edges):
    graph = sv.ResolutionGraph(vertices, edges)
    cls = sv.classify(graph)
    return sv.volume(graph), cls.kind.value, cls.log_discrepancies


def test_surface_checks():
    cone = ([(-3, 2)], [])
    answer = surface_answer(*cone)
    assert checks.check_surface(*cone, *answer, Fraction(4, 3), checks.NOT_LC) is None
    assert checks.check_surface(*cone, *answer, Fraction(5, 3), checks.NOT_LC)
    assert checks.check_surface(*cone, *answer, Fraction(4, 3), checks.KLT)
    a3 = ([(-2, 0)] * 3, [(0, 1, 1), (1, 2, 1)])
    volume, kind, disc = surface_answer(*a3)
    assert checks.check_surface(*a3, volume, kind, disc, Fraction(0), checks.KLT) is None
    assert checks.check_surface(*a3, volume, kind, disc, Fraction(0), checks.LC_NOT_KLT)
    # the adjunction identity catches a wrong log discrepancy
    assert checks.check_surface(*a3, volume, kind, (disc[0] + 1,) + disc[1:])


def test_zariski_check():
    vertices, edges = [(-1, 2)], []
    graph = sv.ResolutionGraph(vertices, edges)
    d = sv.log_discrepancy_divisor(graph)
    z = sv.zariski_decompose(graph, d)
    local = sv.local_volume(graph, d)
    assert checks.check_zariski(vertices, edges, z.nef_part, z.neg_part, local, Fraction(4)) is None
    assert checks.check_zariski(vertices, edges, z.nef_part, z.neg_part, local, Fraction(5))


def test_multiplicity_checks():
    quadric = sv.ToricCone(cones.BASES[0].rays)
    m = sv.MonomialIdeal(quadric, cones.BASES[0].hilbert)
    e2 = sv.samuel_multiplicity(quadric, sv.ideal_power(m, 2))
    assert checks.check_equal("e(m^2)", e2, 2 ** 3 * 2) is None
    assert checks.check_equal("e(m^2)", e2, 2 ** 3 * 2 + 1)
    a = sv.MonomialIdeal(quadric, [(0, 2, 0), (0, 1, 1), (1, 0, 0), (2, 0, 2)])
    e_a = sv.samuel_multiplicity(quadric, a)
    e_a2 = sv.samuel_multiplicity(quadric, sv.ideal_power(a, 2))
    assert checks.check_power_law(e_a, e_a2, 3, 2) is None
    assert checks.check_power_law(e_a, e_a2, 2, 2)
    assert checks.check_power_law(e_a, e_a2, 3, e_a + 1)
    plane = sv.ToricCone([(1, 0), (0, 1)])
    b = sv.MonomialIdeal(plane, [(3, 0), (1, 1), (0, 2)])
    mixed, e_b = sv.mixed_multiplicity(plane, [b, b]), sv.samuel_multiplicity(plane, b)
    assert checks.check_mixed_diagonal(mixed, e_b, 1) is None
    assert checks.check_mixed_diagonal(mixed + 1, e_b, 1)


def test_section_checks():
    base = cones.BASES[0]
    quadric = sv.ToricCone(base.rays)
    v = (2, 1, 1)
    cartier = [cones.dot((1, 2, -1), r) for r in base.rays]
    ideal = sv.defect_ideal(quadric, sv.ToricDivisor(quadric, cartier), 1)
    assert checks.check_defect(ideal.gens, ideal.is_unit, ideal.is_m_primary, True, 0, 0) is None
    assert checks.check_defect(ideal.gens, ideal.is_unit, ideal.is_m_primary, False, 0, 0)
    odd = [1, 0, 0, 0]
    ideal = sv.defect_ideal(quadric, sv.ToricDivisor(quadric, odd), 1)
    order = min(cones.dot(g, v) for g in ideal.gens)
    assert checks.check_defect(ideal.gens, ideal.is_unit, ideal.is_m_primary, False, order, 0) is None
    assert checks.check_defect(ideal.gens, ideal.is_unit, ideal.is_m_primary, False, order, order + 1)
    assert checks.check_defect(ideal.gens, ideal.is_unit, ideal.is_m_primary, True, order, 0)

    hb = sv.hilbert_basis(quadric)
    assert checks.check_set("Hilbert basis", hb, base.hilbert) is None
    assert checks.check_set("Hilbert basis", hb, base.hilbert[1:])

    lam = (1, 0, 2, 1)
    point = tuple(sum(l * r[j] for l, r in zip(lam, base.rays)) for j in range(3))
    value, form = sv.envelope_certificate(quadric, sv.ToricDivisor(quadric, cartier), point)
    upper, exact = workloads.envelope_expectation(base.rays, cartier, lam, (1, 2, -1))
    assert checks.check_envelope(value, form, base.rays, cartier, point, upper, exact) is None
    assert checks.check_envelope(value, form, base.rays, cartier, point, upper, exact + 1)
    assert checks.check_envelope(value, form, base.rays, cartier, point, upper - 1)

    r = sv.is_numerically_cartier(quadric, sv.ToricDivisor(quadric, cartier))
    args = (r.is_numerically_cartier, r.certificate, r.witness, r.gap, base.rays, cartier, base.normals)
    assert checks.check_numcartier(*args, True, None) is None
    assert checks.check_numcartier(*args, False, None)
    bad_certificate = (r.certificate[0] + 1,) + tuple(r.certificate[1:])
    assert checks.check_numcartier(True, bad_certificate, None, None, base.rays, cartier,
                                   base.normals, True, None)
    r = sv.is_numerically_cartier(quadric, sv.ToricDivisor(quadric, odd))
    gap = workloads._envelope_sum(quadric, odd, r.witness)
    args = (r.is_numerically_cartier, r.certificate, r.witness, r.gap, base.rays, odd, base.normals)
    assert checks.check_numcartier(*args, False, gap) is None
    assert checks.check_numcartier(*args, False, gap - 1)
    assert checks.check_numcartier(*args, True, gap)

    w = (1, 2, 3)
    constant = sv.izumi_constant(quadric, v, w)
    assert checks.check_equal("Izumi", constant, checks.izumi_closed_form(base.normals, v, w)) is None
    assert checks.check_equal("Izumi", constant, checks.izumi_closed_form(base.normals, w, v))


def test_cli_check():
    payload = json.dumps({"volume": "0", "class": "klt"})

    def right(p):
        return None if p["class"] == "klt" else "wrong class"

    assert checks.check_cli(0, payload, "", 0, right) is None
    assert checks.check_cli(0, payload, "", 2, right)
    assert checks.check_cli(2, "", "error: bad input\n", 2) is None
    assert checks.check_cli(1, "", "Traceback (most recent call last):\n  ...\nKeyError: 'x'\n", 1)
    assert checks.check_cli(0, json.dumps({"volume": "0", "class": "lc_not_klt"}), "", 0, right)


def test_cli_queries_check_their_own_answers(tmp_path):
    queries = workloads.build("cli-batch", 2, rounds=1, workdir=str(tmp_path))
    assert [q.kind for q in queries].count("bad") == 1
    for query in queries:
        code, out, err = query.run()
        assert query.check((code, out, err)) is None
        wrong_code = 0 if code else 3
        assert query.check((wrong_code, out, err))


def test_tracer_restores_every_binding():
    from singvol import exactmath, toric
    before = (toric.lp_max, exactmath.lp_max, sv.ToricCone.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert toric.lp_max is not before[0] and toric.lp_max is exactmath.lp_max
    sv.hilbert_basis(sv.ToricCone(cones.BASES[0].rays))
    tracer.uninstall()
    assert (toric.lp_max, exactmath.lp_max, sv.ToricCone.__init__) == before
    per_name, layers, computed = tracing.summarize(tracer.spans)
    assert per_name["toric.ToricCone"]["calls"] == 1
    assert per_name["exactmath.lp_max"]["calls"] == 6
    assert computed["toric.lattice_box.points_computed"] > 0
