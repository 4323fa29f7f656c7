"""Seeded workloads: each is a list of queries, one client, one at a time.

A query is what a user waits for: one API call sequence, or one CLI
process.  ``run`` is timed; ``check`` is not, and judges the answer against
closed forms and identities the generator knows.  Inputs come from the seed
alone.  Sizes are drawn evenly over a fixed range in a seeded order, so each seed
sees nearly the same spread of sizes, with different shapes, which keeps
run-to-run figures comparable.

Workloads, and why each exists:

surface-mix         ResolutionGraph + volume + classify on A_n/D_n/E_n
                    chains, random trees, cusp cycles and cones over curves.
                    Nearly all time is Fraction elimination in exactmath; no
                    LP, hull or lattice code runs.
toric-multiplicity  Samuel and mixed multiplicities of m^k and of random
                    m-primary ideals on 2-D and 3-D cones.  The candidate
                    hull in samuel_multiplicity and ideal_power /
                    minimal_elements dominate; no LP runs.
toric-sections      Defect ideals, Hilbert bases, envelopes, numerically-
                    Cartier tests and Izumi constants.  lp_max dominates, in
                    lattice-box searches and in envelope solves.
cli-batch           One ``python -m singvol.cli`` process per query over
                    generated JSON files, 10% of them bad inputs that must
                    exit 2, 3 or 4 without a traceback.  The only workload
                    that measures jsonio, cli and start-up.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from singvol import cli, surface, toric

from perfbench import checks, cones
from perfbench.cones import dot

WORKLOAD_NAMES = ("surface-mix", "toric-multiplicity", "toric-sections", "cli-batch")

# Pool sizes, in rounds.  A round holds a fixed mix of query kinds, so any
# prefix of the pool has the same mix; a closed loop that outruns the pool
# wraps.
POOL_ROUNDS = {"surface-mix": 200, "toric-multiplicity": 200, "toric-sections": 200, "cli-batch": 30}
CONE_IMAGES = 4       # each 3-D base cone as given plus three seeded images
CYCLIC_CONES = 8      # seeded 2-D cyclic quotient cones per run
CYCLIC_MAX_P = 11


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _spread(rng, items):
    """Endless draws from items along a golden-ratio sequence with a seeded
    start: every prefix covers the items almost evenly, so a run that stops
    at any point has seen nearly the same mix of sizes whatever the seed."""
    items = list(items)
    x = rng.random()
    while True:
        yield items[int(x * len(items))]
        x = (x + _GOLDEN) % 1.0


_GOLDEN = (5 ** 0.5 - 1) / 2


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _lattice_combination(rng, rays, low: int, high: int):
    """A lattice point sum lam_i ray_i of the cone, with its coefficients."""
    while True:
        lam = [rng.randint(low, high) for _ in rays]
        if any(lam):
            return tuple(sum(l * r[j] for l, r in zip(lam, rays)) for j in range(len(rays[0]))), lam


# ---------------------------------------------------------------------------
# surface-mix
# ---------------------------------------------------------------------------


def du_val_spec(rng, n: int):
    """A_n, or D_n / E_n where n allows, as vertex and edge lists."""
    if n in (6, 7, 8) and rng.random() < 0.5:
        edges, count = [], 1
        for arm in {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}[n]:
            prev = 0
            for _ in range(arm):
                edges.append((prev, count, 1))
                prev, count = count, count + 1
    elif n >= 4 and rng.random() < 0.25:
        edges = [(i, i + 1, 1) for i in range(n - 3)] + [(n - 3, n - 2, 1), (n - 3, n - 1, 1)]
    else:
        edges = [(i, i + 1, 1) for i in range(n - 1)]
    return [(-2, 0)] * n, edges


def tree_spec(rng, k: int):
    """A random tree, negative definite by strict diagonal dominance at one
    vertex at least, with genera 0-2 and randomly relabelled vertices."""
    edges = [(rng.randrange(v), v, 2 if rng.random() < 0.1 else 1) for v in range(1, k)]
    degree = [0] * k
    for i, j, mult in edges:
        degree[i] += mult
        degree[j] += mult
    slack = [rng.choice((0, 1, 2)) for _ in range(k)]
    slack[rng.randrange(k)] = rng.choice((1, 2))
    genus = rng.choices((0, 1, 2), weights=(7, 2, 1), k=k)
    perm = list(range(k))
    rng.shuffle(perm)
    vertices = [None] * k
    for v in range(k):
        vertices[perm[v]] = (-(degree[v] + slack[v]), genus[v])
    return vertices, [(perm[i], perm[j], m) for i, j, m in edges]


def cusp_spec(rng, length: int):
    selfs = [-2 if rng.random() < 0.6 else rng.choice((-3, -4, -5)) for _ in range(length)]
    if all(s == -2 for s in selfs):
        selfs[rng.randrange(length)] = -3
    return [(s, 0) for s in selfs], [(i, (i + 1) % length, 1) for i in range(length)]


def cone_curve_expected(genus: int, degree: int):
    """Cone over a curve of genus g embedded in degree d: volume
    (2g - 2)^2 / d for g >= 1; klt for g = 0, lc for g = 1."""
    volume = Fraction((2 * genus - 2) ** 2, degree) if genus >= 1 else Fraction(0)
    kind = checks.KLT if genus == 0 else checks.LC_NOT_KLT if genus == 1 else checks.NOT_LC
    return volume, kind


def _surface_query(kind, vertices, edges, expected_volume=None, expected_kind=None):
    def run():
        graph = surface.ResolutionGraph(vertices, edges)
        classification = surface.classify(graph)
        return surface.volume(graph), classification.kind.value, classification.log_discrepancies

    def check(result):
        return checks.check_surface(vertices, edges, *result, expected_volume, expected_kind)

    return Query(kind, run, check)


def build_surface_mix(seed: int, rounds: int):
    rng = _rng("surface-mix", seed)
    duval_sizes = _spread(rng, range(1, 33))
    tree_sizes = _spread(rng, range(6, 31))
    cusp_lengths = _spread(rng, range(4, 25))
    genera = _spread(rng, range(0, 7))
    queries = []
    for _ in range(rounds):
        queries.append(_surface_query(
            "duval", *du_val_spec(rng, next(duval_sizes)), Fraction(0), checks.KLT))
        queries.append(_surface_query("tree", *tree_spec(rng, next(tree_sizes))))
        queries.append(_surface_query(
            "cusp", *cusp_spec(rng, next(cusp_lengths)), Fraction(0), checks.LC_NOT_KLT))
        genus, degree = next(genera), rng.randint(1, 12)
        queries.append(_surface_query(
            "cone", [(-degree, genus)], [], *cone_curve_expected(genus, degree)))
    return queries


# ---------------------------------------------------------------------------
# toric workloads: shared set-up
# ---------------------------------------------------------------------------


class ConePool:
    """The cones of one run, built once as a batch user would."""

    def __init__(self, rng):
        self.images = cones.cone_images(rng, CONE_IMAGES)
        self.built = {id(im): toric.ToricCone(im.rays) for im in self.images}
        cyclic = {}
        while len(cyclic) < CYCLIC_CONES:
            c = cones.random_cyclic_cone(rng, CYCLIC_MAX_P)
            cyclic[(c.p, c.q)] = c
        self.cyclic = sorted(cyclic.values(), key=lambda c: (c.p, c.q))
        self.built.update({id(c): toric.ToricCone(c.rays) for c in self.cyclic})
        self._rng = rng
        self._spreads = {}

    def cone(self, image):
        return self.built[id(image)]

    def _next(self, key, items):
        if key not in self._spreads:
            self._spreads[key] = _spread(self._rng, items)
        return next(self._spreads[key])

    def image(self, use: str, base=None):
        """The next 3-D cone for one kind of query, of one base or any;
        every use draws evenly over its cones."""
        images = [im for im in self.images if base is None or im.base is base]
        return self._next((use, base and base.name), images)

    def cyclic_cone(self, use: str):
        return self._next((use, "cyclic"), self.cyclic)


def random_m_primary(rng, normals, hilbert, max_power: int, extras: int):
    """Multiples of every dual ray (so the ideal is m-primary) plus a few
    random points of the dual cone, as an explicit exponent list."""
    gens = []
    for w in normals:
        c = rng.randint(1, max_power)
        gens.append(tuple(c * x for x in w))
    for _ in range(rng.randint(0, extras)):
        picks = [rng.choice(hilbert) for _ in range(rng.randint(1, 3))]
        gens.append(tuple(sum(col) for col in zip(*picks)))
    return gens


def _cyclic_normals(c):
    return ((1, 0), (c.q, c.p))


# ---------------------------------------------------------------------------
# toric-multiplicity
# ---------------------------------------------------------------------------


def _power_query(kind, cone, hilbert, k, dim, e_m):
    def run():
        m = toric.MonomialIdeal(cone, hilbert)
        return toric.samuel_multiplicity(cone, toric.ideal_power(m, k))

    return Query(kind, run, lambda e: checks.check_equal(f"e(m^{k})", e, k ** dim * e_m))


def _mixed_powers_query(cone, hilbert, orders, e_m):
    def run():
        m = toric.MonomialIdeal(cone, hilbert)
        return toric.mixed_multiplicity(cone, [toric.ideal_power(m, i) for i in orders])

    i, j, l = orders
    return Query("mixed3", run, lambda e: checks.check_equal(f"e(m^{i}, m^{j}, m^{l})", e, i * j * l * e_m))


def _random_ideal_3d_query(cone, gens, e_m):
    def run():
        a = toric.MonomialIdeal(cone, gens)
        return toric.samuel_multiplicity(cone, a), toric.samuel_multiplicity(cone, toric.ideal_power(a, 2))

    return Query("rand3", run, lambda r: checks.check_power_law(r[0], r[1], 3, e_m))


def _random_ideal_2d_query(cone, gens, e_m):
    def run():
        a = toric.MonomialIdeal(cone, gens)
        return toric.mixed_multiplicity(cone, [a, a]), toric.samuel_multiplicity(cone, a)

    return Query("rand2", run, lambda r: checks.check_mixed_diagonal(r[0], r[1], e_m))


def build_toric_multiplicity(seed: int, rounds: int):
    rng = _rng("toric-multiplicity", seed)
    pool = ConePool(rng)
    quadric, _, c3z3 = cones.BASES
    powers_3d = _spread(rng, [(b, k) for b in cones.BASES for k in range(1, b.max_power + 1)])
    powers_2d = _spread(rng, range(1, 5))
    # e(m^4) dominates a mixed multiplicity with orders (1, 1, 2), so it
    # comes once in three to keep the query cost near the others.
    mixed_orders = _spread(rng, [(1, 1, 1), (1, 1, 1), None])
    random_bases = _spread(rng, [quadric, c3z3])
    two_d = _spread(rng, ("mk2", "rand2"))
    queries = []
    for _ in range(rounds):
        base, k = next(powers_3d)
        im = pool.image("mk3", base)
        queries.append(_power_query("mk3", pool.cone(im), im.hilbert, k, 3, base.e_m))

        c = pool.cyclic_cone("2d")
        if next(two_d) == "mk2":
            queries.append(_power_query("mk2", pool.cone(c), c.hilbert, next(powers_2d), 2, c.e_m))
        else:
            gens = random_m_primary(rng, _cyclic_normals(c), c.hilbert, 4, 3)
            queries.append(_random_ideal_2d_query(pool.cone(c), gens, c.e_m))

        im = pool.image("mixed3", quadric)
        orders = next(mixed_orders) or tuple(rng.sample((1, 1, 2), 3))
        queries.append(_mixed_powers_query(pool.cone(im), im.hilbert, orders, quadric.e_m))

        # Two random 3-D ideals per round put the median query among them,
        # where the cost distribution is dense, rather than between the
        # cheap 2-D queries and the expensive 3-D ones.
        for _ in range(2):
            im = pool.image("rand3", next(random_bases))
            gens = random_m_primary(rng, im.normals, im.hilbert, 2, 3)
            queries.append(_random_ideal_3d_query(pool.cone(im), gens, im.base.e_m))
    return queries


# ---------------------------------------------------------------------------
# toric-sections
# ---------------------------------------------------------------------------


def is_cartier(rays, coeffs) -> bool:
    mu = cones.cartier_form(rays, coeffs)
    return mu is not None and all(x.denominator == 1 for x in mu)


def _envelope_sum(cone, coeffs, v):
    """env_D(v) + env_{-D}(v), with a call other than the one being checked."""
    d = toric.ToricDivisor(cone, coeffs)
    return toric.envelope_value(cone, d, v) + toric.envelope_value(cone, -d, v)


def _defect_query(cone, im, coeffs, m):
    v = tuple(sum(col) for col in zip(*im.rays))

    def run():
        return toric.defect_ideal(cone, toric.ToricDivisor(cone, coeffs), m)

    def check(ideal):
        return checks.check_defect(
            ideal.gens, ideal.is_unit, ideal.is_m_primary,
            expect_unit=is_cartier(im.rays, [m * d for d in coeffs]),
            order_at_v=min(dot(g, v) for g in ideal.gens),
            order_bound=-m * _envelope_sum(cone, coeffs, v),
        )

    return Query("defect", run, check)


def _hilbert_query(cone, im):
    return Query("hilbert", lambda: toric.hilbert_basis(cone),
                 lambda hb: checks.check_set("Hilbert basis", hb, im.hilbert))


def envelope_expectation(rays, coeffs, lam, mu):
    """Dual bound sum lam_i d_i, exact when D = <mu, .> is Cartier or the
    cone is simplicial (then v = sum lam_i ray_i is the only decomposition)."""
    upper = sum(l * Fraction(d) for l, d in zip(lam, coeffs))
    if mu is not None:
        return upper, Fraction(dot(mu, [sum(l * r[j] for l, r in zip(lam, rays)) for j in range(3)]))
    return upper, upper if len(rays) == 3 else None


def _envelope_query(cone, im, coeffs, points, mu):
    def run():
        d = toric.ToricDivisor(cone, coeffs)
        return [toric.envelope_certificate(cone, d, v) for v, _ in points]

    def check(answers):
        for (value, form), (v, lam) in zip(answers, points):
            reason = checks.check_envelope(
                value, form, im.rays, coeffs, v, *envelope_expectation(im.rays, coeffs, lam, mu))
            if reason:
                return reason
        return None

    return Query("env", run, check)


def _numcartier_query(cone, im, coeffs):
    expected = cones.cartier_form(im.rays, coeffs) is not None

    def run():
        return toric.is_numerically_cartier(cone, toric.ToricDivisor(cone, coeffs))

    def check(r):
        gap = None if r.witness is None else _envelope_sum(cone, coeffs, r.witness)
        return checks.check_numcartier(
            r.is_numerically_cartier, r.certificate, r.witness, r.gap,
            im.rays, coeffs, im.normals, expected, gap)

    return Query("numcartier", run, check)


def _izumi_query(cone, im, v, w):
    expected = checks.izumi_closed_form(im.normals, v, w)
    return Query("izumi", lambda: toric.izumi_constant(cone, v, w),
                 lambda c: checks.check_equal("Izumi constant", c, expected))


def random_divisor(rng, rays, cartier: bool, spread: int):
    """Coefficients of a Cartier divisor <mu, .> (returned with mu), or
    random integers in [-spread, spread] (returned with mu = None)."""
    if cartier:
        mu = tuple(rng.randint(-spread, spread) for _ in range(3))
        return [dot(mu, r) for r in rays], mu
    return [rng.randint(-spread, spread) for _ in rays], None


def build_toric_sections(seed: int, rounds: int):
    rng = _rng("toric-sections", seed)
    pool = ConePool(rng)
    defects = _spread(rng, [
        (b, m, t) for b in cones.BASES
        for m in range(1, b.defect_m + 1) for t in range(b.defect_shift + 1)
    ])
    env_cartier = _spread(rng, (True, False, False))
    numcartier_cartier = _spread(rng, (True, False))
    queries = []
    for _ in range(rounds):
        base, m, t = next(defects)
        im = pool.image("defect", base)
        # A Cartier divisor with coefficients up to about 20, moved off the
        # Cartier lattice by t on one ray; t*m sets the size of the output.
        mu = [rng.randint(-6, 6) for _ in range(3)]
        coeffs = [dot(mu, r) for r in im.rays]
        coeffs[0] += t
        queries.append(_defect_query(pool.cone(im), im, coeffs, m))

        im = pool.image("hilbert")
        queries.append(_hilbert_query(pool.cone(im), im))

        # Three envelope queries and two Izumi constants per round put the
        # median query among the envelopes on 3- and 4-ray cones, where the
        # cost distribution is dense, rather than between the cheap queries
        # and the 6-ray envelopes and lattice searches.
        for _ in range(3):
            im = pool.image("env")
            coeffs, mu = random_divisor(rng, im.rays, next(env_cartier), 5)
            points = [_lattice_combination(rng, im.rays, 0, 3) for _ in range(4)]
            queries.append(_envelope_query(pool.cone(im), im, coeffs, points, mu))

        im = pool.image("numcartier")
        if next(numcartier_cartier):
            mu = [Fraction(rng.randint(-8, 8), 2) for _ in range(3)]
            coeffs = [dot(mu, r) for r in im.rays]
        else:
            coeffs = [rng.randint(-4, 4) for _ in im.rays]
        queries.append(_numcartier_query(pool.cone(im), im, coeffs))

        for _ in range(2):
            im = pool.image("izumi")
            v = _lattice_combination(rng, im.rays, 1, 4)[0]
            w = _lattice_combination(rng, im.rays, 1, 4)[0]
            queries.append(_izumi_query(pool.cone(im), im, v, w))
    return queries


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def cli_env(src: str) -> dict:
    """The CLI child environment: this checkout's sources first, and byte
    code caching on, since users pay compilation once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def subprocess_runner(env: dict, cwd: str):
    def make(argv):
        def run():
            proc = subprocess.run(
                [sys.executable, "-m", "singvol.cli", *argv],
                capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr
        return run
    return make


def in_process_runner(argv):
    """cli.main in this process, as the traced run calls it."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejects its arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return run


def _vec(v) -> str:
    # Negative entries are passed as --at=-1,2,3: argparse reads a separate
    # "-1,2,3" as an option and exits 2 (a known CLI defect).
    return ",".join(str(x) for x in v)


def _graph_obj(vertices, edges):
    return {
        "vertices": [{"self": s, "genus": g} for s, g in vertices],
        "edges": [[i, j, m] for i, j, m in edges],
    }


class _CliInputs:
    def __init__(self, workdir, make_runner):
        self.workdir = workdir
        self.make_runner = make_runner
        self.files = 0
        self.queries = []

    def write(self, obj) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files:05d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            if isinstance(obj, str):
                handle.write(obj)
            else:
                json.dump(obj, handle)
        return path

    def add(self, kind, argv, expected_code, payload_check=None):
        def check(result):
            return checks.check_cli(*result, expected_code, payload_check)
        self.queries.append(Query(kind, self.make_runner(argv), check))


def build_cli_batch(seed: int, rounds: int, workdir: str, make_runner):
    rng = _rng("cli-batch", seed)
    pool = ConePool(rng)
    quadric, hexagon, c3z3 = cones.BASES
    b = _CliInputs(workdir, make_runner)
    cone_files = {id(im): b.write({"dim": 3, "rays": [list(r) for r in im.rays]}) for im in pool.images}
    cone_files.update({id(c): b.write({"dim": 2, "rays": [list(r) for r in c.rays]}) for c in pool.cyclic})
    duval_sizes = _spread(rng, range(2, 13))
    genera = _spread(rng, range(0, 5))
    cusp_lengths = _spread(rng, range(3, 9))
    mult_cases = _spread(rng, [(quadric, 1), (quadric, 2), (hexagon, 1), (c3z3, 1), (None, 2), (None, 3)])
    endo_bases = _spread(rng, (quadric, c3z3))
    validate_kinds = _spread(rng, ("graph", "cone", "ideal", "divisor"))
    bad_kinds = _spread(rng, ("malformed", "nonprimitive", "not_negdef", "outside", "mult4d", "validate_bad"))

    volume_duval = _spread(rng, (True, False))
    zariski_cone = _spread(rng, (True, False))

    def volume():
        if next(volume_duval):
            vertices, edges = du_val_spec(rng, next(duval_sizes))
            expected = (Fraction(0), checks.KLT)
        else:
            genus, degree = next(genera), rng.randint(1, 6)
            vertices, edges = [(-degree, genus)], []
            expected = cone_curve_expected(genus, degree)

        def payload(p):
            return (checks.check_equal("volume", p["volume"], expected[0])
                    or (None if p["class"] == expected[1] else f"class {p['class']} != {expected[1]}"))
        b.add("volume", ["surface", "volume", "--graph", b.write(_graph_obj(vertices, edges))], 0, payload)

    def zariski():
        if next(zariski_cone):
            genus, degree = next(genera), rng.randint(1, 6)
            vertices, edges = [(-degree, genus)], []
            expected = cone_curve_expected(genus, degree)[0]
        else:
            vertices, edges = cusp_spec(rng, next(cusp_lengths))
            expected = Fraction(0)
        b.add("zariski", ["surface", "zariski", "--graph", b.write(_graph_obj(vertices, edges))], 0,
              lambda p: checks.check_zariski(vertices, edges, p["nef_part"], p["neg_part"],
                                             p["local_volume"], expected))

    env_cartier = _spread(rng, (True, False, False))
    numcartier_cartier = _spread(rng, (True, False))

    def env():
        im = pool.image("env")
        coeffs, mu = random_divisor(rng, im.rays, next(env_cartier), 5)
        v, lam = _lattice_combination(rng, im.rays, 0, 3)
        upper, exact = envelope_expectation(im.rays, coeffs, lam, mu)
        b.add("env", ["toric", "env", "--cone", cone_files[id(im)],
                      "--divisor", b.write({"coeffs": [str(c) for c in coeffs]}), f"--at={_vec(v)}"], 0,
              lambda p: checks.check_envelope(p["value"], p["optimal_m"], im.rays, coeffs, v, upper, exact))

    def numcartier():
        im = pool.image("numcartier")
        coeffs, _ = random_divisor(rng, im.rays, next(numcartier_cartier), 4)
        expected = cones.cartier_form(im.rays, coeffs) is not None

        def payload(p):
            gap = None
            if "witness" in p:
                gap = _envelope_sum(pool.cone(im), coeffs, tuple(p["witness"]))
            return checks.check_numcartier(
                p["numerically_cartier"], p.get("certificate"), p.get("witness"), p.get("gap"),
                im.rays, coeffs, im.normals, expected, gap)
        b.add("numcartier", ["toric", "numcartier", "--cone", cone_files[id(im)],
                             "--divisor", b.write({"coeffs": [str(c) for c in coeffs]})], 0, payload)

    def izumi():
        im = pool.image("izumi")
        v = _lattice_combination(rng, im.rays, 1, 4)[0]
        w = _lattice_combination(rng, im.rays, 1, 4)[0]
        expected = checks.izumi_closed_form(im.normals, v, w)
        b.add("izumi", ["toric", "izumi", "--cone", cone_files[id(im)], f"--v={_vec(v)}", f"--w={_vec(w)}"], 0,
              lambda p: checks.check_equal("Izumi constant", p["constant"], expected))

    def mult():
        base, k = next(mult_cases)
        if base is None:
            target = pool.cyclic_cone("mult")
            dim, e_m = 2, target.e_m
        else:
            target = pool.image("mult", base)
            dim, e_m = 3, base.e_m
        ideal = b.write({"gens": [list(g) for g in cones.power_exponents(target.hilbert, k)]})
        b.add("mult", ["toric", "mult", "--cone", cone_files[id(target)], "--ideal", ideal], 0,
              lambda p: checks.check_equal(f"e(m^{k})", p["multiplicity"], k ** dim * e_m))

    def endo():
        im = pool.image("endo", next(endo_bases))
        scale = rng.choice((2, 3))
        coeffs = [rng.randint(-3, 3) for _ in im.rays]

        def payload(p):
            if p["degree"] != scale ** 3:
                return f"degree {p['degree']} != {scale ** 3}"
            if not p["passed"] or not p["checks"] or not all(c["passed"] for c in p["checks"]):
                return f"push-pull check failed: {p['checks']}"
            return None
        b.add("endo", ["endo", "check", "--cone", cone_files[id(im)],
                       "--matrix", b.write({"matrix": [[scale * int(i == j) for j in range(3)] for i in range(3)]}),
                       "--divisor", b.write({"coeffs": [str(c) for c in coeffs]})], 0, payload)

    def validate():
        kind = next(validate_kinds)
        im = pool.image("validate")
        if kind == "graph":
            vertices, edges = tree_spec(rng, rng.randint(3, 8))
            path, extra = b.write(_graph_obj(vertices, edges)), []
            expected = {"ok": True, "kind": "graph", "vertices": len(vertices), "edges": len(edges)}
        elif kind == "cone":
            path, extra = cone_files[id(im)], []
            expected = {"ok": True, "kind": "cone", "dim": 3, "rays": len(im.rays),
                        "facets": len(im.normals), "isolated_checked": True}
        elif kind == "ideal":
            path, extra = b.write({"gens": [list(g) for g in im.hilbert]}), ["--cone", cone_files[id(im)]]
            expected = {"ok": True, "kind": "ideal", "minimal_gens": len(im.hilbert), "m_primary": True}
        else:
            path = b.write({"coeffs": [str(rng.randint(-5, 5)) for _ in im.rays]})
            extra = ["--cone", cone_files[id(im)]]
            expected = {"ok": True, "kind": "divisor"}
        b.add("validate", ["validate", "--kind", kind, *extra, path], 0,
              lambda p: None if p == expected else f"validate gave {p}, expected {expected}")

    def bad():
        kind = next(bad_kinds)
        im = pool.image("bad")
        if kind == "malformed":
            b.add("bad", ["surface", "volume", "--graph", b.write('{"vertices": [{"self": -2')], 2)
        elif kind == "nonprimitive":
            rays = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
            b.add("bad", ["toric", "numcartier", "--cone", b.write({"dim": 3, "rays": rays}),
                          "--divisor", b.write({"coeffs": ["1", "0", "0"]})], 2)
        elif kind == "not_negdef":
            # A cycle of -2 curves has a singular intersection matrix.
            k = rng.randint(3, 6)
            b.add("bad", ["surface", "volume", "--graph",
                          b.write(_graph_obj([(-2, 0)] * k, [(i, (i + 1) % k, 1) for i in range(k)]))], 3)
        elif kind == "outside":
            v = tuple(-x for x in _lattice_combination(rng, im.rays, 1, 3)[0])
            b.add("bad", ["toric", "env", "--cone", cone_files[id(im)],
                          "--divisor", b.write({"coeffs": ["1"] * len(im.rays)}), f"--at={_vec(v)}"], 3)
        elif kind == "mult4d":
            rays = [[int(i == j) for j in range(4)] for i in range(4)]
            gens = [[rng.randint(1, 3) * int(i == j) for j in range(4)] for i in range(4)]
            b.add("bad", ["toric", "mult", "--cone", b.write({"dim": 4, "rays": rays}),
                          "--ideal", b.write({"gens": gens})], 4)
        else:
            outside = [[-x for x in im.hilbert[0]]]
            b.add("bad", ["validate", "--kind", "ideal", "--cone", cone_files[id(im)], b.write({"gens": outside})],
                  3, lambda p: None if p.get("ok") is False else f"validate accepted a bad ideal: {p}")

    for _ in range(rounds):
        for make in (volume, zariski, env, numcartier, izumi, mult, endo, validate, env, bad):
            make()
    return b.queries


def build(workload: str, seed: int, rounds: Optional[int] = None, workdir: Optional[str] = None,
          make_runner=None):
    """The seeded query pool of a workload, in round order."""
    rounds = POOL_ROUNDS[workload] if rounds is None else rounds
    if workload == "surface-mix":
        return build_surface_mix(seed, rounds)
    if workload == "toric-multiplicity":
        return build_toric_multiplicity(seed, rounds)
    if workload == "toric-sections":
        return build_toric_sections(seed, rounds)
    if workload == "cli-batch":
        return build_cli_batch(seed, rounds, workdir, make_runner or in_process_runner)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOAD_NAMES)}")
