"""The shared integer hull and the multiplicities built on it.

The triple-enumeration hull and Newton-region covolume, and the
combinations-with-replacement ideal power, are kept here as brute-force
references: the engines must agree with them exactly.
"""

import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import singvol.exactmath as xm
from singvol import (
    InternalError,
    MonomialIdeal,
    ToricCone,
    hilbert_basis,
    ideal_power,
    ideal_product,
    maximal_ideal,
    mixed_multiplicity,
    polytope_volume,
    samuel_multiplicity,
)
from singvol.exactmath import (
    cross3,
    det3,
    hull_facets_3d,
    order_coplanar_polygon,
)

from conftest import random_m_primary_ideal

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CONES_3D = {
    "quadric": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
    "hexagon": [(1, 0, 1), (-1, 0, 1), (1, 1, 1), (-1, -1, 1), (0, 1, 1), (0, -1, 1)],
    "c3z3": [(1, 0, 0), (0, 1, 0), (-1, -1, 3)],
}
CONES_2D = {
    "plane": [(1, 0), (0, 1)],
    "a2": [(1, 0), (-1, 3)],
    "quotient": [(0, 1), (5, -2)],
}


# -- brute-force references ----------------------------------------------------


def brute_force_facets(points):
    """Every triple of points whose plane has all points on one side."""
    pts = sorted(set(tuple(int(c) for c in p) for p in points))
    facets = {}
    for p1, p2, p3 in itertools.combinations(pts, 3):
        normal = cross3(sub(p2, p1), sub(p3, p1))
        if normal == (0, 0, 0):
            continue
        sides = [idot(sub(q, p1), normal) for q in pts]
        if all(s <= 0 for s in sides):
            outward = normal
        elif all(s >= 0 for s in sides):
            outward = tuple(-x for x in normal)
        else:
            continue
        key_normal = xm.primitive_vector(outward)
        offset = idot(p1, key_normal)
        on_plane = frozenset(q for q in pts if idot(q, key_normal) == offset)
        facets[(key_normal, offset)] = on_plane
    return [
        (normal, offset, order_coplanar_polygon(plane_pts, normal))
        for (normal, offset), plane_pts in sorted(facets.items())
    ]


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def idot(u, v):
    return sum(a * b for a, b in zip(u, v))


def brute_force_samuel(cone, ideal):
    """n! covolume from every pair (2-D) or triple (3-D) of generators that
    spans a face of the Newton polyhedron with inward normal interior to sigma."""
    gens = ideal.gens
    faces = {}
    for subset in itertools.combinations(gens, cone.dim):
        diffs = [sub(g, subset[0]) for g in subset[1:]]
        if cone.dim == 2:
            normal = (-diffs[0][1], diffs[0][0])
        else:
            normal = cross3(*diffs)
        if not any(normal):
            continue
        normal = xm.primitive_vector(normal)
        for u in (normal, tuple(-x for x in normal)):
            c = idot(u, subset[0])
            if cone.interior_contains(u) and all(idot(u, g) >= c for g in gens):
                faces[u] = [g for g in gens if idot(u, g) == c]
    total = 0
    for u, pts in faces.items():
        if cone.dim == 2:
            p, q = min(pts), max(pts)
            total += abs(p[0] * q[1] - q[0] * p[1])
        else:
            cycle = order_coplanar_polygon(pts, u)
            for t in range(1, len(cycle) - 1):
                total += abs(det3(cycle[0], cycle[t], cycle[t + 1]))
    return F(total)


def brute_force_power(a, k):
    """The ideal generated by all sums of k generators."""
    if k == 0:
        return MonomialIdeal(a.cone, [(0,) * a.cone.dim])
    sums = {
        tuple(sum(col) for col in zip(*combo))
        for combo in itertools.combinations_with_replacement(a.gens, k)
    }
    return MonomialIdeal(a.cone, sums)


# -- random inputs -------------------------------------------------------------


def random_point_set(rng):
    """Integer point sets of several degenerate kinds and general ones."""
    kind = rng.choice(["general", "box", "coplanar", "collinear", "few", "near-planar"])
    if kind == "general":
        r = rng.randint(1, 6)
        return [tuple(rng.randint(-r, r) for _ in range(3)) for _ in range(rng.randint(4, 18))]
    if kind == "box":
        # Lattice points of a box: many points on each facet plane and edge.
        sizes = [rng.randint(1, 2) for _ in range(3)]
        pts = list(itertools.product(*[range(s + 1) for s in sizes]))
        return rng.sample(pts, rng.randint(min(8, len(pts)), min(20, len(pts))))
    u = tuple(rng.randint(-3, 3) for _ in range(3))
    v = tuple(rng.randint(-3, 3) for _ in range(3))
    o = tuple(rng.randint(-3, 3) for _ in range(3))

    def at(s, t):
        return tuple(o[i] + s * u[i] + t * v[i] for i in range(3))

    if kind == "coplanar":
        return [at(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 15))]
    if kind == "collinear":
        return [at(rng.randint(-5, 5), 0) for _ in range(rng.randint(1, 8))]
    if kind == "few":
        return [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(0, 4))]
    pts = [at(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 12))]
    w = cross3(u, v)
    return pts + [tuple(o[i] + w[i] for i in range(3))]


def random_unimodular(rng, n):
    """A random matrix in GL_n(Z) with its inverse, from elementary moves."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        # a <- E a with E = 1 + c e_ij, inv <- inv E^{-1}
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
        if rng.random() < 0.3:
            a[i] = [-x for x in a[i]]
            for row in inv:
                row[i] = -row[i]
    return a, inv


def apply(m, v):
    return tuple(sum(r * x for r, x in zip(row, v)) for row in m)


def transpose(m):
    return [list(col) for col in zip(*m)]


@functools.cache
def cached_hilbert_basis(rays):
    return hilbert_basis(ToricCone(rays))


def random_ideal(rng, cone, count=None):
    """An m-primary ideal: a multiple of each dual ray plus random sums of
    Hilbert basis elements."""
    basis = cached_hilbert_basis(cone.rays)
    multiples = [rng.randint(1, 3) for _ in cone.dual_rays]
    gens = [tuple(k * x for x in w) for w, k in zip(cone.dual_rays, multiples)]
    for _ in range(rng.randint(0, 4) if count is None else count):
        picks = [rng.choice(basis) for _ in range(rng.randint(1, 3))]
        gens.append(tuple(sum(col) for col in zip(*picks)))
    return MonomialIdeal(cone, gens)


def random_cone(rng):
    table = CONES_3D if rng.random() < 0.6 else CONES_2D
    return ToricCone(table[rng.choice(sorted(table))])


# -- the hull ------------------------------------------------------------------


def assert_matches_brute_force(pts):
    facets, reference = hull_facets_3d(pts), brute_force_facets(pts)
    if facets:
        assert facets == reference, pts
    else:
        # Points that span no space have no facets; for a planar set the
        # enumeration gives its polygon on whichever sides its triples face.
        assert len({max(n, tuple(-x for x in n)) for n, _, _ in reference}) <= 1, pts


class TestHullAgainstBruteForce:
    def test_random_and_degenerate_point_sets(self):
        rng = random.Random(2024)
        for _ in range(250):
            assert_matches_brute_force(random_point_set(rng))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=16))
    def test_hypothesis_point_sets(self, pts):
        assert_matches_brute_force(pts)

    def test_cube_lattice_points(self):
        pts = list(itertools.product(range(4), repeat=3))
        facets = hull_facets_3d(pts)
        assert len(facets) == 6
        assert all(len(cycle) == 4 for _, _, cycle in facets)
        assert polytope_volume(pts, 3) == 27

    def test_degenerate_sets(self):
        assert hull_facets_3d([]) == []
        assert hull_facets_3d([(1, 2, 3), (1, 2, 3)]) == []
        assert hull_facets_3d([(0, 0, 0), (1, 1, 1), (3, 3, 3)]) == []
        assert hull_facets_3d([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0)]) == []

    def test_keep_filters_before_ordering(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        kept = hull_facets_3d(pts, keep=lambda n: sum(n) > 0)
        assert [(n, c) for n, c, _ in kept] == [((1, 1, 1), 1)]

    def test_rational_polytope_volume(self):
        pts = [(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, 1)]
        assert polytope_volume(pts, 3) == F(1, 36)
        assert polytope_volume([(0, 0), (F(1, 2), 0), (0, F(3, 2))], 2) == F(3, 8)


# -- multiplicities ------------------------------------------------------------


class TestSamuelAgainstBruteForce:
    def test_random_ideals(self):
        rng = random.Random(77)
        for _ in range(60):
            cone = random_cone(rng)
            ideal = random_ideal(rng, cone)
            assert samuel_multiplicity(cone, ideal) == brute_force_samuel(cone, ideal)

    def test_coplanar_generators(self):
        # The maximal ideal of C^3/Z_3: every generator lies on one plane.
        cone = ToricCone(CONES_3D["c3z3"])
        m = maximal_ideal(cone)
        assert {g[2] for g in m.gens} == {1}
        assert samuel_multiplicity(cone, m) == 9 == brute_force_samuel(cone, m)

    def test_large_powers(self):
        quadric = ToricCone(CONES_3D["quadric"])
        hexagon = ToricCone(CONES_3D["hexagon"])
        m6 = ideal_power(maximal_ideal(quadric), 6)
        m4 = ideal_power(maximal_ideal(hexagon), 4)
        assert (len(m6.gens), len(m4.gens)) == (49, 61)
        assert samuel_multiplicity(quadric, m6) == 432
        assert samuel_multiplicity(hexagon, m4) == 384


class TestIdealPower:
    def test_against_sums_of_generators(self):
        rng = random.Random(5)
        for _ in range(40):
            cone = random_cone(rng)
            a = random_ideal(rng, cone)
            for k in range(5):
                assert ideal_power(a, k) == brute_force_power(a, k)

    def test_plane_random_ideals(self, plane):
        rng = random.Random(6)
        for _ in range(20):
            a = random_m_primary_ideal(rng, plane)
            k = rng.randint(1, 6)
            assert ideal_power(a, k) == brute_force_power(a, k)


class TestInvariance:
    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_unimodular_change_of_coordinates(self, rng):
        cone = random_cone(rng)
        n = cone.dim
        ideals = [random_ideal(rng, cone, count=rng.randint(0, 2)) for _ in range(n)]
        a, inv = random_unimodular(rng, n)
        inv_t = transpose(inv)
        image = ToricCone([apply(a, r) for r in cone.rays])
        moved = [MonomialIdeal(image, [apply(inv_t, g) for g in i.gens]) for i in ideals]
        assert samuel_multiplicity(image, moved[0]) == samuel_multiplicity(cone, ideals[0])
        assert mixed_multiplicity(image, moved) == mixed_multiplicity(cone, ideals)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_ray_and_generator_order(self, rng):
        cone = random_cone(rng)
        ideals = [random_ideal(rng, cone, count=rng.randint(0, 2)) for _ in range(cone.dim)]
        rays = list(cone.rays)
        rng.shuffle(rays)
        shuffled = ToricCone(rays)
        moved = []
        for ideal in ideals:
            gens = list(ideal.gens)
            rng.shuffle(gens)
            moved.append(MonomialIdeal(shuffled, gens))
        assert samuel_multiplicity(shuffled, moved[0]) == samuel_multiplicity(cone, ideals[0])
        assert mixed_multiplicity(shuffled, moved) == mixed_multiplicity(cone, ideals)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_square_scales_by_two_to_the_n(self, rng):
        cone = random_cone(rng)
        a = random_ideal(rng, cone)
        assert samuel_multiplicity(cone, ideal_product(a, a)) == 2**cone.dim * samuel_multiplicity(
            cone, a
        )


# -- self-checks ---------------------------------------------------------------


class TestCompactFaceVerifier:
    def test_non_compact_face_raises(self, monkeypatch):
        hull = xm.hull_facets_3d
        monkeypatch.setattr(xm, "hull_facets_3d", lambda pts, keep=None: hull(pts))
        quadric = ToricCone(CONES_3D["quadric"])
        with pytest.raises(InternalError, match="not a compact face"):
            samuel_multiplicity(quadric, maximal_ideal(quadric))

    def test_generator_below_face_raises(self, monkeypatch):
        hull = xm.convex_hull_2d
        plane = ToricCone(CONES_2D["plane"])
        ideal = MonomialIdeal(plane, [(3, 0), (1, 1), (0, 3)])

        def without_corner(pts):
            return [p for p in hull(pts) if p != (1, 1)]

        monkeypatch.setattr(xm, "convex_hull_2d", without_corner)
        with pytest.raises(InternalError, match="not a compact face"):
            samuel_multiplicity(plane, ideal)

    @pytest.mark.parametrize("dropped", range(4))
    def test_missing_face_raises(self, monkeypatch, dropped):
        # Four compact faces meet at (1, 1, 1); losing any one leaves a rim
        # edge inside the dual cone.
        quadric = ToricCone(CONES_3D["quadric"])
        gens = [tuple(3 * x for x in w) for w in quadric.dual_rays] + [(1, 1, 1)]
        ideal = MonomialIdeal(quadric, gens)
        assert samuel_multiplicity(quadric, ideal) == 36
        hull = xm.hull_facets_3d

        def without_face(pts, keep=None):
            facets = hull(pts, keep)
            assert len(facets) == 4
            return facets[:dropped] + facets[dropped + 1:]

        monkeypatch.setattr(xm, "hull_facets_3d", without_face)
        with pytest.raises(InternalError, match="do not cover"):
            samuel_multiplicity(quadric, ideal)

    def test_missing_edge_raises(self, monkeypatch):
        plane = ToricCone(CONES_2D["plane"])
        ideal = MonomialIdeal(plane, [(4, 0), (2, 1), (0, 3)])
        assert samuel_multiplicity(plane, ideal) == 10
        interior = ToricCone.interior_contains

        def without_diagonal(cone, v):
            # Rejects the normal of the edge from (2, 1) to (0, 3).
            return interior(cone, v) and v[0] != v[1]

        monkeypatch.setattr(ToricCone, "interior_contains", without_diagonal)
        with pytest.raises(InternalError, match="do not cover"):
            samuel_multiplicity(plane, ideal)

    def test_checks_survive_optimize_flag(self):
        script = (
            "import singvol.exactmath as xm\n"
            "from singvol import InternalError, ToricCone, maximal_ideal, samuel_multiplicity\n"
            "hull = xm.hull_facets_3d\n"
            "xm.hull_facets_3d = lambda pts, keep=None: hull(pts)\n"
            "cone = ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])\n"
            "try:\n"
            "    samuel_multiplicity(cone, maximal_ideal(cone))\n"
            "except InternalError:\n"
            "    print('checked')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.stdout.strip() == "checked", proc.stderr
