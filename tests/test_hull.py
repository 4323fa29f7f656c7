"""The shared integer hull and the multiplicities built on it.

The triple-enumeration hull and Newton-region covolume, the
combinations-with-replacement ideal power, the all-pairs minimal elements,
the 2^n - 1 subset polarization of mixed multiplicities, and the 2-D hull
and 3x3 determinant over Fractions are kept here as references: the
engines must agree with them exactly.
"""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import singvol.exactmath as xm
import singvol.toric as toric
from singvol import (
    DomainError,
    InputError,
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
    convex_hull_2d,
    cross3,
    det3,
    hull_facets_3d,
    order_coplanar_polygon,
)
from singvol.toric import minimal_elements

from conftest import CONES_3D, apply, random_m_primary_ideal, random_unimodular, transpose

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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


def brute_force_minimal(cone, points):
    """Points u with no other point u' of the set such that u - u' lies in
    the dual cone."""
    pts = set(points)
    return {
        u for u in pts if not any(w != u and cone.dual_contains(sub(u, w)) for w in pts)
    }


def fraction_cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def fraction_hull_2d(points):
    """Andrew's monotone chain with every coordinate made a Fraction, as
    exactmath.convex_hull_2d computed it before it kept integers."""
    pts = sorted(set(tuple(F(c) for c in p) for p in points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and fraction_cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and fraction_cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def fraction_det3(a, b, c):
    """The determinant as the Fraction dot product of a with b x c, as
    exactmath.det3 computed it before it kept integers."""
    return xm.dot(a, cross3(b, c))


def brute_force_power(a, k):
    """The ideal generated by all sums of k generators."""
    if k == 0:
        return MonomialIdeal(a.cone, [(0,) * a.cone.dim])
    sums = {
        tuple(sum(col) for col in zip(*combo))
        for combo in itertools.combinations_with_replacement(a.gens, k)
    }
    return MonomialIdeal(a.cone, sums)


def subset_mixed_multiplicity(cone, ideals):
    """(1/n!) sum over the nonempty subsets S of the arguments of
    (-1)^(n-|S|) e(prod_S), one product and one multiplicity per subset."""
    n = cone.dim
    total = F(0)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            product = ideals[subset[0]]
            for i in subset[1:]:
                product = ideal_product(product, ideals[i])
            total += (-1) ** (n - size) * samuel_multiplicity(cone, product)
    return total / math.factorial(n)


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


def random_plane_points(rng):
    """2-D integer point sets: general, collinear, with repeats, or at most
    two points."""
    kind = rng.choice(["general", "collinear", "repeats", "few"])
    if kind == "general":
        r = rng.randint(1, 6)
        return [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(rng.randint(3, 20))]
    if kind == "collinear":
        o = (rng.randint(-3, 3), rng.randint(-3, 3))
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        steps = [rng.randint(-4, 4) for _ in range(rng.randint(1, 8))]
        return [(o[0] + t * d[0], o[1] + t * d[1]) for t in steps]
    if kind == "repeats":
        base = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
        return [rng.choice(base) for _ in range(rng.randint(2, 12))]
    return [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]


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


class TestHull2dAgainstFractions:
    """The 2-D hull and det3 compute on the caller's numbers; they must give
    what they gave with every coordinate made a Fraction."""

    def test_integer_point_sets(self):
        rng = random.Random(606)
        for _ in range(400):
            pts = random_plane_points(rng)
            hull = convex_hull_2d(pts)
            assert hull == fraction_hull_2d(pts), pts
            assert all(type(c) is int for p in hull for c in p), pts

    def test_fraction_point_sets(self):
        rng = random.Random(607)
        for _ in range(200):
            den = rng.randint(1, 4)
            pts = [tuple(F(c, den) for c in p) for p in random_plane_points(rng)]
            hull = convex_hull_2d(pts)
            assert hull == fraction_hull_2d(pts), pts
            assert all(type(c) is F for p in hull for c in p), pts

    def test_points_as_lists_from_an_iterator(self):
        pts = [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [2, 0], [1, 0]]
        assert convex_hull_2d(iter(pts)) == [(0, 0), (2, 0), (2, 2), (0, 2)]

    def test_det3(self):
        rng = random.Random(608)
        for _ in range(300):
            rows = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)]
            value = det3(*rows)
            assert type(value) is int
            assert value == fraction_det3(*rows) == xm.determinant(rows)
            rational = [tuple(F(x, rng.randint(1, 5)) for x in row) for row in rows]
            assert det3(*rational) == fraction_det3(*rational) == xm.determinant(rational)

    def test_volumes_and_multiplicities_unchanged(self, monkeypatch):
        rng = random.Random(609)
        polytopes = [
            ([(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, 1)], 3),
            ([(0, 0), (F(1, 2), 0), (0, F(3, 2))], 2),
        ]
        for _ in range(60):
            dim, den = rng.choice([2, 3]), rng.randint(1, 3)
            pts = [
                tuple(F(rng.randint(-4, 4), den) for _ in range(dim))
                for _ in range(rng.randint(1, 10))
            ]
            polytopes.append((pts, dim))
        ideals = []
        for _ in range(40):
            cone = random_cone(rng)
            ideals.append((cone, [random_ideal(rng, cone) for _ in range(cone.dim)]))

        def evaluate():
            values = [polytope_volume(pts, dim) for pts, dim in polytopes]
            for cone, group in ideals:
                values += [samuel_multiplicity(cone, group[0]), mixed_multiplicity(cone, group)]
            return values

        integer = evaluate()
        monkeypatch.setattr(xm, "convex_hull_2d", fraction_hull_2d)
        monkeypatch.setattr(xm, "det3", fraction_det3)
        assert integer == evaluate()
        assert all(type(v) is F for v in integer)


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


TEISSIER_CONES = {**CONES_3D, "a2": CONES_2D["a2"], "quotient": CONES_2D["quotient"]}


class TestTeissierInequalities:
    """Teissier (1978): for m-primary a, b the mixed multiplicities
    e_i = e(a^[d-i], b^[i]) are log-concave, and e(ab) = sum C(d, i) e_i."""

    @pytest.mark.parametrize("name", sorted(TEISSIER_CONES))
    def test_random_pairs(self, name):
        cone = ToricCone(TEISSIER_CONES[name])
        d = cone.dim
        rng = random.Random(1978)
        for _ in range(24):
            a, b = random_ideal(rng, cone), random_ideal(rng, cone)
            e = [mixed_multiplicity(cone, [a] * (d - i) + [b] * i) for i in range(d + 1)]
            assert (e[0], e[d]) == (samuel_multiplicity(cone, a), samuel_multiplicity(cone, b))
            for i in range(1, d):
                assert e[i] ** 2 <= e[i - 1] * e[i + 1]
            assert samuel_multiplicity(cone, ideal_product(a, b)) == sum(
                math.comb(d, i) * e[i] for i in range(d + 1)
            )


MIXED_PATTERNS = {2: ["aa", "ab"], 3: ["aaa", "aab", "aba", "baa", "abc"]}


def pattern_ideals(rng, cone, pattern):
    """Arguments following a pattern such as "aab": equal letters are equal
    ideals, built as separate objects; distinct letters are random ideals."""
    drawn = {}
    for letter in pattern:
        drawn.setdefault(letter, random_ideal(rng, cone))
    return [MonomialIdeal(cone, drawn[letter].gens) for letter in pattern]


def counting(monkeypatch, *names):
    """Count the calls mixed_multiplicity makes to the named toric functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(toric, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(toric, name, counted)
    return calls


class TestMixedPolarization:
    """mixed_multiplicity gathers the subsets of equal product: it must give
    the subset loop's value with fewer products and multiplicities."""

    @pytest.mark.parametrize(
        "name, pattern",
        [(name, p) for name in sorted(CONES_2D) for p in MIXED_PATTERNS[2]]
        + [(name, p) for name in sorted(CONES_3D) for p in MIXED_PATTERNS[3]],
    )
    def test_matches_subset_loop(self, name, pattern):
        cone = ToricCone({**CONES_2D, **CONES_3D}[name])
        rng = random.Random(f"{name}-{pattern}")
        for _ in range(6):
            ideals = pattern_ideals(rng, cone, pattern)
            assert mixed_multiplicity(cone, ideals) == subset_mixed_multiplicity(cone, ideals)

    def test_argument_order(self):
        rng = random.Random(14)
        for name in sorted(CONES_3D):
            cone = ToricCone(CONES_3D[name])
            for pattern in ("aab", "abc"):
                ideals = pattern_ideals(rng, cone, pattern)
                values = {mixed_multiplicity(cone, list(p)) for p in itertools.permutations(ideals)}
                assert len(values) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(MIXED_PATTERNS[3]))
    def test_unimodular_images_with_shuffled_rays(self, rng, pattern):
        cone = ToricCone(CONES_3D[rng.choice(sorted(CONES_3D))])
        ideals = pattern_ideals(rng, cone, pattern)
        a, inv = random_unimodular(rng, 3)
        rays = [apply(a, r) for r in cone.rays]
        rng.shuffle(rays)
        image = ToricCone(rays)
        inv_t = transpose(inv)
        moved = [MonomialIdeal(image, [apply(inv_t, g) for g in i.gens]) for i in ideals]
        assert mixed_multiplicity(image, moved) == mixed_multiplicity(cone, ideals)

    def test_diagonal_is_samuel_multiplicity(self):
        rng = random.Random(15)
        for _ in range(20):
            cone = random_cone(rng)
            a = random_ideal(rng, cone)
            assert mixed_multiplicity(cone, [a] * cone.dim) == samuel_multiplicity(cone, a)

    @pytest.mark.parametrize("name", sorted(CONES_3D))
    def test_powers_of_the_maximal_ideal(self, name):
        cone = ToricCone(CONES_3D[name])
        m = maximal_ideal(cone)
        e_m = samuel_multiplicity(cone, m)
        for orders in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 2), (1, 2, 3)]:
            ideals = [ideal_power(m, i) for i in orders]
            assert mixed_multiplicity(cone, ideals) == math.prod(orders) * e_m

    def test_ideals_on_different_cones_raise(self):
        quadric, c3z3 = ToricCone(CONES_3D["quadric"]), ToricCone(CONES_3D["c3z3"])
        mq, mc = maximal_ideal(quadric), maximal_ideal(c3z3)
        for ideals in ([mq, mq, mc], [mc, mq, mq], [mc, mc, mc]):
            with pytest.raises(InputError, match="does not live on the given cone"):
                mixed_multiplicity(quadric, ideals)

    def test_relabelled_cone_is_the_same_cone(self):
        quadric = ToricCone(CONES_3D["quadric"])
        relabelled = ToricCone(CONES_3D["quadric"][::-1])
        m = maximal_ideal(quadric)
        ideals = [m, MonomialIdeal(relabelled, m.gens), ideal_power(m, 2)]
        assert mixed_multiplicity(quadric, ideals) == 4

    def test_non_m_primary_ideal_raises(self):
        plane = ToricCone(CONES_2D["plane"])
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        for ideals in ([a, MonomialIdeal(plane, [(1, 0)])], [MonomialIdeal(plane, [(0, 1)])] * 2):
            with pytest.raises(DomainError, match="m-primary"):
                mixed_multiplicity(plane, ideals)

    @pytest.mark.parametrize(
        "pattern, samuel_calls, products",
        [("aaa", 3, 2), ("aab", 5, 3), ("abc", 7, 4), ("aa", 2, 1), ("ab", 3, 1)],
    )
    def test_work_counts(self, monkeypatch, pattern, samuel_calls, products):
        cone = ToricCone(CONES_2D["plane"] if len(pattern) == 2 else CONES_3D["hexagon"])
        ideals = pattern_ideals(random.Random(pattern), cone, pattern)
        expected = subset_mixed_multiplicity(cone, ideals)
        calls = counting(monkeypatch, "samuel_multiplicity", "ideal_product")
        assert mixed_multiplicity(cone, ideals) == expected
        assert calls == {"samuel_multiplicity": samuel_calls, "ideal_product": products}

    def test_equal_products_share_one_multiplicity(self, monkeypatch):
        # m.m and m^2 are one ideal: e(m, m, m^2) takes e(m), e(m^2),
        # e(m^3) and e(m^4), where the subset loop takes seven.
        quadric = ToricCone(CONES_3D["quadric"])
        m = maximal_ideal(quadric)
        ideals = [m, m, ideal_power(m, 2)]
        calls = counting(monkeypatch, "samuel_multiplicity", "ideal_product")
        assert mixed_multiplicity(quadric, ideals) == 4
        assert calls == {"samuel_multiplicity": 4, "ideal_product": 3}


class TestMinimalElementsAgainstBruteForce:
    def test_random_sets_with_repeats(self):
        rng = random.Random(1975)
        for _ in range(150):
            cone = random_cone(rng)
            pool = [tuple(rng.randint(-4, 6) for _ in range(cone.dim)) for _ in range(rng.randint(1, 12))]
            points = [rng.choice(pool) for _ in range(rng.randint(1, 25))]
            kept = minimal_elements(cone, points)
            assert len(kept) == len(set(kept))
            assert set(kept) == brute_force_minimal(cone, points), points

    def test_unimodular_images(self):
        rng = random.Random(1976)
        for _ in range(60):
            cone = random_cone(rng)
            points = [tuple(rng.randint(-4, 6) for _ in range(cone.dim)) for _ in range(rng.randint(1, 20))]
            a, inv = random_unimodular(rng, cone.dim)
            image = ToricCone([apply(a, r) for r in cone.rays])
            inv_t = transpose(inv)
            moved = [apply(inv_t, u) for u in points]
            kept = set(minimal_elements(image, moved))
            assert kept == brute_force_minimal(image, moved)
            assert kept == {apply(inv_t, u) for u in minimal_elements(cone, points)}


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


class TestMixedIntegralityCheck:
    """The polarized sum of an m-primary mixed multiplicity is a positive
    multiple of n!; a multiplicity off on one product breaks that."""

    @staticmethod
    def off_on(monkeypatch, target, shift):
        real = toric.samuel_multiplicity

        def shifted(cone, a):
            return real(cone, a) + (shift(cone) if a == target else 0)

        monkeypatch.setattr(toric, "samuel_multiplicity", shifted)

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_off_by_one_raises(self, monkeypatch, power):
        cone = ToricCone(CONES_3D["hexagon"])
        a = random_ideal(random.Random(power), cone)
        self.off_on(monkeypatch, ideal_power(a, power), lambda cone: 1)
        with pytest.raises(InternalError, match="positive multiple of 3!"):
            mixed_multiplicity(cone, [a, a, a])

    def test_off_by_one_on_a_product_of_two_raises(self, monkeypatch):
        plane = ToricCone(CONES_2D["plane"])
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        b = MonomialIdeal(plane, [(2, 0), (0, 1)])
        self.off_on(monkeypatch, ideal_product(a, b), lambda cone: 1)
        with pytest.raises(InternalError, match="positive multiple of 2!"):
            mixed_multiplicity(plane, [a, b])

    def test_nonpositive_sum_raises(self, monkeypatch):
        # e(a, b) = (e(ab) - e(a) - e(b)) / 2 = 1 here; an e(ab) lowered by
        # 2 leaves a multiple of 2! that is not positive.
        plane = ToricCone(CONES_2D["plane"])
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        b = MonomialIdeal(plane, [(2, 0), (0, 1)])
        self.off_on(monkeypatch, ideal_product(a, b), lambda cone: -2)
        with pytest.raises(InternalError, match="polarized sum 0 "):
            mixed_multiplicity(plane, [a, b])

    def test_check_survives_optimize_flag(self):
        script = (
            "import singvol.toric as toric\n"
            "from singvol import InternalError, MonomialIdeal, ToricCone, mixed_multiplicity\n"
            "real = toric.samuel_multiplicity\n"
            "toric.samuel_multiplicity = lambda cone, a: real(cone, a) + (len(a.gens) == 3)\n"
            "plane = ToricCone([(1, 0), (0, 1)])\n"
            "a = MonomialIdeal(plane, [(1, 0), (0, 2)])\n"
            "b = MonomialIdeal(plane, [(2, 0), (0, 1)])\n"
            "try:\n"
            "    mixed_multiplicity(plane, [a, b])\n"
            "except InternalError:\n"
            "    print('checked')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.stdout.strip() == "checked", proc.stderr


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
