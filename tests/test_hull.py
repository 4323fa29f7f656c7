"""The shared integer hull and the multiplicities built on it.

The engines must agree exactly with the references in ``reference.py``:
the triple-enumeration hull and Newton-region covolume, the
combinations-with-replacement ideal power, the all-pairs minimal elements,
the 2^n - 1 subset polarization of mixed multiplicities, and the 2-D hull
and 3x3 determinant over Fractions.
"""

import functools
import itertools
import math
import random
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
    samuel_multiplicity,
)
from singvol.exactmath import convex_hull_2d, cross3, det3, hull_facets
from singvol.oracle import colength
from singvol.toric import minimal_elements

from conftest import CONES_3D, apply, random_m_primary_ideal, random_unimodular, run_python, transpose
from reference import (
    brute_force_facets, brute_force_minimal, brute_force_power, brute_force_samuel,
    corner_fan_volume, fraction_det3, fraction_hull_2d, idot, lattice_volume, sub,
    subset_mixed_multiplicity,
)


CONES_2D = {
    "plane": [(1, 0), (0, 1)],
    "a2": [(1, 0), (-1, 3)],
    "quotient": [(0, 1), (5, -2)],
}


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
    multiples = [rng.randint(1, 3) for _ in cone.facet_normals]
    gens = [tuple(k * x for x in w) for w, k in zip(cone.facet_normals, multiples)]
    for _ in range(rng.randint(0, 4) if count is None else count):
        picks = [rng.choice(basis) for _ in range(rng.randint(1, 3))]
        gens.append(tuple(sum(col) for col in zip(*picks)))
    return MonomialIdeal(cone, gens)


def random_cone(rng):
    table = CONES_3D if rng.random() < 0.6 else CONES_2D
    return ToricCone(table[rng.choice(sorted(table))])


# -- the hull ------------------------------------------------------------------


def ridges(simplices):
    """The ridges of the simplices counted mod 2, each as a set of points."""
    cells = set()
    for simplex in simplices:
        cells ^= set(map(frozenset, itertools.combinations(simplex, len(simplex) - 1)))
    return cells


def corner_boundary(corners, vertices):
    """The boundary of a facet read off its corners: the empty cell of a
    point, the two ends of an edge, the edges of a polygon's corner cycle
    split at the given vertices that lie on them."""
    if len(corners[0]) < 3:
        return set(map(frozenset, itertools.combinations(corners, len(corners[0]) - 1)))
    cells = set()
    for c, d in zip(corners, corners[1:] + corners[:1]):
        step = sub(d, c)
        on = sorted(
            (idot(sub(p, c), step), p) for p in vertices
            if not any(cross3(step, sub(p, c))) and 0 <= idot(sub(p, c), step) <= idot(step, step)
        )
        cells |= {frozenset((p, q)) for (_, p), (_, q) in zip(on, on[1:])}
    return cells


def turns_outward(normal, simplex):
    """Whether a simplex runs counter-clockwise seen from outside: its edge
    along the normal turned a quarter left in 2-D, its triangle's cross
    product along the normal in 3-D."""
    if len(simplex) == 1:
        return True
    if len(simplex) == 2:
        return idot(sub(simplex[1], simplex[0]), (-normal[1], normal[0])) > 0
    a, b, c = simplex
    return idot(normal, cross3(sub(b, a), sub(c, a))) > 0


def assert_matches_brute_force(pts):
    """The facets have the enumerated planes, and each facet's simplices lie
    on its plane, turn outward, cover its corners, sum to its corner fan's
    |det| and have its corner boundary, split at collinear points, as their
    ridges mod 2."""
    facets, reference = hull_facets(pts), brute_force_facets(pts)
    if not facets:
        # Points that span no space have no facets; for a planar set the
        # enumeration gives its polygon on whichever sides its triples face.
        assert len({max(n, tuple(-x for x in n)) for n, _, _ in reference}) <= 1, pts
        return
    assert [(n, c) for n, c, _ in facets] == [(n, c) for n, c, _ in reference], pts
    for facet, (_, _, corners) in zip(facets, reference):
        normal, offset, simplices = facet
        vertices = {p for simplex in simplices for p in simplex}
        assert all(idot(normal, p) == offset for p in vertices), pts
        assert all(turns_outward(normal, simplex) for simplex in simplices), pts
        assert set(corners) <= vertices, pts
        assert xm.fan_volume([facet]) == corner_fan_volume(corners), pts
        assert ridges(simplices) == corner_boundary(corners, vertices), pts


def unimodular_image(rng, pts):
    """The points moved by a random matrix of GL_n(Z), n their dimension."""
    n = len(pts[0]) if pts else 3
    a = [[rng.choice([-1, 1])]] if n == 1 else random_unimodular(rng, n)[0]
    return [apply(a, p) for p in pts]


class TestHullAgainstBruteForce:
    def test_random_and_degenerate_point_sets(self):
        rng = random.Random(2024)
        for _ in range(250):
            pts = random_point_set(rng)
            assert_matches_brute_force(pts)
            assert_matches_brute_force(unimodular_image(rng, pts))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=16))
    def test_hypothesis_point_sets(self, pts):
        assert_matches_brute_force(pts)

    def test_line_and_plane_point_sets(self):
        rng = random.Random(2025)
        for _ in range(250):
            pts = random_plane_points(rng)
            assert_matches_brute_force(pts)
            assert_matches_brute_force(unimodular_image(rng, pts))
            r = rng.randint(1, 6)
            line = [(rng.randint(-r, r),) for _ in range(rng.randint(0, 6))]
            assert_matches_brute_force(line)
            assert_matches_brute_force(unimodular_image(rng, line))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.lists(st.tuples(st.integers(-5, 5)), max_size=8),
                     st.lists(st.tuples(*[st.integers(-3, 3)] * 2), max_size=16)))
    def test_hypothesis_line_and_plane_point_sets(self, pts):
        assert_matches_brute_force(pts)

    def test_simplices_of_a_segment_and_a_triangle(self):
        assert hull_facets([(4,), (-2,), (1,)]) == [((-1,), 2, [((-2,),)]), ((1,), 4, [((4,),)])]
        assert hull_facets([(0, 0), (2, 0), (0, 4), (1, 0)]) == [
            ((-1, 0), 0, [((0, 4), (0, 0))]),
            ((0, -1), 0, [((0, 0), (2, 0))]),
            ((2, 1), 4, [((2, 0), (0, 4))]),
        ]

    def test_four_dimensional_points_raise(self):
        with pytest.raises(xm.UnsupportedDimensionError):
            hull_facets([(0, 0, 0, 0), (1, 0, 0, 0)])

    @pytest.mark.parametrize("pts", [
        [(0, 0), (2, 0), (0, 2), (1,)],
        [(0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(0, 0, 0), (1, 0)],
    ])
    def test_points_of_mixed_dimension_raise(self, pts):
        with pytest.raises(InputError, match="different dimensions"):
            hull_facets(pts)

    def test_cube_lattice_points(self):
        # Each face of the cube [0, 3]^3 has twice its area, 18, in its
        # triangles, whatever lattice points of the face they use.
        pts = list(itertools.product(range(4), repeat=3))
        facets = hull_facets(pts)
        assert len(facets) == 6
        for normal, _, triangles in facets:
            assert sum(idot(normal, cross3(sub(b, a), sub(c, a))) for a, b, c in triangles) == 18
        assert lattice_volume(pts) == 6 * 27

    def test_degenerate_sets(self):
        assert hull_facets([]) == []
        assert hull_facets([(3,), (3,)]) == []
        assert hull_facets([(1, 2), (1, 2)]) == []
        assert hull_facets([(0, 0), (1, 1), (3, 3)]) == []
        assert hull_facets([(1, 2, 3), (1, 2, 3)]) == []
        assert hull_facets([(0, 0, 0), (1, 1, 1), (3, 3, 3)]) == []
        assert hull_facets([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0)]) == []

    def test_each_facet_of_a_tetrahedron_is_one_triangle(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        facets = hull_facets(pts)
        assert [(n, c) for n, c, _ in facets] == [
            ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)]
        assert all(len(triangles) == 1 for _, _, triangles in facets)
        assert set(facets[-1][2][0]) == set(pts[1:])

    def test_points_are_the_only_argument(self):
        with pytest.raises(TypeError):
            hull_facets([(0,), (1,)], lambda normal: True)

    def test_corner_simplex_volumes(self):
        # n! times the volume of a corner simplex is the product of its legs.
        assert lattice_volume([(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 6)]) == 36
        assert lattice_volume([(0, 0), (1, 0), (0, 3)]) == 3


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
        polytopes = [[(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 6)], [(0, 0), (1, 0), (0, 3)]]
        for _ in range(60):
            dim = rng.choice([2, 3])
            pts = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(1, 10))]
            polytopes.append(pts)
        ideals = []
        for _ in range(40):
            cone = random_cone(rng)
            ideals.append((cone, [random_ideal(rng, cone) for _ in range(cone.dim)]))

        def evaluate():
            values = [lattice_volume(pts) for pts in polytopes]
            for cone, group in ideals:
                values += [samuel_multiplicity(cone, group[0]), mixed_multiplicity(cone, group)]
            return values

        integer = evaluate()
        # hull_facets reduces each edge normal by an integer gcd, so the
        # corners of the Fraction hull, all integral here, come back as ints.
        monkeypatch.setattr(
            xm, "convex_hull_2d", lambda pts: [xm.integer_vector(p) for p in fraction_hull_2d(pts)]
        )
        monkeypatch.setattr(xm, "det3", fraction_det3)
        assert integer == evaluate()
        assert all(type(v) is int for v in integer[:len(polytopes)])
        assert all(type(v) is F for v in integer[len(polytopes):])


# -- multiplicities ------------------------------------------------------------


# (2, 2, 0) halves the compact edge from (4, 0, 0) to (0, 4, 0) and (1, 1, 2)
# lies inside the compact facet x + y + z = 4: neither is a corner.
ORTHANT_IDEAL = MonomialIdeal(
    ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (1, 1, 2)],
)


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

    def test_generators_inside_a_compact_edge_and_facet(self):
        a = ORTHANT_IDEAL
        points = list(a.gens) + [(8, 0, 0), (0, 8, 0), (0, 0, 8)]
        [(_, _, triangles)] = [f for f in hull_facets(points) if f[0] == (-1, -1, -1)]
        assert {(2, 2, 0), (1, 1, 2)} <= {p for triangle in triangles for p in triangle}
        assert samuel_multiplicity(a.cone, a) == 64 == brute_force_samuel(a.cone, a)
        a2 = ideal_power(a, 2)
        assert samuel_multiplicity(a.cone, a2) == 512 == brute_force_samuel(a.cone, a2)

    def test_large_powers(self):
        quadric = ToricCone(CONES_3D["quadric"])
        hexagon = ToricCone(CONES_3D["hexagon"])
        m6 = ideal_power(maximal_ideal(quadric), 6)
        m4 = ideal_power(maximal_ideal(hexagon), 4)
        assert (len(m6.gens), len(m4.gens)) == (49, 61)
        assert samuel_multiplicity(quadric, m6) == 432
        assert samuel_multiplicity(hexagon, m4) == 384


TEISSIER_CONES = {**CONES_3D, "a2": CONES_2D["a2"], "quotient": CONES_2D["quotient"]}


class TestOneDimensional:
    """On a line the Newton region is the segment from 0 to the generator
    nearest 0, so e(a) is its length and the colength of a."""

    @pytest.mark.parametrize("ray", [1, -1])
    def test_random_ideals(self, ray):
        rng = random.Random(78 + ray)
        line = ToricCone([(ray,)])
        for _ in range(40):
            gens = [(ray * rng.randint(1, 9),) for _ in range(rng.randint(1, 4))]
            a = MonomialIdeal(line, gens)
            e = min(abs(g[0]) for g in gens)
            assert samuel_multiplicity(line, a) == e == brute_force_samuel(line, a)
            assert mixed_multiplicity(line, [a]) == e == colength(line, a, 1)
            assert samuel_multiplicity(line, ideal_power(a, 3)) == 3 * e


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


def graded_minimal(cone, points):
    """brute_force_minimal's set in the order minimal_elements returns it:
    by the total pairing against the rays, then by the point."""
    return tuple(sorted(brute_force_minimal(cone, points),
                        key=lambda u: (sum(idot(u, ray) for ray in cone.rays), u)))


class TestMinimalElementsAgainstBruteForce:
    def test_random_sets_with_repeats(self):
        rng = random.Random(1975)
        for _ in range(150):
            cone = random_cone(rng)
            pool = [tuple(rng.randint(-4, 6) for _ in range(cone.dim)) for _ in range(rng.randint(1, 12))]
            points = [rng.choice(pool) for _ in range(rng.randint(1, 25))]
            assert minimal_elements(cone, points) == graded_minimal(cone, points), points

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


class TestMinimalElementsOrder:
    """The exact tuple, not only the set: ideal generators and CLI JSON list
    the minimal elements in this order."""

    def test_shuffled_and_duplicated_input(self):
        rng = random.Random(1978)
        for _ in range(60):
            cone = random_cone(rng)
            points = [tuple(rng.randint(-3, 5) for _ in range(cone.dim)) for _ in range(rng.randint(1, 15))]
            expected = minimal_elements(cone, points)
            for _ in range(3):
                again = points + [rng.choice(points) for _ in range(rng.randint(1, 10))]
                rng.shuffle(again)
                assert minimal_elements(cone, again) == expected
                assert minimal_elements(cone, iter(again)) == expected

    def test_sums_of_generators(self):
        # ideal_product's input: every sum, most of them dominated.
        rng = random.Random(1979)
        for _ in range(30):
            cone = random_cone(rng)
            a, b = random_ideal(rng, cone), random_ideal(rng, cone)
            sums = [tuple(map(sum, zip(g, h))) for g in a.gens for h in b.gens]
            assert minimal_elements(cone, sums) == graded_minimal(cone, sums)

    def test_section_points_with_negative_pairings(self):
        # module_generators searches a slab whose points pair negatively
        # with some rays when a bound is negative; they lie outside the dual
        # cone, and the order is still the dual-cone order.
        rng = random.Random(1980)
        negative = 0
        for _ in range(25):
            cone = random_cone(rng)
            bounds = [rng.randint(-3, 1) for _ in cone.rays]
            slab = toric._section_slab(cone, bounds)
            negative += sum(any(idot(u, ray) < 0 for ray in cone.rays) for u in slab)
            expected = graded_minimal(cone, slab)
            assert minimal_elements(cone, slab) == expected
            assert toric.module_generators(cone, bounds) == expected
        assert negative > 100

    @pytest.mark.parametrize("where", [0, 1, 4])
    def test_wrong_length_point_raises_wherever_it_is(self, where):
        quadric = ToricCone(CONES_3D["quadric"])
        points = [(1, 0, 0), (0, 1, 0), (2, 2, 2), (0, 0, 1)]
        for bad in [(1, 0), (1, 0, 0, 0), ()]:
            with pytest.raises(InputError, match="does not have dimension 3"):
                minimal_elements(quadric, points[:where] + [bad] + points[where:])


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
        proc = run_python(script, "-O")
        assert proc.stdout.strip() == "checked", proc.stderr


def is_compact(cone, facet):
    """Whether a hull facet's inward normal is interior to the cone."""
    return cone.interior_contains(tuple(-x for x in facet[0]))


def mutate_hull(monkeypatch, mutate):
    """Hand samuel_multiplicity the facets of hull_facets changed by mutate."""
    hull = xm.hull_facets
    monkeypatch.setattr(xm, "hull_facets", lambda pts: mutate(hull(pts)))


def shift_first_compact_plane(cone):
    """A mutant moving the plane of the first compact facet one step
    inward, past the generators on it."""
    def mutate(facets):
        k = next(k for k, facet in enumerate(facets) if is_compact(cone, facet))
        normal, offset, simplices = facets[k]
        return facets[:k] + [(normal, offset - 1, simplices)] + facets[k + 1:]
    return mutate


class TestCompactFaceVerifier:
    def test_shifted_plane_raises(self, monkeypatch):
        quadric = ToricCone(CONES_3D["quadric"])
        mutate_hull(monkeypatch, shift_first_compact_plane(quadric))
        with pytest.raises(InternalError, match="not a compact face"):
            samuel_multiplicity(quadric, maximal_ideal(quadric))

    @pytest.mark.parametrize("ray", [1, -1])
    def test_shifted_point_raises_in_1d(self, monkeypatch, ray):
        line = ToricCone([(ray,)])
        mutate_hull(monkeypatch, shift_first_compact_plane(line))
        with pytest.raises(InternalError, match="not a compact face"):
            samuel_multiplicity(line, MonomialIdeal(line, [(2 * ray,)]))

    @pytest.mark.parametrize("ray", [1, -1])
    def test_missing_point_raises_in_1d(self, monkeypatch, ray):
        line = ToricCone([(ray,)])
        ideal = MonomialIdeal(line, [(2 * ray,)])
        assert samuel_multiplicity(line, ideal) == 2

        def without_point(facets):
            assert sum(is_compact(line, facet) for facet in facets) == 1
            return [facet for facet in facets if not is_compact(line, facet)]

        mutate_hull(monkeypatch, without_point)
        with pytest.raises(InternalError, match="do not cover"):
            samuel_multiplicity(line, ideal)

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
        gens = [tuple(3 * x for x in w) for w in quadric.facet_normals] + [(1, 1, 1)]
        ideal = MonomialIdeal(quadric, gens)
        assert samuel_multiplicity(quadric, ideal) == 36

        def without_face(facets):
            compact = [facet for facet in facets if is_compact(quadric, facet)]
            assert len(compact) == 4
            return [facet for facet in facets if facet is not compact[dropped]]

        mutate_hull(monkeypatch, without_face)
        with pytest.raises(InternalError, match="do not cover"):
            samuel_multiplicity(quadric, ideal)

    @pytest.mark.parametrize("dropped", range(4))
    def test_missing_triangle_raises(self, monkeypatch, dropped):
        # The one compact facet of ORTHANT_IDEAL is four hull triangles;
        # losing any one leaves its inner edges on the rim.
        orthant = ORTHANT_IDEAL.cone

        def without_triangle(facets):
            [(normal, offset, triangles)] = [f for f in facets if is_compact(orthant, f)]
            assert len(triangles) == 4
            kept = (normal, offset, triangles[:dropped] + triangles[dropped + 1:])
            return [kept if f[0] == normal else f for f in facets]

        mutate_hull(monkeypatch, without_triangle)
        with pytest.raises(InternalError, match="do not cover"):
            samuel_multiplicity(orthant, ORTHANT_IDEAL)

    def test_missing_edge_raises(self, monkeypatch):
        plane = ToricCone(CONES_2D["plane"])
        ideal = MonomialIdeal(plane, [(4, 0), (2, 1), (0, 3)])
        assert samuel_multiplicity(plane, ideal) == 10
        pairing = ToricCone._min_pairing

        def without_diagonal(cone, v):
            # Rejects the normal of the edge from (2, 1) to (0, 3).
            return pairing(cone, v) if v[0] != v[1] else 0

        monkeypatch.setattr(ToricCone, "_min_pairing", without_diagonal)
        with pytest.raises(InternalError, match="do not cover"):
            samuel_multiplicity(plane, ideal)

    def test_checks_survive_optimize_flag(self):
        # A dropped triangle, a dropped point and a plane shifted past a
        # generator, each in a fresh interpreter under python -O.
        script = (
            "import singvol.exactmath as xm\n"
            "from singvol import InternalError, MonomialIdeal, ToricCone, samuel_multiplicity\n"
            "hull = xm.hull_facets\n"
            "orthant = ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])\n"
            "line = ToricCone([(1,)])\n"
            "cases = [\n"
            "    (orthant, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)],\n"
            "     lambda fs: [(n, c, s[1:] if n == (-1, -1, -1) else s) for n, c, s in fs]),\n"
            "    (line, [(2,)], lambda fs: [f for f in fs if f[0] != (-1,)]),\n"
            "    (line, [(2,)], lambda fs: [(n, c - (n == (-1,)), s) for n, c, s in fs]),\n"
            "]\n"
            "for cone, gens, mutate in cases:\n"
            "    xm.hull_facets = lambda pts: mutate(hull(pts))\n"
            "    try:\n"
            "        samuel_multiplicity(cone, MonomialIdeal(cone, gens))\n"
            "    except InternalError:\n"
            "        print('checked')\n"
        )
        proc = run_python(script, "-O")
        assert proc.stdout.split() == ["checked"] * 3, proc.stderr
