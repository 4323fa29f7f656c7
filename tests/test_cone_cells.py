"""ToricCone reads its facets and its isolation test off its simplicial
cells.  The (n-1)-subset facet search and the determinant smoothness test
that the cells replace (``reference.reference_facets``) are compared with
the constructor on seeded ray sets in dimensions 1-4, invalid ones
included."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest

import singvol.toric as toric
from singvol import DomainError, ToricCone
from singvol.exactmath import solve_linear

from conftest import CONES_3D, apply, random_unimodular, transpose
from reference import idot, reference_facets

RAY_SETS = 5000


def ray_sets(seed, count):
    """(n, rays): up to n + 3 distinct primitive rays with entries in
    [-b, b], b <= 3; every fifth set is a GL_n(Z) image of a 3-D isolated
    cone with up to two extra rays, so that valid cones are common."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        if len(sets) % 5 == 4:
            n = 3
            a, _ = random_unimodular(rng, 3)
            rays = [apply(a, r) for r in rng.choice(list(CONES_3D.values()))]
            extra = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        else:
            n = rng.randint(1, 4)
            bound = rng.choice([1, 1, 2, 3])
            rays = []
            extra = [tuple(rng.randint(-bound, bound) for _ in range(n))
                     for _ in range(rng.randint(max(1, n - 1), n + 3))]
        for v in extra:
            if any(v):
                g = gcd(*v)
                v = tuple(x // g for x in v)
                if v not in rays:
                    rays.append(v)
        if rays:
            sets.append((n, rays))
    return sets


def outcome(build, rays, n):
    try:
        return build(rays, n)
    except DomainError as exc:
        return type(exc), str(exc)


def test_constructor_matches_the_subset_and_determinant_references():
    kinds = Counter()
    for n, rays in ray_sets(2010, RAY_SETS):
        expected = outcome(reference_facets, rays, n)
        found = outcome(lambda rays, n: ToricCone(rays).facet_normals, rays, n)
        assert found == expected, (n, rays)
        kinds[(n, "ok") if type(expected[0]) is tuple else expected[1].split(" ")[0]] += 1
    # Every dimension has valid cones, and every kind of rejection occurs.
    assert all(kinds[(n, "ok")] >= 20 for n in range(1, 5)), kinds
    assert all(kinds[word] >= 10 for word in ("cone", "ray", "facet")), kinds
    assert sum(kinds[(n, "ok")] for n in range(1, 5)) >= 500, kinds


@pytest.mark.parametrize("seed", range(3))
def test_facets_follow_gl_n_and_ray_permutations(seed):
    """Under v -> A v the facet normals map by A^{-T}; relabelling the rays
    changes neither them nor the number of cells."""
    rng = random.Random(seed)
    checked = 0
    for n, rays in ray_sets(seed, 300):
        a, inv = random_unimodular(rng, n) if n > 1 else ([[-1]], [[-1]])
        image = [apply(a, r) for r in rays]
        rng.shuffle(image)
        try:
            cone = ToricCone(rays)
        except DomainError:
            with pytest.raises(DomainError):
                ToricCone(image)
            continue
        moved = ToricCone(image)
        assert moved.facet_normals == tuple(sorted(apply(transpose(inv), f) for f in cone.facet_normals))
        assert len(moved.cells) == len(cone.cells) <= comb(len(rays), n)
        checked += 1
    assert checked >= 50


def test_region_vertices_match_subset_solves():
    """The section-region vertices read off the cells equal those of a
    linear solve on every n-subset of the rays, in the same order.  The
    cells take integer bounds, so rational ones are cleared of their
    denominators first; each vertex comes back as (det * v, det)."""
    rng = random.Random(11)
    checked = 0
    for n, rays in ray_sets(11, 400):
        try:
            cone = ToricCone(rays)
        except DomainError:
            continue
        for _ in range(3):
            lower = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in rays]
            expected = []
            for subset in itertools.combinations(range(len(rays)), n):
                try:
                    point = solve_linear([rays[i] for i in subset], [lower[i] for i in subset])
                except DomainError:
                    continue
                if all(idot(point, ray) >= lo for ray, lo in zip(rays, lower)):
                    expected.append(point)
            scale = lcm(*[x.denominator for x in lower])
            pairs = toric._region_vertices(cone, [int(x * scale) for x in lower])
            assert all(det > 0 and all(type(x) is int for x in m) for m, det in pairs)
            found = [tuple([F(x, det * scale) for x in m]) for m, det in pairs]
            assert found == expected, (rays, lower)
            checked += 1
    assert checked >= 150
