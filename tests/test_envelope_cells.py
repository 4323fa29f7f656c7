"""Envelopes from simplicial cells against the simplex and the vertex
enumerator, on 2,052 seeded (cone, divisor, v) triples: 2-D cyclic cones,
the quadric, the hexagon and C^3/Z_3 with GL_3(Z) images of each, and the
4-D cone over the octahedron."""

import random
from fractions import Fraction as F

import pytest

import singvol.toric as toric
from singvol import ToricCone, ToricDivisor, envelope_certificate, lp_max
from singvol.oracle import lp_vertex_enumerate

from conftest import CONES_3D, apply, random_unimodular

OCTAHEDRON = [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]
CYCLIC = [(2, 1), (3, 1), (3, 2), (5, 2), (7, 3), (11, 4)]
TRIPLES_PER_CONE = 108


def cone_cases():
    """(label, rays): the cyclic cones 1/p(1, q), each 3-D cone with three
    GL_3(Z) images of it, and the octahedral cone; 19 cones in all."""
    cases = [(f"cyclic-{p}-{q}", [(1, 0), (-q, p)]) for p, q in CYCLIC]
    rng = random.Random(2010)
    for name, rays in sorted(CONES_3D.items()):
        cases.append((name, rays))
        for k in range(3):
            a, _ = random_unimodular(rng, 3)
            cases.append((f"{name}-image{k}", [apply(a, r) for r in rays]))
    cases.append(("octahedron", OCTAHEDRON))
    return cases


CASES = cone_cases()


def combination(weights, rays):
    return tuple(sum(w * r[j] for w, r in zip(weights, rays)) for j in range(len(rays[0])))


def valuation(rng, cone, kind):
    """0, a point of a proper face (a facet's rays with some weights zero),
    or an interior point."""
    if kind == 0:
        return (0,) * cone.dim
    if kind == 1:
        normal = rng.choice(cone.facet_normals)
        face = [r for r in cone.rays if sum(a * b for a, b in zip(normal, r)) == 0]
        return combination([rng.randint(0, 4) for _ in face], face)
    v = combination([rng.randint(0, 4) for _ in cone.rays], cone.rays)
    return v if cone.interior_contains(v) else combination([1] * len(cone.rays), cone.rays)


def coefficients(rng, cone):
    if rng.random() < 0.5:
        return [rng.randint(-6, 6) for _ in cone.rays]
    return [f"{rng.randint(-12, 12)}/{rng.randint(1, 4)}" for _ in cone.rays]


def test_enough_triples():
    assert len(CASES) * TRIPLES_PER_CONE >= 2000


@pytest.mark.parametrize("label,rays", CASES, ids=[label for label, _ in CASES])
def test_cells_agree_with_simplex_and_vertices(label, rays):
    rng = random.Random(f"envelope-cells-{label}")
    cone = ToricCone(rays)
    unique = 0
    for t in range(TRIPLES_PER_CONE):
        divisor = ToricDivisor(cone, coefficients(rng, cone))
        v = valuation(rng, cone, t % 3)
        value, m = envelope_certificate(cone, divisor, v)
        problem = toric.envelope_problem(cone, divisor, v)
        outcome = lp_max(problem)
        assert value == outcome.value == max(val for _, val in lp_vertex_enumerate(problem))
        assert type(value) is F and all(type(x) is F for x in m)
        assert all(sum(a * x for a, x in zip(m, ray)) <= d for ray, d in zip(cone.rays, divisor.coeffs))
        assert sum(a * x for a, x in zip(m, v)) == value
        _, _, cell, lam = toric._envelope(cone, divisor.coeffs, v)
        if min(lam) > 0:
            # m is then tight on every ray of a strictly positive
            # combination for v, which pins it down.
            unique += 1
            assert m == outcome.point, (divisor.coeffs, v, cell.rays)
    # The uniqueness comparison is not vacuous on any cone.
    assert unique >= 10

