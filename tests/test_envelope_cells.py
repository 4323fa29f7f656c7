"""Envelopes and numerically-Cartier tests from simplicial cells against
independent references.

* Envelopes against the simplex and the vertex enumerator, on 2,052 seeded
  (cone, divisor, v) triples: 2-D cyclic cones, the quadric, the hexagon and
  C^3/Z_3 with GL_3(Z) images of each, and the 4-D cone over the octahedron.
* Both answers against exactmath.solve_general and the vertex enumerator on
  2-D cyclic cones and on the 3-D and 4-D cones with GL_n(Z) images and
  permuted rays, for integer and rational divisors, Cartier or not.
* Membership, which the facet normals decide: valuations strictly outside
  sigma raise the one DomainError message, through the library and through
  ``toric env``, on every cone of conftest, the cyclic cones and GL_n(Z)
  images; inside, the value and form are those of the first certifying
  n-subset of the rays, found in Fractions.
"""

import json
import random
import re
from fractions import Fraction as F

import pytest

import singvol.exactmath as xm
import singvol.toric as toric
from singvol import (
    DomainError, ToricCone, ToricDivisor, envelope_certificate, is_numerically_cartier, lp_max,
)
from singvol.cli import main
from singvol.oracle import lp_vertex_enumerate

from conftest import CONES_3D, OCTAHEDRON, apply, polygon_cone, random_unimodular
from reference import (
    enumerated_envelope, first_cell_envelope, idot, reference_numerically_cartier,
)

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
        face = [r for r in cone.rays if idot(normal, r) == 0]
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
        assert all(idot(m, ray) <= d for ray, d in zip(cone.rays, divisor.coeffs))
        assert idot(m, v) == value
        (d,), (scale,) = xm._integer_rows([divisor.coeffs])
        _, _, cell, lam = toric._envelope(cone, d, scale, v)
        if min(lam) > 0:
            # m is then tight on every ray of a strictly positive
            # combination for v, which pins it down.
            unique += 1
            assert m == outcome.point, (divisor.coeffs, v, cell.rays)
    # The uniqueness comparison is not vacuous on any cone.
    assert unique >= 10


def permuted_cone_cases():
    """(label, rays): the cyclic cones, and each 3-D cone and the octahedral
    cone as given, with its rays permuted, and two GL_n(Z) images of it, one
    of them with permuted rays; 22 cones in all."""
    cases = [(f"cyclic-{p}-{q}", [(1, 0), (-q, p)]) for p, q in CYCLIC]
    rng = random.Random(2011)
    for name, rays in sorted(CONES_3D.items()) + [("octahedron", OCTAHEDRON)]:
        n = len(rays[0])
        a, b = random_unimodular(rng, n)[0], random_unimodular(rng, n)[0]
        images, images_2 = [apply(a, r) for r in rays], [apply(b, r) for r in rays]
        cases += [
            (name, rays),
            (f"{name}-permuted", rng.sample(rays, len(rays))),
            (f"{name}-image", images),
            (f"{name}-image-permuted", rng.sample(images_2, len(images_2))),
        ]
    return cases


PERMUTED_CASES = permuted_cone_cases()
DIVISORS_PER_CONE = 60


def divisor_coefficients(rng, cone, t):
    """Integer or rational coefficients; every third divisor is Cartier,
    from an integer or a rational form."""
    if t % 3 == 0:
        m = [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(cone.dim)]
        return [idot(m, ray) for ray in cone.rays]
    if t % 3 == 1:
        return [F(rng.randint(-6, 6)) for _ in cone.rays]
    return [F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in cone.rays]


def forbidden(*args):
    raise AssertionError("the cell path called the Fraction linear algebra")


@pytest.mark.parametrize("label,rays", PERMUTED_CASES, ids=[label for label, _ in PERMUTED_CASES])
def test_cells_agree_with_solve_general_and_vertices(label, rays, monkeypatch):
    rng = random.Random(f"numcartier-cells-{label}")
    cone = ToricCone(rays)
    cases = []
    for t in range(DIVISORS_PER_CONE):
        coeffs = divisor_coefficients(rng, cone, t)
        v = valuation(rng, cone, t % 3)
        cases.append((coeffs, v, reference_numerically_cartier(cone, coeffs),
                      enumerated_envelope(cone, coeffs, v)))
    # Neither answer solves a Fraction system or takes a Fraction product.
    for name in ("solve_general", "mat_vec", "dot"):
        monkeypatch.setattr(xm, name, forbidden)
    outcomes = set()
    for coeffs, v, expected, (best, optima) in cases:
        divisor = ToricDivisor(cone, coeffs)
        result = is_numerically_cartier(cone, divisor)
        assert tuple(result) == expected, (coeffs, result, expected)
        outcomes.add(result.is_numerically_cartier)
        value, m = envelope_certificate(cone, divisor, v)
        assert value == best and m in optima, (coeffs, v, value, m)
    # A simplicial cone is Q-factorial: every divisor on it is Cartier.
    assert outcomes == ({True} if len(rays) == cone.dim else {True, False})


def test_relation_of_opposite_sign():
    # The first cell's relation here is (-2, -2, 2, 2, 0, 0), -2 times that of
    # solve_general; the witness and the gap do not depend on the sign.
    cone = ToricCone(OCTAHEDRON)
    coeffs = [F(5), F(3), F(0), F(-5, 3), F(1), F(1)]
    assert xm.solve_general(cone.rays, coeffs)[1] == (1, 1, -1, -1, 0, 0)
    result = is_numerically_cartier(cone, ToricDivisor(cone, coeffs))
    assert tuple(result) == reference_numerically_cartier(cone, coeffs)
    assert result.witness == (0, 0, 0, 1) and result.gap == F(-29, 6)


# -- membership ----------------------------------------------------------------


def membership_cases():
    """(label, rays): the cyclic cones with one GL_2(Z) image each, and the
    cones of conftest (the plane, the 3-D cones, the octahedral cone and the
    polygon cones P_8, P_16 and P_32) with two GL_n(Z) images each but
    P_32; 34 cones in all."""
    cases = [(f"cyclic-{p}-{q}", [(1, 0), (-q, p)]) for p, q in CYCLIC]
    rng = random.Random(2012)
    named = [("plane", [(1, 0), (0, 1)])] + sorted(CONES_3D.items()) + [("octahedron", OCTAHEDRON)]
    named += [(f"P{r}", polygon_cone(r)) for r in (8, 16)]
    for name, rays in named:
        cases.append((name, rays))
        for k in range(2):
            a, _ = random_unimodular(rng, len(rays[0]))
            cases.append((f"{name}-image{k}", [apply(a, r) for r in rays]))
    for name, rays in cases[:len(CYCLIC)]:
        a, _ = random_unimodular(rng, 2)
        cases.append((f"{name}-image", [apply(a, r) for r in rays]))
    return cases + [("P32", polygon_cone(32))]


MEMBERSHIP_CASES = membership_cases()


def outside_valuations(rng, cone, count):
    """Lattice points strictly outside the cone: minus each ray, minus the
    interior point and random points of a box that some facet normal pairs
    negatively with."""
    points = [tuple(-x for x in ray) for ray in cone.rays]
    points.append(tuple(-x for x in cone.interior_point()))
    while len(points) < count:
        v = tuple(rng.randint(-6, 6) for _ in range(cone.dim))
        if min(idot(f, v) for f in cone.facet_normals) < 0:
            points.append(v)
    return points


def outside_message(v):
    return f"valuation vector {tuple(v)} lies outside the cone"


def test_enough_membership_cones():
    assert len(MEMBERSHIP_CASES) == 34


@pytest.mark.parametrize("label,rays", MEMBERSHIP_CASES, ids=[label for label, _ in MEMBERSHIP_CASES])
def test_outside_valuations_raise_one_message(label, rays):
    rng = random.Random(f"outside-{label}")
    cone = ToricCone(rays)
    for v in outside_valuations(rng, cone, 40):
        divisor = ToricDivisor(cone, coefficients(rng, cone))
        with pytest.raises(DomainError, match=f"^{re.escape(outside_message(v))}$"):
            envelope_certificate(cone, divisor, v)


@pytest.mark.parametrize("label,rays", MEMBERSHIP_CASES[::4], ids=[label for label, _ in MEMBERSHIP_CASES[::4]])
def test_outside_valuation_exits_three_through_toric_env(label, rays, tmp_path, capsys):
    rng = random.Random(f"outside-cli-{label}")
    cone = ToricCone(rays)
    (tmp_path / "cone.json").write_text(json.dumps({"dim": cone.dim, "rays": [list(r) for r in rays]}))
    (tmp_path / "d.json").write_text(json.dumps({"coeffs": [str(c) for c in coefficients(rng, cone)]}))
    for v in outside_valuations(rng, cone, len(cone.rays) + 3)[-3:]:
        code = main(["toric", "env", "--cone", str(tmp_path / "cone.json"),
                     "--divisor", str(tmp_path / "d.json"), "--at", ",".join(map(str, v))])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {outside_message(v)}\n")


# The vertex enumerator takes at most 12 constraints, one per ray.
ENUMERABLE_CASES = [(label, rays) for label, rays in MEMBERSHIP_CASES if len(rays) <= 12]


@pytest.mark.parametrize("label,rays", ENUMERABLE_CASES, ids=[label for label, _ in ENUMERABLE_CASES])
def test_boundary_and_interior_keep_the_first_certifying_cell(label, rays):
    rng = random.Random(f"inside-{label}")
    cone = ToricCone(rays)
    kinds = set()
    for t in range(24):
        coeffs = coefficients(rng, cone)
        v = valuation(rng, cone, t % 3)
        value, m = envelope_certificate(cone, ToricDivisor(cone, coeffs), v)
        best, optima = enumerated_envelope(cone, coeffs, v)
        assert (value, m) == first_cell_envelope(cone, coeffs, v), (coeffs, v)
        assert value == best and m in optima, (coeffs, v)
        kinds.add(cone.interior_contains(v))
    assert kinds == {True, False}
