import random
import re
from collections import Counter
from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import example, given, settings, strategies as st

import singvol.exactmath as xm
import singvol.toric as toric

from singvol import (
    DomainError,
    InputError,
    InternalError,
    MonomialIdeal,
    ToricCone,
    ToricDivisor,
    ToricEndo,
    UnsupportedDimensionError,
    defect_ideal,
    envelope_certificate,
    envelope_value,
    hilbert_basis,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_numerically_cartier,
    izumi_constant,
    log_discrepancy_value,
    maximal_ideal,
    mixed_multiplicity,
    module_generators,
    ord_value,
    pullback_divisor,
    samuel_multiplicity,
    z_value,
)
from singvol.oracle import colength, multiplicity_estimate

from conftest import (
    CONES_3D, OCTAHEDRON, apply, random_m_primary_ideal, random_unimodular, run_python, transpose,
)
from reference import lattice_volume, slab_minima


D_SUM = (2, 1, 2, 1)
D_ONE = (1, 1, 1, 0)
D_TWO = (1, 0, 1, 1)
QUADRIC = ToricCone(CONES_3D["quadric"])
# A 2-D cyclic quotient singularity.
CYCLIC_5_2 = ToricCone([(0, 1), (5, -2)])


class TestConeConstruction:
    def test_quadric_facets(self, quadric):
        assert set(quadric.facet_normals) == {
            (1, 0, 0),
            (0, 1, 0),
            (0, 1, 1),
            (1, 0, 1),
        }

    def test_plane_is_self_dual(self, plane):
        assert set(plane.facet_normals) == {(1, 0), (0, 1)}

    def test_rejects_non_primitive_ray(self):
        with pytest.raises(InputError, match="divide by gcd"):
            ToricCone([(2, 2), (0, 1)])

    @pytest.mark.parametrize(
        "bad", [("a", 0), (None, 0), (0.5, 0), (1.0, 0), ("1", 0), (" 1 ", 0), (b"1", 0), (True, 0)]
    )
    def test_rejects_non_integer_entries(self, bad):
        with pytest.raises(InputError, match="not an integer vector"):
            ToricCone([bad, (0, 1)])

    def test_first_ray_that_is_not_iterable(self):
        with pytest.raises(InputError, match=r"^ray 5 is not an integer vector$"):
            ToricCone([5])

    def test_rays_that_are_not_a_list(self):
        with pytest.raises(InputError, match=r"^the rays of a cone must be a list, not 5$"):
            ToricCone(5)

    def test_dimension_is_the_length_of_the_first_ray(self, quadric):
        # The first ray is read once, so a one-shot iterator gives it too.
        cone = ToricCone([iter(quadric.rays[0]), *quadric.rays[1:]])
        assert cone == quadric and cone.dim == 3
        assert repr(ToricCone([(1, 0), (0, 1)])) == "ToricCone(rays=[(1, 0), (0, 1)])"
        with pytest.raises(InputError, match=r"^ray \(1, 0\) does not have dimension 3$"):
            ToricCone([(1, 0, 0), (1, 0)])
        with pytest.raises(InputError, match=r"^cone dimension must be at least 1$"):
            ToricCone([()])

    @pytest.mark.parametrize("rays, message", [
        ([b"\x01\x00", b"\x00\x01"], r"^ray b'\\x01\\x00' is not an integer vector$"),
        ({(1, 0): 1, (0, 1): 2}, r"^the rays of a cone must be a list, not \{\(1, 0\): 1, \(0, 1\): 2\}$"),
        ("10", r"^the rays of a cone must be a list, not '10'$"),
    ], ids=["bytes", "dict", "text"])
    def test_text_bytes_and_mappings_are_not_collections(self, rays, message):
        # Iterated, they would give characters, byte values and keys.
        with pytest.raises(InputError, match=message):
            ToricCone(rays)

    def test_rejects_duplicates(self):
        with pytest.raises(InputError, match="duplicate"):
            ToricCone([(1, 0), (1, 0), (0, 1)])

    def test_rejects_lower_dimensional(self):
        with pytest.raises(DomainError, match="full-dimensional"):
            ToricCone([(1, 0)])

    def test_rejects_line(self):
        with pytest.raises(DomainError, match="strongly convex|line"):
            ToricCone([(1, 0), (-1, 0), (0, 1)])

    def test_rejects_redundant_ray(self, quadric):
        with pytest.raises(DomainError, match="extreme"):
            ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (1, 1, 0)])

    def test_rejects_non_isolated_three_fold(self):
        # An A1 surface singularity times a line: one facet is not smooth.
        with pytest.raises(DomainError, match="not isolated|singular"):
            ToricCone([(1, 0, 0), (1, 2, 0), (0, 0, 1)])

    def test_membership(self, quadric):
        assert quadric.contains((1, 1, 0))
        assert quadric.interior_contains((1, 1, 0))
        assert quadric.contains((1, 0, 0))
        assert not quadric.interior_contains((1, 0, 0))
        assert not quadric.contains((0, 0, -1))
        assert quadric.dual_contains((1, 0, 0))
        assert not quadric.dual_contains((0, 0, 1))

    @pytest.mark.parametrize("u", [5, (1, "a", 0), (1, 0.5, 0), [1, True, 0], (1, 0)])
    def test_dual_contains_reads_a_lattice_vector(self, quadric, u):
        with pytest.raises(InputError):
            quadric.dual_contains(u)


# An A1 surface singularity times C^2: one facet is a singular cone.
A1_TIMES_C2 = [(1, 0, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
# The quadric times a line: the facet x_4 = 0 is the quadric cone itself.
QUADRIC_FACET = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, -1, 0), (0, 0, 0, 1)]
# The cone over a cube: its facets are cones over squares.
CUBE = [(x, y, z, 1) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def orthant(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def isolation_verdict(rays):
    """"isolated", or the kind of facet that stops the cone being so."""
    try:
        ToricCone(rays)
    except DomainError as exc:
        if "is a singular cone, so the singularity is not isolated" in str(exc):
            return "singular facet"
        if "is not simplicial" in str(exc):
            return "non-simplicial facet"
        raise
    return "isolated"


class TestIsolationInEveryDimension:
    """The facet test g = 1, g the gcd of a cell's adjugate column, in
    dimensions 4 and 5."""

    def test_singular_facet_is_rejected(self):
        with pytest.raises(DomainError, match=r"facet spanned by \(1, 0, 0, 0\), \(1, 2, 0, 0\) and "):
            ToricCone(A1_TIMES_C2)

    def test_non_simplicial_facets_are_rejected(self):
        assert isolation_verdict(QUADRIC_FACET) == "non-simplicial facet"
        assert isolation_verdict(CUBE) == "non-simplicial facet"

    def test_isolated_cones_are_accepted(self):
        assert len(ToricCone(orthant(4)).facet_normals) == 4
        assert len(ToricCone(orthant(5)).facet_normals) == 5
        assert len(ToricCone(OCTAHEDRON).facet_normals) == 8

    @pytest.mark.parametrize("rays", [A1_TIMES_C2, QUADRIC_FACET, CUBE, OCTAHEDRON, orthant(4)])
    def test_verdict_survives_gl4_and_permutations(self, rays):
        rng = random.Random(4)
        verdict = isolation_verdict(rays)
        for _ in range(12):
            a, _ = random_unimodular(rng, 4)
            image = [apply(a, ray) for ray in rays]
            rng.shuffle(image)
            assert isolation_verdict(image) == verdict


class TestEnvelope:
    def test_cartier_sum_value(self, quadric):
        divisor = ToricDivisor(quadric, D_SUM)
        assert envelope_value(quadric, divisor, (1, 1, 0)) == 3

    def test_zero_divisor(self, quadric):
        divisor = ToricDivisor(quadric, (0, 0, 0, 0))
        for v in [(1, 1, 0), (1, 0, 0), (2, 3, -1)]:
            if quadric.contains(v):
                assert envelope_value(quadric, divisor, v) == 0

    def test_summand_values(self, quadric):
        assert envelope_value(quadric, ToricDivisor(quadric, D_ONE), (1, 1, 0)) == 1
        assert envelope_value(quadric, ToricDivisor(quadric, D_TWO), (1, 1, 0)) == 1

    def test_outside_cone_raises(self, quadric):
        with pytest.raises(DomainError, match="outside"):
            envelope_value(quadric, ToricDivisor(quadric, D_SUM), (0, 0, -1))

    @pytest.mark.parametrize("coeffs", ["1110", b"1110", bytearray(b"1110"), {0: 1, 1: 1, 2: 1, 3: 0}],
                             ids=["text", "bytes", "bytearray", "dict"])
    def test_divisor_coefficients_are_a_list(self, quadric, coeffs):
        with pytest.raises(InputError) as error:
            ToricDivisor(quadric, coeffs)
        assert str(error.value) == f"the coefficients of a divisor must be a list, not {coeffs!r}"

    def test_divisor_of_another_cone_raises(self, quadric):
        # A divisor's coefficients follow its own cone's rays, in order.
        c3z3 = ToricCone(CONES_3D["c3z3"])
        relabelled = ToricCone(quadric.rays[::-1])
        for cone in (c3z3, relabelled):
            divisor = ToricDivisor(cone, (1, 2, 3, 4)[:len(cone.rays)])
            with pytest.raises(InputError, match="not indexed by the cone's rays"):
                envelope_value(quadric, divisor, (1, 1, 1))

    def test_trace_property(self, quadric):
        for coeffs in [D_SUM, D_ONE, D_TWO, (3, -2, 5, 0)]:
            divisor = ToricDivisor(quadric, coeffs)
            for ray, d in zip(quadric.rays, coeffs):
                assert envelope_value(quadric, divisor, ray) == d

    def test_superadditivity_with_strict_case(self, quadric):
        d1 = ToricDivisor(quadric, D_ONE)
        d2 = ToricDivisor(quadric, D_TWO)
        total = d1 + d2
        for v in [(1, 1, 0), (1, 1, 1), (2, 1, 0), (1, 2, -1)]:
            lhs = envelope_value(quadric, total, v)
            rhs = envelope_value(quadric, d1, v) + envelope_value(quadric, d2, v)
            assert lhs >= rhs
        gap = envelope_value(quadric, total, (1, 1, 0)) - (
            envelope_value(quadric, d1, (1, 1, 0))
            + envelope_value(quadric, d2, (1, 1, 0))
        )
        assert gap == 1

    def test_homogeneity(self, quadric):
        divisor = ToricDivisor(quadric, D_ONE)
        value = envelope_value(quadric, divisor, (1, 1, 0))
        for t in [F(2), F(1, 2), F(7, 3), F(0)]:
            assert envelope_value(quadric, divisor.scale(t), (1, 1, 0)) == t * value

    def test_monotonicity(self, quadric):
        smaller = ToricDivisor(quadric, (1, 0, 1, 0))
        larger = ToricDivisor(quadric, (2, 1, 2, 1))
        for v in [(1, 1, 0), (1, 1, 1), (1, 0, 1)]:
            assert envelope_value(quadric, smaller, v) <= envelope_value(
                quadric, larger, v
            )

    def test_certificate_is_feasible(self, quadric):
        divisor = ToricDivisor(quadric, D_SUM)
        value, point = envelope_certificate(quadric, divisor, (1, 1, 0))
        assert value == 3
        for ray, d in zip(quadric.rays, divisor.coeffs):
            assert sum(m * x for m, x in zip(point, ray)) <= d

    @pytest.mark.parametrize("v", [("1/2", 1, 0), (1, 1)])
    def test_problem_reads_a_lattice_vector(self, quadric, v):
        divisor = ToricDivisor(quadric, D_SUM)
        with pytest.raises(InputError) as error:
            toric.envelope_problem(quadric, divisor, v)
        with pytest.raises(InputError) as expected:
            envelope_certificate(quadric, divisor, v)
        assert str(error.value) == str(expected.value)


class TestRayOrder:
    """A divisor of a cone that lists the same rays in another order is
    rejected, not read at the wrong rays.  The divisors have coefficients
    1, 2, ... at the rays of the quadric and the hexagon rotated by one."""

    @pytest.fixture(params=["quadric", "hexagon"])
    def rotated(self, request):
        rays = CONES_3D[request.param]
        cone, rotated = ToricCone(rays), ToricCone(rays[1:] + rays[:1])
        assert cone == rotated
        return cone, ToricDivisor(rotated, range(1, len(rays) + 1))

    def test_divisor_moved_through_the_ray_map(self, rotated):
        cone, divisor = rotated
        at = dict(zip(divisor.cone.rays, divisor.coeffs))
        moved = ToricDivisor(cone, [at[ray] for ray in cone.rays])
        ideal = defect_ideal(divisor.cone, divisor)
        assert defect_ideal(cone, moved) == ideal
        # Cartier on the quadric; 51 generators on the hexagon.
        assert len(ideal.gens) == {4: 1, 6: 51}[len(cone.rays)]
        assert (is_numerically_cartier(cone, moved).is_numerically_cartier
                == is_numerically_cartier(divisor.cone, divisor).is_numerically_cartier
                == ideal.is_unit)

    def test_sum(self, rotated):
        cone, divisor = rotated
        with pytest.raises(InputError, match="not indexed by the cone's rays"):
            ToricDivisor(cone, (0,) * len(cone.rays)) + divisor

    def test_defect_ideal(self, rotated):
        cone, divisor = rotated
        with pytest.raises(InputError, match="not indexed by the cone's rays"):
            defect_ideal(cone, divisor)

    def test_envelope_problem(self, rotated):
        cone, divisor = rotated
        with pytest.raises(InputError, match="not indexed by the cone's rays"):
            toric.envelope_problem(cone, divisor, (1, 1, 1))

    def test_is_numerically_cartier(self, rotated, monkeypatch):
        cone, divisor = rotated
        # Raised by the ray-order check, before any envelope is evaluated.
        monkeypatch.setattr(toric, "_envelope", None)
        with pytest.raises(InputError, match="not indexed by the cone's rays"):
            is_numerically_cartier(cone, divisor)

    def test_pullback_divisor(self, rotated):
        cone, divisor = rotated
        identity = ToricEndo(cone, [[int(i == j) for j in range(3)] for i in range(3)])
        with pytest.raises(InputError, match="not indexed by the cone's rays"):
            pullback_divisor(identity, divisor)


class TestNumericallyCartier:
    def test_cartier_certificate(self, quadric):
        result = is_numerically_cartier(quadric, ToricDivisor(quadric, D_SUM))
        assert result.is_numerically_cartier
        assert result.certificate == (2, 1, 2)

    def test_non_cartier_witness(self, quadric):
        result = is_numerically_cartier(quadric, ToricDivisor(quadric, D_ONE))
        assert not result.is_numerically_cartier
        assert quadric.interior_contains(result.witness)
        assert result.gap < 0
        recomputed = envelope_value(
            quadric, ToricDivisor(quadric, D_ONE), result.witness
        ) + envelope_value(quadric, ToricDivisor(quadric, tuple(-c for c in D_ONE)), result.witness)
        assert recomputed == result.gap

    def test_smooth_cone_everything_cartier(self, plane):
        for coeffs in [(0, 0), (3, -2), (F(1, 2), F(5, 7))]:
            result = is_numerically_cartier(plane, ToricDivisor(plane, coeffs))
            assert result.is_numerically_cartier

    def test_negation_symmetry(self, quadric):
        divisor = ToricDivisor(quadric, D_ONE)
        assert not is_numerically_cartier(quadric, divisor).is_numerically_cartier
        assert not is_numerically_cartier(quadric, -divisor).is_numerically_cartier

    def test_witnesses_on_cone_over_octahedron(self):
        # Six rays in dimension four.  The cone is isolated, so every relation
        # among the rays combines to an interior valuation, the witness.
        cone = ToricCone(OCTAHEDRON)
        for index in range(6):
            coeffs = tuple(int(i == index) for i in range(6))
            result = is_numerically_cartier(cone, ToricDivisor(cone, coeffs))
            assert not result.is_numerically_cartier
            assert cone.interior_contains(result.witness)
            assert result.gap < 0
        linear = ToricDivisor(cone, tuple(r[0] + 2 * r[3] for r in cone.rays))
        assert is_numerically_cartier(cone, linear).certificate == (1, 0, 0, 2)


class TestMonomialIdeals:
    def test_minimalization(self, plane):
        ideal = MonomialIdeal(plane, [(1, 0), (0, 2), (2, 2), (1, 0)])
        assert ideal.gens == ((1, 0), (0, 2))

    def test_unit_ideal(self, plane):
        ideal = MonomialIdeal(plane, [(0, 0), (1, 0)])
        assert ideal.is_unit
        assert not ideal.is_m_primary

    def test_m_primary_detection(self, plane, quadric):
        assert MonomialIdeal(plane, [(1, 0), (0, 1)]).is_m_primary
        assert MonomialIdeal(plane, [(1, 0), (0, 2)]).is_m_primary
        assert not MonomialIdeal(plane, [(1, 0)]).is_m_primary
        assert not MonomialIdeal(plane, [(1, 1), (2, 0)]).is_m_primary
        assert maximal_ideal(quadric).is_m_primary

    def test_m_primary_needs_all_dual_rays(self):
        orthant = ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        ideal = MonomialIdeal(orthant, [(1, 1, 0), (0, 0, 1)])
        assert not ideal.is_m_primary

    @pytest.mark.parametrize("first", [("2", 0, 0), (2, 0, " 0"), (b"2", 0, 0)])
    def test_rejects_text_exponents(self, quadric, first):
        with pytest.raises(InputError, match="not an integer vector"):
            MonomialIdeal(quadric, [first, (0, 1, 0), (0, 0, 1)])

    def test_generator_that_is_not_iterable(self, quadric):
        with pytest.raises(InputError, match=r"^generator 5 is not an integer vector$"):
            MonomialIdeal(quadric, [5])

    def test_generators_that_are_not_a_list(self, quadric):
        with pytest.raises(InputError, match=r"^the generators of an ideal must be a list, not 5$"):
            MonomialIdeal(quadric, 5)

    def test_generators_that_are_bytes(self, plane):
        with pytest.raises(InputError, match=r"^generator b'\\x01\\x00' is not an integer vector$"):
            MonomialIdeal(plane, [b"\x01\x00", b"\x00\x02"])

    def test_rejects_exponent_outside_dual_cone(self, quadric):
        with pytest.raises(DomainError, match="dual cone"):
            MonomialIdeal(quadric, [(0, 0, 1)])

    def test_names_an_outside_exponent_that_another_dominates(self, quadric):
        # (0, 0, -1) dominates (1, 0, -1) and (1, 0, 0); only it is kept.
        with pytest.raises(DomainError, match=r"^exponent \(1, 0, -1\) lies outside the dual cone$"):
            MonomialIdeal(quadric, [(1, 0, 0), (1, 0, -1), (0, 0, -1)])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 5), st.sampled_from(QUADRIC.facet_normals)), max_size=4))
    @example([(0, 0, -1)], [(0, (1, 0, 0))])
    def test_names_the_first_outside_exponent(self, points, shifts):
        # Each shift puts p + h, which p dominates, before p.
        gens = list(points)
        for i, h in shifts:
            p = points[i % len(points)]
            gens.insert(0, tuple([a + b for a, b in zip(p, h)]))
        outside = [u for u in gens if not QUADRIC.dual_contains(u)]
        if not outside:
            assert set(MonomialIdeal(QUADRIC, gens).gens) <= set(gens)
            return
        message = f"exponent {outside[0]} lies outside the dual cone"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            MonomialIdeal(QUADRIC, gens)

    def test_derived_facts_are_attributes(self, quadric):
        ideal = maximal_ideal(quadric)
        assert vars(ideal).keys() >= {"is_unit", "is_m_primary", "ray_generators"}
        assert ideal.ray_generators == {w: w for w in quadric.facet_normals}
        cubes = MonomialIdeal(quadric, [tuple([3 * x for x in w]) for w in quadric.facet_normals])
        assert cubes.ray_generators == {w: tuple([3 * x for x in w]) for w in quadric.facet_normals}

    def test_power_example(self, plane):
        ideal = MonomialIdeal(plane, [(1, 0), (0, 2)])
        assert set(ideal_power(ideal, 2).gens) == {(2, 0), (1, 2), (0, 4)}
        assert ideal_power(ideal, 0).is_unit

    def test_ord_and_z_values(self, plane):
        m = MonomialIdeal(plane, [(1, 0), (0, 1)])
        assert z_value(m, (1, 1)) == -1
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        assert z_value(a, (2, 1)) == -2
        assert z_value(a, (1, 1)) == -1
        assert ord_value(a, (1, 1)) == 1
        with pytest.raises(DomainError):
            z_value(a, (-1, 0))


class TestLatticePointsBetween:
    def test_empty_slab_is_its_own_domain_error(self, quadric):
        # <u, (1,0,0)> = u1 lies in [18, 23] but <u, (1,1,-1)> = 7 and
        # <u, (0,1,0)> = 5 force u3 = u1 - 2 >= 16, above <u, (0,0,1)> <= -8.
        with pytest.raises(DomainError, match="lattice search region is empty"):
            toric._lattice_points_between(quadric, [18, 5, -13, 7], [5, 0, 5, 0])


class TestHilbertBasis:
    def test_smooth_plane(self, plane):
        assert set(hilbert_basis(plane)) == {(1, 0), (0, 1)}

    def test_quadric(self, quadric):
        assert set(hilbert_basis(quadric)) == {
            (1, 0, 0),
            (0, 1, 0),
            (1, 0, 1),
            (0, 1, 1),
        }

    def test_quotient_singularity(self):
        cone = ToricCone([(1, 0), (1, 2)])
        assert set(hilbert_basis(cone)) == {(0, 1), (1, 0), (2, -1)}


class TestSamuelMultiplicity:
    def test_maximal_ideal_of_plane(self, plane):
        assert samuel_multiplicity(plane, maximal_ideal(plane)) == 1

    def test_plane_example(self, plane):
        assert samuel_multiplicity(plane, MonomialIdeal(plane, [(1, 0), (0, 2)])) == 2

    def test_quadric_maximal_ideal(self, quadric):
        assert samuel_multiplicity(quadric, maximal_ideal(quadric)) == 2

    def test_staircase(self, plane):
        ideal = MonomialIdeal(plane, [(3, 0), (1, 1), (0, 3)])
        assert samuel_multiplicity(plane, ideal) == 6

    def test_pure_powers(self, plane):
        ideal = MonomialIdeal(plane, [(4, 0), (0, 7)])
        assert samuel_multiplicity(plane, ideal) == 28

    def test_one_dimensional(self):
        line = ToricCone([(1,)])
        ideal = MonomialIdeal(line, [(3,), (5,)])
        assert samuel_multiplicity(line, ideal) == 3

    def test_agrees_with_hull_volume_on_convex_complements(self, plane, quadric):
        # When the region between the dual cone and the Newton polyhedron is
        # itself convex, its covolume is also computable by the generic hull
        # engine, giving a second exact route.
        for a, b in [(1, 1), (3, 2), (4, 7)]:
            ideal = MonomialIdeal(plane, [(a, 0), (0, b)])
            assert samuel_multiplicity(plane, ideal) == lattice_volume([(0, 0), (a, 0), (0, b)])
        pyramid = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
        assert samuel_multiplicity(quadric, maximal_ideal(quadric)) == lattice_volume(pyramid)

    def test_requires_m_primary(self, plane):
        with pytest.raises(DomainError, match="m-primary"):
            samuel_multiplicity(plane, MonomialIdeal(plane, [(1, 0)]))

    def test_dimension_cap(self):
        cone = ToricCone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        ideal = MonomialIdeal(cone, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        with pytest.raises(UnsupportedDimensionError):
            samuel_multiplicity(cone, ideal)


class TestMixedMultiplicity:
    def test_diagonal_case(self, plane):
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        assert mixed_multiplicity(plane, [a, a]) == samuel_multiplicity(plane, a)

    def test_staircase_pair(self, plane):
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        b = MonomialIdeal(plane, [(2, 0), (0, 1)])
        assert samuel_multiplicity(plane, ideal_product(a, b)) == 6
        assert mixed_multiplicity(plane, [a, b]) == 1

    def test_maximal_against_example(self, plane):
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        assert mixed_multiplicity(plane, [maximal_ideal(plane), a]) == 1

    def test_symmetry(self, plane):
        rng = random.Random(23)
        for _ in range(10):
            a = random_m_primary_ideal(rng, plane)
            b = random_m_primary_ideal(rng, plane)
            assert mixed_multiplicity(plane, [a, b]) == mixed_multiplicity(plane, [b, a])

    def test_multilinearity(self, plane):
        rng = random.Random(29)
        for _ in range(10):
            a = random_m_primary_ideal(rng, plane, max_degree=5)
            b = random_m_primary_ideal(rng, plane, max_degree=5)
            c = random_m_primary_ideal(rng, plane, max_degree=5)
            assert mixed_multiplicity(plane, [ideal_product(a, b), c]) == (
                mixed_multiplicity(plane, [a, c]) + mixed_multiplicity(plane, [b, c])
            )

    def test_three_dimensional_diagonal(self, quadric):
        mx = maximal_ideal(quadric)
        assert mixed_multiplicity(quadric, [mx, mx, mx]) == 2

    def test_khovanskii_teissier_samples(self, plane):
        rng = random.Random(31)
        for _ in range(25):
            a = random_m_primary_ideal(rng, plane)
            b = random_m_primary_ideal(rng, plane)
            mixed = mixed_multiplicity(plane, [a, b])
            assert mixed * mixed <= samuel_multiplicity(plane, a) * samuel_multiplicity(plane, b)

    def test_wrong_count_raises(self, plane):
        a = MonomialIdeal(plane, [(1, 0), (0, 1)])
        with pytest.raises(InputError):
            mixed_multiplicity(plane, [a])


class TestDefectIdeal:
    def test_zero_divisor_gives_unit(self, quadric):
        assert defect_ideal(quadric, ToricDivisor(quadric, (0, 0, 0, 0)), 1).is_unit

    def test_cartier_divisor_gives_unit(self, quadric):
        divisor = ToricDivisor(quadric, D_SUM)
        for m in (1, 2, 3):
            assert defect_ideal(quadric, divisor, m).is_unit

    def test_non_cartier_divisor_detects_defect(self, quadric):
        ideal = defect_ideal(quadric, ToricDivisor(quadric, D_ONE), 1)
        assert not ideal.is_unit
        assert z_value(ideal, (1, 1, 0)) == -1

    def test_module_generator_box_is_stable_under_doubling(self, quadric, plane):
        cases = [
            (quadric, [-1, -1, -1, 0]),
            (quadric, [1, 1, 1, 0]),
            (quadric, [-2, -1, -2, -1]),
            (plane, [-3, 2]),
            (plane, [0, 0]),
        ]
        for cone, bounds in cases:
            assert module_generators(cone, bounds) == slab_minima(cone, bounds, stretch=2)

    @pytest.mark.parametrize("rays", [
        CONES_3D["quadric"], CONES_3D["hexagon"], CONES_3D["c3z3"],
        [(0, 1), (5, -2)], [(0, 1), (7, -3)],
    ], ids=["quadric", "hexagon", "c3z3", "cyclic-5-2", "cyclic-7-3"])
    def test_rational_bounds_round_up(self, rays):
        # <u, ray_i> is an integer, so c_i and ceil(c_i) cut out the same
        # lattice points; the slab at the unrounded c is the reference.
        cone = ToricCone(rays)
        rng = random.Random(12)
        for _ in range(6):
            lower = [F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in rays]
            gens = module_generators(cone, lower)
            assert gens == module_generators(cone, [ceil(c) for c in lower]), lower
            assert gens == slab_minima(cone, lower), lower

    def test_section_module_of_trivial_divisor(self, quadric):
        assert module_generators(quadric, [0, 0, 0, 0]) == ((0, 0, 0),)

    def test_rejects_fractional_divisor(self, quadric):
        with pytest.raises(InputError):
            defect_ideal(quadric, ToricDivisor(quadric, (F(1, 2), 0, 0, 0)), 1)

    def test_module_generator_bounds_reject_bools_and_floats(self, plane):
        with pytest.raises(InputError, match="not a rational"):
            module_generators(plane, [0.5, True])
        assert module_generators(plane, [1, F(1)]) == ((1, 1),)

    def test_numerically_cartier_divisor_with_proper_defect(self):
        # On the A1 quotient cone, D = (1, 0) is numerically Cartier with a
        # half-integral certificate, so only 2D is Cartier: the defect ideal
        # is proper at m = 1 and unit at m = 2, and the scaled divisor values
        # climb to the vanishing envelope sum.
        cone = ToricCone([(2, -1), (0, 1)])
        divisor = ToricDivisor(cone, (1, 0))
        assert is_numerically_cartier(cone, divisor).certificate == (F(1, 2), 0)
        first = defect_ideal(cone, divisor, 1)
        assert set(first.gens) == {(1, 0), (1, 1), (1, 2)}
        assert defect_ideal(cone, divisor, 2).is_unit
        v = cone.interior_point()
        bound = envelope_value(cone, divisor, v) + envelope_value(cone, -divisor, v)
        assert bound == 0
        assert z_value(first, v) <= bound

    def test_defect_convergence(self, quadric):
        divisor = ToricDivisor(quadric, D_ONE)
        v = (1, 1, 0)
        bound = envelope_value(quadric, divisor, v) + envelope_value(quadric, -divisor, v)
        values = {
            m: z_value(defect_ideal(quadric, divisor, m), v) / m for m in (1, 2, 4, 8)
        }
        assert values[1] <= values[2] <= values[4] <= values[8] <= bound
        assert bound - values[8] <= bound - values[1]


def random_interior(rng, cone):
    """An interior lattice point: the cone's interior point plus a random
    nonnegative combination of its rays."""
    weights = [rng.randint(0, 2) for _ in cone.rays]
    return tuple(
        p + sum(w * ray[j] for w, ray in zip(weights, cone.rays))
        for j, p in enumerate(cone.interior_point())
    )


def section_answers(cone, coeffs, v, w):
    """Envelope value at v, defect ideal and its first two colengths (0 for
    the unit ideal of a Cartier divisor), and the Izumi constant of (v, w),
    for the divisor with these coefficients."""
    divisor = ToricDivisor(cone, coeffs)
    defect = defect_ideal(cone, divisor)
    colengths = tuple(colength(cone, defect, k) for k in (1, 2))
    return envelope_value(cone, divisor, v), defect, colengths, izumi_constant(cone, v, w)


class TestSectionInvariance:
    """Envelopes, defect ideals and Izumi constants do not depend on
    coordinates: A in GL_3(Z) sends each ray r to A r, each valuation v to
    A v and each exponent u to A^{-T} u, and relabelling the rays permutes
    the coefficients with them."""

    @pytest.mark.parametrize("name", sorted(CONES_3D))
    def test_unimodular_change_of_coordinates(self, name):
        rng = random.Random(30 + len(name))
        cone = ToricCone(CONES_3D[name])
        for _ in range(4):
            a, inv = random_unimodular(rng, 3)
            inv_t = transpose(inv)
            image = ToricCone([apply(a, r) for r in cone.rays])
            coeffs = [rng.randint(-2, 2) for _ in cone.rays]
            v, w = random_interior(rng, cone), random_interior(rng, cone)
            value, defect, colengths, izumi = section_answers(cone, coeffs, v, w)
            moved = section_answers(image, coeffs, apply(a, v), apply(a, w))
            assert moved[0] == value
            assert set(moved[1].gens) == {apply(inv_t, u) for u in defect.gens}
            assert moved[2] == colengths
            assert moved[3] == izumi

    @pytest.mark.parametrize("name", sorted(CONES_3D))
    def test_ray_permutations(self, name):
        rng = random.Random(40 + len(name))
        cone = ToricCone(CONES_3D[name])
        for _ in range(4):
            order = list(range(len(cone.rays)))
            rng.shuffle(order)
            relabelled = ToricCone([cone.rays[i] for i in order])
            coeffs = [rng.randint(-2, 2) for _ in cone.rays]
            v, w = random_interior(rng, cone), random_interior(rng, cone)
            value, defect, colengths, izumi = section_answers(cone, coeffs, v, w)
            moved = section_answers(relabelled, [coeffs[i] for i in order], v, w)
            assert moved[0] == value
            assert set(moved[1].gens) == set(defect.gens)
            assert moved[2] == colengths
            assert moved[3] == izumi

    @pytest.mark.parametrize("name", sorted(CONES_3D))
    def test_homogeneity(self, name):
        rng = random.Random(50 + len(name))
        cone = ToricCone(CONES_3D[name])
        for _ in range(6):
            divisor = ToricDivisor(cone, [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in cone.rays])
            v = random_interior(rng, cone)
            value = envelope_value(cone, divisor, v)
            for k in (2, 3, 5):
                assert envelope_value(cone, divisor.scale(k), v) == k * value


class TestIzumi:
    def test_plane_example(self, plane):
        assert izumi_constant(plane, (1, 1), (1, 2)) == 2

    def test_equal_vectors(self, plane, quadric):
        assert izumi_constant(plane, (2, 3), (2, 3)) == 1
        assert izumi_constant(quadric, (1, 1, 1), (1, 1, 1)) == 1

    def test_quadric_pair(self, quadric):
        assert izumi_constant(quadric, (1, 1, 1), (1, 1, 0)) == 1
        assert izumi_constant(quadric, (1, 1, 0), (1, 1, 1)) == 2

    def test_non_interior_raises(self, quadric):
        with pytest.raises(DomainError):
            izumi_constant(quadric, (1, 0, 0), (1, 1, 0))

    def test_membership_and_minimality(self, plane, quadric):
        rng = random.Random(37)
        for cone in (plane, quadric):
            for _ in range(10):
                v = tuple(
                    sum(rng.randint(1, 3) * r[j] for r in cone.rays)
                    for j in range(cone.dim)
                )
                w = tuple(
                    sum(rng.randint(1, 3) * r[j] for r in cone.rays)
                    for j in range(cone.dim)
                )
                c = izumi_constant(cone, v, w)
                scaled = tuple(
                    c.numerator * x - c.denominator * y for x, y in zip(v, w)
                )
                assert cone.contains(scaled)
                assert not cone.interior_contains(scaled)

    def test_bounds_orders_of_ideals(self, plane):
        rng = random.Random(41)
        for _ in range(25):
            a = random_m_primary_ideal(rng, plane)
            v = (rng.randint(1, 4), rng.randint(1, 4))
            w = (rng.randint(1, 4), rng.randint(1, 4))
            c = izumi_constant(plane, v, w)
            assert ord_value(a, w) <= c * ord_value(a, v)


class TestLogDiscrepancy:
    def test_smooth_point(self, plane):
        assert log_discrepancy_value(plane, (1, 1)) == 2
        assert log_discrepancy_value(plane, (2, 3)) == 5

    def test_quadric_value(self, quadric):
        assert log_discrepancy_value(quadric, (1, 1, 0)) == 2

    def test_nonnegative_on_random_interior_points(self, quadric):
        rng = random.Random(43)
        from singvol.exactmath import primitive_vector

        for _ in range(20):
            v = primitive_vector(
                tuple(
                    sum(rng.randint(1, 4) * r[j] for r in quadric.rays)
                    for j in range(3)
                )
            )
            assert log_discrepancy_value(quadric, v) >= 0

    def test_rejects_boundary_and_imprimitive(self, quadric):
        with pytest.raises(DomainError):
            log_discrepancy_value(quadric, (1, 0, 0))
        with pytest.raises(DomainError):
            log_discrepancy_value(quadric, (2, 2, 0))


EXPONENT_CALLS = ["ideal_power", "defect_ideal", "colength", "ks"]


class TestIntegerExponents:
    """Powers, multiples and sample powers are read by exactmath.integer and
    integer_vector: text, bools, floats (2.0 too) and non-integer fractions
    raise InputError, and an integer-valued Fraction is that integer."""

    @staticmethod
    def call(name, plane, quadric):
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        d = ToricDivisor(quadric, D_ONE)
        return {
            "ideal_power": lambda k: ideal_power(a, k),
            "defect_ideal": lambda k: defect_ideal(quadric, d, k),
            "colength": lambda k: colength(plane, a, k),
            "ks": lambda k: multiplicity_estimate(plane, a, (k,)),
        }[name]

    @pytest.mark.parametrize("name", EXPONENT_CALLS)
    @pytest.mark.parametrize("k", ["2", True, F(3, 2), 2.5, 2.0],
                             ids=["text", "bool", "fraction", "float", "integral-float"])
    def test_non_integers_raise(self, plane, quadric, name, k):
        # A scalar is named as one; only the sample powers ks are a vector.
        message = f"not an integer vector: ({k!r},)" if name == "ks" else f"not an integer: {k!r}"
        with pytest.raises(InputError) as error:
            self.call(name, plane, quadric)(k)
        assert str(error.value) == message

    @pytest.mark.parametrize("name", EXPONENT_CALLS)
    def test_integer_fraction_is_an_integer(self, plane, quadric, name):
        call = self.call(name, plane, quadric)
        assert call(F(4, 2)) == call(2)


class TestIncreasingNets:
    def test_multiplicity_stabilizes(self, plane):
        a = MonomialIdeal(plane, [(1, 0), (0, 3)])
        values = []
        for k in range(1, 7):
            truncated = ideal_sum(a, ideal_power(maximal_ideal(plane), k))
            values.append(samuel_multiplicity(plane, truncated))
        assert values == [1, 2, 3, 3, 3, 3]
        assert all(x <= y for x, y in zip(values, values[1:]))


class TestSelfChecks:
    """A certificate that fails its check raises InternalError, never a bare assert."""

    def test_section_region_without_vertices(self, monkeypatch, quadric):
        monkeypatch.setattr(toric, "_region_vertices", lambda cone, lower: [])
        with pytest.raises(InternalError, match="no vertex"):
            module_generators(quadric, [0, 0, 0, 0])

    @staticmethod
    def corrupt_cells(monkeypatch, cone, fields):
        monkeypatch.setattr(cone, "cells", tuple(c._replace(**fields(c)) for c in cone.cells))

    def test_envelope_form_infeasible(self, monkeypatch, quadric):
        # Cells that forget their other rays accept the first cell holding
        # v; at (1, 1, 1) its form (1, 1, 1) breaks <m, ray_3> <= 0.
        self.corrupt_cells(monkeypatch, quadric, fields=lambda c: {"others": ()})
        with pytest.raises(InternalError, match="linear form is infeasible"):
            envelope_certificate(quadric, ToricDivisor(quadric, D_ONE), (1, 1, 1))

    def test_envelope_weights_miss_v(self, monkeypatch, quadric):
        doubled = lambda c: {"cols": tuple(tuple(2 * x for x in col) for col in c.cols)}
        self.corrupt_cells(monkeypatch, quadric, fields=doubled)
        with pytest.raises(InternalError, match="do not combine the rays to v"):
            envelope_certificate(quadric, ToricDivisor(quadric, D_SUM), (1, 1, 1))

    def test_envelope_values_differ(self, monkeypatch, quadric):
        # m = 0 is feasible for D >= 0 but not optimal at (1, 1, 1).
        zero = lambda c: {"rows": tuple((0,) * len(row) for row in c.rows)}
        self.corrupt_cells(monkeypatch, quadric, fields=zero)
        with pytest.raises(InternalError, match="primal and dual values differ"):
            envelope_certificate(quadric, ToricDivisor(quadric, D_SUM), (1, 1, 1))

    def test_envelope_without_cells(self, monkeypatch, quadric):
        monkeypatch.setattr(quadric, "cells", ())
        with pytest.raises(InternalError, match="no simplicial cell"):
            envelope_certificate(quadric, ToricDivisor(quadric, D_SUM), (1, 1, 1))

    # The numerically-Cartier test reads the first cell B: its form
    # m = A d_B is tight on B, the divisor is Cartier when m meets d on the
    # other rays, and otherwise the first ray i it misses gives the relation
    # det e_i - sum_k <col_k, ray_i> e_{B_k}.  On the quadric B = (0, 1, 2)
    # and D_ONE misses ray 3.
    WRONG_CARTIER = {"others": ()}
    ZERO_RELATION = {"det": 0, "cols": ((0, 0, 0),) * 3}
    BROKEN_RELATION = {"cols": ((2, 0, 0), (0, 2, 0), (0, 0, 2))}

    def test_wrong_cartier_certificate(self, monkeypatch, quadric):
        # A cell that forgets its other rays accepts its form unchecked.
        self.corrupt_cells(monkeypatch, quadric, fields=lambda c: self.WRONG_CARTIER)
        with pytest.raises(InternalError, match="wrong Cartier certificate"):
            is_numerically_cartier(quadric, ToricDivisor(quadric, D_ONE))

    def test_zero_inconsistency_combination(self, monkeypatch, quadric):
        # A zero combination pairs to zero with d, so it certifies nothing.
        self.corrupt_cells(monkeypatch, quadric, fields=lambda c: self.ZERO_RELATION)
        with pytest.raises(InternalError, match="not a relation among the rays"):
            is_numerically_cartier(quadric, ToricDivisor(quadric, D_ONE))

    def test_inconsistency_not_a_relation(self, monkeypatch, quadric):
        # Doubled columns give ray_3 - 2 ray_3, which is not zero.
        self.corrupt_cells(monkeypatch, quadric, fields=lambda c: self.BROKEN_RELATION)
        with pytest.raises(InternalError, match="not a relation among the rays"):
            is_numerically_cartier(quadric, ToricDivisor(quadric, D_ONE))

    def test_nonnegative_gap(self, monkeypatch, quadric):
        monkeypatch.setattr(toric, "_envelope", lambda cone, d, scale, v: (F(0),))
        with pytest.raises(InternalError, match="not negative"):
            is_numerically_cartier(quadric, ToricDivisor(quadric, D_ONE))

    def test_boundary_witness(self, monkeypatch, quadric):
        monkeypatch.setattr(toric.ToricCone, "_min_pairing", lambda self, v: 0)
        with pytest.raises(InternalError, match="not interior"):
            is_numerically_cartier(quadric, ToricDivisor(quadric, D_ONE))

    def test_envelope_sum_of_cartier_divisor(self, monkeypatch, quadric):
        monkeypatch.setattr(toric, "_envelope", lambda cone, d, scale, v: (F(1),))
        with pytest.raises(InternalError, match="contradiction"):
            is_numerically_cartier(quadric, ToricDivisor(quadric, D_SUM))

    def test_negative_log_discrepancy(self, monkeypatch, quadric):
        monkeypatch.setattr(toric, "_envelope", lambda cone, d, scale, v: (F(-1),))
        with pytest.raises(InternalError, match="negative"):
            log_discrepancy_value(quadric, (1, 1, 1))

    def test_checks_survive_optimize_flag(self):
        script = (
            "from fractions import Fraction\n"
            "import singvol.toric as toric\n"
            "from singvol import InternalError\n"
            "toric._envelope = lambda cone, d, scale, v: (Fraction(-1),)\n"
            "cone = toric.ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])\n"
            "try:\n"
            "    toric.log_discrepancy_value(cone, (1, 1, 1))\n"
            "except InternalError:\n"
            "    print('checked')\n"
        )
        proc = run_python(script, "-O")
        assert proc.stdout.strip() == "checked", proc.stderr

    def test_cell_checks_survive_optimize_flag(self):
        script = (
            "import singvol.toric as toric\n"
            "from singvol import InternalError\n"
            "for fields in (%r, %r, %r):\n"
            "    cone = toric.ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])\n"
            "    cone.cells = tuple(c._replace(**fields) for c in cone.cells)\n"
            "    try:\n"
            "        toric.is_numerically_cartier(cone, toric.ToricDivisor(cone, %r))\n"
            "    except InternalError:\n"
            "        print('checked')\n"
        ) % (self.WRONG_CARTIER, self.ZERO_RELATION, self.BROKEN_RELATION, D_ONE)
        proc = run_python(script, "-O")
        assert proc.stdout.split() == ["checked"] * 3, proc.stderr


def seeded_m_primary_gens(rng, cone, extras=3):
    """Each dual ray times 1 to 3, then sums of up to 3 Hilbert basis elements."""
    basis = sorted(hilbert_basis(cone))
    gens = [tuple([k * x for x in w]) for w in cone.facet_normals for k in [rng.randint(1, 3)]]
    for _ in range(extras):
        gens.append(tuple(map(sum, zip(*rng.choices(basis, k=rng.randint(1, 3))))))
    return gens


class TestEachFactOnce:
    """The multiplicity engines read each generator handed to an ideal once
    and test their own vectors without reading them again."""

    def test_engines_read_no_vector_twice(self, monkeypatch):
        rng = random.Random(22)
        m = maximal_ideal(QUADRIC)
        seeded = [(cone, seeded_m_primary_gens(rng, cone)) for cone in (QUADRIC, CYCLIC_5_2) * 3]
        calls, handed = Counter(), []

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(xm, "primitive_vector")
        counted(xm, "integer_vector")
        counted(ToricCone, "interior_contains")
        init = MonomialIdeal.__init__

        def counted_init(self, cone, gens):
            gens = list(gens)
            handed.append(len(gens))
            init(self, cone, gens)

        monkeypatch.setattr(MonomialIdeal, "__init__", counted_init)
        assert mixed_multiplicity(QUADRIC, [m, m, ideal_power(m, 2)]) == 4
        for cone, gens in seeded:
            assert samuel_multiplicity(cone, MonomialIdeal(cone, gens)) > 0
        assert calls["primitive_vector"] == calls["interior_contains"] == 0
        assert calls["integer_vector"] == sum(handed) > 0
