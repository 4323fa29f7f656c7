from fractions import Fraction as F

import pytest

from singvol import (
    CountReport,
    DomainError,
    InputError,
    MonomialIdeal,
    ToricCone,
    colength,
    lp_vertex_enumerate,
    maximal_ideal,
    multiplicity_estimate,
    samuel_multiplicity,
)
from singvol.exactmath import LPProblem, lp_max

from conftest import QUADRIC_CONSTRAINTS
from reference import brute_colength_on_plane


class TestColength:
    def test_maximal_ideal_staircase(self, plane):
        m = maximal_ideal(plane)
        for k in range(1, 7):
            assert colength(plane, m, k) == k * (k + 1) // 2

    def test_power_zero(self, plane):
        assert colength(plane, maximal_ideal(plane), 0) == 0

    def test_plane_example_against_direct_enumeration(self, plane):
        gens = [(1, 0), (0, 2)]
        ideal = MonomialIdeal(plane, gens)
        assert colength(plane, ideal, 2) == brute_colength_on_plane(gens, 2) == 6

    def test_more_powers_against_direct_enumeration(self, plane):
        gens = [(3, 0), (1, 1), (0, 3)]
        ideal = MonomialIdeal(plane, gens)
        for k in (1, 2, 3):
            assert colength(plane, ideal, k) == brute_colength_on_plane(gens, k)

    def test_quadric_counts(self, quadric):
        mx = maximal_ideal(quadric)
        for k in (1, 2, 5):
            assert colength(quadric, mx, k) == k * (k + 1) * (2 * k + 1) // 6

    def test_counting_works_beyond_dimension_three(self):
        # The exact covolume engine stops at dimension three; counting does not.
        from math import comb

        from singvol import ToricCone

        cone = ToricCone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        mx = maximal_ideal(cone)
        for k in (1, 2, 3, 4):
            assert colength(cone, mx, k) == comb(k + 3, 4)

    def test_unit_ideal_has_colength_zero(self, plane, quadric):
        for cone in (plane, quadric):
            unit = MonomialIdeal(cone, [(0,) * cone.dim])
            assert unit.is_unit and not unit.is_m_primary
            assert [colength(cone, unit, k) for k in (0, 1, 2)] == [0, 0, 0]

    def test_requires_m_primary(self, plane):
        with pytest.raises(DomainError):
            colength(plane, MonomialIdeal(plane, [(1, 0)]), 2)

    def test_cap(self, plane):
        with pytest.raises(DomainError):
            colength(plane, maximal_ideal(plane), 100)

    @pytest.mark.parametrize("power", ["x", "3", True, 2.0])
    def test_power_is_read_as_an_integer(self, plane, power):
        with pytest.raises(InputError, match="not an integer"):
            colength(plane, maximal_ideal(plane), power)
        assert colength(plane, maximal_ideal(plane), F(4, 2)) == 3


class TestMultiplicityEstimate:
    def test_smooth_plane_fit(self, plane):
        report = multiplicity_estimate(plane, maximal_ideal(plane), range(1, 9))
        assert report.fitted[-1] == F(9, 8)
        for k, fit in zip(report.ks, report.fitted):
            assert abs(fit - 1) == F(1, k)

    def test_monotone_counts_enforced(self):
        with pytest.raises(InputError):
            CountReport(ks=(1, 2), colengths=(3, 2), fitted=(F(1), F(1)))
        with pytest.raises(InputError, match="^colengths must be non-decreasing in k$"):
            CountReport(ks=(2, 1), colengths=(1, 3), fitted=(F(1), F(1)))

    def test_powers_in_descending_order(self):
        cone = ToricCone([(1, 0), (1, 2)])
        report = multiplicity_estimate(cone, maximal_ideal(cone), (8, 4))
        assert report.colengths == (64, 16)
        assert report.fitted == (2, 2)

    def test_plane_example_trend(self, plane):
        ideal = MonomialIdeal(plane, [(1, 0), (0, 2)])
        report = multiplicity_estimate(plane, ideal, (3, 6, 12))
        target = samuel_multiplicity(plane, ideal)
        errors = [abs(fit - target) for fit in report.fitted]
        assert all(err <= F(4, k) for err, k in zip(errors, report.ks))
        assert errors[-1] <= errors[0]

    def test_sample_powers_from_a_generator(self, plane):
        ideal = MonomialIdeal(plane, [(1, 0), (0, 2)])
        report = multiplicity_estimate(plane, ideal, (k for k in (2, 4)))
        assert report == multiplicity_estimate(plane, ideal, (2, 4))
        with pytest.raises(InputError) as error:
            multiplicity_estimate(plane, ideal, (k for k in (2, 1.5, 4)))
        assert str(error.value) == "not an integer vector: [2, 1.5, 4]"

    def test_sample_powers_are_bounded(self, plane):
        ideal = MonomialIdeal(plane, [(1, 0), (0, 2)])
        with pytest.raises(InputError, match="^sample powers must be at least 1$"):
            multiplicity_estimate(plane, ideal, (2, 0))
        with pytest.raises(DomainError, match="^power 65 exceeds the cap 64$"):
            multiplicity_estimate(plane, ideal, (2, 65))

    def test_quadric_certifies_covolume_engine(self, quadric):
        mx = maximal_ideal(quadric)
        report = multiplicity_estimate(quadric, mx, (5, 10))
        target = samuel_multiplicity(quadric, mx)
        for k, fit in zip(report.ks, report.fitted):
            assert abs(fit - target) <= F(4, k)


class TestVertexEnumeration:
    def test_quadric_envelope_lp(self):
        problem = LPProblem((F(1), F(1), F(0)), QUADRIC_CONSTRAINTS)
        vertices = lp_vertex_enumerate(problem)
        assert max(v for _, v in vertices) == 3 == lp_max(problem).value

    def test_zero_bounds(self):
        problem = LPProblem((F(1), F(1), F(0)), tuple((normal, F(0)) for normal, _ in QUADRIC_CONSTRAINTS))
        vertices = lp_vertex_enumerate(problem)
        assert max(v for _, v in vertices) == 0

    def test_unit_bound_lp(self):
        bounds = zip(QUADRIC_CONSTRAINTS, (1, 1, 1, 0))
        problem = LPProblem((F(1), F(1), F(0)), tuple((normal, F(b)) for (normal, _), b in bounds))
        assert max(v for _, v in lp_vertex_enumerate(problem)) == 1

    def test_limits(self):
        big = LPProblem(
            tuple(F(1) for _ in range(5)),
            tuple(((F(1),) * 5, F(1)) for _ in range(3)),
        )
        with pytest.raises(DomainError):
            lp_vertex_enumerate(big)
        wide = LPProblem(
            (F(1), F(1)),
            tuple(((F(1), F(1)), F(i)) for i in range(13)),
        )
        with pytest.raises(DomainError):
            lp_vertex_enumerate(wide)
