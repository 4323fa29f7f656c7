import itertools
import re
from fractions import Fraction as F

import pytest

from singvol import (
    DomainError,
    InputError,
    MonomialIdeal,
    ToricCone,
    ToricDivisor,
    ToricEndo,
    check_push_pull,
    envelope_value,
    maximal_ideal,
    mixed_multiplicity,
    pullback_divisor,
    pullback_ideal,
    samuel_multiplicity,
    sample_valuations,
    surface_cover_report,
    toric_volume_report,
)

SWAP_2D = [[0, 1], [1, 0]]
SWAP_3D = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


class TestToricEndo:
    def test_degrees(self, plane):
        assert ToricEndo(plane, [[2, 0], [0, 2]]).degree == 4
        assert ToricEndo(plane, [[1, 0], [0, 1]]).degree == 1
        assert ToricEndo(plane, [[2, 0], [0, 3]]).degree == 6
        assert ToricEndo(plane, SWAP_2D).degree == 1

    def test_degree_multiplicativity(self, plane):
        endos = [
            ToricEndo(plane, [[2, 0], [0, 2]]),
            ToricEndo(plane, [[2, 0], [0, 3]]),
            ToricEndo(plane, SWAP_2D),
        ]
        for a, b in itertools.product(endos, repeat=2):
            assert a.compose(b).degree == a.degree * b.degree

    def test_rejects_non_preserving(self, plane):
        with pytest.raises(DomainError):
            ToricEndo(plane, [[1, 1], [0, 1]])
        with pytest.raises(DomainError):
            ToricEndo(plane, [[0, 0], [0, 1]])
        with pytest.raises(DomainError):
            ToricEndo(plane, [[-1, 0], [0, 1]])

    def test_quadric_swap_is_valid(self, quadric):
        endo = ToricEndo(quadric, SWAP_3D)
        assert endo.degree == 1

    def test_quadric_multiplication(self, quadric):
        endo = ToricEndo(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert endo.degree == 8

    @pytest.mark.parametrize("v", [(1, 1), (1, 1, 1, 1)])
    def test_apply_reads_a_lattice_vector(self, quadric, v):
        # Paired by zip, a vector of the wrong length would be cut short.
        endo = ToricEndo(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        for apply in (endo.apply, endo.apply_transpose):
            with pytest.raises(InputError, match=r"^lattice vector \(1, 1(, 1, 1)?\) does not have dimension 3$"):
                apply(v)


class TestPullbacks:
    def test_multiplication_scales_divisors(self, plane):
        divisor = ToricDivisor(plane, (1, 2))
        endo = ToricEndo(plane, [[3, 0], [0, 3]])
        assert pullback_divisor(endo, divisor).coeffs == (3, 6)

    def test_identity(self, plane):
        divisor = ToricDivisor(plane, (1, 2))
        endo = ToricEndo(plane, [[1, 0], [0, 1]])
        assert pullback_divisor(endo, divisor).coeffs == (1, 2)

    def test_swap_permutes(self, plane):
        divisor = ToricDivisor(plane, (1, 2))
        endo = ToricEndo(plane, SWAP_2D)
        assert pullback_divisor(endo, divisor).coeffs == (2, 1)

    def test_functoriality(self, plane, quadric):
        cases = [
            (plane, [[2, 0], [0, 3]], SWAP_2D, (1, 2)),
            (quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], SWAP_3D, (1, 0, 1, 1)),
        ]
        for cone, mat_a, mat_b, coeffs in cases:
            a = ToricEndo(cone, mat_a)
            b = ToricEndo(cone, mat_b)
            divisor = ToricDivisor(cone, coeffs)
            chained = pullback_divisor(a, pullback_divisor(b, divisor))
            assert chained == pullback_divisor(b.compose(a), divisor)

    def test_ideal_pullbacks(self, plane):
        m = MonomialIdeal(plane, [(1, 0), (0, 1)])
        doubled = pullback_ideal(ToricEndo(plane, [[2, 0], [0, 2]]), m)
        assert set(doubled.gens) == {(2, 0), (0, 2)}
        stretched = pullback_ideal(ToricEndo(plane, [[1, 0], [0, 2]]), m)
        assert set(stretched.gens) == {(1, 0), (0, 2)}
        assert pullback_ideal(ToricEndo(plane, [[1, 0], [0, 1]]), m) == m

    @pytest.mark.parametrize("gens", [
        [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],  # pulls back into the quadric's dual cone
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],  # (0, 0, 2) lies outside the quadric's dual cone
    ])
    def test_ideal_on_another_cone(self, quadric, gens):
        orthant = ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        endo = ToricEndo(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        with pytest.raises(InputError, match="^ideals live on different cones$"):
            pullback_ideal(endo, MonomialIdeal(orthant, gens))


class TestPushPull:
    def test_nothing_to_check(self, quadric):
        endo = ToricEndo(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        with pytest.raises(InputError, match="^a push-pull check needs a divisor or an ideal$"):
            check_push_pull(endo)

    def test_multiplication_on_plane(self, plane):
        endo = ToricEndo(plane, [[2, 0], [0, 2]])
        report = check_push_pull(
            endo,
            divisor=ToricDivisor(plane, (1, 2)),
            ideal=maximal_ideal(plane),
        )
        assert report.passed
        assert report.degree == 4
        mult_checks = [c for c in report.checks if "multiplicity" in c.name]
        assert mult_checks and all(c.left == c.right for c in mult_checks)

    def test_identity_trivial(self, plane):
        endo = ToricEndo(plane, [[1, 0], [0, 1]])
        report = check_push_pull(
            endo, divisor=ToricDivisor(plane, (5, -1)), ideal=maximal_ideal(plane)
        )
        assert report.passed and not report.failures

    def test_diag_two_three(self, plane):
        endo = ToricEndo(plane, [[2, 0], [0, 3]])
        m = maximal_ideal(plane)
        pulled = pullback_ideal(endo, m)
        assert samuel_multiplicity(plane, pulled) == 6
        assert check_push_pull(endo, ideal=m).passed

    def test_envelope_commutes_at_samples(self, quadric):
        endo = ToricEndo(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        divisor = ToricDivisor(quadric, (1, 1, 1, 0))
        pulled = pullback_divisor(endo, divisor)
        for v in sample_valuations(quadric):
            assert envelope_value(quadric, pulled, v) == envelope_value(
                quadric, divisor, endo.apply(v)
            )

    def test_mixed_multiplicity_scaling(self, plane):
        endo = ToricEndo(plane, [[2, 0], [0, 3]])
        a = MonomialIdeal(plane, [(1, 0), (0, 2)])
        b = MonomialIdeal(plane, [(2, 0), (0, 1)])
        scaled = mixed_multiplicity(
            plane, [pullback_ideal(endo, a), pullback_ideal(endo, b)]
        )
        assert scaled == endo.degree * mixed_multiplicity(plane, [a, b])


class TestSampleValuations:
    def test_deterministic_and_inside(self, quadric):
        first = sample_valuations(quadric)
        second = sample_valuations(quadric)
        assert first == second
        assert all(quadric.contains(v) for v in first)
        assert any(quadric.interior_contains(v) for v in first)


class TestVolumeReports:
    def test_surface_cover_example(self):
        report = surface_cover_report(2, 1, 2)
        assert report.covering_volume == 8
        assert report.base_volume == 4
        assert report.passed

    def test_surface_cover_identity_degree(self):
        report = surface_cover_report(2, 1, 1)
        assert report.covering_volume == report.base_volume == 4
        assert report.passed

    @pytest.mark.parametrize("args", [(2, 1, "2"), (2, 1, True), ("2", 1, 2), (2, 1.0, 2)])
    def test_surface_cover_arguments_are_integers(self, args):
        with pytest.raises(InputError, match="not an integer"):
            surface_cover_report(*args)

    @pytest.mark.parametrize("cover_degree", [2, 5])
    def test_rational_curves_have_no_etale_covers(self, cover_degree):
        # The covering curve, not the base, would have a negative genus.
        message = (f"no degree-{cover_degree} cover of the cone over a rational curve is etale "
                   f"away from the vertex: the covering curve's genus e(g - 1) + 1 would be "
                   f"{1 - cover_degree}")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            surface_cover_report(0, 1, cover_degree)

    def test_negative_base_genus_named_first(self):
        with pytest.raises(InputError, match="^genus must be nonnegative, got -1$"):
            surface_cover_report(-1, 1, 2)

    def test_surface_cover_reads_integer_valued_fractions(self):
        report = surface_cover_report(F(4, 2), 1, F(2))
        assert (report.genus, report.cover_degree) == (2, 2)
        assert type(report.genus) is int and report.covering_volume == 8

    def test_toric_case(self, quadric):
        report = toric_volume_report(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert report.degree == 8
        assert report.volume == 0
        assert report.passed
        assert all(v >= 0 for v in report.values)
