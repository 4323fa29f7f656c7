import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from singvol import endo as endo_mod
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
    surface_cover_report,
    toric_volume_report,
)

from conftest import CONES_3D, apply, box_points, random_unimodular, transpose

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

    def test_envelope_commutes_on_a_lattice_box(self, quadric):
        endo = ToricEndo(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        divisor = ToricDivisor(quadric, (1, 1, 1, 0))
        pulled = pullback_divisor(endo, divisor)
        for v in box_points(quadric):
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


TWICE_3D = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
THRICE_3D = [[3, 0, 0], [0, 3, 0], [0, 0, 3]]


def vertex_row(report):
    (row,) = [c for c in report.checks if c.name.startswith("vertices")]
    return row


def random_divisor(rng, cone):
    return ToricDivisor(cone, [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in cone.rays])


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestVertexRow:
    def test_one_row_of_sorted_vertices(self, quadric):
        report = check_push_pull(ToricEndo(quadric, TWICE_3D),
                                 divisor=ToricDivisor(quadric, (1, 1, 1, 0)))
        assert len(report.checks) == 1
        row = vertex_row(report)
        # D is not Cartier: P_D has the two vertices (0, 1, 1) and (1, 0, 1)...
        assert row.right == ((0, 2, 2), (2, 0, 2))
        # ...and P_{2D} = 2 P_D.
        assert row.left == row.right and row.passed
        assert all(type(x) is F for m in row.left + row.right for x in m)

    def test_cartier_divisor_has_one_vertex(self, quadric):
        row = vertex_row(check_push_pull(ToricEndo(quadric, SWAP_3D),
                                         divisor=ToricDivisor(quadric, (2, 1, 2, 1))))
        assert row.left == row.right == ((1, 2, 2),)

    @pytest.mark.parametrize("rays", [[(1, 0), (0, 1)], [(1, 0), (-2, 5)], *CONES_3D.values()],
                             ids=["plane", "cyclic-5-2", *CONES_3D])
    def test_vertices_give_the_envelope(self, rays):
        # P_D's recession cone pairs nonpositively with sigma, so on sigma
        # the envelope is the largest pairing with a vertex.
        cone, rng = ToricCone(rays), random.Random(2010)
        for _ in range(5):
            divisor = random_divisor(rng, cone)
            vertices = endo_mod._section_vertices(cone, divisor)
            for m in vertices:
                pairings = [sum(map(F.__mul__, m, ray)) for ray in cone.rays]
                assert all(p <= d for p, d in zip(pairings, divisor.coeffs))
            for v in box_points(cone, 2):
                assert max(sum(map(F.__mul__, m, v)) for m in vertices) == envelope_value(
                    cone, divisor, v)

    @pytest.mark.parametrize("matrix", [TWICE_3D, THRICE_3D, SWAP_3D], ids=["x2", "x3", "swap"])
    def test_random_rational_divisors_pass(self, quadric, matrix):
        endo, rng = ToricEndo(quadric, matrix), random.Random(31)
        for _ in range(20):
            assert check_push_pull(endo, divisor=random_divisor(rng, quadric)).passed


class TestMutants:
    """Each wrong pull-back below fails the report on a fixed divisor."""

    @staticmethod
    def wrong_scale(endo, divisor):
        # Ray i takes the scale of the other ray.
        coeffs = tuple(F(scale) * divisor.coeffs[target]
                       for scale, target in zip(endo.ray_scales[::-1], endo.ray_targets))
        return ToricDivisor(endo.cone, coeffs)

    def test_scale_of_the_wrong_ray(self, plane, monkeypatch):
        monkeypatch.setattr(endo_mod, "pullback_divisor", self.wrong_scale)
        divisor = ToricDivisor(plane, (1, 2))
        row = vertex_row(check_push_pull(ToricEndo(plane, [[2, 0], [0, 3]]), divisor=divisor))
        assert (row.left, row.right) == (((3, 4),), ((2, 6),)) and not row.passed
        # Under x2 every scale is 2, so the mutant is equivalent there.
        assert check_push_pull(ToricEndo(plane, [[2, 0], [0, 2]]), divisor=divisor).passed

    @pytest.mark.parametrize("matrix", [SWAP_3D, TWICE_3D], ids=["swap", "x2"])
    def test_permuted_ray_targets(self, quadric, matrix):
        endo = ToricEndo(quadric, matrix)
        targets = endo.ray_targets
        endo.ray_targets = targets[1:] + targets[:1]
        report = check_push_pull(endo, divisor=ToricDivisor(quadric, (1, 1, 1, 0)))
        assert not report.passed and report.failures == (vertex_row(report),)


class TestInvariance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           matrix=st.sampled_from([TWICE_3D, THRICE_3D, SWAP_3D]),
           coeffs=st.lists(st.fractions(-6, 6, max_denominator=4), min_size=4, max_size=4),
           order=st.permutations(range(4)))
    def test_gl3z_and_relabelling(self, seed, matrix, coeffs, order):
        """For g in GL_3(Z), the cone g sigma, the matrix g A g^-1 and the
        same coefficients in ray order pass, and the vertices map by g^-T;
        so do the cone's rays and the coefficients permuted alike."""
        quadric = ToricCone(CONES_3D["quadric"])
        row = vertex_row(check_push_pull(ToricEndo(quadric, matrix),
                                         divisor=ToricDivisor(quadric, coeffs)))
        assert row.passed

        g, g_inv = random_unimodular(random.Random(seed), 3)
        image = ToricCone([apply(g, ray) for ray in quadric.rays])
        moved = vertex_row(check_push_pull(ToricEndo(image, matmul(matmul(g, matrix), g_inv)),
                                           divisor=ToricDivisor(image, coeffs)))
        assert moved.passed
        assert moved.left == tuple(sorted(apply(transpose(g_inv), m) for m in row.left))

        relabelled = ToricCone([quadric.rays[i] for i in order])
        permuted = vertex_row(check_push_pull(
            ToricEndo(relabelled, matrix),
            divisor=ToricDivisor(relabelled, [coeffs[i] for i in order])))
        assert permuted.passed and permuted.left == row.left


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
        assert report == (8,)
