"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact over the rationals; the only tolerances are the
Ehrhart-style counting budgets C/k stated inline, with C frozen from the
exact error terms of the staircase counts.
"""

import itertools
import random
import time
from fractions import Fraction as F

from singvol import (
    DomainError,
    InputError,
    MonomialIdeal,
    ResolutionGraph,
    SingularityKind,
    ToricCone,
    ToricDivisor,
    ToricEndo,
    classify,
    colength,
    cone_graph,
    cusp_cycle_graph,
    defect_ideal,
    du_val_graph,
    envelope_value,
    ideal_product,
    ideal_power,
    ideal_sum,
    is_numerically_cartier,
    log_discrepancy_value,
    maximal_ideal,
    mixed_multiplicity,
    pullback_divisor,
    pullback_ideal,
    samuel_multiplicity,
    surface_cover_report,
    volume,
    z_value,
    zariski_decompose,
)
from singvol.exactmath import convex_hull_2d, primitive_vector
from singvol.surface import intersect

from conftest import box_points
from reference import fraction_zariski_decompose

QUADRIC_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
D_ONE = (1, 1, 1, 0)
D_TWO = (1, 0, 1, 1)


def _report(number: int, label: str, passed: bool) -> None:
    print(f"criterion {number:2d} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_01_envelope_example_values():
    cone = ToricCone(QUADRIC_RAYS)
    d1 = ToricDivisor(cone, D_ONE)
    d2 = ToricDivisor(cone, D_TWO)
    total = d1 + d2
    at = (1, 1, 0)
    envelope_value(cone, total, at)  # warm-up outside the timed section

    start = time.perf_counter()
    value_sum = envelope_value(cone, total, at)
    value_one = envelope_value(cone, d1, at)
    value_two = envelope_value(cone, d2, at)
    elapsed = time.perf_counter() - start

    ok = (
        value_sum == 3
        and value_one == 1
        and value_two == 1
        and value_sum - value_one - value_two == 1
        and elapsed < 0.010
    )
    # Independent vertex-enumeration certification of the summand values.
    from singvol import lp_vertex_enumerate
    from singvol.exactmath import LPProblem

    for divisor, expected in ((d1, 1), (d2, 1), (total, 3)):
        problem = LPProblem(
            tuple(F(x) for x in at),
            tuple(
                (tuple(F(x) for x in ray), F(c))
                for ray, c in zip(cone.rays, divisor.coeffs)
            ),
        )
        ok &= max(v for _, v in lp_vertex_enumerate(problem)) == expected
    _report(1, "envelope values 3, 1, 1 with gap 1 in under 10ms", ok)


def test_criterion_02_numerically_cartier_certificates():
    cone = ToricCone(QUADRIC_RAYS)
    cartier = is_numerically_cartier(cone, ToricDivisor(cone, (2, 1, 2, 1)))
    weil = is_numerically_cartier(cone, ToricDivisor(cone, D_ONE))
    witness_ok = (
        not weil.is_numerically_cartier
        and weil.witness is not None
        and cone.interior_contains(weil.witness)
        and weil.gap < 0
    )
    ok = (
        cartier.is_numerically_cartier
        and cartier.certificate == (2, 1, 2)
        and witness_ok
    )
    _report(2, "certificate (2,1,2) and interior witness for (1,1,1,0)", ok)


def test_criterion_03_surface_volumes():
    ok = True
    for genus in (2, 3, 4):
        for degree in (1, 2, 3):
            ok &= volume(cone_graph(genus, degree)) == F((2 * genus - 2) ** 2, degree)
    for name in ("A1", "A2", "A3", "D4", "E6"):
        graph = du_val_graph(name)
        ok &= volume(graph) == 0
        ok &= classify(graph).kind is SingularityKind.KLT
    for degree in (1, 2, 3):
        elliptic = ResolutionGraph([(-degree, 1)], [])
        ok &= volume(elliptic) == 0
        ok &= classify(elliptic).kind is SingularityKind.LC_NOT_KLT
    for selfs in ((-3, -2, -2), (-4, -2, -2, -2), (-3, -3)):
        cusp = cusp_cycle_graph(selfs)
        ok &= volume(cusp) == 0
        ok &= classify(cusp).kind is SingularityKind.LC_NOT_KLT
    _report(3, "cone volume closed form, Du Val klt, elliptic and cusp lc", ok)


def test_criterion_04_cover_multiplicativity():
    ok = True
    count = 0
    for cover in range(1, 6):
        for genus in (2, 3, 4):
            for degree in range(1, 5):
                report = surface_cover_report(genus, degree, cover)
                ok &= report.passed
                ok &= report.covering_volume == cover * F((2 * genus - 2) ** 2, degree)
                count += 1
    ok &= count == 60
    _report(4, "sixty exact cover-multiplicativity identities", ok)


def test_criterion_05_nontrivial_zariski_decomposition():
    graph = ResolutionGraph([(-3, 2), (-2, 0)], [(0, 1, 1)])
    target_nef = (F(-1), F(-1, 2))
    target_neg = (F(0), F(1, 2))
    ok = True

    decomposition = zariski_decompose(graph, (-1, 0))
    ok &= decomposition.nef_part == target_nef
    ok &= decomposition.neg_part == target_neg
    ok &= volume(graph) == F(5, 2)

    nef, neg = decomposition.nef_part, decomposition.neg_part
    ok &= all(c >= 0 for c in neg)
    for j in range(2):
        basis = [int(i == j) for i in range(2)]
        product = intersect(graph, nef, basis)
        ok &= product >= 0
        if neg[j] != 0:
            ok &= product == 0

    for order in ([0, 1], [1, 0]):
        ok &= fraction_zariski_decompose(graph, (-1, 0), order) == decomposition
    swapped = zariski_decompose(graph.permuted([1, 0]), (0, -1))
    ok &= swapped.nef_part == (target_nef[1], target_nef[0])
    ok &= swapped.neg_part == (target_neg[1], target_neg[0])

    _report(5, "Zariski decomposition (-1,-1/2)+(0,1/2), volume 5/2, order-free", ok)


def test_criterion_06_mixed_multiplicities():
    plane = ToricCone([(1, 0), (0, 1)])
    a = MonomialIdeal(plane, [(1, 0), (0, 2)])
    b = MonomialIdeal(plane, [(2, 0), (0, 1)])
    product = ideal_product(a, b)
    ok = True
    ok &= mixed_multiplicity(plane, [a, b]) == 1
    ok &= samuel_multiplicity(plane, product) == 6
    ok &= (
        samuel_multiplicity(plane, product)
        - samuel_multiplicity(plane, a)
        - samuel_multiplicity(plane, b)
    ) / 2 == 1
    # Counting-oracle certification of the covolume values (error is 4/k here).
    k = 12
    ok &= abs(F(2 * colength(plane, product, k), k**2) - 6) <= F(4, k)
    ok &= samuel_multiplicity(plane, maximal_ideal(plane)) == 1

    quadric = ToricCone(QUADRIC_RAYS)
    mx = maximal_ideal(quadric)
    ok &= samuel_multiplicity(quadric, mx) == 2
    k = 20
    ok &= abs(F(6 * colength(quadric, mx, k), k**3) - 2) <= F(4, k)
    _report(6, "mixed multiplicities 1, 6, 1 and quadric 2 with count certification", ok)


def test_criterion_07_khovanskii_teissier_batch():
    plane = ToricCone([(1, 0), (0, 1)])
    rng = random.Random(20260810)

    def random_ideal():
        gens = [(rng.randint(1, 8), 0), (0, rng.randint(1, 8))]
        for _ in range(rng.randint(0, 3)):
            gens.append((rng.randint(1, 7), rng.randint(1, 7)))
        return MonomialIdeal(plane, gens)

    violations = 0
    pairs = 0
    for _ in range(200):
        a, b = random_ideal(), random_ideal()
        mixed = mixed_multiplicity(plane, [a, b])
        if mixed * mixed > samuel_multiplicity(plane, a) * samuel_multiplicity(plane, b):
            violations += 1
        pairs += 1
    _report(7, "Khovanskii-Teissier over 200 random pairs", pairs == 200 and violations == 0)


def test_criterion_08_endomorphism_laws():
    plane = ToricCone([(1, 0), (0, 1)])
    quadric = ToricCone(QUADRIC_RAYS)
    ok = True

    plane_endos = [
        ToricEndo(plane, [[2, 0], [0, 2]]),
        ToricEndo(plane, [[2, 0], [0, 3]]),
        ToricEndo(plane, [[0, 1], [1, 0]]),
    ]
    for first, second in itertools.product(plane_endos, repeat=2):
        ok &= first.compose(second).degree == first.degree * second.degree

    plane_divisors = [ToricDivisor(plane, (1, 2)), ToricDivisor(plane, (-1, 3))]
    for endo in plane_endos:
        for divisor in plane_divisors:
            pulled = pullback_divisor(endo, divisor)
            for v in box_points(plane):
                ok &= envelope_value(plane, pulled, v) == envelope_value(
                    plane, divisor, endo.apply(v)
                )

    a = MonomialIdeal(plane, [(1, 0), (0, 2)])
    b = MonomialIdeal(plane, [(2, 0), (0, 1)])
    for endo in plane_endos:
        ok &= mixed_multiplicity(
            plane, [pullback_ideal(endo, a), pullback_ideal(endo, b)]
        ) == endo.degree * mixed_multiplicity(plane, [a, b])
        ok &= samuel_multiplicity(
            plane, pullback_ideal(endo, a)
        ) == endo.degree * samuel_multiplicity(plane, a)

    quadric_endos = [
        ToricEndo(quadric, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
        ToricEndo(quadric, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    ]
    for first, second in itertools.product(quadric_endos, repeat=2):
        ok &= first.compose(second).degree == first.degree * second.degree
    quadric_divisors = [ToricDivisor(quadric, D_ONE), ToricDivisor(quadric, (2, 1, 2, 1))]
    mx = maximal_ideal(quadric)
    for endo in quadric_endos:
        for divisor in quadric_divisors:
            pulled = pullback_divisor(endo, divisor)
            for v in box_points(quadric):
                ok &= envelope_value(quadric, pulled, v) == envelope_value(
                    quadric, divisor, endo.apply(v)
                )
        ok &= samuel_multiplicity(
            quadric, pullback_ideal(endo, mx)
        ) == endo.degree * samuel_multiplicity(quadric, mx)

    _report(8, "degree, envelope commutation and multiplicity scaling", ok)


def test_criterion_09_defect_ideal_limit():
    cone = ToricCone(QUADRIC_RAYS)
    divisor = ToricDivisor(cone, D_ONE)
    v = (1, 1, 0)
    bound = envelope_value(cone, divisor, v) + envelope_value(cone, -divisor, v)
    scaled = {}
    for m in (1, 2, 4, 8):
        scaled[m] = z_value(defect_ideal(cone, divisor, m), v) / m
    ok = scaled[1] <= scaled[2] <= scaled[4] <= scaled[8]
    ok &= all(value <= bound for value in scaled.values())
    gap = {m: bound - value for m, value in scaled.items()}
    ok &= gap[8] <= gap[1]
    _report(9, "defect sequence monotone along divisibility, bounded by envelope sum", ok)


def _random_isolated_cone(rng: random.Random) -> ToricCone:
    while True:
        points = set()
        while len(points) < rng.randint(4, 6):
            points.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        hull = convex_hull_2d(points)
        if len(hull) < 3:
            continue
        try:
            return ToricCone([(int(x), int(y), 1) for x, y in hull])
        except (DomainError, InputError):
            continue


def test_criterion_10_toric_volume_zero_certificates():
    rng = random.Random(31415926)
    checked = 0
    ok = True
    for _ in range(10):
        cone = _random_isolated_cone(rng)
        for t in range(5):
            weights = [1 + ((t + i) % 3) for i in range(len(cone.rays))]
            v = primitive_vector(
                tuple(
                    sum(w * ray[j] for w, ray in zip(weights, cone.rays))
                    for j in range(3)
                )
            )
            value = log_discrepancy_value(cone, v)
            ok &= value >= 0
            # The zero linear form is the certificate for the lower bound.
            certificate = (0,) * 3
            ok &= all(
                sum(c * x for c, x in zip(certificate, ray)) <= 1 for ray in cone.rays
            )
            checked += 1
    ok &= checked == 50
    _report(10, "fifty nonnegative log discrepancies on random cones", ok)


def test_criterion_11_truncation_stabilizes():
    plane = ToricCone([(1, 0), (0, 1)])
    a = MonomialIdeal(plane, [(1, 0), (0, 3)])
    mx = maximal_ideal(plane)
    values = [
        samuel_multiplicity(plane, ideal_sum(a, ideal_power(mx, k)))
        for k in range(1, 7)
    ]
    ok = values == [1, 2, 3, 3, 3, 3]
    ok &= all(x <= y for x, y in zip(values, values[1:]))
    ok &= samuel_multiplicity(plane, a) == 3
    _report(11, "truncated multiplicities 1,2,3 stabilize at 3 from k=3", ok)
