"""The simplex against a dense reference pivot.

``_Tableau.pivot`` updates the other rows and the objective row only at the
pivot row's nonzero columns.  The dense pivot it replaced is the reference
(``reference.dense_pivot``): every LPOutcome, and every toric answer built
on lp_max, must be identical under both, values and Fraction types alike.
"""

import random
from fractions import Fraction as F

import pytest

from singvol import ToricCone, ToricDivisor
from singvol import exactmath as xm
from singvol.exactmath import INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem, lp_max
from singvol.toric import defect_ideal, envelope_certificate, is_numerically_cartier, module_generators

from conftest import CONES_3D
from reference import dense_pivot, with_dense_pivot


def typed(value):
    """A value with the type of every Fraction in it, so that equal values
    of different types compare unequal."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return tuple(typed(x) for x in value)
    return (type(value), value)


def random_entry(rng):
    if rng.random() < 0.25:
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    return F(rng.randint(-4, 4))


def random_lp(rng):
    """A small LP of one of several shapes, so that every status, degenerate
    vertices, redundant rows and zero objectives all occur."""
    n = rng.randint(1, 4)
    shape = rng.choice(["random", "degenerate", "redundant", "infeasible", "sparse"])
    m = 0 if shape == "sparse" and rng.random() < 0.2 else rng.randint(1, 7)
    normals = [[random_entry(rng) for _ in range(n)] for _ in range(m)]
    if shape == "sparse":
        normals = [[x if rng.random() < 0.4 else F(0) for x in row] for row in normals]
    if shape == "degenerate":
        # Every constraint is tight at one point, so pivots tie and stall.
        point = [random_entry(rng) for _ in range(n)]
        bounds = [sum(a * x for a, x in zip(row, point)) for row in normals]
    else:
        bounds = [random_entry(rng) for _ in range(m)]
    if shape == "redundant":
        # Repeated, scaled and summed rows make dependent constraints.
        for _ in range(rng.randint(1, 3)):
            i, i2 = rng.randrange(m), rng.randrange(m)
            t = F(rng.randint(1, 3))
            normals.append([t * a + b for a, b in zip(normals[i], normals[i2])])
            bounds.append(t * bounds[i] + bounds[i2] + rng.choice([0, 0, 1]))
    if shape == "infeasible":
        i = rng.randrange(m)
        normals.append([-a for a in normals[i]])
        bounds.append(-bounds[i] - rng.randint(1, 3))
    if rng.random() < 0.15:
        objective = [F(0)] * n
    else:
        objective = [random_entry(rng) for _ in range(n)]
    order = list(range(len(normals)))
    rng.shuffle(order)
    return LPProblem(objective, [(normals[i], bounds[i]) for i in order])


class TestAgainstDensePivot:
    def test_outcomes_are_identical(self):
        rng = random.Random(2024)
        statuses = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
        zero_objectives = 0
        for _ in range(2000):
            problem = random_lp(rng)
            outcome = lp_max(problem)
            reference = with_dense_pivot(lp_max, problem)
            assert typed(tuple(outcome)) == typed(tuple(reference)), problem
            statuses[outcome.status] += 1
            zero_objectives += not any(problem.objective)
        assert min(statuses.values()) >= 200, statuses
        assert zero_objectives >= 200

    @pytest.mark.parametrize("name", sorted(CONES_3D))
    def test_toric_answers_are_identical(self, name):
        rng = random.Random(len(name))
        rays = CONES_3D[name]
        divisors = [(0,) * len(rays), (1,) * len(rays)]
        divisors += [tuple(rng.randint(-3, 3) for _ in rays) for _ in range(4)]
        for coeffs in divisors:
            cone = ToricCone(rays)
            divisor = ToricDivisor(cone, coeffs)
            weights = [rng.randint(0, 3) for _ in rays]
            v = tuple(sum(w * ray[j] for w, ray in zip(weights, rays)) for j in range(cone.dim))
            for fn, args in [
                (envelope_certificate, (cone, divisor, v)),
                (is_numerically_cartier, (cone, divisor)),
                (defect_ideal, (cone, divisor)),
            ]:
                got = fn(*args)
                want = with_dense_pivot(fn, *args)
                if fn is defect_ideal:
                    got, want = got.gens, want.gens
                assert typed(tuple(got)) == typed(tuple(want)), (fn.__name__, coeffs)
        # hilbert_basis no longer solves an LP; the lattice box of the
        # section slab still does, so module generators carry it here.
        cone = ToricCone(rays)
        bounds = [(0,) * len(rays), (1,) * len(rays)]
        bounds += [tuple(rng.randint(-3, 3) for _ in rays) for _ in range(3)]
        for c in bounds:
            assert module_generators(cone, c) == with_dense_pivot(module_generators, cone, c), c

    def test_reference_is_patched_in(self):
        assert with_dense_pivot(lambda: xm._Tableau.pivot) is dense_pivot
        assert xm._Tableau.pivot is not dense_pivot
