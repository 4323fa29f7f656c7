"""Brute-force cross-checks, kept independent of the exact engines.

Colengths of powers of m-primary monomial ideals are counted directly:
the complement of the k-th power in the dual-cone semigroup is downward
closed, so a breadth-first search from the origin along semigroup
generators visits exactly the monomials outside the power.  Membership in
the power is decided by a memoized recursion over single generators, which
never leaves the dual cone.  The fitted values n! * colength / k^n
converge to the Samuel multiplicity computed geometrically, giving an
Ehrhart-style certification of the covolume engine.

A small vertex enumerator plays the same role for the simplex solver.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from fractions import Fraction
from math import factorial
from operator import mul

from .errors import DomainError, InputError
from . import exactmath as xm
from .exactmath import LPProblem
from .toric import MonomialIdeal, ToricCone, hilbert_basis

# The largest power colength counts; the count grows like k^n.
POWER_CAP = 64


def colength(cone: ToricCone, a: MonomialIdeal, k: int) -> int:
    """Number of monomials of the dual-cone semigroup outside the k-th power:
    0 for the unit ideal, finite for an m-primary one.  Powers above
    POWER_CAP raise DomainError."""
    if a.cone != cone:
        raise InputError("ideal does not live on the given cone")
    k = xm.integer(k)
    if k < 0:
        raise InputError("power must be nonnegative")
    if k > POWER_CAP:
        raise DomainError(f"power {k} exceeds the cap {POWER_CAP}")
    if k == 0 or a.is_unit:
        return 0
    if not a.is_m_primary:
        raise DomainError("colengths are finite only for m-primary ideals")

    steps = hilbert_basis(cone)
    gens, rays = a.gens, cone.rays
    memo: dict[tuple, bool] = {}

    def in_power(u, j) -> bool:
        if any(sum(map(mul, u, ray)) < 0 for ray in rays):
            return False
        if j == 0:
            return True
        key = (u, j)
        cached = memo.get(key)
        if cached is None:
            cached = any(
                in_power(tuple(x - y for x, y in zip(u, g)), j - 1) for g in gens
            )
            memo[key] = cached
        return cached

    origin = (0,) * cone.dim
    seen = {origin}
    queue = deque([origin])
    count = 0
    while queue:
        u = queue.popleft()
        count += 1
        for s in steps:
            nxt = tuple(x + y for x, y in zip(u, s))
            if nxt not in seen and not in_power(nxt, k):
                seen.add(nxt)
                queue.append(nxt)
    return count


class CountReport(namedtuple("CountReport", "ks colengths fitted")):
    """Colength counts with the fitted leading coefficients n!*count/k^n, at
    one or more distinct sample powers."""

    __slots__ = ()

    def __new__(cls, ks, colengths, fitted):
        if not (len(ks) == len(colengths) == len(fitted)):
            raise InputError("report columns must have equal lengths")
        if not ks:
            raise InputError("a report needs at least one sample power")
        if len(set(ks)) != len(ks):
            raise InputError("sample powers must be distinct")
        by_k = [c for _, c in sorted(zip(ks, colengths))]
        for earlier, later in zip(by_k, by_k[1:]):
            if later < earlier:
                raise InputError("colengths must be non-decreasing in k")
        return super().__new__(cls, ks, colengths, fitted)


def multiplicity_estimate(cone: ToricCone, a: MonomialIdeal, ks) -> CountReport:
    """Count colengths at the powers ks and fit the leading coefficient."""
    ks = xm.integer_vector(ks)
    if any(k < 1 for k in ks):
        raise InputError("sample powers must be at least 1")
    counts = tuple(colength(cone, a, k) for k in ks)
    fitted = tuple(
        Fraction(factorial(cone.dim) * c, k**cone.dim) for c, k in zip(counts, ks)
    )
    return CountReport(ks=ks, colengths=counts, fitted=fitted)


def lp_vertex_enumerate(problem: LPProblem):
    """All basic feasible points of a small inequality system.

    Solves every square subsystem of active constraints and keeps the exact
    feasible solutions; on bounded problems the best objective value among
    them must agree with the simplex optimum.
    """
    n = len(problem.objective)
    m = len(problem.constraints)
    if n > 4:
        raise DomainError("vertex enumeration is limited to dimension <= 4")
    if m > 12:
        raise DomainError("vertex enumeration is limited to 12 constraints")
    points = {}
    for subset in itertools.combinations(range(m), n):
        mat = tuple(problem.constraints[i][0] for i in subset)
        try:
            point = xm.solve_linear(mat, tuple(problem.constraints[i][1] for i in subset))
        except DomainError:
            continue
        if all(xm.dot(normal, point) <= bound for normal, bound in problem.constraints):
            points[point] = xm.dot(problem.objective, point)
    return sorted(points.items())
