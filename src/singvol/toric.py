"""Affine toric singularities given by rational cones.

A strongly convex full-dimensional cone sigma in Z^n carries an isolated
torus-fixed point.  A cone builds its simplicial cells once, at
construction: for each n-subset of its rays with nonzero determinant, the
integer adjugate of those rays.  The facets, the isolation test, the
envelopes, the numerically-Cartier test and the vertices of section
regions are all read off these cells.  This module computes, exactly over
the rationals:

* nef envelopes of toric Weil divisors: the envelope of D at a valuation
  v in sigma is the maximum of <m, v> over all linear forms m with
  <m, ray_i> <= d_i, and by LP duality the minimum of sum lam_k d_k over
  the simplicial cells of rays whose cone holds v = sum lam_k ray_k.  It is
  read off one cell, in integers, with the primal m and the dual lam
  checked to be feasible and of equal value;
* the numerically-Cartier test with a linear-form certificate or an
  interior witness where the envelope sum goes negative, both read off
  the first cell in integers;
* monomial ideals: orders along valuations, Samuel and mixed
  multiplicities via exact Newton-region covolumes, products, powers and
  maximal ideals;
* Hilbert bases of the dual cone, from the fundamental parallelepipeds of
  the simplicial pieces of a pulling triangulation of it, each enumerated
  as the det cosets of the lattice its rays span;
* defect ideals of Weil divisors, via minimal module generators of the
  section modules found by exact lattice search in a slab;
* Izumi comparison constants between interior valuations;
* the log-discrepancy function, whose nonnegativity certifies that the
  toric volume vanishes.

Conventions.  Rays of sigma live in N = Z^n, exponents and linear forms in
the dual lattice M.  A divisor D = sum d_i D_i is recorded by the vector of
its coefficients at the rays, so a Cartier divisor with support function m
has d_i = <m, ray_i>.  Sections of O(D) are the lattice points u with
<u, ray_i> >= -d_i.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from math import ceil, comb, factorial, floor, gcd, prod
from operator import le, mul

from .errors import DomainError, InputError, InternalError, UnsupportedDimensionError, check
from . import exactmath as xm
from .exactmath import INFEASIBLE, LPProblem, lp_max, OPTIMAL


def _as_lattice_vector(v, dim, what="lattice vector") -> tuple[int, ...]:
    vec = xm.integer_vector(v, what)
    if len(vec) != dim:
        raise InputError(f"{what} {v} does not have dimension {dim}")
    return vec


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


# A simplicial cell: the indices of n linearly independent rays, the
# determinant (made positive) of the matrix B with those rays as rows, the
# adjugate A of B (B A = det I) by columns and by rows, and the indices of
# the other rays.  On the cell, v = sum lam_k ray_k with lam = A^T v / det,
# and the form with <m, ray_k> = c_k on its rays is m = A c_B / det.
_Cell = namedtuple("_Cell", "rays det cols rows others")


def _simplicial_cells(rays, n):
    """The cells of every n-subset of the rays with nonzero determinant, in
    combinations order; at most C(r, n) of them for r rays."""
    cells = []
    every = range(len(rays))
    for subset in itertools.combinations(every, n):
        try:
            det, cols = xm.adjugate([rays[i] for i in subset])
        except DomainError:  # these rays span no cell
            continue
        if det < 0:
            det, cols = -det, tuple([tuple([-x for x in col]) for col in cols])
        others = tuple([i for i in every if i not in subset])
        cells.append(_Cell(subset, det, cols, tuple(zip(*cols)), others))
    return tuple(cells)


def _tight_form(cell: _Cell, c):
    """det times the form tight on the cell at the integer coefficients c,
    which are indexed by all rays: A c_B."""
    c_cell = [c[i] for i in cell.rays]
    return [_idot(row, c_cell) for row in cell.rows]


class ToricCone:
    """A strongly convex full-dimensional rational cone with primitive rays.

    The constructor builds the simplicial cells, reads the inward facet
    normals, the primitive rays of the dual cone, off them, and checks that
    every listed ray is extreme and that every proper face is smooth, which
    is exactly the condition for the toric variety to have an isolated
    singularity.
    A face of a smooth cone is smooth, so the facets are tested, in every
    dimension.
    """

    def __init__(self, rays):
        rays = xm.as_list(rays, "the rays of a cone")
        if not rays:
            raise InputError("a cone needs at least one ray")
        # The first ray, read once, gives the dimension.
        rays[0] = xm.integer_vector(rays[0], "ray")
        self.dim = len(rays[0])
        if self.dim < 1:
            raise InputError("cone dimension must be at least 1")
        seen = set()
        prim_rays = []
        for ray in rays:
            vec = _as_lattice_vector(ray, self.dim, "ray")
            if all(x == 0 for x in vec):
                raise InputError("the zero vector cannot be a ray")
            g = gcd(*vec)
            if g != 1:
                reduced = tuple(x // g for x in vec)
                raise InputError(
                    f"ray {vec} is not primitive; divide by gcd {g} to get {reduced}"
                )
            if vec in seen:
                raise InputError(f"duplicate ray {vec}")
            seen.add(vec)
            prim_rays.append(vec)
        self.rays = tuple(prim_rays)
        self.cells = _simplicial_cells(self.rays, self.dim)
        if not self.cells:
            raise DomainError("cone is not full-dimensional: rays do not span")

        # Column k of a cell's adjugate pairs det > 0 with the cell's ray k
        # and 0 with its other rays: it is the vector of signed maximal
        # minors of those n - 1 rays.  When it pairs >= 0 with every ray it
        # is g times an inward facet normal, g the gcd of those minors.
        # Cells sharing those n - 1 rays repeat the test, so it runs once
        # per primitive column.
        gcds, tested = {}, set()
        for cell in self.cells:
            for col in cell.cols:
                g = gcd(*col)
                normal = tuple([x // g for x in col])
                if normal not in tested:
                    tested.add(normal)
                    if all(_idot(normal, self.rays[i]) >= 0 for i in cell.others):
                        gcds[normal] = g
        self.facet_normals = tuple(sorted(gcds))
        if xm.matrix_rank(self.facet_normals) != self.dim:
            raise DomainError("cone is not strongly convex: it contains a line")

        for ray in self.rays:
            tight = [f for f in self.facet_normals if _idot(f, ray) == 0]
            if xm.matrix_rank(tight) != self.dim - 1:
                raise DomainError(
                    f"ray {ray} is not an extreme ray of the cone spanned by the input"
                )

        # A simplicial facet is smooth exactly when its rays' maximal minors
        # have gcd 1.
        for normal in self.facet_normals:
            tight = [r for r in self.rays if _idot(normal, r) == 0]
            if len(tight) != self.dim - 1:
                raise DomainError(f"facet with normal {normal} is not simplicial")
            if gcds[normal] != 1:
                spanned = ", ".join(map(str, tight[:-1])) + f" and {tight[-1]}"
                raise DomainError(
                    f"facet spanned by {spanned} is a singular cone, so the "
                    "singularity is not isolated"
                )

    # -- membership ---------------------------------------------------------

    def _min_pairing(self, v) -> int:
        """min <f, v> over the facet normals f, for a v already read as a lattice vector."""
        return min([_idot(f, v) for f in self.facet_normals])

    def contains(self, v) -> bool:
        return self._min_pairing(_as_lattice_vector(v, self.dim)) >= 0

    def interior_contains(self, v) -> bool:
        return self._min_pairing(_as_lattice_vector(v, self.dim)) > 0

    def dual_contains(self, u) -> bool:
        """Membership of an M-lattice vector in the dual cone."""
        u = _as_lattice_vector(u, self.dim)
        return all(_idot(u, ray) >= 0 for ray in self.rays)

    def interior_point(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.rays))

    def __eq__(self, other):
        return isinstance(other, ToricCone) and set(self.rays) == set(other.rays)

    def __hash__(self):
        return hash(frozenset(self.rays))

    def __repr__(self):
        return f"ToricCone(rays={list(self.rays)})"


class ToricDivisor(namedtuple("ToricDivisor", "cone coeffs")):
    """A toric Weil divisor: one coefficient per ray, read by parse_rational."""

    __slots__ = ()

    def __new__(cls, cone, coeffs):
        coeffs = xm.rational_vector(coeffs, "the coefficients of a divisor")
        if len(coeffs) != len(cone.rays):
            raise InputError(
                f"divisor has {len(coeffs)} coefficients but the cone has "
                f"{len(cone.rays)} rays"
            )
        return super().__new__(cls, cone, coeffs)

    def __neg__(self):
        return ToricDivisor(self.cone, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        _check_indexed(self.cone, other)
        return ToricDivisor(
            self.cone, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, t):
        t = xm.parse_rational(t)
        return ToricDivisor(self.cone, tuple(t * c for c in self.coeffs))


def _check_indexed(cone: ToricCone, divisor: ToricDivisor):
    """Raise InputError unless the divisor's coefficients follow the cone's
    rays in order; a cone listing the same rays in another order does not."""
    if divisor.cone.rays != cone.rays:
        raise InputError("the divisor's coefficients are not indexed by the cone's rays")


def minimal_elements(cone: ToricCone, points):
    """Minimal elements of a set of M-lattice points under dual-cone order.

    u is dominated when u - u' lies in the dual cone for another point u' of
    the set, that is, by linearity, when the pairing vector
    (<u, ray_i>)_i is at least that of u' in every entry.  Each distinct
    point's pairing vector is computed once.  Points are processed by
    increasing total pairing against the rays, which is a strictly positive
    grading on the dual cone, so only a point kept earlier can dominate.
    Pairings may be negative: the points need not lie in the dual cone.
    """
    dim, rays = cone.dim, cone.rays
    paired = []
    for u in set(points):
        if len(u) != dim:
            raise InputError(f"vector {u} does not have dimension {dim}")
        p = [_idot(u, ray) for ray in rays]
        paired.append((sum(p), u, p))
    paired.sort()
    kept, kept_pairings = [], []
    for _, u, p in paired:
        for q in kept_pairings:
            if all(map(le, q, p)):
                break
        else:
            kept.append(u)
            kept_pairings.append(p)
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal in the semigroup ring of the dual cone.

    Stored by its minimal generating exponents.  The m-primary flag holds
    exactly for a proper ideal whose quotient is finite dimensional, that is
    when every extreme ray of the dual cone carries a generator.  As usual,
    the unit ideal, whose quotient is zero, is not m-primary.
    """

    def __init__(self, cone: ToricCone, gens):
        self.cone = cone
        gens = xm.as_list(gens, "the generators of an ideal")
        raw = [_as_lattice_vector(g, cone.dim, "generator") for g in gens]
        if not raw:
            raise InputError("a monomial ideal needs at least one generator")
        self.gens = minimal_elements(cone, raw)
        # Every exponent u dominates a kept q, <u, ray> >= <q, ray>, so all
        # lie in the dual cone when the kept ones do.
        if any(_idot(q, ray) < 0 for q in self.gens for ray in cone.rays):
            u = next(u for u in raw if any(_idot(u, ray) < 0 for ray in cone.rays))
            raise DomainError(f"exponent {u} lies outside the dual cone")
        self.is_unit = self.gens == ((0,) * cone.dim,)
        # {w: the generator on w} over the dual rays w that carry one.
        on_rays = ((tuple([x // d for x in g]), g) for g in self.gens if (d := gcd(*g)))
        self.ray_generators = {w: g for w, g in on_rays if w in cone.facet_normals}
        self.is_m_primary = len(self.ray_generators) == len(cone.facet_normals)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.cone == other.cone
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.cone, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(gens={list(self.gens)})"


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.cone != b.cone:
        raise InputError("ideals live on different cones")
    sums = {tuple(x + y for x, y in zip(g, h)) for g in a.gens for h in b.gens}
    return MonomialIdeal(a.cone, sums)


def ideal_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    k = xm.integer(k)
    if k < 0:
        raise InputError("ideal power wants a nonnegative exponent")
    if k == 0:
        return MonomialIdeal(a.cone, [(0,) * a.cone.dim])
    # Repeated squaring: every product is minimalised, so no step forms the
    # C(g+k-1, k) sums of k generators.
    power = None
    while k:
        if k & 1:
            power = a if power is None else ideal_product(power, a)
        k >>= 1
        a = ideal_product(a, a) if k else a
    return power


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.cone != b.cone:
        raise InputError("ideals live on different cones")
    return MonomialIdeal(a.cone, set(a.gens) | set(b.gens))


def hilbert_basis(cone: ToricCone):
    """Minimal generating set of the dual-cone semigroup.

    The dual cone is cut into simplicial pieces spanned by dual rays.  A
    lattice point of a piece cone(w_1, ..., w_n) is a nonnegative integer
    combination of the w_k plus a point of the piece's fundamental
    parallelepiped, so the dual rays and those points generate the
    semigroup, and the basis is the set of their minimal nonzero elements
    (Bruns and Koch, J. Symbolic Comput. 2001).
    """
    return minimal_elements(cone, _semigroup_generators(cone))


def _semigroup_generators(cone: ToricCone) -> set:
    """The nonzero dual rays and parallelepiped points that generate the
    dual-cone semigroup, before minimalising."""
    n = cone.dim
    points = set(cone.facet_normals)
    for piece in _dual_triangulation(cone):
        rays = [cone.facet_normals[i] for i in piece]
        cells = _simplicial_cells(rays, n)
        check(len(cells) == 1, f"the dual cone's piece {rays} is not simplicial")
        points.update(_parallelepiped_points(cells[0], rays))
    points.discard((0,) * n)
    return points


def _dual_triangulation(cone: ToricCone):
    """A pulling triangulation of the dual cone, as tuples of n indices into
    cone.facet_normals.

    A face of the dual cone is the set of its dual rays, and its facets
    are the largest proper nonempty faces cut out by one ray of the cone:
    the dual rays of the face orthogonal to that ray.  A face spanned by as
    many rays as its dimension is its own piece; any other face is coned
    from its first ray over the pieces of its facets without that ray.
    """
    zeros = [
        frozenset([i for i, w in enumerate(cone.facet_normals) if _idot(w, ray) == 0])
        for ray in cone.rays
    ]

    def pieces(face, dim):
        if len(face) == dim:
            return [tuple(sorted(face))]
        cuts = {face & z for z in zeros} - {face, frozenset()}
        apex = min(face)
        return [
            (apex,) + piece
            for g in cuts if apex not in g and not any(g < h for h in cuts)
            for piece in pieces(g, dim - 1)
        ]

    return pieces(frozenset(range(len(cone.facet_normals))), cone.dim)


def _parallelepiped_points(cell: _Cell, rays):
    """The lattice points u = sum lam_k w_k with 0 <= lam_k < 1 of the
    simplicial cone on the rays w_k of a cell, lam_k = <col_k, u> / det.

    There is one per coset of the lattice the w_k span, det in all.  They
    are reached from 0 by adding unit vectors and reducing each sum to its
    coset's point; the count and the bounds are checked.
    """
    n, det = len(rays), cell.det
    zero = (0,) * n
    points, frontier = {zero}, [zero]
    # A reduction that goes wrong could reach more than det points; the
    # count check below stops it.
    while frontier and len(points) <= det:
        u = frontier.pop()
        for j in range(n):
            v = _reduce_to_parallelepiped(cell, rays, u[:j] + (u[j] + 1,) + u[j + 1:])
            if v not in points:
                points.add(v)
                frontier.append(v)
    check(len(points) == det,
          f"a parallelepiped of determinant {det} holds {len(points)} lattice points")
    check(all(0 <= _idot(col, u) < det for u in points for col in cell.cols),
          "a parallelepiped point lies outside its parallelepiped")
    return points


def _reduce_to_parallelepiped(cell: _Cell, rays, u):
    """u - sum_k floor(lam_k) w_k: the point of u's coset in the cell's
    fundamental parallelepiped."""
    floors = [_idot(col, u) // cell.det for col in cell.cols]
    return tuple([
        x - sum([f * w[j] for f, w in zip(floors, rays)]) for j, x in enumerate(u)
    ])


def maximal_ideal(cone: ToricCone) -> MonomialIdeal:
    """The ideal of the torus-fixed point, generated by the Hilbert basis.
    The constructor minimalises the semigroup generators to that basis, so
    they are minimalised once."""
    return MonomialIdeal(cone, _semigroup_generators(cone))


def _lattice_points_between(cone: ToricCone, lower, widths):
    """Integer points u with lower_i <= <u, ray_i> <= lower_i + widths_i."""
    n = cone.dim
    constraints = []
    for ray, lo, width in zip(cone.rays, lower, widths):
        constraints.append(([-x for x in ray], -lo))
        constraints.append((ray, lo + width))
    box = []
    for j in range(n):
        hi_out = lp_max(LPProblem([int(i == j) for i in range(n)], constraints))
        lo_out = lp_max(LPProblem([-int(i == j) for i in range(n)], constraints))
        if INFEASIBLE in (hi_out.status, lo_out.status):
            raise DomainError("lattice search region is empty")
        if hi_out.status != OPTIMAL or lo_out.status != OPTIMAL:
            raise DomainError("lattice search region is unbounded")
        box.append((ceil(-lo_out.value), floor(hi_out.value)))
    points = []
    for u in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        pairings = [_idot(u, ray) for ray in cone.rays]
        if all(lo <= p <= lo + width for p, lo, width in zip(pairings, lower, widths)):
            points.append(tuple(u))
    return points


def module_generators(cone: ToricCone, lower_bounds):
    """Minimal generators of {u in M : <u, ray_i> >= c_i} as a module over
    the dual-cone semigroup.

    <u, ray_i> is an integer, so each rational bound c_i is first rounded up
    to ceil(c_i); the region then has the same lattice points and integer
    bounds.  Any element decomposes as a convex combination of the region's
    vertices plus a nonnegative combination of dual rays; if any dual-ray
    coefficient reaches 1 the element is dominated.  Minimal generators
    therefore lie in the section slab, and are its minimal elements.
    """
    c = [ceil(x) for x in xm.rational_vector(lower_bounds, "the lower bounds")]
    if len(c) != len(cone.rays):
        raise InputError("one lower bound per ray is required")
    return minimal_elements(cone, _section_slab(cone, c))


def _section_slab(cone: ToricCone, c):
    """The lattice points u with c_i <= <u, ray_i> <= c_i + width_i, for
    integer bounds c, where module_generators searches.  The width on ray i
    is the largest excess <v, ray_i> - c_i over the region's vertices v,
    floored and clipped at 0, plus the zonotope shift sum_w <w, ray_i> over
    the dual rays w."""
    vertices = _region_vertices(cone, c)
    check(vertices, "the section region has no vertex, yet it is pointed and nonempty")
    widths = []
    for ray, lo in zip(cone.rays, c):
        excess = max([_idot(m, ray) // det for m, det in vertices]) - lo
        shift = sum([_idot(w, ray) for w in cone.facet_normals])
        widths.append(max(0, excess) + shift)
    return _lattice_points_between(cone, c, widths)


def _region_vertices(cone: ToricCone, c):
    """The vertices v of {u : <u, ray_i> >= c_i} for integer c, one per cell
    whose tight form meets every other bound, in cell order, each as the
    pair (det * v, det)."""
    vertices = []
    for cell in cone.cells:
        m = _tight_form(cell, c)
        if all(_idot(m, cone.rays[i]) >= c[i] * cell.det for i in cell.others):
            vertices.append((m, cell.det))
    return vertices


# ---------------------------------------------------------------------------
# Nef envelopes
# ---------------------------------------------------------------------------


def _envelope(cone: ToricCone, d, scale, v):
    """The envelope at v of the divisor d / scale, for integers d and
    scale > 0, from the first cell whose dual weights lam = A^T v / det are
    nonnegative and whose form m = A d_B / det satisfies <m, ray_i> <= d_i.
    Such a cell exists by LP duality, and the equal objective values
    <m, v> = sum lam_k d_k certify both optima.  Returns the value, m, the
    cell and the integer weights lam * det.
    """
    rays = cone.rays
    for cell in cone.cells:
        lam = []
        for col in cell.cols:
            weight = _idot(col, v)
            if weight < 0:
                break
            lam.append(weight)
        else:
            det = cell.det
            m = _tight_form(cell, d)
            # m is tight on the cell's rays by construction; the check below
            # does not take that on trust.
            if all(_idot(m, rays[i]) <= d[i] * det for i in cell.others):
                break
    else:
        raise InternalError(f"no simplicial cell certifies the envelope at {v}")
    check(all(_idot(m, ray) <= di * det for ray, di in zip(rays, d)),
          "the envelope's linear form is infeasible")
    check(min(lam) >= 0 and [
        sum([l * rays[i][j] for l, i in zip(lam, cell.rays)]) for j in range(cone.dim)
    ] == [det * x for x in v], "the envelope's dual weights do not combine the rays to v")
    value = _idot(m, v)
    check(value == _idot(lam, [d[i] for i in cell.rays]),
          "the envelope's primal and dual values differ")
    denom = det * scale
    return Fraction(value, denom), tuple([Fraction(x, denom) for x in m]), cell, lam


def envelope_certificate(cone: ToricCone, divisor: ToricDivisor, v):
    """Envelope value at a valuation v in sigma, with an optimal linear form.

    The value is max <m, v> subject to <m, ray_i> <= d_i, which is bounded
    exactly when v lies in the cone, as is checked first.  It is evaluated
    over the cone's simplicial cells; among tied optima, m is the form of
    the first certifying cell.
    """
    _check_indexed(cone, divisor)
    v = _as_lattice_vector(v, cone.dim)
    if cone._min_pairing(v) < 0:
        raise DomainError(f"valuation vector {v} lies outside the cone")
    (d,), (scale,) = xm._integer_rows([divisor.coeffs])
    return _envelope(cone, d, scale, v)[:2]


def envelope_problem(cone: ToricCone, divisor: ToricDivisor, v) -> LPProblem:
    """The envelope LP at v: max <m, v> subject to <m, ray_i> <= d_i."""
    _check_indexed(cone, divisor)
    v = _as_lattice_vector(v, cone.dim)
    return LPProblem(v, tuple(zip(cone.rays, divisor.coeffs)))


def envelope_value(cone: ToricCone, divisor: ToricDivisor, v) -> Fraction:
    return envelope_certificate(cone, divisor, v)[0]


class NumericallyCartierResult(namedtuple(
        "NumericallyCartierResult", "is_numerically_cartier certificate witness gap",
        defaults=(None,) * 3)):
    __slots__ = ()


def is_numerically_cartier(cone: ToricCone, divisor: ToricDivisor) -> NumericallyCartierResult:
    """Decide whether a toric divisor is numerically Cartier.

    On a toric variety this happens exactly when the coefficients extend to
    a single linear form m with <m, ray_i> = d_i, which is returned as the
    certificate.  Otherwise the inconsistency of that linear system yields,
    constructively, an interior valuation where the sum of the envelopes of
    D and -D is negative; that witness is returned together with the gap.

    Both are read off the cone's first cell B, in integers, with d cleared
    of denominators: its tight form m = A d_B is the only candidate, and the
    first ray i it misses gives the relation lam = det e_i - sum_k
    <col_k, ray_i> e_{B_k} among the rays, with <lam, d> = det d_i -
    <m, ray_i> != 0.
    """
    _check_indexed(cone, divisor)
    (d,), (scale,) = xm._integer_rows([divisor.coeffs])
    minus = [-x for x in d]
    rays, cell = cone.rays, cone.cells[0]
    det = cell.det
    m = _tight_form(cell, d)
    missed = next((i for i in cell.others if _idot(m, rays[i]) != det * d[i]), None)
    if missed is None:
        check(all(_idot(m, ray) == det * di for ray, di in zip(rays, d)),
              "wrong Cartier certificate")
        sample = cone.interior_point()
        total = _envelope(cone, d, scale, sample)[0] + _envelope(cone, minus, scale, sample)[0]
        check(
            total == 0,
            "numerically-Cartier contradiction: a linear certificate exists "
            f"but the envelope sum at {sample} is {total}",
        )
        denom = det * scale
        return NumericallyCartierResult(True, certificate=tuple([Fraction(x, denom) for x in m]))

    lam = [0] * len(rays)
    lam[missed] = det
    for k, col in zip(cell.rays, cell.cols):
        lam[k] = -_idot(col, rays[missed])
    check(_idot(lam, d) != 0 and not any(_idot(lam, column) for column in zip(*rays)),
          "the inconsistency certificate is not a relation among the rays that d breaks")
    # w is both the lam > 0 and the -lam < 0 combination of rays, so a face
    # that holds w holds every ray in the relation lam.  The proper faces of
    # an isolated cone are simplicial, their rays carry no relation, and w is
    # interior.  Its envelope sum is at most both <lam, d> and -<lam, d>, so
    # it is negative whatever the sign of lam.
    w = tuple(
        sum(max(l, 0) * ray[j] for l, ray in zip(lam, cone.rays))
        for j in range(cone.dim)
    )
    check(any(w), "the inconsistency certificate gives the zero valuation")
    witness = xm.primitive_vector(w)
    check(cone._min_pairing(witness) > 0, "witness is not interior to the cone")
    gap = _envelope(cone, d, scale, witness)[0] + _envelope(cone, minus, scale, witness)[0]
    check(gap < 0, "envelope sum at the witness is not negative")
    return NumericallyCartierResult(False, witness=witness, gap=gap)


# ---------------------------------------------------------------------------
# Orders, multiplicities
# ---------------------------------------------------------------------------


def ord_value(a: MonomialIdeal, v) -> Fraction:
    """Order of the ideal along the monomial valuation v: min <u, v>."""
    v = _as_lattice_vector(v, a.cone.dim)
    if a.cone._min_pairing(v) < 0:
        raise DomainError(f"valuation vector {v} lies outside the cone")
    return Fraction(min(_idot(g, v) for g in a.gens))


def z_value(a: MonomialIdeal, v) -> Fraction:
    """Coefficient at v of the Cartier divisor cut out by the ideal (anti-effective)."""
    return -ord_value(a, v)


def samuel_multiplicity(cone: ToricCone, a: MonomialIdeal) -> Fraction:
    """n! times the covolume of the Newton region of an m-primary ideal.

    The region between the dual cone and the Newton polyhedron is tiled by
    the cones from the origin over the simplices of the bounded facets of
    the polyhedron, exactly those whose inward normal is interior to sigma;
    each cone contributes one exact lattice determinant.
    """
    if cone.dim > 3:
        raise UnsupportedDimensionError(
            "exact Samuel multiplicity is implemented for dimension <= 3; "
            "use the counting oracle for higher dimensions"
        )
    if a.cone != cone:
        raise InputError("ideal does not live on the given cone")
    if not a.is_m_primary:
        raise DomainError("Samuel multiplicity needs an m-primary ideal")
    gens = a.gens
    # The generator on each dual ray, doubled, lies in the Newton polyhedron
    # strictly above every compact face; with it the points span the space
    # and their hull has the same compact faces as the polyhedron.
    points = list(gens) + [tuple([2 * x for x in g]) for g in a.ray_generators.values()]

    faces = [f for f in xm.hull_facets(points) if cone._min_pairing([-x for x in f[0]]) > 0]
    rim = set()
    for normal, offset, simplices in faces:
        check(all(_idot(normal, g) <= offset for g in gens),
              "a kept hull face is not a compact face of the Newton polyhedron")
        # Each simplex's ridges, mod 2: a ridge two kept simplices share cancels.
        for simplex in simplices:
            rim ^= set(map(frozenset, itertools.combinations(simplex, cone.dim - 1)))
    # Counted mod 2, the boundary of the kept faces lies on the boundary of
    # the dual cone only when they are all the compact faces.
    on_rim = all(any(all(_idot(x, r) == 0 for x in cell) for r in cone.rays) for cell in rim)
    check(faces and on_rim, "the kept hull faces do not cover the Newton region")
    return Fraction(xm.fan_volume(faces))


def mixed_multiplicity(cone: ToricCone, ideals) -> Fraction:
    """Mixed multiplicity by polarization over the distinct products.

    Group the arguments into distinct ideals b_1, ..., b_m taken k_1, ...,
    k_m times.  Gathering the 2^n - 1 nonempty subsets of the arguments by
    their product b^j = b_1^j_1 ... b_m^j_m gives

        e(a_1, ..., a_n) = (1/n!) sum over 0 <= j <= k, j != 0, of
                           (-1)^(n - |j|) C(k_1, j_1) ... C(k_m, j_m) e(b^j).

    Each b^j is one ideal_product from b^(j - e_i), i the last index with
    j_i > 0, and e is taken once per distinct product ideal: e(a, a, a)
    takes 3 multiplicities and 2 products, e(m, m, m^2) takes 4
    multiplicities, since m.m = m^2.  Mixed multiplicities of m-primary
    ideals are positive integers, so the sum is checked to be a positive
    multiple of n!.  Minus this value is the intersection number over the
    fixed point of the nef divisors cut out by the ideals.
    """
    ideals = xm.as_list(ideals, "the ideals")
    n = cone.dim
    if len(ideals) != n:
        raise InputError(f"mixed multiplicity needs exactly {n} ideals, got {len(ideals)}")
    if n > 3:
        raise UnsupportedDimensionError(
            "exact mixed multiplicity is implemented for dimension <= 3"
        )
    for a in ideals:
        if not a.is_m_primary:
            raise DomainError("mixed multiplicity needs m-primary ideals")
    counts = Counter(ideals)
    distinct, k = list(counts), list(counts.values())
    products, values, total = {}, {}, 0
    for j in itertools.product(*[range(ki + 1) for ki in k]):
        if not any(j):
            continue
        i = max(t for t, jt in enumerate(j) if jt)
        below = products.get(j[:i] + (j[i] - 1,) + j[i + 1:])
        product = distinct[i] if below is None else ideal_product(below, distinct[i])
        products[j] = product
        if product not in values:
            values[product] = samuel_multiplicity(cone, product)
        total += (-1) ** (n - sum(j)) * prod(map(comb, k, j)) * values[product]
    check(total > 0 and total % factorial(n) == 0,
          f"polarized sum {total} is not a positive multiple of {n}!")
    return total / factorial(n)


def defect_ideal(cone: ToricCone, divisor: ToricDivisor, m: int = 1) -> MonomialIdeal:
    """The defect ideal of mD: sections of mD times sections of -mD.

    Generated by sums of a minimal module generator of each factor, then
    minimalized.  It is the unit ideal exactly when mD is Cartier.
    """
    _check_indexed(cone, divisor)
    if cone.dim > 3:
        raise UnsupportedDimensionError("defect ideals are computed for dimension <= 3")
    m = xm.integer(m)
    if m < 1:
        raise InputError("defect ideal wants a positive multiple m")
    if any(d.denominator != 1 for d in divisor.coeffs):
        raise InputError("defect ideals are defined for integer divisors")
    plus = module_generators(cone, [-m * d for d in divisor.coeffs])
    minus = module_generators(cone, [m * d for d in divisor.coeffs])
    sums = {tuple(x + y for x, y in zip(u, u2)) for u in plus for u2 in minus}
    return MonomialIdeal(cone, sums)


def izumi_constant(cone: ToricCone, v, w) -> Fraction:
    """Best constant c with c*v - w in sigma, for interior v and w.

    Equals the maximum over inward facet normals of the pairing ratio
    <normal, w> / <normal, v>; it bounds ord_w above by c times ord_v on
    every monomial ideal.
    """
    v = _as_lattice_vector(v, cone.dim)
    w = _as_lattice_vector(w, cone.dim)
    if min(cone._min_pairing(v), cone._min_pairing(w)) <= 0:
        raise DomainError("Izumi constants compare interior valuations only")
    return max(
        Fraction(_idot(f, w), _idot(f, v)) for f in cone.facet_normals
    )


def log_discrepancy_value(cone: ToricCone, v) -> Fraction:
    """Log discrepancy of the primitive interior monomial valuation v.

    With the toric canonical divisor minus the sum of the ray divisors,
    this is the envelope of the all-ones divisor at v.  The zero linear
    form is always feasible, so the value is nonnegative; hence the toric
    volume vanishes.
    """
    v = _as_lattice_vector(v, cone.dim)
    if cone._min_pairing(v) <= 0:
        raise DomainError(f"log discrepancies are evaluated at interior valuations, got {v}")
    if gcd(*v) != 1:
        raise DomainError(f"valuation vector {v} must be primitive")
    value = _envelope(cone, (1,) * len(cone.rays), 1, v)[0]
    check(value >= 0, "log discrepancy is negative")
    return value
