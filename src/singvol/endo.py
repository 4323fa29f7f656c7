"""Finite toric endomorphisms and their transformation laws.

An integer matrix A with A(sigma) = sigma induces a finite endomorphism of
the affine toric variety of sigma fixing the torus-fixed point; its degree
is |det A|.  The module implements pull-back of toric divisors and monomial
ideals, verifies that nef envelopes commute with pull-back on all of sigma
by comparing the vertices of the section polyhedra, checks the degree
scaling of multiplicities, and packages the volume-monotonicity identities
for both the toric and the cone-over-a-curve families.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import DomainError, InputError
from . import exactmath as xm
from . import surface
from . import toric
from .toric import MonomialIdeal, ToricCone, ToricDivisor


class ToricEndo:
    """A lattice-linear endomorphism preserving the cone.

    Every ray must map to a positive multiple of a ray and every ray must be
    hit; multiplication maps and ray permutations are the typical examples.
    """

    def __init__(self, cone: ToricCone, matrix):
        self.cone = cone
        matrix = xm.as_list(matrix, "an endomorphism matrix")
        rows = [toric._as_lattice_vector(r, cone.dim, "matrix row") for r in matrix]
        if len(rows) != cone.dim:
            raise InputError(
                f"endomorphism matrix must be {cone.dim}x{cone.dim}"
            )
        self.matrix = tuple(rows)
        det = xm.determinant(self.matrix)
        if det == 0:
            raise DomainError("endomorphism matrix is singular")
        self.degree = abs(int(det))  # the lattice index, the topological degree

        ray_index = {ray: i for i, ray in enumerate(cone.rays)}
        targets = []
        scales = []
        for ray in cone.rays:
            image = self.apply(ray)
            g = gcd(*image)  # not 0: the matrix is not singular
            prim = tuple([x // g for x in image])
            if prim not in ray_index:
                raise DomainError(
                    f"the matrix does not preserve the cone: ray {ray} maps to "
                    f"{image}, which is not on an extreme ray"
                )
            # image = gcd * prim, and prim keeps its orientation: the negative
            # of a ray is never a ray of a strongly convex cone.
            targets.append(ray_index[prim])
            scales.append(g)
        if set(targets) != set(range(len(cone.rays))):
            raise DomainError(
                "the matrix does not map the extreme-ray set onto itself"
            )
        self.ray_targets = tuple(targets)
        self.ray_scales = tuple(scales)

    def apply(self, v) -> tuple[int, ...]:
        v = toric._as_lattice_vector(v, self.cone.dim)
        return tuple([toric._idot(row, v) for row in self.matrix])

    def apply_transpose(self, u) -> tuple[int, ...]:
        u = toric._as_lattice_vector(u, self.cone.dim)
        return tuple([toric._idot(col, u) for col in zip(*self.matrix)])

    def compose(self, other: "ToricEndo") -> "ToricEndo":
        if self.cone != other.cone:
            raise InputError("endomorphisms live on different cones")
        columns = list(zip(*other.matrix))
        product = [[toric._idot(row, col) for col in columns] for row in self.matrix]
        return ToricEndo(self.cone, product)

    def __repr__(self):
        return f"ToricEndo(matrix={[list(r) for r in self.matrix]})"


def pullback_divisor(endo: ToricEndo, divisor: ToricDivisor) -> ToricDivisor:
    """Pull back a toric divisor: the coefficient at a ray v is c times the
    coefficient at the ray carrying A(v) = c * (primitive image)."""
    toric._check_indexed(endo.cone, divisor)
    coeffs = tuple(
        Fraction(scale) * divisor.coeffs[target]
        for scale, target in zip(endo.ray_scales, endo.ray_targets)
    )
    return ToricDivisor(endo.cone, coeffs)


def pullback_ideal(endo: ToricEndo, a: MonomialIdeal) -> MonomialIdeal:
    """Pull back a monomial ideal: exponents transform by the transpose."""
    if a.cone != endo.cone:
        raise InputError("ideals live on different cones")
    return MonomialIdeal(endo.cone, [endo.apply_transpose(g) for g in a.gens])


def _section_vertices(cone: ToricCone, divisor: ToricDivisor, transform=tuple):
    """The vertices of P_D = {m : <m, ray_i> <= d_i}, sorted, after the
    linear map ``transform`` of integer vectors.  They are the negated
    vertices of the region {u : <u, ray_i> >= -scale * d_i} that the cone's
    cells list, divided by the scale that clears D's denominators."""
    (d,), (scale,) = xm._integer_rows([divisor.coeffs])
    vertices = toric._region_vertices(cone, [-x for x in d])
    return tuple(sorted({
        tuple([Fraction(-x, det * scale) for x in transform(m)]) for m, det in vertices
    }))


class CheckItem(namedtuple("CheckItem", "name left right")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.left == self.right


class PushPullReport(namedtuple("PushPullReport", "degree checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.passed)


def check_push_pull(endo: ToricEndo, divisor: ToricDivisor | None = None,
                    ideal: MonomialIdeal | None = None) -> PushPullReport:
    """Verification of the pull-back transformation laws.

    A sends ray i to g_i times ray t(i), so the section polyhedron
    P_{A*D} = {m : <m, ray_i> <= g_i d_t(i)} is A^T P_D.  The envelopes,
    their support functions, commute with pull-back on all of sigma exactly
    when the sorted vertices of P_{A*D} are the sorted A^T-images of those
    of P_D: the one divisor row.  For ideals the Samuel multiplicity (and a
    mixed multiplicity against the maximal ideal in dimension two) must
    scale by the degree.  With neither a divisor nor an ideal there is
    nothing to check, and an empty report would pass.
    """
    if divisor is None and ideal is None:
        raise InputError("a push-pull check needs a divisor or an ideal")
    cone = endo.cone
    checks = []
    if divisor is not None:
        checks.append(
            CheckItem(
                name="vertices of P(A*D) are the A^T-images of the vertices of P(D)",
                left=_section_vertices(cone, pullback_divisor(endo, divisor)),
                right=_section_vertices(cone, divisor, endo.apply_transpose),
            )
        )
    if ideal is not None:
        pulled_ideal = pullback_ideal(endo, ideal)
        checks.append(
            CheckItem(
                name="multiplicity scales by the degree",
                left=toric.samuel_multiplicity(cone, pulled_ideal),
                right=endo.degree * toric.samuel_multiplicity(cone, ideal),
            )
        )
        if cone.dim == 2:
            mx = toric.maximal_ideal(cone)
            checks.append(
                CheckItem(
                    name="mixed multiplicity against the maximal ideal scales",
                    left=toric.mixed_multiplicity(
                        cone, [pulled_ideal, pullback_ideal(endo, mx)]
                    ),
                    right=endo.degree * toric.mixed_multiplicity(cone, [ideal, mx]),
                )
            )
    return PushPullReport(degree=endo.degree, checks=tuple(checks))


class SurfaceCoverReport(namedtuple(
        "SurfaceCoverReport", "genus polarization cover_degree covering_volume base_volume")):
    """Volume multiplicativity for covers of cones over curves.

    A degree-e cover etale away from the vertex takes the cone over a
    genus-g degree-d curve to the cone over a curve of genus e(g-1)+1 and
    degree e*d, and volumes scale exactly by e.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.covering_volume == self.cover_degree * self.base_volume


def surface_cover_report(genus: int, polarization: int, cover_degree: int) -> SurfaceCoverReport:
    genus, polarization, cover_degree = map(xm.integer, (genus, polarization, cover_degree))
    if cover_degree < 1:
        raise InputError("cover degree must be positive")
    base = surface.volume(surface.cone_graph(genus, polarization))
    covering_genus = cover_degree * (genus - 1) + 1
    if covering_genus < 0:
        # Only genus 0 gets here: the base graph refused a negative genus.
        raise InputError(
            f"no degree-{cover_degree} cover of the cone over a rational curve is etale "
            f"away from the vertex: the covering curve's genus e(g - 1) + 1 would be "
            f"{covering_genus}"
        )
    covering = surface.volume(surface.cone_graph(covering_genus, cover_degree * polarization))
    return SurfaceCoverReport(
        genus=genus,
        polarization=polarization,
        cover_degree=cover_degree,
        covering_volume=covering,
        base_volume=base,
    )


class ToricVolumeReport(namedtuple("ToricVolumeReport", "degree")):
    """Volume vanishing certificate along a toric endomorphism.

    The log discrepancy at v is the envelope of the all-ones divisor at v,
    where the zero linear form is feasible because every coefficient is
    1 >= 0.  So it is nonnegative on all of sigma's interior, with no
    valuation sampled: the volume is zero on both sides, and the
    monotonicity inequality degenerates to 0 >= degree * 0.
    """

    __slots__ = ()

    @property
    def volume(self) -> Fraction:
        return Fraction(0)

    @property
    def passed(self) -> bool:
        return self.volume >= self.degree * self.volume


def toric_volume_report(cone: ToricCone, matrix) -> ToricVolumeReport:
    return ToricVolumeReport(degree=ToricEndo(cone, matrix).degree)
