"""Finite toric endomorphisms and their transformation laws.

An integer matrix A with A(sigma) = sigma induces a finite endomorphism of
the affine toric variety of sigma fixing the torus-fixed point; its degree
is |det A|.  The module implements pull-back of toric divisors and monomial
ideals, verifies the commutation of nef envelopes with pull-back on a
deterministic sample of valuations, checks the degree scaling of
multiplicities, and packages the volume-monotonicity identities for both
the toric and the cone-over-a-curve families.
"""

from __future__ import annotations

import itertools
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


def sample_valuations(cone: ToricCone):
    """Deterministic interior-and-boundary sample set: pairwise ray sums,
    the all-rays sum, and that sum shifted by each ray, all primitive."""
    samples = []
    total = cone.interior_point()
    for u, v in itertools.combinations(cone.rays, 2):
        samples.append(xm.primitive_vector(tuple(a + b for a, b in zip(u, v))))
    samples.append(xm.primitive_vector(total))
    for ray in cone.rays:
        samples.append(
            xm.primitive_vector(tuple(a + b for a, b in zip(total, ray)))
        )
    return tuple(dict.fromkeys(samples))


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
    """Sampled verification of the pull-back transformation laws.

    For each sample valuation v the envelope of the pulled-back divisor at v
    must equal the envelope of the divisor at A(v); for ideals the Samuel
    multiplicity (and a mixed multiplicity against the maximal ideal in
    dimension two) must scale by the degree.  With neither a divisor nor an
    ideal there is nothing to check, and an empty report would pass.
    """
    if divisor is None and ideal is None:
        raise InputError("a push-pull check needs a divisor or an ideal")
    cone = endo.cone
    checks = []
    if divisor is not None:
        pulled = pullback_divisor(endo, divisor)
        for v in sample_valuations(cone):
            image = endo.apply(v)
            checks.append(
                CheckItem(
                    name=f"envelope of pulled-back divisor at {v}",
                    left=toric.envelope_value(cone, pulled, v),
                    right=toric.envelope_value(cone, divisor, image),
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


class ToricVolumeReport(namedtuple("ToricVolumeReport", "degree samples values")):
    """Volume vanishing certificate along a toric endomorphism.

    Every log discrepancy sampled is nonnegative (the zero linear form is
    feasible in the envelope program), so the volume is zero on both sides
    and the monotonicity inequality degenerates to 0 >= degree * 0.
    """

    __slots__ = ()

    @property
    def volume(self) -> Fraction:
        return Fraction(0)

    @property
    def passed(self) -> bool:
        return all(v >= 0 for v in self.values)


def toric_volume_report(cone: ToricCone, matrix) -> ToricVolumeReport:
    endo = ToricEndo(cone, matrix)
    samples = tuple(v for v in sample_valuations(cone) if cone.interior_contains(v))
    values = tuple(toric.log_discrepancy_value(cone, v) for v in samples)
    return ToricVolumeReport(degree=endo.degree, samples=samples, values=values)
