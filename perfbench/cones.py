"""Cones whose invariants are known in closed form, and seeded images of them.

Every 3-D cone the toric workloads use is the image of a base cone under a
seeded unimodular matrix A: rays map by A and exponents by A^{-T}, so all
pairings, Hilbert bases, multiplicities and envelopes carry over from the
table below.  The 2-D cones are the cyclic quotients 1/p(1, q), whose
multiplicity has the Hirzebruch-Jung closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class BaseCone:
    name: str
    rays: tuple
    hilbert: tuple          # Hilbert basis of the dual cone
    normals: tuple          # inward facet normals
    e_m: int                # Samuel multiplicity of the maximal ideal
    max_power: int          # largest k with e(m^k) cheap enough for one query
    defect_shift: int       # largest non-Cartier shift used for defect ideals
    defect_m: int           # largest multiple m used for defect ideals


BASES = (
    # xy = zw: cone over P1 x P1 in degree (1, 1).
    BaseCone(
        "quadric",
        rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)),
        hilbert=((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)),
        normals=((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)),
        e_m=2, max_power=4, defect_shift=3, defect_m=3,
    ),
    # Cone over the degree-6 del Pezzo surface: a lattice hexagon at height 1.
    BaseCone(
        "hexagon",
        rays=((1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)),
        hilbert=((-1, -1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
        normals=((-1, -1, 1), (-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
        e_m=6, max_power=2, defect_shift=1, defect_m=1,
    ),
    # C^3 / Z_3 acting by (1, 1, 1): the cubic Veronese cone.
    BaseCone(
        "c3z3",
        rays=((1, 0, 0), (0, 1, 0), (-1, -1, 3)),
        hilbert=((0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 0, 1), (1, 1, 1),
                 (1, 2, 1), (2, 0, 1), (2, 1, 1), (3, 0, 1)),
        normals=((0, 0, 1), (0, 3, 1), (3, 0, 1)),
        e_m=9, max_power=2, defect_shift=2, defect_m=3,
    ),
)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def mat_vec(a, v) -> tuple:
    return tuple(dot(row, v) for row in a)


def random_unimodular(rng, n: int = 3):
    """A seeded matrix in GL_n(Z): a coordinate permutation times two
    elementary row operations with entries +-1, so images stay small."""
    perm = list(range(n))
    rng.shuffle(perm)
    a = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
    return tuple(tuple(r) for r in a)


def inverse_transpose(a):
    """A^{-T} for a 3x3 unimodular integer matrix, by the adjugate."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    cof = (
        (a11 * a22 - a12 * a21, a12 * a20 - a10 * a22, a10 * a21 - a11 * a20),
        (a02 * a21 - a01 * a22, a00 * a22 - a02 * a20, a01 * a20 - a00 * a21),
        (a01 * a12 - a02 * a11, a02 * a10 - a00 * a12, a00 * a11 - a01 * a10),
    )
    det = a00 * cof[0][0] + a01 * cof[0][1] + a02 * cof[0][2]
    if det not in (1, -1):
        raise ValueError(f"matrix {a} is not unimodular")
    return tuple(tuple(det * x for x in row) for row in cof)


@dataclass(frozen=True)
class ConeImage:
    """A base cone moved by A; every invariant is moved along with it."""

    base: BaseCone
    matrix: tuple
    rays: tuple
    hilbert: tuple
    normals: tuple


def cone_image(base: BaseCone, a) -> ConeImage:
    inv_t = inverse_transpose(a)
    return ConeImage(
        base=base,
        matrix=a,
        rays=tuple(mat_vec(a, r) for r in base.rays),
        hilbert=tuple(mat_vec(inv_t, u) for u in base.hilbert),
        normals=tuple(mat_vec(inv_t, u) for u in base.normals),
    )


def cone_images(rng, per_base: int):
    """Each base cone as given, then per_base - 1 seeded images of it."""
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    out = []
    for base in BASES:
        out.append(cone_image(base, identity))
        out.extend(cone_image(base, random_unimodular(rng)) for _ in range(per_base - 1))
    return out


# ---------------------------------------------------------------------------
# 2-D cyclic quotients
# ---------------------------------------------------------------------------


def hirzebruch_jung(p: int, q: int) -> tuple:
    """The continued fraction p/q = b1 - 1/(b2 - ...), all b_i >= 2."""
    out = []
    while q:
        b = -(-p // q)
        out.append(b)
        p, q = q, b * q - p
    return tuple(out)


@dataclass(frozen=True)
class CyclicCone:
    """The cone of 1/p(1, q): rays (0, 1) and (p, -q)."""

    p: int
    q: int
    rays: tuple
    hilbert: tuple
    e_m: int


def cyclic_cone(p: int, q: int) -> CyclicCone:
    if not (0 < q < p and gcd(p, q) == 1):
        raise ValueError(f"1/{p}(1,{q}) is not a cyclic quotient cone")
    rays = ((0, 1), (p, -q))
    # The dual cone is spanned by (1, 0) and (q, p); its Hilbert basis lies in
    # the parallelogram on those two vectors and consists of the points that
    # are not a sum of two nonzero points of the dual cone.
    points = [
        (x, y)
        for x in range(q + 2)
        for y in range(p + 1)
        if (x, y) != (0, 0) and y >= 0 and p * x - q * y >= 0
    ]
    inside = set(points)
    hilbert = tuple(
        u for u in points
        if not any(
            (u[0] - v[0], u[1] - v[1]) in inside for v in points if v != u
        )
    )
    # Multiplicity of a cyclic quotient singularity: 2 + sum(b_i - 2).
    e_m = 2 + sum(b - 2 for b in hirzebruch_jung(p, q))
    return CyclicCone(p=p, q=q, rays=rays, hilbert=tuple(sorted(hilbert)), e_m=e_m)


def random_cyclic_cone(rng, max_p: int) -> CyclicCone:
    p = rng.randint(2, max_p)
    q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
    return cyclic_cone(p, q)


def power_exponents(hilbert, k: int) -> list:
    """All k-fold sums of the generators: a (non-minimal) generating set of m^k."""
    return sorted({
        tuple(sum(col) for col in zip(*combo))
        for combo in itertools.combinations_with_replacement(hilbert, k)
    })


def solve3(rows, rhs):
    """Cramer's rule for a 3x3 rational system, or None if it is singular."""
    def det(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    d = det(rows)
    if d == 0:
        return None
    out = []
    for col in range(3):
        m = [list(r) for r in rows]
        for i in range(3):
            m[i][col] = rhs[i]
        out.append(Fraction(det(m), d))
    return tuple(out)


def cartier_form(rays, coeffs):
    """The rational linear form mu with <mu, ray_i> = d_i, or None.

    Uses the first three linearly independent rays, then checks the rest."""
    for idx in itertools.combinations(range(len(rays)), 3):
        mu = solve3([rays[i] for i in idx], [Fraction(coeffs[i]) for i in idx])
        if mu is not None:
            break
    else:
        raise ValueError("rays do not span")
    if all(dot(mu, r) == Fraction(c) for r, c in zip(rays, coeffs)):
        return mu
    return None
