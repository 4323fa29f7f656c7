"""The references the tests compare the engines against, each defined once:
independent, slower or older ways to compute what an engine computes.  The
engines must agree with them exactly.  This module holds no tests.
"""

import itertools
import math
from fractions import Fraction as F
from math import gcd, lcm

import singvol.exactmath as xm
import singvol.toric as toric
from singvol import DomainError, MonomialIdeal, ToricDivisor, ideal_product, samuel_multiplicity
from singvol.exactmath import cross3, det3, order_coplanar_polygon, solve_linear
from singvol.oracle import lp_vertex_enumerate
from singvol.surface import SingularityKind, canonical_intersections


def idot(u, v):
    return sum(a * b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def k_fold_sums(gens, k):
    """Every sum of k generators, repetitions allowed."""
    return {tuple(map(sum, zip(*combo))) for combo in itertools.combinations_with_replacement(gens, k)}


# -- the exact kernel ----------------------------------------------------------


def dense_pivot(self, k, j):
    """The simplex pivot before it became sparse: each other row minus a
    multiple of the pivot row, in every column."""
    row = self.rows[k]
    inv = F(1) / row[j]
    if inv != 1:
        self.rows[k] = row = [x * inv for x in row]
        self.rhs[k] *= inv
    for r in range(len(self.rows)):
        if r != k and self.rows[r][j]:
            factor = self.rows[r][j]
            other = self.rows[r]
            self.rows[r] = [x - factor * y for x, y in zip(other, row)]
            self.rhs[r] -= factor * self.rhs[k]
    if self.obj[j]:
        factor = self.obj[j]
        self.obj = [x - factor * y for x, y in zip(self.obj, row)]
        self.obj_val += factor * self.rhs[k]
    self.basis[k] = j


def with_dense_pivot(fn, *args):
    """fn(*args) with the dense pivot patched into the tableau."""
    sparse = xm._Tableau.pivot
    xm._Tableau.pivot = dense_pivot
    try:
        return fn(*args)
    finally:
        xm._Tableau.pivot = sparse


def eager_bareiss(rows, ncols, pivoting=True):
    """exactmath._bareiss as it was before rows were scaled only when read:
    every row below the pivot is brought up to date at every step, a row
    whose pivot-column entry is 0 by multiplying it by pivot/prev."""
    nrows = len(rows)
    pivots = []
    minors = []
    order = list(range(nrows))
    sign = prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if not rows[r][col]:
            if not pivoting:
                minors.append(0)
                break
            swap = next((i for i in range(r + 1, nrows) if rows[i][col]), None)
            if swap is None:
                continue
            rows[r], rows[swap] = rows[swap], rows[r]
            order[r], order[swap] = order[swap], order[r]
            sign = -sign
        top = rows[r]
        pivot = top[col]
        tail = top[col + 1:]
        for i in range(r + 1, nrows):
            row = rows[i]
            factor = row[col]
            if factor:
                row[col + 1:] = [
                    (pivot * x - factor * y) // prev for x, y in zip(row[col + 1:], tail)
                ]
                row[col] = 0
            elif pivot != prev:
                row[col + 1:] = [pivot * x // prev for x in row[col + 1:]]
        pivots.append(col)
        minors.append(pivot)
        prev = pivot
    return xm._Echelon(pivots, minors, order, sign)


def _eliminate(rows, ncols):
    """Gauss-Jordan elimination by integer row operations, each row kept
    divided by the gcd of its entries: reduced rows, pivot columns."""
    a = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                row = [top[c] * x - f * y for x, y in zip(a[i], top)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g else row
        pivots.append(c)
    return a, pivots


def _rank(rows, n):
    return len(_eliminate(rows, n)[1])


def _kernel_line(rows, n):
    """A primitive integer vector spanning the kernel, or None when the
    kernel is not a line."""
    a, pivots = _eliminate(rows, n)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [F(0)] * n
    vec[free] = F(1)
    for row, c in zip(a, pivots):
        vec[c] = F(-row[free], row[c])
    scale = lcm(*[x.denominator for x in vec])
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _det(m):
    """Cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def reference_facets(rays, n):
    """The sorted inward facet normals of an isolated cone on distinct
    primitive rays, or the DomainError the constructor raises: the
    (n-1)-subset facet search and the determinant smoothness test that a
    cone's simplicial cells replaced."""
    if _rank(rays, n) != n:
        raise DomainError("cone is not full-dimensional: rays do not span")
    if n == 1:
        if len(rays) != 1:
            raise DomainError("cone is not strongly convex: it contains a line")
        normals = (tuple(rays[0]),)
    else:
        found = set()
        for subset in itertools.combinations(rays, n - 1):
            normal = _kernel_line(subset, n)
            if normal is None:
                continue
            sides = [idot(normal, ray) for ray in rays]
            if all(s >= 0 for s in sides):
                candidate = normal
            elif all(s <= 0 for s in sides):
                candidate = tuple(-x for x in normal)
            else:
                continue
            if _rank([r for r in rays if idot(candidate, r) == 0], n) == n - 1:
                found.add(candidate)
        normals = tuple(sorted(found))
    if _rank(normals, n) != n:
        raise DomainError("cone is not strongly convex: it contains a line")
    for ray in rays:
        if _rank([f for f in normals if idot(f, ray) == 0], n) != n - 1:
            raise DomainError(f"ray {ray} is not an extreme ray of the cone spanned by the input")
    for normal in normals:
        tight = [r for r in rays if idot(normal, r) == 0]
        if len(tight) != n - 1:
            raise DomainError(f"facet with normal {normal} is not simplicial")
        if abs(_det(tight + [normal])) != idot(normal, normal):
            spanned = ", ".join(map(str, tight[:-1])) + f" and {tight[-1]}"
            raise DomainError(
                f"facet spanned by {spanned} is a singular cone, so the singularity is not isolated"
            )
    return normals


def fraction_dot(u, v):
    """The dot product with every operand made a Fraction, as exactmath.dot
    computed it before it multiplied its operands as given."""
    return sum((F(a) * F(b) for a, b in zip(u, v)), F(0))


# -- geometry ------------------------------------------------------------------


def all_facets(points):
    """Every facet of the shared hull of integer points."""
    return xm.hull_facets(points, lambda normal: True)


def lattice_volume(points):
    """n! times the volume of the hull of integer points of Z^n, n <= 3: the
    cones from its least vertex over its facets tile it."""
    pts = sorted(set(map(tuple, points)))
    moved = [sub(p, pts[0]) for p in pts]
    return xm.fan_volume(all_facets(moved))


def brute_force_facets(points):
    """Every n points of Z^n, n = 1, 2 or 3, whose hyperplane has all points
    on one side: single points on a line, pairs in the plane, triples in
    space.  The corners are the point in 1-D, the ends in counter-clockwise
    order in 2-D and the polygon cycle in 3-D."""
    pts = sorted(set(tuple(int(c) for c in p) for p in points))
    n = len(pts[0]) if pts else 3
    facets = {}
    for subset in itertools.combinations(pts, n):
        normal = normal_to([sub(p, subset[0]) for p in subset[1:]])
        if not any(normal):
            continue
        sides = [idot(sub(q, subset[0]), normal) for q in pts]
        if all(s <= 0 for s in sides):
            outward = normal
        elif all(s >= 0 for s in sides):
            outward = tuple(-x for x in normal)
        else:
            continue
        key_normal = xm.primitive_vector(outward)
        offset = idot(subset[0], key_normal)
        on_plane = frozenset(q for q in pts if idot(q, key_normal) == offset)
        facets[(key_normal, offset)] = on_plane
    return [
        (normal, offset, facet_corners(plane_pts, normal))
        for (normal, offset), plane_pts in sorted(facets.items())
    ]


def normal_to(diffs):
    """A normal to n - 1 vectors of Z^n: (1,) in 1-D, the first vector
    turned a quarter left in 2-D, the cross product in 3-D."""
    if not diffs:
        return (1,)
    if len(diffs) == 1:
        return (-diffs[0][1], diffs[0][0])
    return cross3(*diffs)


def facet_corners(plane_pts, normal):
    """The corners of a facet in boundary order: its one point in 1-D, its
    two ends counter-clockwise (along the normal turned a quarter left) in
    2-D, its polygon in 3-D."""
    if len(normal) == 1:
        return sorted(plane_pts)
    if len(normal) == 2:
        along = sorted(plane_pts, key=lambda q: idot(q, (-normal[1], normal[0])))
        return [along[0], along[-1]]
    return order_coplanar_polygon(plane_pts, normal)


def fraction_cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def fraction_hull_2d(points):
    """Andrew's monotone chain with every coordinate made a Fraction, as
    exactmath.convex_hull_2d computed it before it kept integers."""
    pts = sorted(set(tuple(F(c) for c in p) for p in points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and fraction_cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and fraction_cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def fraction_det3(a, b, c):
    """The determinant as the Fraction dot product of a with b x c, as
    exactmath.det3 computed it before it kept integers."""
    return xm.dot(a, cross3(b, c))


def brute_force_minimal(cone, points):
    """Points u with no other point u' of the set such that u - u' lies in
    the dual cone."""
    pts = set(points)
    return {
        u for u in pts if not any(w != u and cone.dual_contains(sub(u, w)) for w in pts)
    }


def brute_force_samuel(cone, ideal):
    """n! covolume from every single generator (1-D), pair (2-D) or triple
    (3-D) of generators that spans a face of the Newton polyhedron with
    inward normal interior to sigma."""
    gens = ideal.gens
    faces = {}
    for subset in itertools.combinations(gens, cone.dim):
        normal = normal_to([sub(g, subset[0]) for g in subset[1:]])
        if not any(normal):
            continue
        normal = xm.primitive_vector(normal)
        for u in (normal, tuple(-x for x in normal)):
            c = idot(u, subset[0])
            if cone.interior_contains(u) and all(idot(u, g) >= c for g in gens):
                faces[u] = [g for g in gens if idot(u, g) == c]
    total = 0
    for u, pts in faces.items():
        if cone.dim == 1:
            total += abs(pts[0][0])
        elif cone.dim == 2:
            p, q = min(pts), max(pts)
            total += abs(p[0] * q[1] - q[0] * p[1])
        else:
            cycle = order_coplanar_polygon(pts, u)
            for t in range(1, len(cycle) - 1):
                total += abs(det3(cycle[0], cycle[t], cycle[t + 1]))
    return F(total)


def brute_force_power(a, k):
    """The ideal generated by all sums of k generators."""
    if k == 0:
        return MonomialIdeal(a.cone, [(0,) * a.cone.dim])
    return MonomialIdeal(a.cone, k_fold_sums(a.gens, k))


def subset_mixed_multiplicity(cone, ideals):
    """(1/n!) sum over the nonempty subsets S of the arguments of
    (-1)^(n-|S|) e(prod_S), one product and one multiplicity per subset."""
    n = cone.dim
    total = F(0)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            product = ideals[subset[0]]
            for i in subset[1:]:
                product = ideal_product(product, ideals[i])
            total += (-1) ** (n - size) * samuel_multiplicity(cone, product)
    return total / math.factorial(n)


# -- the surface engine --------------------------------------------------------


def fraction_matrix(graph):
    """The intersection matrix with Fraction entries, as ResolutionGraph
    built it before it kept ints."""
    k = len(graph)
    rows = [[F(0)] * k for _ in range(k)]
    for idx, v in enumerate(graph.vertices):
        rows[idx][idx] = F(v.self_int)
    for i, j, mult in graph.edges:
        rows[i][j] += mult
        rows[j][i] += mult
    return rows


def fraction_zariski_decompose(graph, d, order=None):
    """The dense Zariski loop on the Fraction matrix with fraction_dot, as
    surface.zariski_decompose computed it before; returns (nef, neg).

    Each pass adds every violating vertex to the support of N.  With
    ``order``, a permutation of the vertex indices, it adds only the first
    violating vertex in that order, so the support grows one vertex a pass;
    the decomposition is unique, so every order gives the same answer."""
    matrix = fraction_matrix(graph)
    d = tuple(F(c) for c in d)
    k = len(d)
    support = set()
    neg = (F(0),) * k
    for _ in range(k + 1):
        nef = tuple(a - b for a, b in zip(d, neg))
        products = [fraction_dot(row, nef) for row in matrix]
        violating = [j for j in range(k) if products[j] < 0 and j not in support]
        if not violating:
            return nef, neg
        if order is None:
            support.update(violating)
        else:
            support.add(min(violating, key=order.index))
        rows = sorted(support)
        sub_matrix = [[matrix[i][j] for j in rows] for i in rows]
        sol = solve_linear(sub_matrix, [fraction_dot(matrix[i], d) for i in rows])
        neg_list = [F(0)] * k
        for idx, j in enumerate(rows):
            neg_list[j] = sol[idx]
        neg = tuple(neg_list)
    raise AssertionError("the reference Zariski loop did not stabilize")


def fraction_local_volume(graph, d):
    nef, _ = fraction_zariski_decompose(graph, d)
    return -fraction_dot(nef, [fraction_dot(row, nef) for row in fraction_matrix(graph)])


def fraction_classify(graph):
    """(kind, log discrepancies) from the Fraction matrix."""
    a = tuple(x + 1 for x in solve_linear(fraction_matrix(graph), canonical_intersections(graph)))
    if all(x > 0 for x in a):
        return SingularityKind.KLT, a
    if all(x >= 0 for x in a):
        return SingularityKind.LC_NOT_KLT, a
    return SingularityKind.NOT_LC, a


def branch_ratio(branch):
    """n/q = b_1 - 1/(b_2 - ... - 1/b_s) for a chain of rational curves of
    self-intersections -b_1, ..., -b_s, b_1 next to the centre of a star."""
    ratio = F(branch[-1])
    for b in reversed(branch[:-1]):
        ratio = b - 1 / ratio
    return ratio


def wahl_volume(genus, degree, branches):
    """Wahl's chi^2 / e for the star of star_graph(genus, degree, branches),
    or 0 when chi <= 0.  With n/q the branch ratios, chi = 2g - 2 +
    sum (1 - 1/n) is minus the orbifold Euler characteristic of the centre
    and e = degree - sum q/n its degree, positive exactly when the star is
    negative definite."""
    ratios = [branch_ratio(branch) for branch in branches]
    chi = F(2 * genus - 2) + sum([1 - F(1, r.numerator) for r in ratios])
    e = F(degree) - sum([1 / r for r in ratios])
    return chi * chi / e if chi > 0 else F(0)


# -- the toric engine ----------------------------------------------------------


def slab_minima(cone, lower, stretch=1, nonzero=False):
    """The minimal elements of the lattice points of a slab over the
    rational bounds as given, not rounded: lower_i <= <u, ray_i> <=
    lower_i + stretch * margin_i, the margin being the largest vertex
    excess, clipped at 0, plus the zonotope shift.  The box around the slab
    comes from lp_max.  With lower = 0 and ``nonzero``, the minimal nonzero
    points are the Hilbert basis."""
    lower = [F(c) for c in lower]
    scale = lcm(*[c.denominator for c in lower])
    vertices = [
        [F(x, det * scale) for x in m]
        for m, det in toric._region_vertices(cone, [int(c * scale) for c in lower])
    ]
    margins = [
        stretch * (max([F(0)] + [xm.dot(v, ray) - lo for v in vertices])
                   + sum(idot(w, ray) for w in cone.facet_normals))
        for ray, lo in zip(cone.rays, lower)
    ]
    points = toric._lattice_points_between(cone, lower, margins)
    return toric.minimal_elements(cone, [u for u in points if any(u) or not nonzero])


def enumerated_envelope(cone, coeffs, v):
    """The optimal value and the optimal vertices of the envelope LP, by
    vertex enumeration."""
    vertices = lp_vertex_enumerate(toric.envelope_problem(cone, ToricDivisor(cone, coeffs), v))
    best = max(value for _, value in vertices)
    return best, {point for point, value in vertices if value == best}


def first_cell_envelope(cone, coeffs, v):
    """(value, form) of the first n-subset of the rays, in combinations
    order, that spans a cone holding v and whose tight form meets every
    bound <m, ray_i> <= d_i: the choice among tied optima that
    envelope_certificate makes, solved in Fractions; None when no subset
    holds v."""
    d = [F(c) for c in coeffs]
    for subset in itertools.combinations(range(len(cone.rays)), cone.dim):
        basis = [cone.rays[i] for i in subset]
        if xm.determinant(basis) == 0:
            continue
        if min(solve_linear([list(column) for column in zip(*basis)], v)) < 0:
            continue
        m = solve_linear(basis, [d[i] for i in subset])
        if all(xm.dot(m, ray) <= di for ray, di in zip(cone.rays, d)):
            return xm.dot(m, v), m
    return None


def reference_numerically_cartier(cone, coeffs):
    """(flag, certificate, witness, gap) through solve_general: the solution of
    <m, ray_i> = d_i, or else a left-null vector lam of the rays with
    <lam, d> < 0, whose positive part combines the rays to the witness; the
    gap is the envelope sum there, by vertex enumeration."""
    solution, lam = xm.solve_general(cone.rays, coeffs)
    if solution is not None:
        return True, solution, None, None
    if idot(lam, coeffs) > 0:
        lam = [-x for x in lam]
    scale = lcm(*[x.denominator for x in lam])
    w = [sum(max(l * scale, 0) * ray[j] for l, ray in zip(lam, cone.rays)) for j in range(cone.dim)]
    witness = xm.primitive_vector(w)
    plus, _ = enumerated_envelope(cone, coeffs, witness)
    minus, _ = enumerated_envelope(cone, [-d for d in coeffs], witness)
    return False, None, witness, plus + minus


def brute_colength_on_plane(gens, k: int, box: int = 60) -> int:
    """Independent rectangle count of monomials outside the k-th power,
    using only componentwise domination by explicit k-fold generator sums."""
    power = k_fold_sums(gens, k)
    count = 0
    for x in range(box):
        for y in range(box):
            if not any(x >= g[0] and y >= g[1] for g in power):
                count += 1
    return count
