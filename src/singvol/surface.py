"""Normal surface singularities presented by resolution dual graphs.

A graph records the exceptional curves of a good resolution: one vertex per
smooth curve with its self-intersection and genus, one edge per transverse
intersection (with multiplicity).  The intersection matrix must be negative
definite, which is the contractibility condition, and is checked at
construction.

From this combinatorial data the module computes the Mumford numerical
pull-back of Weil divisors, the log-discrepancy divisor, relative Zariski
decompositions, the volume of the singularity (minus the self-intersection
of the nef part of the log-discrepancy divisor), the local volume of an
arbitrary exceptional divisor, and the numerical log-canonical / klt
classification.  All arithmetic is exact.
"""

from __future__ import annotations

import decimal
import enum
import re
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import DomainError, InputError, InternalError, check
from . import exactmath as xm


class Vertex(namedtuple("Vertex", "self_int genus")):
    __slots__ = ()

    def __new__(cls, self_int, genus):
        # Exact ints, as integer_vector hands them on, are taken as they are.
        if type(self_int) is not int or type(genus) is not int:
            self_int, genus = xm._as_int(self_int), xm._as_int(genus)
            if self_int is None or genus is None:
                raise InputError("vertex data must be integers")
        if genus < 0:
            raise InputError(f"genus must be nonnegative, got {genus}")
        return tuple.__new__(cls, (self_int, genus))


class ResolutionGraph:
    """Weighted dual graph of a resolution with exact validity checks.

    Construction eliminates the intersection matrix once: the same pass
    checks negative definiteness and gives the log discrepancies and class."""

    def __init__(self, vertices, edges):
        verts = []
        for v in xm.as_list(vertices, "the vertices of a resolution graph"):
            data = xm.integer_vector(v, "vertex")
            if len(data) != 2:
                raise InputError(f"vertex {data} must be a (self-intersection, genus) pair")
            verts.append(Vertex(*data))
        if not verts:
            raise InputError("a resolution graph needs at least one vertex")
        self.vertices = tuple(verts)
        k = len(verts)
        cleaned = []
        for e in xm.as_list(edges, "the edges of a resolution graph"):
            data = xm.integer_vector(e, "edge")
            if len(data) != 3:
                raise InputError(f"edge {data} must be an (i, j, multiplicity) triple")
            i, j, mult = data
            if not (0 <= i < k and 0 <= j < k):
                raise InputError(f"edge {data} references a missing vertex")
            if i == j:
                raise InputError(
                    f"edge {data} is a loop; blow up to a simple normal crossing model first"
                )
            if mult < 1:
                raise InputError(f"edge {data} must have positive multiplicity")
            cleaned.append((min(i, j), max(i, j), mult))
        self.edges = tuple(sorted(cleaned))

        rows = [[0] * k for _ in range(k)]
        for idx, v in enumerate(verts):
            rows[idx][idx] = v.self_int
        for i, j, mult in self.edges:
            rows[i][j] += mult
            rows[j][i] += mult
        self.intersection_matrix = tuple([tuple(r) for r in rows])

        if k > 1:
            adjacency = {i: set() for i in range(k)}
            for i, j, _ in self.edges:
                adjacency[i].add(j)
                adjacency[j].add(i)
            seen = {0}
            stack = [0]
            while stack:
                for nb in adjacency[stack.pop()]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if len(seen) != k:
                raise DomainError("resolution graph is not connected")

        # One elimination without row swaps of M beside the canonical column
        # K_j = 2g_j - 2 - s_j.  Its pivots are the leading principal minors,
        # which decide negative definiteness (Sylvester), and back
        # substitution gives y = D x for the discrepancies x, M x = K, with
        # D = det M.
        canonical = [2 * v.genus - 2 - v.self_int for v in verts]
        work = [row + [c] for row, c in zip(rows, canonical)]
        echelon = xm._bareiss(work, k, pivoting=False)
        failing = xm._failing_minor(echelon.minors, [1] * k)
        if failing is not None:
            size, minor = failing
            try:
                determinant = f"determinant {xm.format_rational(minor)}"
            except InputError:  # too long to write out: named by sign and length
                sign = "negative" if minor < 0 else "positive"
                digits = decimal.Decimal(minor.numerator).adjusted() + 1
                determinant = f"a {sign} determinant of {digits} digits"
            raise DomainError(
                "intersection matrix is not negative definite: leading principal "
                f"minor of size {size} has {determinant}"
            )
        y, det = xm._back_substitute(work, echelon, k)
        if _products(self, y) != [det * c for c in canonical]:
            raise InternalError("the discrepancies failed their exact check")
        # Equal entries share one Fraction: a Du Val graph's are all 1 and a
        # cusp cycle's all 0, and callers may keep many such answers.
        values = {v: Fraction(v + det, det) for v in set(y)}
        self._log_discrepancies = tuple([values[v] for v in y])
        # (y_j + det) det has the sign of the log discrepancy (y_j + det) / det.
        lowest = min([(v + det) * det for v in values])
        self._kind = (SingularityKind.KLT if lowest > 0 else
                      SingularityKind.LC_NOT_KLT if lowest == 0 else SingularityKind.NOT_LC)

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, ResolutionGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        verts = [(v.self_int, v.genus) for v in self.vertices]
        return f"ResolutionGraph(vertices={verts}, edges={list(self.edges)})"

    def permuted(self, order):
        """The same graph with vertices relabelled by the permutation
        new_index = order.index(old_index)."""
        order = xm.integer_vector(xm.as_list(order, "a vertex order"))
        if sorted(order) != list(range(len(self))):
            raise InputError("not a permutation of the vertex indices")
        position = {old: new for new, old in enumerate(order)}
        verts = [self.vertices[old] for old in order]
        edges = [(position[i], position[j], m) for i, j, m in self.edges]
        return ResolutionGraph(verts, edges)


def _as_coeffs(graph, d):
    coeffs = xm.rational_vector(d, "the coefficients of a divisor")
    if len(coeffs) != len(graph):
        raise InputError(
            f"divisor has {len(coeffs)} coefficients but the graph has {len(graph)} vertices"
        )
    return coeffs


def _products(graph: ResolutionGraph, x) -> list:
    """The integers x . E_j for an integer divisor x, from the
    self-intersections and the edges in O(|V| + |E|)."""
    products = [v.self_int * c for v, c in zip(graph.vertices, x)]
    for i, j, mult in graph.edges:
        products[i] += mult * x[j]
        products[j] += mult * x[i]
    return products


def intersect(graph: ResolutionGraph, d1, d2) -> Fraction:
    """Intersection number of two exceptional divisors.  Both are cleared of
    denominators once, so the sum runs on ints and makes one Fraction."""
    (a, b), (sa, sb) = xm._integer_rows([_as_coeffs(graph, d1), _as_coeffs(graph, d2)])
    return Fraction(sum(map(mul, a, _products(graph, b))), sa * sb)


def canonical_intersections(graph: ResolutionGraph):
    """The vector of intersections of the canonical class with each curve.

    Adjunction on a smooth curve of genus g with self-intersection s gives
    2g - 2 - s.
    """
    return tuple(
        Fraction(2 * v.genus - 2 - v.self_int) for v in graph.vertices
    )


def numerical_pullback(graph: ResolutionGraph, rhs):
    """The unique exceptional divisor x with x . E_j equal to rhs_j.

    This inverts the intersection matrix, which is nonsingular by negative
    definiteness.  With rhs the canonical intersection numbers it returns
    the discrepancy coefficients."""
    rhs = _as_coeffs(graph, rhs)
    return xm.solve_linear(graph.intersection_matrix, rhs)


def discrepancies(graph: ResolutionGraph):
    """The numerical pull-back of the canonical intersection numbers."""
    return tuple([a - 1 for a in graph._log_discrepancies])


def log_discrepancy_divisor(graph: ResolutionGraph):
    """Coefficients of the log-discrepancy divisor: discrepancy plus one,
    solved when the graph was built."""
    return graph._log_discrepancies


class ZariskiDecomposition(namedtuple("ZariskiDecomposition", "nef_part neg_part")):
    __slots__ = ()


def zariski_decompose(graph: ResolutionGraph, d) -> ZariskiDecomposition:
    """Relative Zariski decomposition d = P + N of an exceptional divisor.

    N is the smallest effective divisor making P = d - N nef against every
    exceptional curve.  The support of N grows monotonically: vertices whose
    intersection with P is negative are added and the linear system
    (d - N) . E_j = 0 on the support is re-solved until no violation is
    left.  The decomposition is unique (Zariski 1962).
    """
    d = _as_coeffs(graph, d)
    k = len(graph)
    matrix = graph.intersection_matrix
    # d never changes in the loop, so M.d is formed once, in ints, as
    # M.D / scale with D = scale * d integral.
    (ints,), (scale,) = xm._integer_rows([d])
    md = _products(graph, ints)
    support: set[int] = set()
    nef, neg = d, (Fraction(0),) * k
    # N = 0 on the first pass, so its products P.E_j = (M.D)_j / scale are
    # read off md: the signs and zeros the loop tests do not change with
    # the positive scale.  mat_vec runs only after a solve.
    products = md
    for _ in range(k + 1):
        violating = [j for j in range(k) if products[j] < 0 and j not in support]
        if not violating:
            # Signs and zeros read off numerators: ints and Fractions both
            # have one, and a denominator is positive.
            check(all([c.numerator >= 0 for c in neg]), "the negative part is not effective")
            check(
                not any([p.numerator for p, c in zip(products, neg) if c.numerator]),
                "the nef part is not orthogonal to the negative part",
            )
            return ZariskiDecomposition(nef_part=nef, neg_part=neg)
        support.update(violating)
        # Solve for N supported on the current set: (d - N) . E_j = 0 there,
        # i.e. the restriction of N solves M_SS (scale * n) = (M D)_S.
        rows = sorted(support)
        sub = [[matrix[i][j] for j in rows] for i in rows]
        sol = xm.solve_linear(sub, [md[i] for i in rows])
        neg_list = [Fraction(0)] * k
        for idx, j in enumerate(rows):
            neg_list[j] = sol[idx] / scale
        neg = tuple(neg_list)
        nef = tuple([a - b for a, b in zip(d, neg)])
        products = xm.mat_vec(matrix, nef)
    raise InternalError("Zariski decomposition failed to stabilize")


def volume(graph: ResolutionGraph) -> Fraction:
    """Minus the self-intersection of the nef part of the log-discrepancy
    divisor; zero exactly in the numerically log-canonical case."""
    return local_volume(graph, log_discrepancy_divisor(graph))


def local_volume(graph: ResolutionGraph, d) -> Fraction:
    """Minus the self-intersection of the nef part of d."""
    return nef_volume(graph, zariski_decompose(graph, d).nef_part)


def nef_volume(graph: ResolutionGraph, nef) -> Fraction:
    """Minus the self-intersection of a nef part, checked nonnegative.  P
    is read and cleared of denominators once, P = p / s, so the volume is
    -(p . Mp) / s^2 with p . Mp summed on ints."""
    (ints,), (scale,) = xm._integer_rows([_as_coeffs(graph, nef)])
    square = sum(map(mul, ints, _products(graph, ints)))
    check(square <= 0, "the local volume is negative")
    return Fraction(-square, scale * scale)


class SingularityKind(enum.Enum):
    KLT = "klt"
    LC_NOT_KLT = "lc_not_klt"
    NOT_LC = "not_lc"


class SingularityClass(namedtuple("SingularityClass", "kind log_discrepancies")):
    __slots__ = ()


def classify(graph: ResolutionGraph) -> SingularityClass:
    """The numerical class, fixed by the signs of the log discrepancies when
    the graph was built."""
    return SingularityClass(graph._kind, graph._log_discrepancies)


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------


def cone_graph(genus: int, degree: int) -> ResolutionGraph:
    """Cone over a smooth curve of the given genus and polarization degree:
    one exceptional curve of that genus with self-intersection -degree."""
    genus, degree = xm.integer(genus), xm.integer(degree)
    if degree < 1:
        raise InputError("cone degree must be positive")
    return ResolutionGraph([(-degree, genus)], [])


def cusp_cycle_graph(self_ints) -> ResolutionGraph:
    """Cycle of smooth rational curves (a cusp singularity resolution).

    All self-intersections must be at most -2 with at least one at most -3,
    otherwise the intersection matrix is not negative definite.  A cycle of
    length two is encoded by a double edge; length one would need a loop,
    which a simple normal crossing dual graph cannot carry.
    """
    selfs = xm.integer_vector(self_ints)
    if len(selfs) < 2:
        raise InputError(
            "cusp cycles need length at least two; present a one-curve cycle "
            "on a blown-up model instead"
        )
    if any(s > -2 for s in selfs):
        raise DomainError("cusp cycle self-intersections must be at most -2")
    vertices = [(s, 0) for s in selfs]
    if len(selfs) == 2:
        edges = [(0, 1, 2)]
    else:
        edges = [(i, (i + 1) % len(selfs), 1) for i in range(len(selfs))]
    return ResolutionGraph(vertices, edges)


_DU_VAL_RE = re.compile("([ADE])_?([0-9]+)")

# A_n and D_n are refused above this rank before anything is built.
DU_VAL_MAX_RANK = 1000


def du_val_graph(name: str) -> ResolutionGraph:
    """Standard rational double point trees: A_n, D_n, E_6, E_7, E_8."""
    if not isinstance(name, str):
        raise InputError(f"a Du Val name is a string like A2, D4, E6, not {name!r}")
    match = _DU_VAL_RE.fullmatch(name.strip().upper())
    if not match:
        raise InputError(f"unknown Du Val name {name!r}; expected like A2, D4, E6")
    letter, rank = match.group(1), xm.integer(xm.parse_rational(match.group(2)))
    if letter != "E" and rank > DU_VAL_MAX_RANK:
        raise InputError(f"{letter}_n needs n <= {DU_VAL_MAX_RANK}, the cap on Du Val ranks")
    if letter == "A":
        if rank < 1:
            raise InputError("A_n needs n >= 1")
        edges = [(i, i + 1, 1) for i in range(rank - 1)]
        count = rank
    elif letter == "D":
        if rank < 4:
            raise InputError("D_n needs n >= 4")
        # Chain of n-2 vertices with two extra leaves on its last vertex.
        edges = [(i, i + 1, 1) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2, 1), (rank - 3, rank - 1, 1)]
        count = rank
    else:
        arms = {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}.get(rank)
        if arms is None:
            raise InputError("E_n exists for n in {6, 7, 8}")
        edges = []
        count = 1
        for arm in arms:
            prev = 0
            for _ in range(arm):
                edges.append((prev, count, 1))
                prev = count
                count += 1
    vertices = [(-2, 0)] * count
    return ResolutionGraph(vertices, edges)
