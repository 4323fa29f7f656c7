"""Exact rational arithmetic, linear algebra, linear programming and
low-dimensional integer hulls.

Everything in this package is exact over ``fractions.Fraction`` and ``int``;
no floating point is used anywhere.  Determinants, ranks, leading minors,
linear solves and integer adjugates all come from one fraction-free
(Bareiss) elimination over Python integers, whose solutions, adjugates and
inconsistency certificates are checked in integers on every call.

The linear programming solver is a two-phase simplex over Fraction with
Bland's anti-cycling rule, whose pivots update only the pivot row's nonzero
columns.  It always returns a certificate: an optimal point, an unbounded
improving ray, or a Farkas combination witnessing infeasibility.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DomainError, InputError, InternalError, UnsupportedDimensionError, check

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_RATIONAL_RE = re.compile("[+-]?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(text) -> Fraction:
    """Parse the wire format for rationals: "p" or "p/q" with q > 0.  Ints
    and Fractions are taken as numbers; bools are not."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"not a rational in p/q form: {text!r}")
    try:
        return Fraction(text)
    except ValueError:
        # The one fault left: more digits than the interpreter converts.
        raise InputError(f"a rational of {len(text)} characters has too many digits") from None


def format_rational(x: Fraction) -> str:
    """Canonical string form: lowest terms, positive denominator.  A value
    with more digits than the interpreter converts to text raises
    InputError."""
    try:
        return str(Fraction(x))
    except ValueError:
        raise InputError("the answer has more digits than the interpreter converts to text") from None


def dot(u, v) -> Fraction:
    """The sum of the products u_i v_i as a Fraction.  The entries are
    multiplied as given, so callers pass ints and Fractions only."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return Fraction(sum([a * b for a, b in zip(u, v)]))


# Tuples built on hot paths come from lists.  tuple(<generator>) first
# allocates room for ten items and resizes, so each such tuple is later freed
# onto CPython's free list for another size.  Those lists keep up to 2000
# tuples of each size under 20 and are emptied only by full garbage
# collections, which integer work seldom triggers, so a long batch of
# queries would hold megabytes of them.
def mat_vec(m: Mat, v) -> Vec:
    return tuple([dot(row, v) for row in m])


def _as_int(x):
    """x as an int when it is an int or an integer-valued Fraction, else
    None: text, the bools True and False and floats are not integers here,
    as parse_rational reads no bool and no float as a rational."""
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return None


def integer(x) -> int:
    """x as an int, such as 2 or Fraction(4, 2).  Raises InputError for
    anything else, "2", True and 2.0 included."""
    i = _as_int(x)
    if i is None:
        raise InputError(f"not an integer: {x!r}")
    return i


def integer_vector(v, what=None) -> tuple[int, ...]:
    """The entries of v as ints.  Raises InputError unless every entry is an
    int or an integer-valued Fraction, such as 2 or Fraction(4, 2); text
    such as "2", the bools True and False and floats such as 2.0 are not,
    and neither is a v that is not a collection, such as 5 or "12".  The
    message names v, after ``what`` it is, such as "ray", when given."""
    try:
        ints = as_list(v, "an integer vector")
    except InputError:
        raise InputError(_not_integers(repr(v), what)) from None
    for i, x in enumerate(ints):
        if type(x) is not int:
            y = _as_int(x)
            if y is None:
                # An iterator cannot be shown again, so it is named by the
                # entries read, those before x already made ints.
                raise InputError(_not_integers(ints if iter(v) is v else v, what))
            ints[i] = y
    return tuple(ints)


def _not_integers(shown, what) -> str:
    return f"not an integer vector: {shown}" if what is None else f"{what} {shown} is not an integer vector"


def as_list(v, what: str) -> list:
    """The items of a collection v, read once, as a list.  Text, bytes and
    mappings, whose items would be characters, byte values and keys, are
    not collections here.  InputError names what v should be when it is
    one of those or cannot be iterated, such as 5; a TypeError raised while
    v is read is not rewritten."""
    if isinstance(v, (list, tuple)):
        return list(v)
    if not isinstance(v, (str, bytes, bytearray, Mapping)):
        try:
            items = iter(v)
        except TypeError:
            pass
        else:
            return list(items)
    raise InputError(f"{what} must be a list, not {v!r}")


def rational_vector(v, what: str) -> tuple:
    """The entries of v read by parse_rational; InputError names what v
    should be when it is not a collection, such as 5 or "12"."""
    # Built from a list: see the note above mat_vec.
    return tuple([parse_rational(x) for x in as_list(v, what)])


def primitive_vector(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (orientation kept)."""
    ints = integer_vector(v)
    g = gcd(*ints)
    if g == 0:
        raise InputError("cannot reduce the zero vector to a primitive one")
    return tuple([x // g for x in ints])


# ---------------------------------------------------------------------------
# Exact linear algebra: one fraction-free integer elimination
# ---------------------------------------------------------------------------


def _entries(rows) -> list:
    """Rows as lists of int or Fraction entries, checked to share one length.
    Other entries are read by parse_rational, so bools and floats raise, and
    a matrix or a row that cannot be iterated raises InputError."""
    out = [
        [x if type(x) is int or type(x) is Fraction else parse_rational(x)
         for x in as_list(row, "a matrix row")]
        for row in as_list(rows, "a matrix")
    ]
    if out and any(len(row) != len(out[0]) for row in out):
        raise InputError("matrix rows have inconsistent lengths")
    return out


def _integer_rows(rows):
    """Each row times the least positive integer clearing its denominators.

    Returns the integer rows and those factors.  Scaling a row changes
    neither the solutions, the rank nor the kernel; it multiplies every
    minor on that row by its factor.
    """
    ints = []
    scales = []
    for row in rows:
        scale = lcm(*[x.denominator for x in row])
        if scale == 1:
            ints.append([x.numerator for x in row])
        else:
            ints.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return ints, scales


# pivots: the pivot column of each of the leading rows; minors: the pivot
# entries; order: the original index of the row now at each position;
# sign: the sign of that row permutation.
_Echelon = namedtuple("_Echelon", "pivots minors order sign")


def _bareiss(rows, ncols, pivoting=True) -> _Echelon:
    """Fraction-free Gaussian elimination of integer rows, in place.

    Bareiss (Math. Comp. 1968): after t pivots every entry below the pivot
    rows is the (t+1)-minor on the pivot rows and columns plus its own row
    and column, so each division by the previous pivot is exact and no
    entry outgrows a minor.  Pivots are sought in the first ``ncols``
    columns; later columns (right-hand sides, an identity block) are
    carried along.  With ``pivoting`` the pivot is the first nonzero entry
    of the column at or below the current row.  Without it the pivots are
    the leading principal minors, and the pass stops at the first zero one,
    which it records.

    A step only multiplies a row whose pivot-column entry is 0 by
    pivot/prev, and these factors telescope, so such a row is left as it
    is and ``current[i]`` records the pivot row i is up to date with: its
    entries are the up-to-date ones times current[i]/prev.  When it is next
    eliminated the usual formula divides by current[i] instead of prev; a
    stale pivot row, or a row left below the pivots at the end, is scaled
    once by prev/current[i].  Each quotient is exact because the up-to-date
    entries are minors.  A form with little fill-in, such as a chain's,
    then costs O(k^2), not O(k^3).
    """
    nrows = len(rows)
    pivots = []
    minors = []
    order = list(range(nrows))
    current = [1] * nrows
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
            current[r], current[swap] = current[swap], current[r]
            sign = -sign
        top = rows[r]
        lag = current[r]
        if lag != prev:
            top[col:] = [prev * x // lag for x in top[col:]]
        pivot = top[col]
        tail = top[col + 1:]
        for i in range(r + 1, nrows):
            row = rows[i]
            factor = row[col]
            if factor:
                lag = current[i]
                row[col + 1:] = [
                    (pivot * x - factor * y) // lag for x, y in zip(row[col + 1:], tail)
                ]
                row[col] = 0
                current[i] = pivot
        pivots.append(col)
        minors.append(pivot)
        prev = pivot
    for i in range(len(pivots), nrows):
        lag = current[i]
        if lag != prev:
            rows[i][:] = [prev * x // lag for x in rows[i]]
    return _Echelon(pivots, minors, order, sign)


def _back_substitute(rows, echelon: _Echelon, col: int):
    """Integers y and D with sum_j U[i][pivot_j] y_j = D U[i][col] on the
    pivot rows of the eliminated rows U, D the last pivot (1 if none).  D is
    the determinant of the pivot block, so by Cramer's rule y is integral
    and every division is exact."""
    pivots = echelon.pivots
    d = echelon.minors[-1] if pivots else 1
    y = [0] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        acc = d * row[col] - sum(row[c] * v for c, v in zip(pivots[i + 1:], y[i + 1:]))
        y[i] = acc // row[pivots[i]]
    return y, d


def _verify_null(rows, vec, what: str) -> None:
    """Always-on check that every integer row pairs to zero with vec."""
    for row in rows:
        if sum(a * v for a, v in zip(row, vec)):
            raise InternalError(f"{what} failed its exact check")


def _verify_certificate(rows, lam, ncols: int) -> None:
    """Always-on check that lam kills the first ncols columns of the
    integer rows but not the next one."""
    combo = [sum(l * row[j] for l, row in zip(lam, rows)) for j in range(ncols + 1)]
    if any(combo[:ncols]) or not combo[ncols]:
        raise InternalError("inconsistency certificate failed its exact check")


def determinant(m: Mat) -> Fraction:
    rows = _entries(m)
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if len(rows[0]) != k:
        raise InputError("determinant requires a square matrix")
    ints, scales = _integer_rows(rows)
    echelon = _bareiss(ints, k)
    if len(echelon.pivots) < k:
        return Fraction(0)
    return Fraction(echelon.sign * echelon.minors[-1], prod(scales))


def matrix_rank(m) -> int:
    rows = _entries(m)
    if not rows:
        return 0
    return len(_bareiss(_integer_rows(rows)[0], len(rows[0])).pivots)


def solve_linear(m: Mat, b) -> Vec:
    """Solve Mx = b exactly for square nonsingular M."""
    rows = _entries(m)
    b = _entries([b])[0]
    k = len(rows)
    if k == 0 or len(rows[0]) != k:
        raise InputError("solve_linear requires a square matrix")
    if len(b) != k:
        raise InputError("right-hand side length does not match the matrix")
    system, _ = _integer_rows([row + [bv] for row, bv in zip(rows, b)])
    work = [row[:] for row in system]
    echelon = _bareiss(work, k)
    if len(echelon.pivots) < k:
        raise DomainError("singular matrix in solve_linear")
    y, det = _back_substitute(work, echelon, k)
    _verify_null(system, y + [-det], "solution")
    return tuple([Fraction(v, det) for v in y])


def adjugate(m):
    """det(M) and the columns of adj(M) for a square nonsingular integer
    matrix M, so that M adj(M) = det(M) I.  One elimination of the rows
    beside an identity block gives column j as the integer solution of
    M x = det(M) e_j, and the product is checked on every call."""
    rows = [list(integer_vector(row)) for row in as_list(m, "a matrix")]
    k = len(rows)
    if k == 0 or any(len(row) != k for row in rows):
        raise InputError("adjugate requires a square matrix")
    work = [row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    echelon = _bareiss(work, k)
    if len(echelon.pivots) < k:
        raise DomainError("singular matrix in adjugate")
    # The last pivot is det(M) up to the sign of the row permutation.
    sign = echelon.sign
    cols = [[sign * y for y in _back_substitute(work, echelon, k + j)[0]] for j in range(k)]
    det = sign * echelon.minors[-1]
    for i, row in enumerate(rows):
        if [sum([a * y for a, y in zip(row, col)]) for col in cols] != [det * (i == j) for j in range(k)]:
            raise InternalError("adjugate failed its exact check")
    return det, tuple([tuple(col) for col in cols])


def solve_general(a, b):
    """Solve a (possibly overdetermined) system A x = b.

    Returns ``(solution, None)`` with one exact solution when the system is
    consistent, or ``(None, lam)`` where ``lam`` certifies inconsistency:
    lam @ A = 0 while lam @ b != 0.  The solution is zero on non-pivot
    columns.  ``lam`` is supported on the pivot rows and the first row left
    inconsistent, with coefficient 1 on that row.
    """
    rows = _entries(a)
    b = _entries([b])[0]
    nrows = len(rows)
    if nrows == 0:
        return (), None
    ncols = len(rows[0])
    if len(b) != nrows:
        raise InputError("right-hand side length does not match the matrix")
    system, scales = _integer_rows([row + [bv] for row, bv in zip(rows, b)])
    # An identity block records each row as a combination of the input rows.
    work = [row + [int(i == j) for j in range(nrows)] for i, row in enumerate(system)]
    echelon = _bareiss(work, ncols)
    rank = len(echelon.pivots)
    for pos in range(rank, nrows):
        if work[pos][ncols]:
            lam = work[pos][ncols + 1:]
            _verify_certificate(system, lam, ncols)
            lam = [l * s for l, s in zip(lam, scales)]
            own = lam[echelon.order[pos]]
            return None, tuple([Fraction(l, own) for l in lam])
    pivot_values, det = _back_substitute(work, echelon, ncols)
    y = [0] * ncols
    for c, v in zip(echelon.pivots, pivot_values):
        y[c] = v
    _verify_null(system, y + [-det], "solution")
    return tuple([Fraction(v, det) for v in y]), None


def failing_principal_minor(m: Mat):
    """Index (1-based) and value of the first leading minor violating
    negative definiteness, or None when the matrix is negative definite.
    A matrix that is not square and symmetric raises InputError."""
    rows = _entries(m)
    k = len(rows)
    if rows and len(rows[0]) != k:
        raise InputError("failing_principal_minor requires a square matrix")
    if list(map(list, zip(*rows))) != rows:
        raise InputError("failing_principal_minor requires a symmetric matrix")
    ints, scales = _integer_rows(rows)
    return _failing_minor(_bareiss(ints, k, pivoting=False).minors, scales)


def _failing_minor(minors, scales):
    """Size and value of the first leading principal minor with
    (-1)^size minor <= 0, or None, from the pivots of a pass without row
    swaps over rows that were multiplied by scales before it."""
    scale = 1
    for size, (minor, row_scale) in enumerate(zip(minors, scales), 1):
        scale *= row_scale
        if (-1) ** size * minor <= 0:
            return size, Fraction(minor, scale)
    return None


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


class LPProblem(namedtuple("LPProblem", "objective constraints")):
    """Maximize <objective, x> subject to <normal_i, x> <= bound_i, x free.

    The objective becomes a tuple of Fractions and the constraints a tuple
    of (normal, bound) pairs of Fractions, each read by parse_rational.
    """

    __slots__ = ()

    def __new__(cls, objective, constraints):
        obj = rational_vector(objective, "an LP objective")
        cons = []
        for constraint in as_list(constraints, "the LP constraints"):
            pair = as_list(constraint, "an LP constraint")
            if len(pair) != 2:
                raise InputError(f"an LP constraint must be a (normal, bound) pair, not {constraint!r}")
            cons.append((rational_vector(pair[0], "a constraint normal"), parse_rational(pair[1])))
        if not obj:
            raise InputError("LP objective must have positive dimension")
        for normal, _ in cons:
            if len(normal) != len(obj):
                raise InputError(
                    f"constraint dimension {len(normal)} does not match "
                    f"objective dimension {len(obj)}"
                )
        return super().__new__(cls, obj, tuple(cons))


class LPOutcome(namedtuple("LPOutcome", "status value point ray farkas", defaults=(None,) * 4)):
    """Result of lp_max with an exact certificate for each status: the
    optimal value and point, an improving ray, or Farkas multipliers."""

    __slots__ = ()


class _Tableau:
    """Simplex tableau over Fraction with Bland's rule.  Rows are stored in
    full; a pivot touches only the pivot row's nonzero columns."""

    def __init__(self, rows, rhs, basis, ncols):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols
        self.obj = [Fraction(0)] * ncols
        self.obj_val = Fraction(0)

    def set_objective(self, costs):
        self.obj = list(costs)
        self.obj_val = Fraction(0)
        for k, j in enumerate(self.basis):
            cb = costs[j]
            if cb:
                row = self.rows[k]
                for c in range(self.ncols):
                    self.obj[c] -= cb * row[c]
                self.obj_val += cb * self.rhs[k]

    def pivot(self, k, j):
        row = self.rows[k]
        inv = Fraction(1) / row[j]
        if inv != 1:
            self.rows[k] = row = [x * inv for x in row]
            self.rhs[k] *= inv
        # Subtracting a multiple of the pivot row leaves every column where
        # it is zero as it was, so only its nonzero columns are updated.
        nonzero = [(c, y) for c, y in enumerate(row) if y]
        pivot_rhs = self.rhs[k]
        for r, other in enumerate(self.rows):
            factor = other[j]
            if factor and r != k:
                for c, y in nonzero:
                    other[c] -= factor * y
                self.rhs[r] -= factor * pivot_rhs
        factor = self.obj[j]
        if factor:
            obj = self.obj
            for c, y in nonzero:
                obj[c] -= factor * y
            self.obj_val += factor * pivot_rhs
        self.basis[k] = j

    def run(self, eligible):
        """Bland-rule simplex; returns ("optimal", None) or ("unbounded", j)."""
        while True:
            enter = next(
                (j for j in range(self.ncols) if eligible[j] and self.obj[j] > 0),
                None,
            )
            if enter is None:
                return OPTIMAL, None
            leave = None
            best = None
            for k in range(len(self.rows)):
                a = self.rows[k][enter]
                if a > 0:
                    t = self.rhs[k] / a
                    if best is None or t < best or (
                        t == best and self.basis[k] < self.basis[leave]
                    ):
                        best = t
                        leave = k
            if leave is None:
                return UNBOUNDED, enter
            self.pivot(leave, enter)


def lp_max(problem: LPProblem) -> LPOutcome:
    """Exact maximization over {x : <normal_i, x> <= bound_i} with free x.

    Internally splits x into a difference of nonnegative variables, adds
    slacks and artificials, and runs a two-phase simplex.  Deterministic:
    Bland's rule with a fixed column order.
    """
    n = len(problem.objective)
    m = len(problem.constraints)
    normals = [c[0] for c in problem.constraints]
    bounds = [c[1] for c in problem.constraints]

    ncols = 2 * n + 2 * m
    slack0 = 2 * n
    art0 = 2 * n + m
    rows = []
    rhs = []
    flips = []
    for i in range(m):
        row = [Fraction(0)] * ncols
        for j in range(n):
            row[j] = Fraction(normals[i][j])
            row[n + j] = -Fraction(normals[i][j])
        row[slack0 + i] = Fraction(1)
        b = Fraction(bounds[i])
        flip = b < 0
        if flip:
            row = [-x for x in row]
            b = -b
        row[art0 + i] = Fraction(1)
        rows.append(row)
        rhs.append(b)
        flips.append(flip)

    tab = _Tableau(rows, rhs, list(range(art0, art0 + m)), ncols)

    # Phase 1: maximize minus the sum of artificials.
    phase1 = [Fraction(0)] * ncols
    for i in range(m):
        phase1[art0 + i] = Fraction(-1)
    tab.set_objective(phase1)
    status, _ = tab.run([True] * ncols)
    check(status == OPTIMAL, "phase 1 of the simplex is unbounded")
    if tab.obj_val != 0:
        # Farkas certificate from the simplex multipliers of phase 1.
        y_dual = []
        for i in range(m):
            yi = Fraction(0)
            for k, bj in enumerate(tab.basis):
                if phase1[bj]:
                    yi += phase1[bj] * tab.rows[k][art0 + i]
            y_dual.append(yi)
        farkas = tuple(-y if flip else y for y, flip in zip(y_dual, flips))
        return _verified(problem, LPOutcome(status=INFEASIBLE, farkas=farkas))

    # Drive basic artificials out, dropping redundant rows.
    keep = []
    for k in range(len(tab.rows)):
        if tab.basis[k] >= art0:
            j = next(
                (c for c in range(art0) if tab.rows[k][c] != 0),
                None,
            )
            if j is None:
                continue  # redundant constraint row
            tab.pivot(k, j)
        keep.append(k)
    tab.rows = [tab.rows[k] for k in keep]
    tab.rhs = [tab.rhs[k] for k in keep]
    tab.basis = [tab.basis[k] for k in keep]

    # Phase 2: the real objective on x = u - w.
    phase2 = [Fraction(0)] * ncols
    for j in range(n):
        phase2[j] = Fraction(problem.objective[j])
        phase2[n + j] = -Fraction(problem.objective[j])
    tab.set_objective(phase2)
    eligible = [c < art0 for c in range(ncols)]
    status, enter = tab.run(eligible)

    def current_point() -> Vec:
        uw = [Fraction(0)] * (2 * n)
        for k, j in enumerate(tab.basis):
            if j < 2 * n:
                uw[j] = tab.rhs[k]
        return tuple(uw[j] - uw[n + j] for j in range(n))

    if status == UNBOUNDED:
        direction = [Fraction(0)] * ncols
        direction[enter] = Fraction(1)
        for k, j in enumerate(tab.basis):
            direction[j] = -tab.rows[k][enter]
        ray = tuple(direction[j] - direction[n + j] for j in range(n))
        return _verified(problem, LPOutcome(status=UNBOUNDED, ray=ray, point=current_point()))

    return _verified(problem, LPOutcome(status=OPTIMAL, value=tab.obj_val, point=current_point()))


def _verified(problem: LPProblem, outcome: LPOutcome) -> LPOutcome:
    """Always-on check of the certificate of an LP outcome, which it returns."""
    normals = [normal for normal, _ in problem.constraints]
    bounds = [bound for _, bound in problem.constraints]
    if outcome.status == INFEASIBLE:
        farkas = outcome.farkas
        check(all(y >= 0 for y in farkas), "a Farkas multiplier is negative")
        check(not any(mat_vec(zip(*normals), farkas)),
              "the Farkas combination of the constraint normals is not zero")
        check(dot(farkas, bounds) < 0, "the Farkas combination of the bounds is not negative")
    elif outcome.status == UNBOUNDED:
        check(all(a <= 0 for a in mat_vec(normals, outcome.ray)),
              "the unbounded ray leaves the feasible region")
        check(dot(problem.objective, outcome.ray) > 0, "the unbounded ray does not improve the objective")
    else:
        check(dot(problem.objective, outcome.point) == outcome.value, "the optimal value is not attained")
        check(all(a <= b for a, b in zip(mat_vec(normals, outcome.point), bounds)),
              "the optimal point is infeasible")
    return outcome


# ---------------------------------------------------------------------------
# Convex hulls and volumes in dimension <= 3
# ---------------------------------------------------------------------------


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points) -> list:
    """Andrew's monotone chain on the caller's exact coordinates (ints or
    Fractions, compared as given, so integer points stay integers); returns
    the distinct hull vertices as tuples in counter-clockwise order without
    collinear interior points."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def cross3(u, v) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _idot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def det3(a, b, c):
    """The 3x3 determinant of the rows a, b, c, an int for integer rows."""
    return _idot3(a, cross3(b, c))


def _hull_planes(pts) -> dict:
    """{(outward primitive normal, offset): the hull's triangles on that
    plane} for sorted distinct points of Z^3, each triangle counter-clockwise
    seen from outside.  Incremental, as in Quickhull (Barber, Dobkin and
    Huhdanpaa, ACM TOMS 1996): the triangles a point lies strictly above give
    way to a cone from it over their horizon, about g*h exact sign tests for
    g points and h triangles.  Coplanar triangles share a plane.
    """
    if len(pts) < 4:
        return {}

    def sub(p, q):
        return (p[0] - q[0], p[1] - q[1], p[2] - q[2])

    # Start from the lexicographic extremes, the point farthest from their
    # line and the point farthest from the plane of those three.
    a, b = 0, len(pts) - 1
    normals = [cross3(sub(pts[b], pts[a]), sub(p, pts[a])) for p in pts]
    c = max(range(len(pts)), key=lambda i: _idot3(normals[i], normals[i]))
    heights = [_idot3(normals[c], sub(p, pts[a])) for p in pts]
    d = max(range(len(pts)), key=lambda i: abs(heights[i]))
    if heights[d] == 0:
        return {}
    if heights[d] > 0:
        b, c = c, b

    faces = {}  # (u, v, w), counter-clockwise seen from outside -> (normal, offset)
    owner = {}  # each directed edge of a face -> that face

    def add_face(u, v, w):
        normal = cross3(sub(pts[v], pts[u]), sub(pts[w], pts[u]))
        faces[u, v, w] = (normal, _idot3(normal, pts[u]))
        owner[u, v] = owner[v, w] = owner[w, u] = (u, v, w)

    for u, v, w in ((a, b, c), (a, d, b), (b, d, c), (c, d, a)):
        add_face(u, v, w)
    for i, p in enumerate(pts):
        visible = {f for f, (normal, offset) in faces.items() if _idot3(normal, p) > offset}
        horizon = [
            (u, v) for f in visible for u, v in zip(f, f[1:] + f[:1]) if owner[v, u] not in visible
        ]
        for f in visible:
            del faces[f]
        for u, v in horizon:
            add_face(u, v, i)

    planes = {}
    for (u, v, w), (normal, offset) in faces.items():
        g = gcd(*normal)
        key = (tuple([x // g for x in normal]), offset // g)
        planes.setdefault(key, []).append((pts[u], pts[v], pts[w]))
    return planes


def hull_facets(points):
    """Sorted (outward primitive normal, offset, simplices) facets of the
    convex hull of integer ``points`` in Z^1, Z^2 or Z^3, each facet given
    by the simplices that tile it: its end point in 1-D, its edge
    counter-clockwise in 2-D, the hull's own triangles on its plane in 3-D,
    whose vertices may include points on the facet that are not corners.
    Points that do not span space give no facets."""
    pts = set(map(tuple, points))
    lengths = set(map(len, pts))
    if len(lengths) > 1:
        raise InputError(f"hull points of different dimensions {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    if n > 3:
        raise UnsupportedDimensionError(f"hulls are computed in dimension <= 3, got {n}")
    planes = {}
    if n == 1 and len(pts) > 1:
        low, high = min(pts), max(pts)
        planes = {((-1,), -low[0]): [(low,)], ((1,), high[0]): [(high,)]}
    elif n == 2:
        # convex_hull_2d sorts the points itself.
        hull = convex_hull_2d(pts)
        if len(hull) > 2:
            for p, q in zip(hull, hull[1:] + hull[:1]):
                a, b = q[1] - p[1], p[0] - q[0]
                g = gcd(a, b)
                planes[(a // g, b // g), (a * p[0] + b * p[1]) // g] = [(p, q)]
    elif n == 3:
        planes = _hull_planes(sorted(pts))
    return [(normal, offset, simplices) for (normal, offset), simplices in sorted(planes.items())]


def fan_volume(facets) -> int:
    """n! times the volume of the cones from the origin over hull facets in
    Z^n, n <= 3: one |det| per simplex of each facet, taken by det3 on its
    vertices padded with zeros and the unit rows e_{n+1}, ..., e_3."""
    total = 0
    for _, _, simplices in facets:
        for simplex in simplices:
            n = len(simplex)
            pad = (0,) * (3 - n)
            total += abs(det3(*[p + pad for p in simplex], *[(0, 1, 0), (0, 0, 1)][n - 1:]))
    return total


def order_coplanar_polygon(points, normal) -> list:
    """Order coplanar 3D points along their convex polygon boundary."""
    drop = max(range(3), key=lambda j: abs(normal[j]))
    keep = [j for j in range(3) if j != drop]
    projected = {}
    for p in points:
        projected[(p[keep[0]], p[keep[1]])] = p
    hull = convex_hull_2d(projected.keys())
    return [projected[q] for q in hull]
