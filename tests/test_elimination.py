"""The fraction-free elimination kernel against sympy as an independent
exact oracle, its always-on self-checks, and closed forms; the surface
engine on the int intersection form against the all-Fraction engine of
``reference.py``."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from singvol import DomainError, InputError, InternalError, ResolutionGraph
from singvol import exactmath as xm
from singvol.exactmath import (
    adjugate,
    determinant,
    failing_principal_minor,
    matrix_rank,
    solve_general,
    solve_linear,
)
from singvol.surface import (
    SingularityKind,
    classify,
    cone_graph,
    cusp_cycle_graph,
    du_val_graph,
    intersect,
    local_volume,
    log_discrepancy_divisor,
    volume,
    zariski_decompose,
)

from conftest import random_graph, run_python
from reference import (
    eager_bareiss, fraction_classify, fraction_dot, fraction_local_volume, fraction_matrix,
    fraction_zariski_decompose,
)

try:
    import sympy
except ImportError:  # sympy is an optional, test-only oracle
    sympy = None


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


@st.composite
def matrices(draw, square=False, max_size=8, integer=False):
    """Integer or rational matrices up to max_size x max_size; about half
    have rows that are integer combinations of fewer rows, so singular and
    rank-deficient inputs are common.  With ``integer`` every entry is an
    int."""
    nrows = draw(st.integers(1, max_size))
    ncols = nrows if square else draw(st.integers(1, max_size))
    if not integer and draw(st.booleans()):
        entry = st.fractions(-9, 9, max_denominator=6)
    else:
        entry = st.integers(-9, 9) if integer else st.integers(-9, 9).map(F)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    if not draw(st.booleans()):
        return draw(st.lists(row, min_size=nrows, max_size=nrows))
    rank = draw(st.integers(0, min(nrows, ncols) - 1))
    basis = draw(st.lists(row, min_size=rank, max_size=rank))
    rows = list(basis)
    for _ in range(nrows - rank):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), 0 if integer else F(0)) for j in range(ncols)])
    order = draw(st.permutations(range(nrows)))
    return [rows[i] for i in order]


def rhs_for(rows):
    return st.lists(st.fractions(-9, 9, max_denominator=4), min_size=len(rows), max_size=len(rows))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
class TestAgainstSympy:
    @settings(max_examples=80, deadline=None)
    @given(matrices(square=True))
    def test_determinant(self, rows):
        assert determinant(rows) == to_sympy(rows).det()

    @settings(max_examples=80, deadline=None)
    @given(matrices(square=True, integer=True))
    def test_adjugate(self, rows):
        halved = [row[:] for row in rows]
        halved[-1][-1] = F(2 * rows[-1][-1] + 1, 2)
        with pytest.raises(InputError, match="not an integer vector"):
            adjugate(halved)
        matrix = sympy.Matrix(rows)
        if matrix.det() == 0:
            with pytest.raises(DomainError, match="^singular matrix in adjugate$"):
                adjugate(rows)
            return
        det, cols = adjugate(rows)
        assert type(det) is int and all(type(x) is int for col in cols for x in col)
        assert det == matrix.det()
        assert [list(row) for row in zip(*cols)] == matrix.adjugate().tolist()

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_rank(self, rows):
        assert matrix_rank(rows) == to_sympy(rows).rank()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
                st.integers(-2, 2),
                st.integers(1, 5),
            )
        )
    )
    def test_leading_minors(self, data):
        # -(B^T B) - c I is negative definite for c >= 1 and may fail at any
        # leading minor otherwise; dividing by q makes it rational.
        b, c, q = data
        n = len(b)
        rows = [
            [F(-sum(b[t][i] * b[t][j] for t in range(n)) - c * (i == j), q) for j in range(n)]
            for i in range(n)
        ]
        matrix = to_sympy(rows)
        expected = None
        for size in range(1, n + 1):
            minor = matrix[:size, :size].det()
            if (-1) ** size * minor <= 0:
                expected = (size, minor)
                break
        result = failing_principal_minor(rows)
        assert result == expected
        assert (result is None) == matrix.is_negative_definite

    @settings(max_examples=80, deadline=None)
    @given(matrices(square=True).flatmap(lambda rows: st.tuples(st.just(rows), rhs_for(rows))))
    def test_solve_linear(self, data):
        rows, b = data
        matrix = to_sympy(rows)
        if matrix.det() == 0:
            with pytest.raises(DomainError, match="^singular matrix in solve_linear$"):
                solve_linear(rows, b)
            return
        x = solve_linear(rows, b)
        assert all(isinstance(v, F) for v in x)
        assert list(x) == list(matrix.LUsolve(to_sympy([[v] for v in b])))

    @settings(max_examples=80, deadline=None)
    @given(matrices().flatmap(lambda rows: st.tuples(st.just(rows), rhs_for(rows))))
    def test_solve_general(self, data):
        rows, b = data
        matrix = to_sympy(rows)
        consistent = matrix.rank() == matrix.row_join(to_sympy([[v] for v in b])).rank()
        solution, lam = solve_general(rows, b)
        if consistent:
            assert lam is None
            assert all(xm.dot(row, solution) == bv for row, bv in zip(rows, b))
        else:
            assert solution is None
            ncols = len(rows[0])
            assert all(sum(l * row[j] for l, row in zip(lam, rows)) == 0 for j in range(ncols))
            assert xm.dot(lam, b) != 0


@pytest.mark.parametrize("rows", [
    [[F(1, 2), 0], [0, 1]], [[1, 2], [3, "4"]], [[True, 0], [0, 1]], [[1, 2], [3]], [],
])
def test_adjugate_takes_square_integer_matrices(rows):
    with pytest.raises(InputError):
        adjugate(rows)


def test_chain_determinants_closed_form():
    """The A_n intersection matrix has det (-1)^n (n+1), and so does its
    k-th leading block, so every leading minor passes."""
    for n in range(1, 81):
        rows = [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
        assert determinant(rows) == (-1) ** n * (n + 1)
        assert failing_principal_minor(rows) is None


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_volume_and_class_under_relabelling(rng):
    graph = random_graph(rng, max_vertices=8)
    order = list(range(len(graph)))
    rng.shuffle(order)
    relabelled = graph.permuted(order)
    assert volume(relabelled) == volume(graph)
    before, after = classify(graph), classify(relabelled)
    assert after.kind == before.kind
    assert list(after.log_discrepancies) == [before.log_discrepancies[old] for old in order]


def reference_graphs(rng):
    """Du Val, random tree, cusp and cone graphs, each also relabelled."""
    graphs = [du_val_graph(f"A{n}") for n in range(1, 13)]
    graphs += [du_val_graph(f"D{n}") for n in range(4, 10)]
    graphs += [du_val_graph(f"E{n}") for n in (6, 7, 8)]
    graphs += [random_graph(rng, max_vertices=12, max_extra_edges=0) for _ in range(25)]
    for _ in range(10):
        selfs = [rng.randint(-4, -2) for _ in range(rng.randint(2, 9))]
        selfs[rng.randrange(len(selfs))] = rng.randint(-5, -3)
        graphs.append(cusp_cycle_graph(selfs))
    graphs += [cone_graph(g, d) for g in range(4) for d in range(1, 5)]
    relabelled = []
    for graph in graphs:
        order = list(range(len(graph)))
        rng.shuffle(order)
        relabelled.append(graph.permuted(order))
    return graphs + relabelled


class TestAgainstFractionReference:
    """The surface engine on the int intersection form gives the values, and
    the Fraction types, of the all-Fraction engine it replaced."""

    def test_volume_and_classify(self):
        for graph in reference_graphs(random.Random(809)):
            kind, expected = fraction_classify(graph)
            found = classify(graph)
            assert found == (kind, expected), graph
            assert all(type(a) is F for a in found.log_discrepancies), graph
            value = volume(graph)
            assert value == fraction_local_volume(graph, expected), graph
            assert type(value) is F, graph

    def test_classify_compares_no_fractions(self, monkeypatch):
        """The class is fixed at construction by the signs of the integers
        (y_j + det) det, so classify agrees with the Fraction rule without
        ordering a Fraction."""
        rng = random.Random(811)
        graphs = reference_graphs(rng)
        cusps = [cusp_cycle_graph([rng.randint(-5, -3)] + [rng.randint(-4, -2) for _ in range(k)])
                 for k in range(1, 9)]
        expected = [fraction_classify(graph) for graph in graphs + cusps]
        assert {kind for kind, _ in expected} == set(SingularityKind)

        def forbidden(*args):
            raise AssertionError("classify ordered a Fraction")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(F, name, forbidden)
        for graph, (kind, coeffs) in zip(graphs + cusps, expected):
            assert classify(graph) == (kind, coeffs), graph
        # A cusp cycle is log canonical and not klt: every a_j is 0.
        for graph in cusps:
            assert classify(graph) == (SingularityKind.LC_NOT_KLT, (0,) * len(graph)), graph

    def test_zariski_and_local_volume(self):
        rng = random.Random(810)
        for graph in reference_graphs(rng):
            for _ in range(3):
                d = [rng.choice([rng.randint(-4, 4), F(rng.randint(-6, 6), rng.randint(1, 7))])
                     for _ in range(len(graph))]
                nef, neg = fraction_zariski_decompose(graph, d)
                found = zariski_decompose(graph, d)
                assert found == (nef, neg), (graph, d)
                assert all(type(c) is F for part in found for c in part), (graph, d)
                value = local_volume(graph, d)
                assert value == fraction_local_volume(graph, d), (graph, d)
                assert type(value) is F, (graph, d)


class TestZariskiRightHandSide:
    """M.d is formed once per decomposition, on d cleared of denominators,
    so the only Fraction dot products left are mat_vec's k a pass."""

    def test_dots_only_from_mat_vec(self, monkeypatch):
        dot, mat_vec, solve_linear = xm.dot, xm.mat_vec, xm.solve_linear
        calls = {"dot": 0, "mat_vec": 0, "solve_linear": 0}

        def counting_dot(u, v):
            calls["dot"] += 1
            return dot(u, v)

        def counting_mat_vec(m, v):
            calls["mat_vec"] += 1
            return mat_vec(m, v)

        def counting_solve_linear(m, b):
            calls["solve_linear"] += 1
            return solve_linear(m, b)

        monkeypatch.setattr(xm, "dot", counting_dot)
        monkeypatch.setattr(xm, "mat_vec", counting_mat_vec)
        monkeypatch.setattr(xm, "solve_linear", counting_solve_linear)
        rng = random.Random(813)
        solved = 0
        for graph in reference_graphs(rng):
            for d in (log_discrepancy_divisor(graph), rational_divisor(rng, len(graph))):
                calls.update(dot=0, mat_vec=0, solve_linear=0)
                zariski_decompose(graph, d)
                assert calls["dot"] == len(graph) * calls["mat_vec"], (graph, d)
                # The first pass reads its products off the integer M.D.
                assert calls["mat_vec"] == calls["solve_linear"], (graph, d)
                solved += calls["mat_vec"] > 0
        assert solved > 50


class TestFirstZariskiPass:
    """N = 0 on the first pass, so its violations are read off the integer
    M.D and mat_vec runs once after each solve, never before the first
    (test_dots_only_from_mat_vec checks one mat_vec a solve)."""

    @staticmethod
    def counted(monkeypatch):
        calls = {"mat_vec": 0, "solve_linear": 0}
        for name in calls:
            real = getattr(xm, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(xm, name, counting)
        return calls

    def test_no_product_without_a_solve(self, monkeypatch):
        """Cusp cycles and cones over genus-1 curves are lc with log
        discrepancies 0, so their volume solves nothing; neither does d = 0."""
        calls = self.counted(monkeypatch)
        rng = random.Random(815)
        graphs = [cusp_cycle_graph([rng.randint(-5, -2) for _ in range(n - 1)] + [-3]) for n in range(2, 12)]
        graphs += [cone_graph(1, degree) for degree in range(1, 10)]
        for graph in graphs:
            assert volume(graph) == 0
            assert calls == {"mat_vec": 0, "solve_linear": 0}, graph
        for graph in reference_graphs(rng):
            assert zariski_decompose(graph, [0] * len(graph)) == ((F(0),) * len(graph),) * 2
            assert calls == {"mat_vec": 0, "solve_linear": 0}, graph

    def test_chain_solves_unchanged(self, monkeypatch):
        """On A_n the support grows by the two ends a pass, so volume makes
        ceil(n / 2) solves, as before the first pass was read off M.D."""
        calls = self.counted(monkeypatch)
        for n in range(1, 41):
            calls.update(mat_vec=0, solve_linear=0)
            assert volume(du_val_graph(f"A{n}")) == 0
            assert calls == {"mat_vec": (n + 1) // 2, "solve_linear": (n + 1) // 2}, n


def intersection_form(rng, k, cycle=False):
    """The int intersection form of a random tree on k vertices, or of a
    k-cycle; self-intersections from -4 to 0, so some forms are singular or
    have a zero leading minor."""
    edges = [(v, v + 1) for v in range(k - 1)] if cycle else [(rng.randrange(v), v) for v in range(1, k)]
    if cycle and k > 2:
        edges.append((0, k - 1))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = rng.randint(-4, 0)
    for i, j in edges:
        mult = rng.randint(1, 2)
        rows[i][j] += mult
        rows[j][i] += mult
    return rows


class TestLazyRowScaling:
    """_bareiss scales a row whose pivot-column entry is 0 only when it is
    next read; it returns the rows and the _Echelon of the eager pass in
    reference.py, which scaled every row below the pivot at every step."""

    @staticmethod
    def assert_same(rows, ncols, pivoting=True):
        lazy, eager = [row[:] for row in rows], [row[:] for row in rows]
        assert xm._bareiss(lazy, ncols, pivoting) == eager_bareiss(eager, ncols, pivoting), rows
        assert lazy == eager, rows

    @staticmethod
    def with_extra_columns(rng, rows):
        """Each row with two right-hand-side entries and an identity block."""
        n = len(rows)
        return [row + [rng.randint(-5, 5), rng.randint(-5, 5)] + [int(i == j) for j in range(n)]
                for i, row in enumerate(rows)]

    def check_all_ways(self, rng, rows):
        ncols = len(rows[0])
        for work in (rows, self.with_extra_columns(rng, rows)):
            self.assert_same(work, ncols)
            self.assert_same(work, ncols, pivoting=False)

    def test_dense_banded_and_rank_deficient(self):
        rng = random.Random(816)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
            shape = rng.choice(["dense", "banded", "sparse", "deficient"])
            if shape == "deficient":
                base = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
                rows = [[sum(c * x for c, x in zip(coeffs, col)) for col in zip(*base)]
                        for coeffs in ([rng.randint(-2, 2) for _ in base] for _ in range(nrows))]
            else:
                width = {"dense": ncols, "banded": rng.randint(0, 2), "sparse": ncols}[shape]
                density = 0.3 if shape == "sparse" else 1
                rows = [[rng.randint(-9, 9) if abs(i - j) <= width and rng.random() < density else 0
                         for j in range(ncols)] for i in range(nrows)]
            self.check_all_ways(rng, rows)

    def test_intersection_forms(self):
        rng = random.Random(817)
        stopped = 0
        for _ in range(200):
            rows = intersection_form(rng, rng.randint(1, 14), cycle=rng.random() < 0.4)
            self.check_all_ways(rng, rows)
            minors = xm._bareiss([row[:] for row in rows], len(rows), pivoting=False).minors
            stopped += minors[-1] == 0 and len(minors) < len(rows)
        assert stopped > 10

    def test_graph_forms_with_canonical_column(self):
        """The pass ResolutionGraph runs: no row swaps, K beside M."""
        rng = random.Random(818)
        for graph in reference_graphs(rng) + multigraphs(rng):
            rows = [list(row) + [2 * v.genus - 2 - v.self_int]
                    for row, v in zip(graph.intersection_matrix, graph.vertices)]
            self.assert_same(rows, len(graph), pivoting=False)
            self.assert_same(rows, len(graph))


def rational_divisor(rng, k):
    return [rng.choice([rng.randint(-4, 4), F(rng.randint(-6, 6), rng.randint(1, 6)),
                        f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}"]) for _ in range(k)]


def multigraphs(rng):
    """Random graphs with repeated edges between one pair of vertices, and
    cusp cycles of length two, whose one edge has multiplicity 2."""
    graphs = [cusp_cycle_graph([rng.randint(-5, -2), rng.randint(-5, -3)]) for _ in range(5)]
    while len(graphs) < 25:
        graph = random_graph(rng, max_vertices=8, max_extra_edges=6)
        pairs = [(i, j) for i, j, _ in graph.edges]
        if len(set(pairs)) < len(pairs):
            graphs.append(graph)
    return graphs


class TestIntersect:
    """The integer sum over vertices and edges against the dense Fraction
    form it replaced."""

    def test_against_fraction_reference(self):
        rng = random.Random(811)
        for graph in reference_graphs(rng) + multigraphs(rng):
            matrix = fraction_matrix(graph)
            for _ in range(3):
                a, b = rational_divisor(rng, len(graph)), rational_divisor(rng, len(graph))
                fa, fb = [xm.parse_rational(c) for c in a], [xm.parse_rational(c) for c in b]
                found = intersect(graph, a, b)
                assert found == fraction_dot(fa, [fraction_dot(row, fb) for row in matrix]), (graph, a, b)
                assert type(found) is F

    def test_symmetric_and_invariant_under_relabelling(self):
        rng = random.Random(812)
        for graph in reference_graphs(rng) + multigraphs(rng):
            a, b = rational_divisor(rng, len(graph)), rational_divisor(rng, len(graph))
            order = list(range(len(graph)))
            rng.shuffle(order)
            value = intersect(graph, a, b)
            assert intersect(graph, b, a) == value
            assert intersect(graph.permuted(order), [a[old] for old in order], [b[old] for old in order]) == value


class TestSelfChecks:
    """A wrong elimination result raises InternalError, never a bare assert."""

    def test_wrong_solution(self, monkeypatch):
        back_substitute = xm._back_substitute

        def off_by_one(rows, echelon, col):
            y, d = back_substitute(rows, echelon, col)
            return [y[0] + 1] + y[1:], d

        monkeypatch.setattr(xm, "_back_substitute", off_by_one)
        with pytest.raises(InternalError, match="solution"):
            solve_linear([[2, 1], [1, 3]], [1, 1])
        with pytest.raises(InternalError, match="solution"):
            solve_general([[2, 1], [1, 3], [3, 4]], [1, 1, 2])
        with pytest.raises(InternalError, match="^adjugate failed its exact check$"):
            adjugate([[2, 1], [1, 3]])
        for build in (lambda: du_val_graph("A3"), lambda: ResolutionGraph([(-3, 2), (-2, 0)], [(0, 1, 1)])):
            with pytest.raises(InternalError, match="^the discrepancies failed their exact check$"):
                build()

    def test_wrong_certificate(self, monkeypatch):
        bareiss = xm._bareiss

        def corrupt_last_entry(rows, ncols, pivoting=True):
            echelon = bareiss(rows, ncols, pivoting)
            rows[-1][-1] += 1
            return echelon

        monkeypatch.setattr(xm, "_bareiss", corrupt_last_entry)
        with pytest.raises(InternalError, match="certificate"):
            solve_general([[1, 0], [1, 0]], [0, 1])

    def test_checks_survive_optimize_flag(self):
        script = (
            "import singvol.exactmath as xm\n"
            "from singvol import InternalError\n"
            "real = xm._back_substitute\n"
            "xm._back_substitute = lambda r, e, c: ([v + 1 for v in real(r, e, c)[0]], real(r, e, c)[1])\n"
            "try:\n"
            "    xm.solve_linear([[2, 1], [1, 3]], [1, 1])\n"
            "except InternalError:\n"
            "    print('checked')\n"
            "from singvol import ResolutionGraph\n"
            "try:\n"
            "    ResolutionGraph([(-3, 2), (-2, 0)], [(0, 1, 1)])\n"
            "except InternalError:\n"
            "    print('graph checked')\n"
        )
        proc = run_python(script, "-O")
        assert proc.stdout.splitlines() == ["checked", "graph checked"], proc.stderr
