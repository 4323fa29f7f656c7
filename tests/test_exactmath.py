import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import singvol as sv
import singvol.exactmath as xm
from singvol import InputError, InternalError, DomainError, UnsupportedDimensionError
from singvol.exactmath import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPOutcome,
    LPProblem,
    convex_hull_2d,
    determinant,
    dot,
    failing_principal_minor,
    format_rational,
    is_negative_definite,
    lp_max,
    parse_rational,
    polytope_volume,
    primitive_vector,
    solve_general,
    solve_linear,
)
from singvol.oracle import lp_vertex_enumerate

from conftest import QUADRIC_CONSTRAINTS, run_python


class TestRationals:
    def test_round_trip(self):
        for text in ["0", "3", "-7", "3/2", "-5/3"]:
            assert format_rational(parse_rational(text)) == text

    def test_canonicalizes(self):
        assert format_rational(F(4, 6)) == "2/3"

    @pytest.mark.parametrize("bad", ["1.5", "a", "3/0", "3/-2", "1/2/3", "", True, False])
    def test_rejects_non_wire_forms(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)

    @pytest.mark.parametrize("form", ["{}", "-{}", "1/{}", "{}/3"])
    def test_too_many_digits(self, long_digits, form):
        text = form.format(long_digits)
        with pytest.raises(InputError) as error:
            parse_rational(text)
        assert str(error.value) == f"a rational of {len(text)} characters has too many digits"

    @pytest.mark.parametrize("value", [F(10 ** 4400), F(-1, 10 ** 4400), F(10 ** 4400 + 1, 3)])
    def test_too_many_digits_to_format(self, long_digits, value):
        with pytest.raises(InputError, match="^the answer has more digits than the interpreter converts to text$"):
            format_rational(value)
        assert format_rational(F(10 ** 4299, 7)) == "1" + "0" * 4299 + "/7"


class TestDot:
    @pytest.mark.parametrize(
        "u, v, expected",
        [
            ((2, -3), (5, 1), F(7)),
            ((2, 0), (F(1, 3), F(5)), F(2, 3)),
            ((F(1, 2), F(-1, 4)), (F(2, 3), F(4)), F(-2, 3)),
            ((), (), F(0)),
        ],
    )
    def test_returns_a_fraction(self, u, v, expected):
        value = dot(u, v)
        assert value == expected
        assert type(value) is F
        assert type(dot(v, u)) is F

    def test_rejects_a_length_mismatch(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            dot((1, 2), (1,))


class TestSolveLinear:
    def test_identity(self):
        assert solve_linear([[1, 0], [0, 1]], [3, 4]) == (3, 4)

    def test_two_by_two(self):
        assert solve_linear([[-3, 1], [1, -2]], [5, 0]) == (-2, -1)

    def test_one_by_one(self):
        assert solve_linear([[-2]], [0]) == (0,)

    def test_singular_raises(self):
        with pytest.raises(DomainError):
            solve_linear([[1, 1], [2, 2]], [1, 1])

    def test_bools_and_floats_raise(self):
        with pytest.raises(InputError, match="not a rational"):
            solve_linear([[1.5]], [True])
        with pytest.raises(InputError, match="not a rational"):
            determinant([[0.5, True], [0, 2]])
        assert solve_linear([[2]], ["1/2"]) == (F(1, 4),)

    def test_shape_mismatch_raises(self):
        with pytest.raises(InputError):
            solve_linear([[1, 0], [0, 1]], [1, 2, 3])
        with pytest.raises(InputError):
            solve_linear([[1, 0, 0], [0, 1, 0]], [1, 2])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            )
        )
    )
    def test_residual_is_exactly_zero(self, data):
        matrix, rhs = data
        if determinant(matrix) == 0:
            return
        x = solve_linear(matrix, rhs)
        assert all(dot(row, x) == b for row, b in zip(matrix, rhs))


class TestSolveGeneral:
    def test_overdetermined_consistent(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
        solution, lam = solve_general(rays, (2, 1, 2, 1))
        assert lam is None
        assert solution == (2, 1, 2)

    def test_inconsistent_yields_certificate(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
        rhs = (1, 1, 1, 0)
        solution, lam = solve_general(rays, rhs)
        assert solution is None
        assert all(
            sum(l * row[j] for l, row in zip(lam, rays)) == 0 for j in range(3)
        )
        assert dot(lam, rhs) != 0


class TestNegativeDefinite:
    def test_examples(self):
        assert is_negative_definite([[-2]])
        assert is_negative_definite([[-3, 1], [1, -2]])
        assert not is_negative_definite([[-1, 2], [2, -1]])

    def test_non_symmetric_raises(self):
        with pytest.raises(InputError):
            is_negative_definite([[-1, 1], [0, -1]])

    def test_failing_minor_reported(self):
        size, minor = failing_principal_minor([[-2, 2], [2, -2]])
        assert size == 2 and minor == 0

    @pytest.mark.parametrize("rows", [[[1], [2]], [[-1], [2]], [[-1, 0], [0, -1], [0, 0]],
                                      [[1, 2]], [[-1, 2]], [[-1, 0, 0], [0, -1, 0]]])
    def test_failing_minor_rejects_non_square(self, rows):
        with pytest.raises(InputError, match="^failing_principal_minor requires a square matrix$"):
            failing_principal_minor(rows)


class TestLpMax:
    def test_quadric_envelope_program(self):
        outcome = lp_max(LPProblem((F(1), F(1), F(0)), QUADRIC_CONSTRAINTS))
        assert outcome.status == OPTIMAL
        assert outcome.value == 3

    def test_zero_bounds_force_zero(self):
        zero = tuple((normal, F(0)) for normal, _ in QUADRIC_CONSTRAINTS)
        outcome = lp_max(LPProblem((F(1), F(1), F(0)), zero))
        assert outcome.status == OPTIMAL
        assert outcome.value == 0

    def test_unit_bounds(self):
        constraints = tuple(
            (normal, F(b)) for (normal, _), b in zip(QUADRIC_CONSTRAINTS, (1, 1, 1, 0))
        )
        outcome = lp_max(LPProblem((F(1), F(1), F(0)), constraints))
        assert outcome.value == 1
        enumerated = lp_vertex_enumerate(LPProblem((F(1), F(1), F(0)), constraints))
        assert max(v for _, v in enumerated) == 1

    def test_constraint_order_does_not_change_value(self):
        values = set()
        for perm in itertools.permutations(QUADRIC_CONSTRAINTS):
            values.add(lp_max(LPProblem((F(1), F(1), F(0)), tuple(perm))).value)
        assert values == {F(3)}

    def test_optimal_point_is_exact(self):
        outcome = lp_max(LPProblem((F(1), F(1), F(0)), QUADRIC_CONSTRAINTS))
        for normal, bound in QUADRIC_CONSTRAINTS:
            assert dot(normal, outcome.point) <= bound
        assert dot((F(1), F(1), F(0)), outcome.point) == outcome.value

    def test_infeasible_farkas(self):
        problem = LPProblem((F(1),), (((F(1),), F(0)), ((F(-1),), F(-1))))
        outcome = lp_max(problem)
        assert outcome.status == INFEASIBLE
        y = outcome.farkas
        assert all(c >= 0 for c in y)
        assert y[0] * 1 + y[1] * (-1) == 0
        assert y[0] * 0 + y[1] * (-1) < 0

    def test_unbounded_ray(self):
        problem = LPProblem((F(1), F(1)), (((F(1), F(-1)), F(0)),))
        outcome = lp_max(problem)
        assert outcome.status == UNBOUNDED
        assert dot((1, -1), outcome.ray) <= 0
        assert dot((1, 1), outcome.ray) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            LPProblem((F(1), F(1)), (((F(1),), F(0)),))

    @pytest.mark.parametrize("constraint", [(1, 2, 3), [1], ()], ids=["three", "one", "none"])
    def test_constraint_not_a_pair(self, constraint):
        with pytest.raises(InputError, match=r"an LP constraint must be a \(normal, bound\) pair"):
            LPProblem([1], [((1,), 0), constraint])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                st.lists(
                    st.tuples(
                        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                        st.integers(-6, 6),
                    ),
                    min_size=n,
                    max_size=5,
                ),
            )
        )
    )
    def test_agrees_with_vertex_enumeration(self, data):
        objective, raw = data
        problem = LPProblem(
            tuple(F(c) for c in objective),
            tuple((tuple(F(x) for x in normal), F(b)) for normal, b in raw),
        )
        outcome = lp_max(problem)
        vertices = lp_vertex_enumerate(problem)
        if outcome.status == OPTIMAL:
            for normal, bound in problem.constraints:
                assert dot(normal, outcome.point) <= bound
            assert dot(problem.objective, outcome.point) == outcome.value
        if outcome.status == OPTIMAL and vertices:
            best = max(v for _, v in vertices)
            assert best <= outcome.value
            if best != outcome.value:
                # Only a non-pointed feasible set can hide the optimum from
                # the basic-point enumeration.
                from singvol.exactmath import matrix_rank

                assert matrix_rank([n for n, _ in problem.constraints]) < len(objective)
        elif outcome.status == INFEASIBLE:
            assert not vertices


class TestPolytopeVolume:
    def test_unit_simplex(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert polytope_volume(pts) == F(1, 6)

    def test_unit_square(self):
        assert polytope_volume([(0, 0), (1, 0), (0, 1), (1, 1)]) == 1

    def test_hull_drops_interior_points(self):
        # (1, 1) is interior to the triangle spanned by the other three.
        assert polytope_volume([(0, 0), (3, 0), (1, 1), (0, 3)]) == F(9, 2)

    def test_segment_in_dim_one(self):
        assert polytope_volume([(F(1, 2),), (3,), (2,)]) == F(5, 2)

    def test_degenerate_is_zero(self):
        assert polytope_volume([(0, 0), (1, 1), (2, 2)]) == 0
        assert polytope_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == 0

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            polytope_volume([(0, 0, 0, 0)])

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([(0, 0), (1, 0, 0), (0, 1)], "every vertex must have the length 2 of the first"),
            ([(0, 0, 0), (1, 0)], "every vertex must have the length 3 of the first"),
            ([(), (1,)], "dimension must be at least 1"),
            ([], "empty vertex list"),
        ],
    )
    def test_vertices_of_other_lengths_raise(self, vertices, message):
        with pytest.raises(InputError) as error:
            polytope_volume(vertices)
        assert str(error.value) == message

    def test_bools_and_floats_raise(self):
        with pytest.raises(InputError, match="not a rational"):
            polytope_volume([(0, 0), (0.5, 0), (0, 1)])
        with pytest.raises(InputError, match="not a rational"):
            polytope_volume([(0, 0), (True, 0), (0, 1)])

    def test_cube(self):
        pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        assert polytope_volume(pts) == 8

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
            min_size=4,
            max_size=7,
        ),
        st.permutations(range(7)),
        st.sampled_from(
            [
                ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                ((1, 0, 0), (0, 1, 3), (0, 0, 1)),
                ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
            ]
        ),
    )
    def test_permutation_and_unimodular_invariance(self, pts, perm, unimod):
        base = polytope_volume(pts)
        shuffled = [pts[i] for i in perm if i < len(pts)]
        if len(shuffled) == len(pts):
            assert polytope_volume(shuffled) == base
        image = [
            tuple(sum(row[j] * p[j] for j in range(3)) for row in unimod) for p in pts
        ]
        assert polytope_volume(image) == base

    def test_hull_2d_is_ccw(self):
        hull = convex_hull_2d([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        assert set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_against_float_hull_library(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        import random

        rng = random.Random(99)
        for _ in range(20):
            pts = [
                (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
                for _ in range(rng.randint(4, 9))
            ]
            exact = polytope_volume(pts)
            try:
                approx = scipy_spatial.ConvexHull(pts).volume
            except scipy_spatial.QhullError:
                assert exact == 0
                continue
            assert abs(float(exact) - approx) < 1e-9


class TestLpAgainstFloatSolver:
    def test_against_scipy_linprog(self):
        optimize = pytest.importorskip("scipy.optimize")
        import random

        rng = random.Random(123)
        for _ in range(40):
            n = rng.randint(2, 3)
            m = rng.randint(2, 6)
            objective = [rng.randint(-4, 4) for _ in range(n)]
            normals = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            bounds = [rng.randint(-5, 5) for _ in range(m)]
            problem = LPProblem(
                tuple(F(c) for c in objective),
                tuple((tuple(F(x) for x in row), F(b)) for row, b in zip(normals, bounds)),
            )
            exact = lp_max(problem)
            # linprog minimizes, so negate; variables are free.
            result = optimize.linprog(
                [-c for c in objective],
                A_ub=normals,
                b_ub=bounds,
                bounds=[(None, None)] * n,
                method="highs",
            )
            if exact.status == OPTIMAL:
                assert result.status == 0
                assert abs(float(exact.value) - (-result.fun)) < 1e-7
            elif exact.status == UNBOUNDED:
                assert result.status == 3
            else:
                assert result.status == 2


class TestIntegerVectors:
    def test_primitive_vector(self):
        assert primitive_vector((4, -6, 0)) == (2, -3, 0)
        assert primitive_vector((F(4), 2)) == (2, 1)

    @pytest.mark.parametrize(
        "v",
        [
            ["x", 1], [None, 1], [F(1, 2), 1], [1.5, 1], [float("inf"), 1], ["1", 1], [b"1", 1],
            [True, 0], [1, False], [F(4), 2.0], [2.0, 1],
        ],
    )
    def test_non_integer_entries_are_input_errors(self, v):
        with pytest.raises(InputError, match="not an integer vector"):
            primitive_vector(v)

    @pytest.mark.parametrize(
        "v, named",
        [
            ([1, 1.5], "[1, 1.5]"),
            ((1, 1.5), "(1, 1.5)"),
            ([F(4, 2), "2", 3], "[Fraction(2, 1), '2', 3]"),
            ({1.5}, "{1.5}"),
            ((x for x in [1, 1.5]), "[1, 1.5]"),
            (iter([F(4, 2), "2", 3]), "[2, '2', 3]"),
        ],
        ids=["list", "tuple", "list-kept-as-given", "set", "generator", "iterator-read-once"],
    )
    def test_rejected_vector_names_its_entries(self, v, named):
        # Lists, tuples and sets are named as given; an iterator, which can
        # be read only once, by the entries read so far and those after.
        with pytest.raises(InputError) as error:
            xm.integer_vector(v)
        assert str(error.value) == f"not an integer vector: {named}"

    @pytest.mark.parametrize("v, named", [(5, "5"), (None, "None"), (F(1, 2), "Fraction(1, 2)")])
    def test_non_iterable_is_an_input_error(self, v, named):
        with pytest.raises(InputError) as error:
            xm.integer_vector(v)
        assert str(error.value) == f"not an integer vector: {named}"

    def test_type_error_inside_an_iterable_is_not_rewritten(self):
        def entries():
            yield 1
            raise TypeError("from inside the generator")

        with pytest.raises(TypeError, match="from inside the generator"):
            xm.integer_vector(entries())


# Calls given a collection that cannot be iterated, each taking the plane
# cone and the cone over a genus-2 curve of degree 1.
NON_ITERABLE_CALLS = {
    "entries": lambda plane, graph: xm._entries(5),
    "entries-row": lambda plane, graph: xm._entries([[1], 5]),
    "determinant": lambda plane, graph: determinant(5),
    "determinant-row": lambda plane, graph: determinant([5]),
    "matrix_rank": lambda plane, graph: xm.matrix_rank([[1], 5]),
    "solve_linear": lambda plane, graph: solve_linear([[1]], 5),
    "solve_general": lambda plane, graph: solve_general(5, [1]),
    "failing_principal_minor": lambda plane, graph: failing_principal_minor(5),
    "is_negative_definite": lambda plane, graph: is_negative_definite([5]),
    "adjugate": lambda plane, graph: xm.adjugate(5),
    "lp-objective": lambda plane, graph: LPProblem(5, []),
    "lp-constraints": lambda plane, graph: LPProblem([1], 5),
    "lp-constraint": lambda plane, graph: LPProblem([1], [5]),
    "lp-normal": lambda plane, graph: LPProblem([1], [(5, 1)]),
    "ToricDivisor": lambda plane, graph: sv.ToricDivisor(plane, 5),
    "module_generators": lambda plane, graph: sv.module_generators(plane, 5),
    "mixed_multiplicity": lambda plane, graph: sv.mixed_multiplicity(plane, 5),
    "_as_coeffs": lambda plane, graph: sv.surface._as_coeffs(graph, 5),
    "numerical_pullback": lambda plane, graph: sv.numerical_pullback(graph, 5),
    "intersect": lambda plane, graph: sv.surface.intersect(graph, [1], 5),
    "zariski_decompose": lambda plane, graph: sv.zariski_decompose(graph, 5),
    "local_volume": lambda plane, graph: sv.local_volume(graph, 5),
    "permuted": lambda plane, graph: graph.permuted(5),
    "ToricEndo": lambda plane, graph: sv.ToricEndo(plane, 5),
}


# Each collection argument of the exact readers: the call that passes it,
# its items with one bad or non-iterable item, the message of that item, and
# the message when the argument itself is 5.
READER_CASES = {
    "determinant": (determinant, [[1, 0], 5],
                    "a matrix row must be a list, not 5", "a matrix must be a list, not 5"),
    "determinant-row": (lambda row: determinant([[1, 0], row]), [0, 1.5],
                        "not a rational in p/q form: 1.5", "a matrix row must be a list, not 5"),
    "matrix_rank": (xm.matrix_rank, [[1], 5],
                    "a matrix row must be a list, not 5", "a matrix must be a list, not 5"),
    "solve_linear": (lambda m: solve_linear(m, [1, 1]), [[1, 0], 5],
                     "a matrix row must be a list, not 5", "a matrix must be a list, not 5"),
    "solve_linear-rhs": (lambda b: solve_linear([[1, 0], [0, 1]], b), [1, "x"],
                         "not a rational in p/q form: 'x'", "a matrix row must be a list, not 5"),
    "solve_general": (lambda a: solve_general(a, [1]), [None],
                      "a matrix row must be a list, not None", "a matrix must be a list, not 5"),
    "solve_general-rhs": (lambda b: solve_general([[1]], b), [None],
                          "not a rational in p/q form: None", "a matrix row must be a list, not 5"),
    "failing_principal_minor": (failing_principal_minor, [[-2, 1], 5],
                                "a matrix row must be a list, not 5", "a matrix must be a list, not 5"),
    "is_negative_definite": (is_negative_definite, [[-2, 1], None],
                             "a matrix row must be a list, not None", "a matrix must be a list, not 5"),
    "adjugate": (xm.adjugate, [[1, 0], 5], "not an integer vector: 5", "a matrix must be a list, not 5"),
    "lp-objective": (lambda c: LPProblem(c, []), [1, True],
                     "not a rational in p/q form: True", "an LP objective must be a list, not 5"),
    "lp-constraints": (lambda cons: LPProblem([1], cons), [((1,), 0), (1, 2, 3)],
                       "an LP constraint must be a (normal, bound) pair, not (1, 2, 3)",
                       "the LP constraints must be a list, not 5"),
    "lp-constraints-item": (lambda cons: LPProblem([1], cons), [((1,), 0), 5],
                            "an LP constraint must be a list, not 5",
                            "the LP constraints must be a list, not 5"),
    "lp-constraint": (lambda pair: LPProblem([1], [pair]), [(1,), "b"],
                      "not a rational in p/q form: 'b'", "an LP constraint must be a list, not 5"),
    "lp-normal": (lambda n: LPProblem([1, 1], [(n, 0)]), [1, 1.5],
                  "not a rational in p/q form: 1.5", "a constraint normal must be a list, not 5"),
    "polytope_volume": (polytope_volume, [(1, 2), 5],
                        "a vertex must be a list, not 5", "the vertices must be a list, not 5"),
    "polytope_volume-vertex": (lambda v: polytope_volume([(0, 0), v, (0, 1)]), [1, 0.5],
                               "not a rational in p/q form: 0.5", "a vertex must be a list, not 5"),
    "integer_vector": (xm.integer_vector, [1, 1.5],
                       "not an integer vector: [1, 1.5]", "not an integer vector: 5"),
    "rational_vector": (lambda v: xm.rational_vector(v, "a vector"), [1, "1.5"],
                        "not a rational in p/q form: '1.5'", "a vector must be a list, not 5"),
}

COLLECTION_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda items: (x for x in items),
    "iterator": iter,
    "non-iterable": lambda items: 5,
}


class TestCollectionArguments:
    @pytest.mark.parametrize("name", sorted(NON_ITERABLE_CALLS))
    def test_non_iterable_is_an_input_error(self, name):
        plane, graph = sv.ToricCone([(1, 0), (0, 1)]), sv.cone_graph(2, 1)
        with pytest.raises(InputError, match="must be a list, not 5"):
            NON_ITERABLE_CALLS[name](plane, graph)

    @pytest.mark.parametrize("form", list(COLLECTION_FORMS))
    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_every_form_of_a_bad_argument_is_an_input_error(self, name, form):
        # A one-shot iterator is read once, so its message must be the one
        # a list of the same items gives.
        call, items, message, non_iterable = READER_CASES[name]
        with pytest.raises(InputError) as error:
            call(COLLECTION_FORMS[form](items))
        if form == "non-iterable":
            message = non_iterable
        elif (name, form) == ("integer_vector", "tuple"):
            # integer_vector names a list or a tuple as given.
            message = "not an integer vector: (1, 1.5)"
        assert str(error.value) == message


# Calls each given text, bytes or a mapping where a collection belongs, with
# what that collection is.
NOT_COLLECTION_CALLS = {
    "rational_vector": (lambda v: xm.rational_vector(v, "x"), "x"),
    "integer_vector": (lambda v: xm.integer_vector(v, "ray"), None),
    "determinant": (determinant, "a matrix"),
    "solve_linear": (lambda rows: solve_linear(rows, [5, 6]), "a matrix"),
    "solve_linear-row": (lambda row: solve_linear([row, [3, 4]], [5, 6]), "a matrix row"),
    "solve_linear-rhs": (lambda b: solve_linear([[1, 2], [3, 4]], b), "a matrix row"),
    "lp-objective": (lambda c: LPProblem(c, []), "an LP objective"),
    "lp-constraints": (lambda cons: LPProblem([1], cons), "the LP constraints"),
    "polytope_volume": (polytope_volume, "the vertices"),
}


class TestTextIsNotACollection:
    """Text, bytes and mappings iterate as characters, byte values and keys;
    every collection reader refuses them by what they should be."""

    @pytest.mark.parametrize("v", ["12", b"12", bytearray(b"12"), {1: 2}],
                             ids=["text", "bytes", "bytearray", "dict"])
    @pytest.mark.parametrize("name", sorted(NOT_COLLECTION_CALLS))
    def test_refused(self, name, v):
        call, what = NOT_COLLECTION_CALLS[name]
        with pytest.raises(InputError) as error:
            call(v)
        expected = f"ray {v!r} is not an integer vector" if what is None else f"{what} must be a list, not {v!r}"
        assert str(error.value) == expected


class TestLpSelfChecks:
    """Every LP certificate is checked before it is returned; a wrong one
    raises InternalError, never a bare assert."""

    OPTIMUM = LPProblem((1, 1), (((1, 0), 1), ((0, 1), 2)))
    EMPTY = LPProblem((1,), (((1,), -1), ((-1,), -1)))
    UNBOUNDED_ABOVE = LPProblem((1,), (((-1,), 0),))

    def test_phase_one_status(self, monkeypatch):
        monkeypatch.setattr(xm._Tableau, "run", lambda self, eligible: (UNBOUNDED, 0))
        with pytest.raises(InternalError, match="phase 1"):
            lp_max(self.OPTIMUM)

    @pytest.mark.parametrize(
        "problem, field, value, message",
        [
            (EMPTY, "farkas", (F(-1), F(1)), "Farkas multiplier is negative"),
            (EMPTY, "farkas", (F(2), F(1)), "combination of the constraint normals"),
            (EMPTY, "farkas", (F(0), F(0)), "combination of the bounds"),
            (UNBOUNDED_ABOVE, "ray", (F(-1),), "leaves the feasible region"),
            (UNBOUNDED_ABOVE, "ray", (F(0),), "does not improve"),
            (OPTIMUM, "value", F(4), "value is not attained"),
            (OPTIMUM, "point", (F(2), F(1)), "point is infeasible"),
        ],
    )
    def test_wrong_certificate(self, monkeypatch, problem, field, value, message):
        def corrupted(**fields):
            return LPOutcome(**dict(fields, **{field: value}))

        monkeypatch.setattr(xm, "LPOutcome", corrupted)
        with pytest.raises(InternalError, match=message):
            lp_max(problem)

    def test_checks_survive_optimize_flag(self):
        script = (
            "import singvol.exactmath as xm\n"
            "from singvol import InternalError\n"
            "xm._Tableau.run = lambda self, eligible: (xm.UNBOUNDED, 0)\n"
            "try:\n"
            "    xm.lp_max(xm.LPProblem((1,), (((1,), 1),)))\n"
            "except InternalError:\n"
            "    print('checked')\n"
        )
        proc = run_python(script, "-O")
        assert proc.stdout.strip() == "checked", proc.stderr
