import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from singvol import (
    DomainError,
    InputError,
    InternalError,
    ResolutionGraph,
    SingularityKind,
    canonical_intersections,
    classify,
    cone_graph,
    cusp_cycle_graph,
    discrepancies,
    du_val_graph,
    local_volume,
    log_discrepancy_divisor,
    numerical_pullback,
    volume,
    zariski_decompose,
)
import singvol.exactmath as xm
import singvol.surface as surface
from singvol.surface import intersect

from conftest import blow_up_node, blow_up_point, random_graph, star_graph
from reference import branch_ratio, fraction_zariski_decompose, wahl_volume


class TestGraphConstruction:
    def test_intersection_matrix(self, two_vertex_graph):
        assert two_vertex_graph.intersection_matrix == ((-3, 1), (1, -2))

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError, match="connected"):
            ResolutionGraph([(-2, 0), (-2, 0)], [])

    def test_rejects_loops(self):
        with pytest.raises(InputError, match="loop"):
            ResolutionGraph([(-2, 0)], [(0, 0, 1)])

    def test_rejects_indefinite_matrix_naming_minor(self):
        with pytest.raises(DomainError, match="minor of size 2"):
            ResolutionGraph([(-2, 0), (-2, 0)], [(0, 1, 2)])

    def test_minor_of_too_many_digits_named_by_sign_and_length(self, long_digits):
        # (-7...7)(-1) - (3...3)^2 with 4,000 sevens and 3,000 threes: the
        # square has 6,000 digits and leads, and the interpreter writes out
        # at most 4,300.
        sevens, threes = int(long_digits[:4000]), int("3" * 3000)
        assert 10 ** 5999 < threes ** 2 - sevens < 10 ** 6000
        message = ("^intersection matrix is not negative definite: leading principal "
                   "minor of size 2 has a negative determinant of 6000 digits$")
        with pytest.raises(DomainError, match=message):
            ResolutionGraph([(-sevens, 0), (-1, 0)], [(0, 1, threes)])

    def test_rejects_bad_edges(self):
        with pytest.raises(InputError):
            ResolutionGraph([(-2, 0)], [(0, 1, 1)])
        with pytest.raises(InputError):
            ResolutionGraph([(-2, 0), (-2, 0)], [(0, 1, 0)])
        with pytest.raises(InputError, match=r"^edge \(0, 5, 1\) references a missing vertex$"):
            ResolutionGraph([(-2, 0), (-2, 0)], [iter([0, 5, 1])])

    def test_vertex_reads_integer_fractions_as_the_graph_does(self):
        vertex = surface.Vertex(F(-2), F(0))
        assert vertex == (-2, 0) and type(vertex.self_int) is type(vertex.genus) is int
        assert ResolutionGraph([(F(-2), 0)], []).vertices == (surface.Vertex(F(-2), 0),)

    @pytest.mark.parametrize("self_int, genus", [
        (True, 0), (-2.0, 0), ("-2", 0), (F(-3, 2), 0), (-2, False), (-2, 0.0), (-2, "0"),
    ])
    def test_vertex_refuses_non_integers(self, self_int, genus):
        with pytest.raises(InputError, match="^vertex data must be integers$"):
            surface.Vertex(self_int, genus)

    def test_vertex_genus_check_reads_fractions(self):
        with pytest.raises(InputError, match="^genus must be nonnegative, got -1$"):
            surface.Vertex(-2, F(-1))

    @pytest.mark.parametrize("vertex", [(-2,), (-2, 0, 0), ()])
    def test_rejects_vertex_that_is_not_a_pair(self, vertex):
        with pytest.raises(InputError, match=r"must be a \(self-intersection, genus\) pair"):
            ResolutionGraph([vertex], [])

    @pytest.mark.parametrize("vertices, edges, message", [
        ([(-2, 0), (-2, 0)], [b"\x00\x01\x01"], r"^edge b'\\x00\\x01\\x01' is not an integer vector$"),
        ([{-2: 0}], [], r"^vertex \{-2: 0\} is not an integer vector$"),
        ("ab", [], r"^the vertices of a resolution graph must be a list, not 'ab'$"),
    ], ids=["bytes-edge", "dict-vertex", "text-vertices"])
    def test_text_bytes_and_mappings_are_not_collections(self, vertices, edges, message):
        with pytest.raises(InputError, match=message):
            ResolutionGraph(vertices, edges)

    @pytest.mark.parametrize("edge", [(0, 1), (0, 1, 1, 1), ()])
    def test_rejects_edge_that_is_not_a_triple(self, edge):
        with pytest.raises(InputError, match=r"must be an \(i, j, multiplicity\) triple"):
            ResolutionGraph([(-2, 0), (-2, 0)], [edge])

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ([(True, 0)], []),
            ([(-2, False)], []),
            ([(-2.5, 0)], []),
            ([("-2", 0)], []),
            ([(-2, 0), (-2, 0)], [(0, True, 1)]),
            ([(-2, 0), (-2, 0)], [(0, 1, 1.5)]),
        ],
    )
    def test_rejects_non_integer_data(self, vertices, edges):
        with pytest.raises(InputError, match="not an integer vector"):
            ResolutionGraph(vertices, edges)

    def test_edge_that_is_not_iterable(self):
        with pytest.raises(InputError, match=r"^edge 5 is not an integer vector$"):
            ResolutionGraph([(-2, 0)], [5])

    def test_vertices_that_are_not_a_list(self):
        with pytest.raises(InputError, match=r"^the vertices of a resolution graph must be a list, not 5$"):
            ResolutionGraph(5, [])

    def test_edges_that_are_not_a_list(self):
        with pytest.raises(InputError, match=r"^the edges of a resolution graph must be a list, not 5$"):
            ResolutionGraph([(-2, 0)], 5)

    def test_permuted_graph(self, two_vertex_graph):
        swapped = two_vertex_graph.permuted([1, 0])
        assert swapped.vertices[0].self_int == -2
        assert swapped.intersection_matrix == ((-2, 1), (1, -3))

    @pytest.mark.parametrize("order", [["a", 0, 1], [0.0, 1, 2], [True, 0, 2]])
    def test_permuted_order_must_be_integers(self, order):
        # [True, 0, 2] sorts like [0, 1, 2], but bools are not integers here.
        with pytest.raises(InputError) as error:
            du_val_graph("A3").permuted(order)
        assert str(error.value) == f"not an integer vector: {order}"

    def test_intersection_matrix_entries_are_ints(self):
        rng = random.Random(19)
        graphs = [cone_graph(2, 3), du_val_graph("E8"), cusp_cycle_graph([-3, -2]),
                  cusp_cycle_graph([-4, -2, -3, -2])]
        graphs += [random_graph(rng, max_vertices=8) for _ in range(20)]
        graphs += [g.permuted(list(reversed(range(len(g))))) for g in graphs]
        for graph in graphs:
            assert all(type(x) is int for row in graph.intersection_matrix for x in row)


class TestCoefficientInput:
    """Every reader of a divisor takes ints, Fractions and "p/q" text, and
    raises InputError on bools and floats."""

    BAD = [[True, False], [1.5, 0], [0, 2.0], [F(1), False]]

    @pytest.mark.parametrize("d", BAD)
    def test_numerical_pullback(self, two_vertex_graph, d):
        with pytest.raises(InputError, match="not a rational"):
            numerical_pullback(two_vertex_graph, d)

    @pytest.mark.parametrize("d", BAD)
    def test_intersect(self, two_vertex_graph, d):
        with pytest.raises(InputError, match="not a rational"):
            intersect(two_vertex_graph, d, (1, 0))
        with pytest.raises(InputError, match="not a rational"):
            intersect(two_vertex_graph, (1, 0), d)

    @pytest.mark.parametrize("d", BAD)
    def test_zariski_decompose(self, two_vertex_graph, d):
        with pytest.raises(InputError, match="not a rational"):
            zariski_decompose(two_vertex_graph, d)

    @pytest.mark.parametrize("d", BAD)
    def test_local_volume(self, two_vertex_graph, d):
        with pytest.raises(InputError, match="not a rational"):
            local_volume(two_vertex_graph, d)

    @pytest.mark.parametrize("d", ["10", b"\x01\x00", bytearray(b"\x01\x00"), {0: 1, 1: 0}],
                             ids=["text", "bytes", "bytearray", "dict"])
    @pytest.mark.parametrize("read", [numerical_pullback, zariski_decompose, local_volume])
    def test_coefficients_are_a_list(self, two_vertex_graph, read, d):
        # Iterated, d would give characters, byte values or keys.
        with pytest.raises(InputError) as error:
            read(two_vertex_graph, d)
        assert str(error.value) == f"the coefficients of a divisor must be a list, not {d!r}"

    def test_exact_forms_are_read(self, two_vertex_graph):
        assert numerical_pullback(two_vertex_graph, ("5", 0)) == (-2, -1)
        assert intersect(two_vertex_graph, (1, "0"), (F(1), 0)) == -3
        assert zariski_decompose(two_vertex_graph, ("-1", "0")).neg_part == (0, F(1, 2))
        assert local_volume(two_vertex_graph, (-1, "0/3")) == F(5, 2)


class TestCanonicalIntersections:
    def test_single_vertex_adjunction(self):
        assert canonical_intersections(ResolutionGraph([(-1, 2)], [])) == (3,)
        assert canonical_intersections(ResolutionGraph([(-3, 2)], [])) == (5,)

    def test_du_val_vertex(self):
        assert canonical_intersections(ResolutionGraph([(-2, 0)], [])) == (0,)

    def test_two_vertex(self, two_vertex_graph):
        assert canonical_intersections(two_vertex_graph) == (5, 0)


class TestNumericalPullback:
    def test_du_val_discrepancy_zero(self):
        graph = ResolutionGraph([(-2, 0)], [])
        assert numerical_pullback(graph, (0,)) == (0,)

    def test_two_vertex_system(self, two_vertex_graph):
        assert numerical_pullback(two_vertex_graph, (5, 0)) == (-2, -1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_elliptic_vertex(self, d):
        graph = ResolutionGraph([(-d, 1)], [])
        assert numerical_pullback(graph, (d,)) == (-1,)

    def test_orthogonality_property(self, two_vertex_graph):
        rng = random.Random(7)
        for _ in range(20):
            graph = random_graph(rng)
            a = discrepancies(graph)
            k = canonical_intersections(graph)
            products = [
                intersect(graph, a, [int(i == j) for i in range(len(graph))])
                for j in range(len(graph))
            ]
            assert tuple(products) == k


class TestLogDiscrepancy:
    def test_examples(self, two_vertex_graph):
        assert log_discrepancy_divisor(ResolutionGraph([(-2, 0)], [])) == (1,)
        assert log_discrepancy_divisor(ResolutionGraph([(-3, 1)], [])) == (0,)
        assert log_discrepancy_divisor(two_vertex_graph) == (-1, 0)


class TestZariski:
    def test_already_nef(self):
        graph = ResolutionGraph([(-2, 0)], [])
        decomposition = zariski_decompose(graph, (-1,))
        assert decomposition.nef_part == (-1,)
        assert decomposition.neg_part == (0,)

    def test_fully_negative(self):
        graph = ResolutionGraph([(-2, 0)], [])
        decomposition = zariski_decompose(graph, (1,))
        assert decomposition.nef_part == (0,)
        assert decomposition.neg_part == (1,)

    def test_two_vertex_log_discrepancy(self, two_vertex_graph):
        decomposition = zariski_decompose(two_vertex_graph, (-1, 0))
        assert decomposition.nef_part == (-1, F(-1, 2))
        assert decomposition.neg_part == (0, F(1, 2))

    def test_invariants_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(30):
            graph = random_graph(rng)
            d = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(len(graph))]
            decomposition = zariski_decompose(graph, d)
            nef, neg = decomposition.nef_part, decomposition.neg_part
            assert tuple(a + b for a, b in zip(nef, neg)) == tuple(F(x) for x in d)
            assert all(c >= 0 for c in neg)
            basis = [[int(i == j) for i in range(len(graph))] for j in range(len(graph))]
            for j in range(len(graph)):
                product = intersect(graph, nef, basis[j])
                assert product >= 0
                if neg[j] != 0:
                    assert product == 0

    def test_processing_order_independence(self):
        rng = random.Random(13)
        for _ in range(10):
            graph = random_graph(rng, max_vertices=4)
            d = [rng.randint(-3, 3) for _ in range(len(graph))]
            answer = zariski_decompose(graph, d)
            for order in itertools.permutations(range(len(graph))):
                assert fraction_zariski_decompose(graph, d, order) == answer

    def test_vertex_relabelling_invariance(self, two_vertex_graph):
        base = zariski_decompose(two_vertex_graph, (-1, 0))
        swapped = zariski_decompose(two_vertex_graph.permuted([1, 0]), (0, -1))
        assert swapped.nef_part == (base.nef_part[1], base.nef_part[0])
        assert swapped.neg_part == (base.neg_part[1], base.neg_part[0])


class TestVolume:
    def test_du_val_a1(self):
        assert volume(ResolutionGraph([(-2, 0)], [])) == 0

    def test_cone_over_genus_two(self):
        assert volume(ResolutionGraph([(-1, 2)], [])) == 4

    def test_two_vertex(self, two_vertex_graph):
        assert volume(two_vertex_graph) == F(5, 2)

    def test_closed_form_for_cones(self):
        for genus in (2, 3, 4):
            for degree in (1, 2, 3):
                assert volume(cone_graph(genus, degree)) == F(
                    (2 * genus - 2) ** 2, degree
                )

    def test_nonnegative_and_vanishing_matches_classification(self):
        rng = random.Random(17)
        for _ in range(30):
            graph = random_graph(rng)
            value = volume(graph)
            assert value >= 0
            kind = classify(graph).kind
            assert (value == 0) == (kind != SingularityKind.NOT_LC)


class TestLocalVolume:
    def test_examples(self, two_vertex_graph):
        graph = ResolutionGraph([(-2, 0)], [])
        assert local_volume(graph, (-1,)) == 2
        assert local_volume(graph, (1,)) == 0
        assert local_volume(two_vertex_graph, (-1, 0)) == F(5, 2)


class TestClassify:
    def test_examples(self):
        assert classify(du_val_graph("A1")).kind is SingularityKind.KLT
        assert classify(ResolutionGraph([(-3, 1)], [])).kind is SingularityKind.LC_NOT_KLT
        assert classify(ResolutionGraph([(-1, 2)], [])).kind is SingularityKind.NOT_LC

    def test_evidence_vector(self, two_vertex_graph):
        result = classify(two_vertex_graph)
        assert result.log_discrepancies == (-1, 0)
        assert result.kind is SingularityKind.NOT_LC


class TestStandardGraphs:
    def test_cone(self):
        graph = cone_graph(2, 1)
        assert graph.vertices[0].self_int == -1
        assert graph.vertices[0].genus == 2
        assert not graph.edges

    @pytest.mark.parametrize("genus, degree, shown", [("2", 1, "'2'"), (2, "1", "'1'"), (2, 1.0, "1.0")])
    def test_cone_arguments_are_read_as_integers(self, genus, degree, shown):
        with pytest.raises(InputError, match=rf"^not an integer: {shown}$"):
            cone_graph(genus, degree)

    def test_cone_reads_integer_valued_fractions(self):
        assert cone_graph(F(4, 2), F(3)).vertices == cone_graph(2, 3).vertices

    def test_du_val_a2(self):
        graph = du_val_graph("A2")
        assert len(graph) == 2 and graph.edges == ((0, 1, 1),)

    @pytest.mark.parametrize("name", ["A1", "A2", "A5", "D4", "D5", "E6", "E7", "E8"])
    def test_du_val_families_are_klt_with_zero_volume(self, name):
        graph = du_val_graph(name)
        assert xm.failing_principal_minor(graph.intersection_matrix) is None
        assert classify(graph).kind is SingularityKind.KLT
        assert volume(graph) == 0

    def test_equal_log_discrepancies_share_one_fraction(self):
        for graph, value in ((du_val_graph("A12"), 1), (cusp_cycle_graph([-3, -2, -2, -2]), 0)):
            coeffs = log_discrepancy_divisor(graph)
            assert coeffs == (value,) * len(graph)
            assert len({id(a) for a in coeffs}) == 1

    def test_du_val_bad_names(self):
        for name in ["B2", "E9", "D3", "A0", "X1"]:
            with pytest.raises(InputError):
                du_val_graph(name)

    @pytest.mark.parametrize("letter", "ADE")
    def test_du_val_rank_of_too_many_digits(self, long_digits, letter):
        with pytest.raises(InputError, match="^a rational of 5000 characters has too many digits$"):
            du_val_graph(letter + long_digits)

    def test_du_val_rank_cap(self, long_digits):
        """A_n and D_n are built up to n = 1000 and refused above, also at a
        rank of 4,000 digits, which the interpreter still converts."""
        assert surface.DU_VAL_MAX_RANK == 1000
        assert len(du_val_graph("A1000")) == 1000
        assert len(du_val_graph("D1000")) == 1000
        for name in ("A1001", "D1001", "d_1001", "A" + long_digits[:4000]):
            with pytest.raises(InputError, match=f"^{name.upper()[0]}_n needs n <= 1000, the cap on Du Val ranks$"):
                du_val_graph(name)

    @pytest.mark.parametrize("name", [5, None, b"A2", ["A2"]])
    def test_du_val_name_that_is_not_a_string(self, name):
        with pytest.raises(InputError, match="Du Val name is a string"):
            du_val_graph(name)

    def test_cusp_cycle(self):
        graph = cusp_cycle_graph([-3, -2, -2])
        assert len(graph.edges) == 3
        assert classify(graph).kind is SingularityKind.LC_NOT_KLT
        assert volume(graph) == 0

    def test_cusp_cycle_of_length_two_uses_double_edge(self):
        graph = cusp_cycle_graph([-3, -2])
        assert graph.edges == ((0, 1, 2),)
        assert classify(graph).kind is SingularityKind.LC_NOT_KLT
        assert volume(graph) == 0

    def test_cusp_cycle_of_a_non_iterable(self):
        with pytest.raises(InputError, match=r"^not an integer vector: 5$"):
            cusp_cycle_graph(5)

    def test_cusp_cycle_rejects_degenerate_data(self):
        with pytest.raises(DomainError):
            cusp_cycle_graph([-2, -2, -2])
        with pytest.raises(DomainError):
            cusp_cycle_graph([-3, -2, -1])
        with pytest.raises(InputError):
            cusp_cycle_graph([-3])

    def test_constructed_matrices_pass_hodge_check(self):
        graphs = [
            cone_graph(3, 2),
            du_val_graph("E8"),
            cusp_cycle_graph([-4, -2, -3, -2]),
        ]
        for graph in graphs:
            assert xm.failing_principal_minor(graph.intersection_matrix) is None


class TestSelfChecks:
    """The Zariski and volume checks raise InternalError, never a bare assert."""

    @pytest.fixture
    def scaled_solutions(self, monkeypatch):
        real = xm.solve_linear

        def scale(t):
            monkeypatch.setattr(xm, "solve_linear", lambda m, b: tuple(t * x for x in real(m, b)))

        return scale

    def test_negative_part_not_effective(self, scaled_solutions, two_vertex_graph):
        scaled_solutions(-1)
        with pytest.raises(InternalError, match="not effective"):
            zariski_decompose(two_vertex_graph, (-1, 0))

    def test_nef_part_not_orthogonal(self, scaled_solutions, two_vertex_graph):
        scaled_solutions(2)
        with pytest.raises(InternalError, match="not orthogonal"):
            zariski_decompose(two_vertex_graph, (-1, 0))

    def test_support_loop_cut_short(self, monkeypatch, two_vertex_graph):
        # The support gains a vertex on every pass, so the loop always ends
        # within its k + 1 passes; only a loop cut short reaches the check.
        monkeypatch.setattr(surface, "range", lambda *args: (), raising=False)
        with pytest.raises(InternalError, match="failed to stabilize"):
            zariski_decompose(two_vertex_graph, (-1, 0))

    def test_negative_local_volume(self, monkeypatch, two_vertex_graph):
        # With x . E_j read as x_j, the effective (1, 0) is nef and P.P = 1.
        monkeypatch.setattr(surface, "_products", lambda graph, x: list(x))
        with pytest.raises(InternalError, match="local volume is negative"):
            local_volume(two_vertex_graph, (1, 0))


class TestSingleReads:
    """Each input is read once: a graph's int tuples by integer_vector alone,
    and the divisors of a volume once each, d by the Zariski loop and P by
    nef_volume."""

    @pytest.fixture
    def counted(self, monkeypatch):
        def count(name):
            calls = []
            real = getattr(xm, name)
            monkeypatch.setattr(xm, name, lambda *args: calls.append(args) or real(*args))
            return calls

        return count

    def test_graph_reads_int_tuples_without_as_int(self, counted):
        calls = counted("_as_int")
        graph = ResolutionGraph([(-3, 2), (-2, 0), (-2, 0)], [(0, 1, 1), (1, 2, 1)])
        assert calls == []
        assert graph.vertices == ((-3, 2), (-2, 0), (-2, 0))

    def test_volume_reads_two_divisors(self, counted, two_vertex_graph):
        calls = counted("rational_vector")
        assert volume(two_vertex_graph) == F(5, 2)
        assert len(calls) == 2


@st.composite
def stars(draw):
    """(genus, degree, branches) of a negative-definite star: the degree
    exceeds the sum of the q/n of the branches."""
    genus = draw(st.integers(0, 3))
    branches = draw(st.lists(st.lists(st.integers(2, 6), min_size=1, max_size=4), max_size=5))
    pull = sum([1 / branch_ratio(branch) for branch in branches])
    return genus, math.floor(pull) + draw(st.integers(1, 3)), branches


def relabelled(graph, rng):
    order = list(range(len(graph)))
    rng.shuffle(order)
    return graph.permuted(order)


class TestClosedForms:
    """Answers known in closed form at any size: Wahl's chi^2 / e on stars,
    and volumes and log discrepancies under blow-ups."""

    @settings(max_examples=80, deadline=None)
    @given(stars(), st.randoms(use_true_random=False))
    def test_star_volume_is_wahls(self, star, rng):
        expected = wahl_volume(*star)
        for graph in (star_graph(*star), relabelled(star_graph(*star), rng)):
            assert volume(graph) == expected
            assert (expected == 0) == (classify(graph).kind is not SingularityKind.NOT_LC)

    def test_star_of_61_vertices(self):
        branches = [[2] * 20, [3] * 20, [2, 3] * 10]
        graph = star_graph(2, 3, branches)
        assert len(graph) == 61
        assert volume(graph) == wahl_volume(2, 3, branches) == F(
            398039995078408990269803389071121, 16743383454105936846268475781720
        )
        assert classify(graph).kind is SingularityKind.NOT_LC

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(stars().map(lambda star: star_graph(*star)),
                  st.randoms(use_true_random=False).map(random_graph)),
        st.randoms(use_true_random=False),
    )
    def test_blow_ups_keep_volume_class_and_discrepancies(self, graph, rng):
        graph = relabelled(graph, rng)
        value, kind = volume(graph), classify(graph).kind
        for _ in range(2):
            a = log_discrepancy_divisor(graph)
            if graph.edges and rng.random() < 0.5:
                index = rng.randrange(len(graph.edges))
                i, j, _ = graph.edges[index]
                graph, new = blow_up_node(graph, index), a[i] + a[j]
            else:
                j = rng.randrange(len(graph))
                graph, new = blow_up_point(graph, j), a[j] + 1
            assert log_discrepancy_divisor(graph) == (*a, new)
            assert volume(graph) == value
            assert classify(graph).kind is kind
