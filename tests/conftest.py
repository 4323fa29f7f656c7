import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import atan2
from pathlib import Path

import pytest

from singvol import MonomialIdeal, ResolutionGraph, ToricCone

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Three isolated 3-D cones: the quadric, the cone over a hexagon and C^3/Z_3.
CONES_3D = {
    "quadric": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
    "hexagon": [(1, 0, 1), (-1, 0, 1), (1, 1, 1), (-1, -1, 1), (0, 1, 1), (0, -1, 1)],
    "c3z3": [(1, 0, 0), (0, 1, 0), (-1, -1, 3)],
}

# The envelope LP of D = (2, 1, 2, 1) on the quadric: <m, ray_i> <= d_i.
QUADRIC_CONSTRAINTS = (
    ((F(1), F(0), F(0)), F(2)),
    ((F(0), F(1), F(0)), F(1)),
    ((F(0), F(0), F(1)), F(2)),
    ((F(1), F(1), F(-1)), F(1)),
)

# The cone over an octahedron: every facet is a smooth cone over a triangle.
OCTAHEDRON = [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]

# The edge directions of P_r: the first r/2 of these and their negatives.
P_EDGES = [
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
    (3, 1), (3, 2), (2, 3), (1, 3), (-1, 3), (-2, 3), (-3, 2), (-3, 1),
]


def polygon_cone(r):
    """P_r: the cone over the centrally symmetric lattice r-gon at height 1
    whose edges are the first r/2 directions above and their negatives,
    sorted by angle."""
    edges = P_EDGES[: r // 2]
    edges = sorted(edges + [(-a, -b) for a, b in edges], key=lambda e: atan2(e[1], e[0]))
    x = y = 0
    rays = []
    for a, b in edges:
        rays.append((x, y, 1))
        x, y = x + a, y + b
    return rays


@pytest.fixture
def plane():
    """The smooth plane: sigma spanned by the standard basis of Z^2."""
    return ToricCone([(1, 0), (0, 1)])


@pytest.fixture
def quadric():
    """The three-dimensional quadric cone singularity."""
    return ToricCone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])


@pytest.fixture
def long_digits():
    """5,000 digits: more than the interpreter converts to an int at its
    default limit of 4,300, which holds during the test whatever
    PYTHONINTMAXSTRDIGITS says."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integer text of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield "7" * 5000
    sys.set_int_max_str_digits(limit)


@pytest.fixture
def two_vertex_graph():
    """A genus-2 curve of self-intersection -3 meeting a rational -2 curve."""
    return ResolutionGraph([(-3, 2), (-2, 0)], [(0, 1, 1)])


def random_m_primary_ideal(rng: random.Random, cone: ToricCone, max_degree: int = 8):
    """A random m-primary monomial ideal on the plane with bounded degrees."""
    a = rng.randint(1, max_degree)
    b = rng.randint(1, max_degree)
    gens = [(a, 0), (0, b)]
    for _ in range(rng.randint(0, 3)):
        gens.append((rng.randint(1, max_degree - 1), rng.randint(1, max_degree - 1)))
    return MonomialIdeal(cone, gens)


def random_graph(rng: random.Random, max_vertices: int = 5, max_extra_edges: int = 2) -> ResolutionGraph:
    """A random connected negative-definite dual graph via diagonal dominance:
    a random tree plus up to max_extra_edges more edges (a tree if 0)."""
    k = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, k):
        edges.append((rng.randint(0, v - 1), v, rng.randint(1, 2)))
    for _ in range(rng.randint(0, max_extra_edges)):
        i, j = rng.randint(0, k - 1), rng.randint(0, k - 1)
        if i != j:
            edges.append((min(i, j), max(i, j), rng.randint(1, 2)))
    degree = [0] * k
    for i, j, mult in edges:
        degree[i] += mult
        degree[j] += mult
    vertices = [
        (-(degree[v] + rng.randint(1, 3)), rng.randint(0, 2)) for v in range(k)
    ]
    return ResolutionGraph(vertices, edges)


def star_graph(genus, degree, branches):
    """A centre of the given genus and self-intersection -degree, vertex 0,
    with a chain of rational curves of self-intersections -b_1, ..., -b_s
    for each branch (b_1, ..., b_s), b_1 next to the centre."""
    vertices, edges = [(-degree, genus)], []
    for branch in branches:
        prev = 0
        for b in branch:
            edges.append((prev, len(vertices), 1))
            prev = len(vertices)
            vertices.append((-b, 0))
    return ResolutionGraph(vertices, edges)


def _blown_up(graph, lowered, edges):
    """The graph with the self-intersections of the vertices in lowered one
    less and a last vertex, a rational (-1)-curve, on the given edges."""
    vertices = [(v.self_int - (idx in lowered), v.genus) for idx, v in enumerate(graph.vertices)]
    return ResolutionGraph(vertices + [(-1, 0)], edges)


def blow_up_point(graph, j):
    """The graph after blowing up a point of E_j on no other curve."""
    return _blown_up(graph, {j}, [*graph.edges, (j, len(graph), 1)])


def blow_up_node(graph, index):
    """The graph after blowing up one of the points where the curves of
    graph.edges[index] meet: that edge loses one of its multiplicity."""
    i, j, mult = graph.edges[index]
    edges = list(graph.edges)
    del edges[index]
    if mult > 1:
        edges.append((i, j, mult - 1))
    return _blown_up(graph, {i, j}, edges + [(i, len(graph), 1), (j, len(graph), 1)])


def random_unimodular(rng, n):
    """A random matrix in GL_n(Z) with its inverse, from elementary moves."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        # a <- E a with E = 1 + c e_ij, inv <- inv E^{-1}
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
        if rng.random() < 0.3:
            a[i] = [-x for x in a[i]]
            for row in inv:
                row[i] = -row[i]
    return a, inv


def apply(m, v):
    return tuple(sum(r * x for r, x in zip(row, v)) for row in m)


def transpose(m):
    return [list(col) for col in zip(*m)]


def box_points(cone, r=3):
    """Every lattice point of the cone with coordinates in [-r, r]."""
    return [v for v in itertools.product(range(-r, r + 1), repeat=cone.dim) if cone.contains(v)]


def run_python(script, *flags):
    """A fresh interpreter with the given flags (-O strips assert
    statements) running script, with singvol imported from src."""
    return subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
