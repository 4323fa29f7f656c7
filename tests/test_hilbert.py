"""Hilbert bases from the fundamental parallelepipeds of a triangulation of
the dual cone, against the lattice-box search they replaced.

The reference is the set of minimal nonzero lattice points of the section
slab at c = 0 (``reference.slab_minima``): the half-open zonotope of the
dual rays, found by enumerating the LP-bounded box around it.
"""

import random
from math import gcd

import pytest

from singvol import ToricCone
from singvol import toric
from singvol.errors import InternalError
from singvol.toric import hilbert_basis

from conftest import CONES_3D, OCTAHEDRON, apply, polygon_cone, random_unimodular
from reference import slab_minima

CONES = {
    **{f"cyclic-{p}-{q}": [(0, 1), (p, -q)]
       for p in range(2, 10) for q in range(1, p) if gcd(p, q) == 1},
    **CONES_3D,
    **{f"P{r}": polygon_cone(r) for r in (4, 6, 8)},
    "octahedron-4d": OCTAHEDRON,
    "orthant-4d": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
}


def images(name, count=2):
    """The cone, then seeded GL_n(Z) images of it with shuffled rays."""
    rays = CONES[name]
    yield rays
    rng = random.Random(name)
    for _ in range(count):
        a, _ = random_unimodular(rng, len(rays[0]))
        moved = [apply(a, ray) for ray in rays]
        rng.shuffle(moved)
        yield moved


class TestAgainstSlab:
    @pytest.mark.parametrize("name", sorted(CONES))
    def test_identical_tuples(self, name):
        for rays in images(name):
            cone = ToricCone(rays)
            assert hilbert_basis(cone) == slab_minima(cone, [0] * len(rays), nonzero=True), rays

    @pytest.mark.parametrize("r, size", [(8, 11), (16, 17), (32, 33)])
    def test_polygon_cones(self, r, size):
        assert len(hilbert_basis(ToricCone(polygon_cone(r)))) == size


class TestTriangulation:
    @pytest.mark.parametrize("r", [4, 6, 8, 16])
    def test_fan_from_one_dual_ray_in_3d(self, r):
        cone = ToricCone(polygon_cone(r))
        pieces = toric._dual_triangulation(cone)
        assert len(pieces) == len(cone.facet_normals) - 2
        assert all(piece[0] == 0 for piece in pieces)

    @pytest.mark.parametrize("name, grading, volume", [
        ("quadric", (1, 1, 0), 2),
        ("hexagon", (0, 0, 1), 6),
        ("c3z3", (0, 0, 1), 9),
        ("octahedron-4d", (0, 0, 0, 1), 48),
        ("orthant-4d", (1, 1, 1, 1), 1),
    ])
    def test_pieces_tile_the_dual_cone(self, name, grading, volume):
        # With every dual ray at height 1, a piece's det is the normalised
        # volume of its simplex, and the pieces of a triangulation add up to
        # the volume of the dual cone's section; overlapping pieces would
        # exceed it.
        cone = ToricCone(CONES[name])
        assert {toric._idot(w, grading) for w in cone.facet_normals} == {1}
        dets = []
        for piece in toric._dual_triangulation(cone):
            (cell,) = toric._simplicial_cells([cone.facet_normals[i] for i in piece], cone.dim)
            dets.append(cell.det)
        assert sum(dets) == volume

    def test_parallelepiped_holds_det_points(self):
        cone = ToricCone(CONES["c3z3"])
        (piece,) = toric._dual_triangulation(cone)
        rays = [cone.facet_normals[i] for i in piece]
        (cell,) = toric._simplicial_cells(rays, 3)
        points = toric._parallelepiped_points(cell, rays)
        assert cell.det == 9 and len(points) == 9
        # The dual rays and the 8 nonzero points generate; 10 are irreducible.
        basis = hilbert_basis(cone)
        assert len(basis) == 10 and set(basis) <= (points - {(0, 0, 0)}) | set(rays)


class TestCorruptedPieces:
    """The count and bound checks on each parallelepiped raise InternalError,
    also under python -O."""

    @staticmethod
    def piece(name="c3z3"):
        cone = ToricCone(CONES[name])
        piece = toric._dual_triangulation(cone)[0]
        rays = [cone.facet_normals[i] for i in piece]
        (cell,) = toric._simplicial_cells(rays, cone.dim)
        return cone, cell, rays

    @pytest.mark.parametrize("shift", [-1, 1, 5])
    def test_wrong_det(self, shift):
        _, cell, rays = self.piece()
        with pytest.raises(InternalError):
            toric._parallelepiped_points(cell._replace(det=cell.det + shift), rays)

    def test_scaled_cell_claims_too_many_cosets(self, monkeypatch):
        # Twice the det with twice the adjugate reduces every point to the
        # right one, so only the count shows the claimed det is wrong.
        cells = toric._simplicial_cells

        def doubled(rays, n):
            return tuple([
                cell._replace(det=2 * cell.det,
                              cols=tuple([tuple([2 * x for x in col]) for col in cell.cols]))
                for cell in cells(rays, n)
            ])

        cone = ToricCone(CONES["c3z3"])
        monkeypatch.setattr(toric, "_simplicial_cells", doubled)
        with pytest.raises(InternalError, match="holds 9 lattice points"):
            hilbert_basis(cone)

    @pytest.mark.parametrize("name", ["c3z3", "hexagon", "P8", "octahedron-4d"])
    def test_dropped_coset(self, monkeypatch, name):
        cone = ToricCone(CONES[name])
        reduce = toric._reduce_to_parallelepiped
        lost = []

        def dropping(cell, rays, u):
            v = reduce(cell, rays, u)
            if any(v) and not lost:
                lost.append(v)
            return tuple([0] * len(v)) if lost and v == lost[0] else v

        monkeypatch.setattr(toric, "_reduce_to_parallelepiped", dropping)
        with pytest.raises(InternalError, match="lattice points"):
            hilbert_basis(cone)

    def test_point_outside_its_parallelepiped(self, monkeypatch):
        # The same coset, one ray further out: the count holds, the bounds
        # do not.
        reduce = toric._reduce_to_parallelepiped

        def shifted(cell, rays, u):
            v = reduce(cell, rays, u)
            if any(v):
                return tuple([x + w for x, w in zip(v, rays[0])])
            return v

        monkeypatch.setattr(toric, "_reduce_to_parallelepiped", shifted)
        with pytest.raises(InternalError, match="outside its parallelepiped"):
            hilbert_basis(ToricCone(CONES["c3z3"]))

    def test_piece_that_is_not_simplicial(self, monkeypatch):
        cone = ToricCone(CONES["hexagon"])
        monkeypatch.setattr(toric, "_dual_triangulation", lambda cone: [(0, 0, 1)])
        with pytest.raises(InternalError, match="not simplicial"):
            hilbert_basis(cone)


class TestMaximalIdeal:
    @pytest.mark.parametrize("name", sorted(CONES))
    def test_one_minimalisation_each(self, monkeypatch, name):
        # maximal_ideal and hilbert_basis minimalise the same semigroup
        # generators once each, and give the same tuple.
        cone = ToricCone(CONES[name])
        minimal = toric.minimal_elements
        sizes = []

        def counting(cone, points):
            points = list(points)
            kept = minimal(cone, points)
            sizes.append((len(points), len(kept)))
            return kept

        monkeypatch.setattr(toric, "minimal_elements", counting)
        assert toric.maximal_ideal(cone).gens == hilbert_basis(cone)
        assert len(sizes) == 2 and sizes[0] == sizes[1]
        if name == "c3z3":
            assert sizes == [(11, 10), (11, 10)]
