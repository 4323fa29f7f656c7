"""The toric and surface engines check each other on cyclic quotients.

The 2-D cone spanned by (0, 1) and (n, -q), gcd(n, q) = 1, is the cyclic
quotient singularity 1/n(1, q).  Its minimal resolution is the chain of
rational curves with self-intersections -b_1, ..., -b_r, where
n/q = [b_1, ..., b_r] is the Hirzebruch-Jung continued fraction (Fulton,
Introduction to Toric Varieties, 2.6).  The curve E_j is the valuation v_j,
with v_0 = (0, 1), v_1 = (1, 0) and v_{j+1} = b_j v_j - v_{j-1}.

So the toric log discrepancy at v_j is the surface log discrepancy of E_j,
the multiplicity of the maximal ideal is -Z^2 = 2 + sum(b_i - 2) for the
fundamental cycle Z (Artin 1966), the Hilbert basis has e + 1 elements (the
embedding dimension of a rational singularity), and the volume is zero.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from singvol import surface
from singvol.toric import (
    ToricCone,
    ToricDivisor,
    envelope_value,
    hilbert_basis,
    log_discrepancy_value,
    maximal_ideal,
    samuel_multiplicity,
)

from conftest import apply, random_unimodular

CYCLIC = [(n, q) for n in range(2, 30) for q in range(1, n) if gcd(n, q) == 1]


def hirzebruch_jung(n, q):
    """The b_i of n/q = b_1 - 1/(b_2 - 1/(... - 1/b_r)), each at least 2."""
    bs = []
    while q:
        b = -(-n // q)
        bs.append(b)
        n, q = q, b * q - n
    return bs


def valuations(bs):
    """v_1, ..., v_r from v_0 = (0, 1), v_1 = (1, 0), v_{j+1} = b_j v_j - v_{j-1}."""
    prev, cur = (0, 1), (1, 0)
    out = []
    for b in bs:
        out.append(cur)
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
    return out, cur


def chain(bs):
    return surface.ResolutionGraph([(-b, 0) for b in bs], [(i, i + 1, 1) for i in range(len(bs) - 1)])


def test_continued_fraction_closes_the_cone():
    for n, q in CYCLIC:
        bs = hirzebruch_jung(n, q)
        assert all(b >= 2 for b in bs)
        assert valuations(bs)[1] == (n, -q), (n, q)


@pytest.mark.parametrize("n, q", CYCLIC)
def test_engines_agree(n, q):
    bs = hirzebruch_jung(n, q)
    vs, _ = valuations(bs)
    cone = ToricCone([(0, 1), (n, -q)])
    graph = chain(bs)
    assert [log_discrepancy_value(cone, v) for v in vs] == list(surface.log_discrepancy_divisor(graph))
    e = 2 + sum(b - 2 for b in bs)
    assert samuel_multiplicity(cone, maximal_ideal(cone)) == e
    assert len(hilbert_basis(cone)) == e + 1
    assert surface.volume(graph) == 0
    assert surface.classify(graph).kind is surface.SingularityKind.KLT


@pytest.mark.parametrize("n, q", CYCLIC[::5])
def test_gl2z_images(n, q):
    rng = random.Random(n * 31 + q)
    bs = hirzebruch_jung(n, q)
    vs, _ = valuations(bs)
    expected = list(surface.log_discrepancy_divisor(chain(bs)))
    e = 2 + sum(b - 2 for b in bs)
    for _ in range(2):
        a, _ = random_unimodular(rng, 2)
        cone = ToricCone([apply(a, (0, 1)), apply(a, (n, -q))])
        assert [log_discrepancy_value(cone, apply(a, v)) for v in vs] == expected
        assert samuel_multiplicity(cone, maximal_ideal(cone)) == e
        assert len(hilbert_basis(cone)) == e + 1


@pytest.mark.parametrize("n, q", CYCLIC)
def test_reversed_chain_of_the_inverse(n, q):
    """q q' = 1 mod n gives the same singularity with the chain reversed."""
    q_inv = pow(q, -1, n)
    bs = hirzebruch_jung(n, q)
    assert hirzebruch_jung(n, q_inv) == bs[::-1]
    graph = chain(bs)
    reversed_graph = chain(bs[::-1])
    assert reversed_graph == graph.permuted(range(len(bs) - 1, -1, -1))
    vs, _ = valuations(bs[::-1])
    cone = ToricCone([(0, 1), (n, -q_inv)])
    expected = surface.log_discrepancy_divisor(graph)[::-1]
    assert surface.log_discrepancy_divisor(reversed_graph) == expected
    assert tuple(log_discrepancy_value(cone, v) for v in vs) == expected


@pytest.mark.parametrize("n, q", CYCLIC[::3])
def test_relabelled_chains(n, q):
    rng = random.Random(n * 37 + q)
    bs = hirzebruch_jung(n, q)
    graph = chain(bs)
    order = list(range(len(bs)))
    rng.shuffle(order)
    relabelled = graph.permuted(order)
    before = surface.log_discrepancy_divisor(graph)
    assert list(surface.log_discrepancy_divisor(relabelled)) == [before[old] for old in order]
    canonical = surface.canonical_intersections(relabelled)
    assert surface.discrepancies(relabelled) == surface.numerical_pullback(relabelled, canonical)
    assert surface.volume(relabelled) == 0


@pytest.mark.parametrize("n, q", CYCLIC[::2])
def test_envelope_is_the_numerical_pullback(n, q):
    """The envelope of d_0 D_0 + d_1 D_1 is the linear form taking d_i on
    ray i, so along the chain it pulls back the numbers -d_0 at E_1 and
    -d_1 at E_r."""
    rng = random.Random(n * 41 + q)
    bs = hirzebruch_jung(n, q)
    vs, _ = valuations(bs)
    cone = ToricCone([(0, 1), (n, -q)])
    graph = chain(bs)
    for _ in range(3):
        d0, d1 = (F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        rhs = [F(0)] * len(bs)
        rhs[0] -= d0
        rhs[-1] -= d1
        divisor = ToricDivisor(cone, (d0, d1))
        assert [envelope_value(cone, divisor, v) for v in vs] == list(surface.numerical_pullback(graph, rhs))
