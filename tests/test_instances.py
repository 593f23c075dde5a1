"""Random instance generators: every promised property is re-checked.

Generators drive the verification families, so their guarantees (chains
really are chains, cones really are pointed, constructed pairs really
are disjoint) get their own direct tests here.
"""

import random
from fractions import Fraction as F

from conedom.cones import Comparability, Cone, cone_contains, is_pointed, k_closure, relate
from conedom.instances import (
    DENOMINATORS,
    NUMERATORS,
    ConeDraw,
    rand_bounded_disjoint_pair,
    rand_chain,
    rand_cone_member,
    rand_convex_coefficients,
    rand_decomposable,
    rand_disjoint_pair,
    rand_frac,
    rand_hull_point,
    rand_point,
    rand_pointed_cone,
    rand_relative_interior_point,
    rand_upward_polyhedron,
)
from conedom.linalg import hull_membership, vdot
from conedom.separation import hulls_disjoint
from conedom.sets import ChainSet, FinitePointSet, in_relative_interior, is_chain, materialize


def test_rand_frac_respects_the_pinned_distribution():
    rng = random.Random(1)
    for _ in range(200):
        value = rand_frac(rng)
        assert value.numerator in range(min(NUMERATORS), max(NUMERATORS) + 1)
        assert any(
            value == F(n, d)
            for n in NUMERATORS
            for d in DENOMINATORS
        )


def test_rand_convex_coefficients():
    rng = random.Random(2)
    for _ in range(50):
        k = rng.randint(1, 5)
        coeffs = rand_convex_coefficients(rng, k, strict=rng.random() < 0.5)
        assert len(coeffs) == k
        assert sum(coeffs) == 1
        assert all(c >= 0 for c in coeffs)


def test_rand_pointed_cone_is_pointed_with_independent_generators():
    rng = random.Random(3)
    for _ in range(30):
        dim = rng.choice((2, 3, 4))
        draw = rand_pointed_cone(rng, dim, contains_zero=rng.random() < 0.5)
        assert len(draw.cone.generators) == dim
        assert is_pointed(draw.cone)
        # Every generator sits strictly inside the guard half-space.
        assert all(vdot(draw.guard, g) > 0 for g in draw.cone.generators)


def test_rand_chain_is_a_chain():
    rng = random.Random(4)
    for _ in range(30):
        draw = rand_pointed_cone(rng, rng.choice((2, 3)), True)
        chain = rand_chain(rng, draw, rng.randint(1, 6))
        assert is_chain(chain.base, chain.cone)
        assert 1 <= len(chain.base) <= 6


def reference_rand_chain(rng, draw, size, pool_factor=8):
    """`rand_chain` as it was before order coordinates: one `relate` per pair."""
    pool = [rand_point(rng, draw.cone.dimension) for _ in range(pool_factor * size)]
    pool.sort(key=lambda p: vdot(draw.guard, p))
    kept = []
    for p in pool:
        if len(kept) == size:
            break
        if p in kept:
            continue
        if all(relate(draw.cone, q, p) is not Comparability.INCOMPARABLE for q in kept):
            kept.append(p)
    return ChainSet(FinitePointSet(tuple(kept)), draw.cone)


def test_rand_chain_matches_the_pairwise_reference_and_its_random_stream():
    # Simplicial draws read the elimination's rows; cones with an extra
    # generator read `cone_facets`. Both must keep the same points as
    # `relate` and leave the generator in the same state.
    rng = random.Random(5)
    for _ in range(60):
        draw = rand_pointed_cone(rng, rng.choice((2, 3)), rng.random() < 0.5)
        if rng.random() < 0.3:
            extra = tuple(sum(g[i] for g in draw.cone.generators) for i in range(draw.cone.dimension))
            draw = ConeDraw(Cone(draw.cone.dimension, draw.cone.generators + (extra,), True), draw.guard)
        size, seed = rng.randint(1, 6), rng.random()
        ours, theirs = random.Random(seed), random.Random(seed)
        assert rand_chain(ours, draw, size) == reference_rand_chain(theirs, draw, size)
        assert ours.getstate() == theirs.getstate()


def test_rand_decomposable_shares_one_cone():
    rng = random.Random(5)
    for _ in range(20):
        draw = rand_pointed_cone(rng, 2, True)
        d = rand_decomposable(rng, draw, 3, 4)
        assert 1 <= len(d.summands) <= 3
        assert all(s.cone == d.cone for s in d.summands)
        assert len(materialize(d)) >= 1


def test_rand_hull_point_lies_in_the_hull():
    rng = random.Random(6)
    for _ in range(25):
        draw = rand_pointed_cone(rng, rng.choice((2, 3)), True)
        d = rand_decomposable(rng, draw, 2, 4)
        y = rand_hull_point(rng, d)
        assert hull_membership(y, materialize(d).points).member


def test_rand_cone_member_is_certificate_backed():
    rng = random.Random(7)
    for _ in range(25):
        draw = rand_pointed_cone(rng, 2, True)
        closed = k_closure(draw.cone)
        v = rand_cone_member(rng, closed, strict=False)
        assert cone_contains(closed, v)
        w = rand_cone_member(rng, closed, strict=True)
        assert w != (F(0), F(0))
        assert cone_contains(closed, w)


def test_rand_upward_polyhedron_and_interior_points():
    rng = random.Random(8)
    for _ in range(15):
        draw = rand_pointed_cone(rng, 2, True)
        poly = rand_upward_polyhedron(rng, draw, 3)
        assert set(poly.rays) == set(k_closure(draw.cone).generators)
        z = rand_relative_interior_point(rng, poly)
        assert in_relative_interior(poly, z)


def test_rand_disjoint_pair_is_disjoint():
    rng = random.Random(9)
    for _ in range(15):
        x, y, _ = rand_disjoint_pair(rng, 2, 3, 2, 4)
        assert hulls_disjoint(x, y).disjoint


def test_rand_bounded_disjoint_pair_is_disjoint_and_bounded():
    rng = random.Random(10)
    for _ in range(15):
        x, y, _ = rand_bounded_disjoint_pair(rng, 2, 3, 4)
        assert y.rays == ()
        assert hulls_disjoint(x, y.vertices).disjoint
