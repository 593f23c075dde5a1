"""Random instance generators: every promised property is re-checked.

Generators drive the verification families, so their guarantees (chains
really are chains, cones really are pointed, constructed pairs really
are disjoint) get their own direct tests here.
"""

import importlib
import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedom.cones import Comparability, Cone, ConeOrder, cone_contains, is_pointed, k_closure, relate, with_origin
from conedom.instances import (
    DENOMINATORS,
    NUMERATORS,
    ConeDraw,
    lowered_below,
    rand_bounded_disjoint_pair,
    rand_chain,
    rand_cone_member,
    rand_decomposable,
    rand_direction,
    rand_disjoint_pair,
    rand_frac,
    rand_ground_set,
    rand_hull_point,
    rand_point,
    rand_pointed_cone,
    rand_positive_frac,
    rand_relative_interior_point,
    rand_upward_polyhedron,
    rand_utility_table,
)
from conedom.linalg import ONE, ZERO, hull_membership, integer_multiple, vadd, vdot, vscale
from conedom.separation import hulls_disjoint
from conedom.sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    Polyhedron,
    convex_hull,
    in_relative_interior,
    is_chain,
    materialize,
    upward_hull,
)

instances_module = importlib.import_module("conedom.instances")


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


def test_a_strict_cone_member_of_a_cone_without_generators_is_refused_before_any_draw():
    for dim, contains_zero in ((1, False), (3, True)):
        rng = random.Random(8)
        state = rng.getstate()
        with pytest.raises(ValueError, match="strict cone member needs a cone with at least one generator"):
            rand_cone_member(rng, Cone(dim, (), contains_zero), strict=True)
        assert rng.getstate() == state
        assert rand_cone_member(rng, Cone(dim, (), contains_zero), strict=False) == (F(0),) * dim
        assert rng.getstate() == state


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


# --- the draws against their former Fraction code -------------------------------


def reference_rand_frac(rng):
    return F(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def reference_rand_positive_frac(rng):
    return F(rng.randint(1, 9), rng.choice(DENOMINATORS))


def reference_rand_point(rng, dimension):
    return tuple(reference_rand_frac(rng) for _ in range(dimension))


def reference_rand_direction(rng, dimension):
    return tuple(reference_rand_positive_frac(rng) for _ in range(dimension))


def reference_rand_pointed_cone(rng, dimension, contains_zero):
    """The former `rand_pointed_cone`, with its guard test in `Fraction`s."""
    guard = reference_rand_direction(rng, dimension)
    while True:
        gens = []
        for _ in range(dimension):
            g = reference_rand_point(rng, dimension)
            s = vdot(guard, g)
            if s == 0:
                g = tuple(c + ONE for c in g)
                s = vdot(guard, g)
            if s < 0:
                g = tuple(-c for c in g)
            gens.append(g)
        cone = Cone(dimension, tuple(gens), contains_zero)
        if cone.span_solver.unique:
            return ConeDraw(cone, guard)


def reference_rand_convex_coefficients(rng, k, strict=False):
    lo = 1 if strict else 0
    weights = [rng.randint(lo, 9) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def reference_rand_hull_point(rng, d, strict=False):
    total = None
    for s in d.summands:
        pts = s.base.points
        lam = reference_rand_convex_coefficients(rng, len(pts), strict=strict)
        part = tuple(sum(c * p[i] for c, p in zip(lam, pts)) for i in range(d.dimension))
        total = part if total is None else vadd(total, part)
    return total


def reference_rand_relative_interior_point(rng, poly):
    lam = reference_rand_convex_coefficients(rng, len(poly.vertices), strict=True)
    point = tuple(
        sum(c * v[i] for c, v in zip(lam, poly.vertices.points)) for i in range(poly.vertices.dimension)
    )
    for r in poly.rays:
        point = vadd(point, vscale(reference_rand_positive_frac(rng), r))
    return point


def reference_rand_cone_member(rng, cone, strict=True):
    coeffs = [F(rng.randint(1 if strict else 0, 6), rng.choice(DENOMINATORS)) for _ in cone.generators]
    if strict and all(c == 0 for c in coeffs):
        coeffs[rng.randrange(len(coeffs))] = ONE
    out = tuple(ZERO for _ in range(cone.dimension))
    for c, g in zip(coeffs, cone.generators):
        out = vadd(out, vscale(c, g))
    return out


def coordinates(value):
    """The rationals a draw returns: a value, a vector, or a cone's generators and guard."""
    if isinstance(value, F):
        return [value]
    if isinstance(value, ConeDraw):
        return [c for v in (*value.cone.generators, value.guard) for c in v]
    return list(value)


def same_draw(seed, ours, theirs, *args):
    """Both draws from generators seeded alike: equal values, `Fraction`
    coordinates only, and the same generator state afterwards. A draw that
    raises must raise the same error on both."""
    mine, yours = random.Random(seed), random.Random(seed)
    try:
        expected = theirs(yours, *args)
    except ValueError:
        with pytest.raises(ValueError):
            ours(mine, *args)
    else:
        got = ours(mine, *args)
        assert got == expected, (ours.__name__, seed)
        assert all(type(c) is F for c in coordinates(got)), ours.__name__
    assert mine.getstate() == yours.getstate(), (ours.__name__, seed)


def stream_inputs(rng, dim):
    """A sum of 1-3 chains, polyhedra with and without rays (rays of mixed
    denominators, a zero ray among them), and cones with independent,
    dependent, zero and no generators."""
    draw = rand_pointed_cone(rng, dim, rng.random() < 0.5)
    d = DecomposableSet(tuple(rand_chain(rng, draw, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))))
    vertices = [rand_point(rng, dim) for _ in range(rng.randint(1, 4))]
    rays = [rand_point(rng, dim) for _ in range(rng.randint(0, 3))] + [(F(0),) * dim]
    polyhedra = [
        rand_upward_polyhedron(rng, draw, rng.randint(1, 4)),
        Polyhedron.build(vertices),
        Polyhedron.build(vertices, rays),
    ]
    gens = draw.cone.generators
    cones = [
        draw.cone,
        k_closure(draw.cone),
        with_origin(Cone(dim, gens + (vadd(gens[0], gens[-1]),), False), True),
        Cone(dim, gens + ((F(0),) * dim,), False),
        Cone(dim, (), False),
    ]
    return d, polyhedra, cones


def test_every_draw_keeps_its_values_and_its_random_stream():
    for seed in range(200):
        inputs = random.Random(f"stream-{seed}")
        dim = 1 + seed % 4
        same_draw(seed, rand_frac, reference_rand_frac)
        same_draw(seed, rand_positive_frac, reference_rand_positive_frac)
        same_draw(seed, rand_point, reference_rand_point, dim)
        same_draw(seed, rand_direction, reference_rand_direction, dim)
        same_draw(seed, rand_pointed_cone, reference_rand_pointed_cone, dim, seed % 2 == 0)
        d, polyhedra, cones = stream_inputs(inputs, max(dim, 2))
        same_draw(seed, rand_hull_point, reference_rand_hull_point, d)
        for poly in polyhedra:
            same_draw(seed, rand_relative_interior_point, reference_rand_relative_interior_point, poly)
        for cone in cones:
            for strict in (False, True):
                same_draw(seed, rand_cone_member, reference_rand_cone_member, cone, strict)


# --- the draws as randint, choice and randrange made them -----------------------
# A test-only reference, kept unedited: each drawing function as it read when
# its integers came from `randint`, `choice` and `randrange`, drawing through
# the reference draws above. `instances` now draws from `getrandbits` by
# `Random._randbelow`'s rule; the values and the generator's state afterwards
# must be the same.


def randint_rand_chain(rng, draw, size):
    dimension = draw.cone.dimension
    pool = [reference_rand_point(rng, dimension) for _ in range(8 * size)]
    order = ConeOrder(draw.cone, pool)
    _, guard = integer_multiple(draw.guard)
    keys = [sum(map(mul, guard, q)) for q in order.view.points]
    kept = []
    for i in sorted(range(len(pool)), key=keys.__getitem__):
        if len(kept) == size:
            break
        if all(pool[i] != pool[k] and order.comparable(k, i) for k in kept):
            kept.append(i)
    return ChainSet(FinitePointSet(tuple(pool[k] for k in kept)), draw.cone)


def randint_rand_decomposable(rng, draw, summands, max_points):
    return DecomposableSet(tuple(randint_rand_chain(rng, draw, rng.randint(1, max_points)) for _ in range(summands)))


def randint_rand_upward_polyhedron(rng, draw, n_vertices):
    pts = FinitePointSet.build(reference_rand_point(rng, draw.cone.dimension) for _ in range(n_vertices))
    return upward_hull(pts, draw.cone)


def randint_rand_disjoint_pair(rng, dimension, chain_points, summands, y_points):
    draw = reference_rand_pointed_cone(rng, dimension, contains_zero=True)
    chain = randint_rand_chain(rng, draw, chain_points)
    x_poly = upward_hull(chain.base, draw.cone)
    floor = min(vdot(draw.guard, v) for v in x_poly.vertices.points)
    y = randint_rand_decomposable(rng, draw, summands, y_points)
    shift = lowered_below(materialize(y), draw.guard, floor)
    first = ChainSet(FinitePointSet(tuple(vadd(p, shift) for p in y.summands[0].base.points)), draw.cone)
    return x_poly, DecomposableSet((first,) + y.summands[1:]), draw


def randint_rand_bounded_disjoint_pair(rng, dimension, chain_points, y_points):
    draw = reference_rand_pointed_cone(rng, dimension, contains_zero=True)
    chain = randint_rand_chain(rng, draw, chain_points)
    x_poly = upward_hull(chain.base, draw.cone)
    floor = min(vdot(draw.guard, v) for v in x_poly.vertices.points)
    pts = FinitePointSet.build(reference_rand_point(rng, dimension) for _ in range(y_points))
    shift = lowered_below(pts, draw.guard, floor)
    return x_poly, convex_hull(FinitePointSet.build(vadd(p, shift) for p in pts)), draw


def randint_rand_utility_table(rng, ground):
    pool = [F(rng.randint(-4, 4), rng.choice(DENOMINATORS)) for _ in range(5)]
    return {p: rng.choice(pool) for p in ground.points}


def randint_rand_ground_set(rng, dimension, size):
    pts = {}
    while len(pts) < size:
        pts[reference_rand_point(rng, dimension)] = None
    return FinitePointSet(tuple(pts))


def same_stream(seed, ours, theirs, *args):
    """Both draws from generators seeded alike: equal results, or the same
    error type, and the same generator state afterwards."""
    mine, yours = random.Random(seed), random.Random(seed)
    try:
        expected = theirs(yours, *args)
    except ValueError:
        with pytest.raises(ValueError):
            ours(mine, *args)
    else:
        assert ours(mine, *args) == expected, (ours.__name__, seed)
    assert mine.getstate() == yours.getstate(), (ours.__name__, seed)


def test_a_draw_below_n_is_randranges_and_leaves_the_same_state():
    for n in [*range(1, 200), 255, 256, 257, 2**31 - 1, 2**32, 2**32 + 1, 3**40]:
        same_stream(n, instances_module._below, random.Random.randrange, n)
    for n in (0, -1):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError):
            instances_module._below(rng, n)
        assert rng.getstate() == state


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64), inputs_seed=st.integers(0, 2**32), dim=st.integers(1, 3), size=st.integers(0, 5))
def test_every_draw_gives_what_randint_and_choice_gave_and_the_same_state(seed, inputs_seed, dim, size):
    inputs = random.Random(inputs_seed)
    draw = rand_pointed_cone(inputs, dim, inputs.random() < 0.5)
    d, polyhedra, cones = stream_inputs(inputs, max(dim, 2))
    ground = FinitePointSet.build(rand_point(inputs, dim) for _ in range(1 + size))
    same_stream(seed, rand_frac, reference_rand_frac)
    same_stream(seed, rand_point, reference_rand_point, dim)
    same_stream(seed, rand_positive_frac, reference_rand_positive_frac)
    same_stream(seed, rand_direction, reference_rand_direction, dim)
    same_stream(seed, rand_pointed_cone, reference_rand_pointed_cone, dim, size % 2 == 0)
    same_stream(seed, rand_chain, randint_rand_chain, draw, size)
    same_stream(seed, rand_decomposable, randint_rand_decomposable, draw, 1 + size % 3, size)
    same_stream(seed, rand_hull_point, reference_rand_hull_point, d)
    same_stream(seed, rand_upward_polyhedron, randint_rand_upward_polyhedron, draw, 1 + size)
    for poly in polyhedra:
        same_stream(seed, rand_relative_interior_point, reference_rand_relative_interior_point, poly)
    same_stream(seed, rand_disjoint_pair, randint_rand_disjoint_pair, 1 + dim, 1 + size % 3, 1 + size % 2, 1 + size)
    same_stream(seed, rand_bounded_disjoint_pair, randint_rand_bounded_disjoint_pair, 1 + dim, 1 + size % 3, 1 + size)
    for cone in cones:
        for strict in (False, True):
            same_stream(seed, rand_cone_member, reference_rand_cone_member, cone, strict)
    same_stream(seed, rand_utility_table, randint_rand_utility_table, ground)
    same_stream(seed, rand_ground_set, randint_rand_ground_set, dim, 3 * size)


def test_a_ground_set_larger_than_the_distinct_points_is_refused_before_any_draw():
    # Each coordinate takes one of 41 distinct values.
    assert len({reference_rand_frac(random.Random(s)) for s in range(2000)}) == 41
    assert len(rand_ground_set(random.Random(0), 1, 41)) == 41
    for dimension, size in ((1, 42), (2, 41**2 + 1)):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="distinct points"):
            rand_ground_set(rng, dimension, size)
        assert rng.getstate() == state
