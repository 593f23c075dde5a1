"""Order coordinates against a pairwise `cone_contains` reference.

Every consumer of the order map (`relate`, the chain and antichain scans,
Pareto optima and the domination matrix behind `check_equivalences`) is
compared on seeded cones of every kind with the same question asked one
pair at a time through `cone_contains`. Cones with independent generators
take the order-coordinate path; the others keep the pairwise path, which
the tests check too. Points include ties in the generator-coordinate sum,
denominators 1, 2 and 3, and numerators around 10^20.
"""

import random
from fractions import Fraction as F

import pytest

from conedom.cones import (
    Comparability,
    Cone,
    cone_contains,
    is_pointed,
    k_closure,
    order_coordinates,
    relate,
    with_origin,
)
from conedom.dominance import _domination_matrix, check_equivalences, is_pareto_in_hull, pareto_optima_finite
from conedom.instances import rand_cone_member, rand_point, rand_pointed_cone
from conedom.linalg import vadd, vscale, vsub
from conedom.maximals import FiniteRelation, maximals
from conedom.sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    first_comparable_pair,
    first_incomparable_pair,
    is_antichain,
    is_chain,
    materialize,
)

BIG = 10**20


# --- the pairwise reference ---------------------------------------------------


def ref_relate(cone, x, y):
    up = cone_contains(cone, vsub(y, x))
    down = cone_contains(cone, vsub(x, y))
    if up and down:
        return Comparability.BOTH
    if up:
        return Comparability.UP
    if down:
        return Comparability.DOWN
    return Comparability.INCOMPARABLE


def ref_first_pair(pts, cone, comparable):
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (ref_relate(cone, pts[i], pts[j]) is not Comparability.INCOMPARABLE) == comparable:
                return pts[i], pts[j]
    return None


def ref_optima(pts, cone):
    return tuple(y for y in pts if not any(t != y and cone_contains(cone, vsub(t, y)) for t in pts))


def ref_matrix(pts, cone):
    return tuple(tuple(cone_contains(cone, vsub(t, s)) for s in pts) for t in pts)


# --- cones of every kind ------------------------------------------------------


def simplicial(rng, dim, contains_zero):
    return rand_pointed_cone(rng, dim, contains_zero).cone


def rank_deficient(rng, dim, contains_zero):
    """dim - 1 independent generators: points can differ off the span only."""
    return Cone(dim, simplicial(rng, dim, contains_zero).generators[:-1], contains_zero)


def nonsimplicial_pointed(rng, dim, contains_zero):
    """A simplicial draw plus one more generator in the guard's half-space."""
    draw = rand_pointed_cone(rng, dim, contains_zero)
    extra = tuple(c + d for c, d in zip(draw.cone.generators[0], draw.cone.generators[1]))
    return Cone(dim, draw.cone.generators + (vadd(extra, draw.guard),), contains_zero)


def nonsimplicial_line(rng, dim, contains_zero):
    """Not pointed: holds a generator and its negation."""
    gens = simplicial(rng, dim, contains_zero).generators
    return Cone(dim, gens + (tuple(-c for c in gens[0]),), contains_zero)


def with_zero_generator(rng, dim, contains_zero):
    gens = simplicial(rng, dim, contains_zero).generators
    return Cone(dim, gens + (tuple(F(0) for _ in range(dim)),), contains_zero)


def no_generators(rng, dim, contains_zero):
    return Cone(dim, (), contains_zero)


KINDS = {
    "simplicial": (simplicial, True),
    "rank_deficient": (rank_deficient, True),
    "nonsimplicial_pointed": (nonsimplicial_pointed, False),
    "nonsimplicial_not_pointed": (nonsimplicial_line, False),
    "zero_generator": (with_zero_generator, False),
    "no_generators": (no_generators, False),
}


def base_point(rng, dim, big):
    if not big:
        return rand_point(rng, dim)
    return tuple(F(BIG + rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(dim))


def off_span_part(cone, u):
    """u minus its generator combination: on cones with independent
    generators, its generator coordinates vanish and its off-span ones are
    those of u."""
    solver = cone.span_solver
    mu = [sum((a * b for a, b in zip(e, u)), F(0)) for e in solver.elim[: solver.rank]]
    out = u
    for c, g in zip(mu, cone.generators):
        out = vsub(out, vscale(c, g))
    return out


def rand_points(rng, cone, big):
    """Up to 11 distinct points: a cone-step chain; ties in the generator
    sum (p + g_i - g_j) and in the coordinate sum; shifts that change only
    the off-span coordinates, one of them on top of a cone step; and
    unrelated points."""
    dim = cone.dimension
    p = base_point(rng, dim, big)
    pts = [p]
    for _ in range(2):
        pts.append(vadd(pts[-1], rand_cone_member(rng, k_closure(cone), strict=False)))
    gens = cone.generators
    if len(gens) >= 2:
        pts.append(vadd(p, vsub(gens[0], gens[1])))
        pts.append(vadd(pts[1], vscale(F(1, 3), vsub(gens[1], gens[0]))))
    pts.append(vadd(p, tuple(F(1, 2) if d == 0 else F(-1, 2) if d == 1 else F(0) for d in range(dim))))
    if cone.generators and cone.span_solver.unique:
        w = off_span_part(cone, base_point(rng, dim, False))
        pts.extend((vadd(p, w), vadd(pts[1], w)))
    pts.append(base_point(rng, dim, big))
    pts.append(vadd(pts[-1], base_point(rng, dim, False)))
    return FinitePointSet.build(pts)


def cases(kind, count=6):
    make, _ = KINDS[kind]
    rng = random.Random(f"order-coordinates-{kind}")
    for t in range(count):
        dim = 2 + t % 3
        cone = make(rng, dim, contains_zero=t % 2 == 0)
        yield cone, rand_points(rng, cone, big=t % 3 == 2)


@pytest.mark.parametrize("kind", KINDS)
def test_the_order_path_is_taken_exactly_for_independent_generators(kind):
    _, independent = KINDS[kind]
    for cone, pts in cases(kind, 3):
        assert (order_coordinates(cone, pts.points) is not None) == independent


@pytest.mark.parametrize("kind", KINDS)
def test_relate_matches_the_pairwise_reference(kind):
    for cone, pts in cases(kind):
        for x in pts.points:
            for y in pts.points:
                assert relate(cone, x, y) is ref_relate(cone, x, y)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_scans_match_the_pairwise_reference(kind):
    for cone, pts in cases(kind):
        for subset in (pts.points, pts.points[:3], pts.points[::2], pts.points[3:]):
            s = FinitePointSet(subset)
            incomparable = ref_first_pair(subset, cone, comparable=False)
            comparable = ref_first_pair(subset, cone, comparable=True)
            assert first_incomparable_pair(s, cone) == incomparable
            assert first_comparable_pair(s, cone) == comparable
            assert is_chain(s, cone) == (incomparable is None)
            assert is_antichain(s, cone) == (comparable is None)


@pytest.mark.parametrize("kind", KINDS)
def test_pareto_optima_match_the_reference_in_input_order(kind):
    for cone, pts in cases(kind):
        for subset in (pts.points, pts.points[::-1]):
            optima = pareto_optima_finite(FinitePointSet(subset), cone)
            assert optima.points == ref_optima(subset, cone)


@pytest.mark.parametrize("kind", KINDS)
def test_domination_matrix_matches_the_reference(kind):
    for cone, pts in cases(kind):
        assert _domination_matrix(pts, cone) == ref_matrix(pts.points, cone)


def chain_sum(rng, cone, sizes):
    """A sum of chains built from nonzero cone steps (single points for a
    cone with no generators)."""
    chains = []
    for size in sizes:
        p = rand_point(rng, cone.dimension)
        pts = [p]
        while cone.generators and len(pts) < size:
            step = rand_cone_member(rng, k_closure(cone), strict=False)
            if any(step):
                pts.append(vadd(pts[-1], step))
        chains.append(ChainSet.build(pts, cone))
    return DecomposableSet(tuple(chains))


@pytest.mark.parametrize("kind", KINDS)
def test_check_equivalences_matches_the_reference(kind):
    make, _ = KINDS[kind]
    rng = random.Random(f"equivalences-{kind}")
    for t in range(4):
        dim = 2 + t % 2
        cone = make(rng, dim, contains_zero=t % 2 == 0)
        d = chain_sum(rng, cone, (3, 2))
        pts = materialize(d)
        optima = ref_optima(pts.points, cone)
        toggle = sorted(ref_optima(pts.points, with_origin(cone, True))) == sorted(
            ref_optima(pts.points, with_origin(cone, False))
        )
        hull_eq = maximals_eq = None
        if is_pointed(cone):
            hull_eq = all((p in optima) == is_pareto_in_hull(p, d) for p in pts)
            relation = FiniteRelation(pts, ref_matrix(pts.points, cone))
            maximals_eq = maximals(relation, pts).sorted_points() == tuple(sorted(optima))
        report = check_equivalences(d)
        assert report.optima.points == optima
        assert (report.origin_toggle_invariant, report.hull_equivalence, report.maximals_agree) == (
            toggle,
            hull_eq,
            maximals_eq,
        )


def test_span_solver_lives_on_the_cone_and_is_shared_across_origin_flags():
    cone = Cone.build(2, [[1, 0], [1, 1]], False)
    assert cone.span_solver is cone.span_solver
    closed = k_closure(cone)
    assert closed == Cone.build(2, [[1, 0], [1, 1]], True)
    assert closed.span_solver is cone.span_solver
    assert with_origin(closed, True) is closed
    assert Cone.build(2, [[1, 0], [1, 1]], False).span_solver is not cone.span_solver


def test_order_coordinates_reject_a_wrong_dimension():
    cone = Cone.build(2, [[1, 0], [0, 1]], True)
    with pytest.raises(ValueError):
        order_coordinates(cone, [(F(1), F(2), F(3))])
    with pytest.raises(ValueError):
        relate(cone, (F(0), F(0)), (F(1), F(1), F(1)))
