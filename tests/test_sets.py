"""Finite sets, chains, sums, and V-polyhedra.

Frozen hull verdicts carry the convex combination (or the separating
functional) that justifies them; upward/equality laws are re-checked on
randomly generated instances with exact arithmetic.
"""

import importlib
import random
import time
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedom.cones import Comparability, Cone, ConeOrder, k_closure, relate
from conedom.dominance import pareto_optima_finite
from conedom.instances import rand_chain, rand_point, rand_pointed_cone
from conedom.linalg import LimitError, hull_membership, vadd
from conedom.sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    Polyhedron,
    convex_hull,
    first_incomparable_pair,
    in_relative_interior,
    is_antichain,
    is_chain,
    is_grid_antichain_convex,
    is_upward,
    materialize,
    minkowski_sum,
    poly_contains,
    recession_contains,
    upward_hull,
)

sets_module = importlib.import_module("conedom.sets")
linalg_module = importlib.import_module("conedom.linalg")

ORTHANT = Cone.build(2, [[1, 0], [0, 1]], True)


class TestFinitePointSet:
    def test_build_deduplicates_preserving_first_occurrence(self):
        s = FinitePointSet.build([(0, 0), (1, 1), (0, 0), (1, 1)])
        assert s.points == ((F(0), F(0)), (F(1), F(1)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FinitePointSet.build([(0, 0), (1, 1, 1)])
        with pytest.raises(ValueError, match="dimension"):
            FinitePointSet(((F(0), F(0)), (F(1),)))

    def test_the_constructor_rejects_duplicates(self):
        with pytest.raises(ValueError, match="deduplicated"):
            FinitePointSet(((F(0), F(0)), (F(1), F(1)), (F(0), F(0))))

    def test_build_and_subsets_equal_checked_sets(self):
        s = FinitePointSet.build([(2, 0), (0, 2), (2, 0), (1, 1)])
        assert s == FinitePointSet(s.points) and s.integer_view == FinitePointSet(s.points).integer_view
        optima = pareto_optima_finite(s, ORTHANT)
        assert optima == FinitePointSet(optima.points)
        assert optima.points == s.points

    def test_sorted_points_is_lexicographic(self):
        s = FinitePointSet.build([(2, 0), (0, 2), (1, 1)])
        assert s.sorted_points() == ((F(0), F(2)), (F(1), F(1)), (F(2), F(0)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_membership_answers_as_the_tuple_scan(self, data):
        n = data.draw(st.integers(1, 3))
        coordinate = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2)))
        point = st.tuples(*[coordinate] * n)
        s = FinitePointSet.build(data.draw(st.lists(point, min_size=1, max_size=8)))
        probes = [*s.points, *data.draw(st.lists(point, max_size=8))]
        # Integer and float tuples equal to points, and probes of other lengths.
        probes += [tuple(int(c) for c in p) for p in s.points if all(c.denominator == 1 for c in p)]
        probes += [tuple(float(c) for c in p) for p in s.points] + [p[:-1] for p in s.points] + [(*p, F(0)) for p in s.points]
        for p in probes:
            assert (p in s) == (p in s.points)
        assert all(s.position[p] == i for i, p in enumerate(s.points))

    def test_an_unhashable_probe_is_no_member(self):
        s = FinitePointSet.build([(0, 0), (1, 1)])
        for probe in ([F(0), F(0)], (F(0), [F(0)]), {"x": 0}):
            assert probe not in s
            assert (probe in s) == (probe in s.points)


class TestChainAndAntichain:
    def test_chain_accepts_comparable_points(self):
        ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)

    def test_chain_rejects_incomparable_points_naming_the_pair(self):
        with pytest.raises(ValueError, match="incomparable"):
            ChainSet.build([(0, 2), (2, 0)], ORTHANT)

    def test_first_incomparable_pair(self):
        good = FinitePointSet.build([(0, 0), (1, 1)])
        bad = FinitePointSet.build([(0, 2), (2, 0)])
        assert first_incomparable_pair(good, ORTHANT) is None
        assert first_incomparable_pair(bad, ORTHANT) == ((F(0), F(2)), (F(2), F(0)))

    def test_is_chain_and_is_antichain(self):
        chain = FinitePointSet.build([(0, 0), (1, 2)])
        anti = FinitePointSet.build([(0, 2), (1, 1), (2, 0)])
        assert is_chain(chain, ORTHANT) and not is_antichain(chain, ORTHANT)
        assert is_antichain(anti, ORTHANT) and not is_chain(anti, ORTHANT)

    def test_singleton_is_both(self):
        single = FinitePointSet.build([(1, 1)])
        assert is_chain(single, ORTHANT) and is_antichain(single, ORTHANT)

    def test_random_chains_validate(self):
        rng = random.Random(3)
        for _ in range(20):
            draw = rand_pointed_cone(rng, 2, True)
            chain = rand_chain(rng, draw, rng.randint(2, 6))
            assert is_chain(chain.base, chain.cone)


def reference_minkowski_sum(a, b):
    """The former `minkowski_sum`: `Fraction` sums, deduplicated by `build`."""
    return FinitePointSet.build(vadd(p, q) for p in a.points for q in b.points)


def reference_materialize(d):
    """The former `materialize`: one `reference_minkowski_sum` per summand."""
    acc = d.summands[0].base
    for s in d.summands[1:]:
        acc = reference_minkowski_sum(acc, s.base)
    return acc


class TestMinkowskiAndMaterialize:
    def test_translation(self):
        a = FinitePointSet.build([(0, 0)])
        b = FinitePointSet.build([(1, 2)])
        assert minkowski_sum(a, b).points == ((F(1), F(2)),)

    def test_unit_square(self):
        a = FinitePointSet.build([(0, 0), (1, 0)])
        b = FinitePointSet.build([(0, 0), (0, 1)])
        assert set(minkowski_sum(a, b).points) == {
            (F(0), F(0)),
            (F(1), F(0)),
            (F(0), F(1)),
            (F(1), F(1)),
        }

    def test_materialize_matches_nested_enumeration(self):
        c1 = ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)
        c2 = ChainSet.build([(0, 0), (1, 2)], ORTHANT)
        d = DecomposableSet((c1, c2))
        expected = {vadd(p, q) for p in c1.base.points for q in c2.base.points}
        assert set(materialize(d).points) == expected

    def test_sum_above_the_cap_is_refused_before_it_is_built(self):
        # Three chains of 60 points: up to 216,000 sums.
        d = DecomposableSet(tuple(ChainSet.build([(i, 2 * i + s) for i in range(60)], ORTHANT) for s in range(3)))
        start = time.perf_counter()
        with pytest.raises(LimitError, match="sum of 3 chains has up to 216000 points, more than the limit"):
            materialize(d)
        assert time.perf_counter() - start < 1.0
        # The largest sum in use, suite family 1's 6 x 6 x 6, is far below the cap.
        assert sets_module._MAX_SUM_POINTS >= 200 * 216
        smaller = DecomposableSet(d.summands[:2])
        assert len(materialize(smaller)) == len({vadd(p, q) for p in d.summands[0].base for q in d.summands[1].base})

    def test_a_sum_above_the_cap_forms_no_point_and_no_integer_view(self, monkeypatch):
        d = DecomposableSet(tuple(ChainSet.build([(i, 2 * i + s) for i in range(60)], ORTHANT) for s in range(3)))

        def refuse(*args):
            raise AssertionError("a sum above the cap was started")

        monkeypatch.setattr(sets_module, "integer_points", refuse)
        monkeypatch.setattr(FinitePointSet, "_of_distinct", refuse)
        with pytest.raises(LimitError):
            materialize(d)
        assert not any("integer_view" in vars(s.base) for s in d.summands)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sums_keep_the_order_of_the_vadd_reference(self, data):
        # Chains along one direction u, each with its own step and
        # denominators: most sums coincide.
        dim = data.draw(st.integers(1, 3))
        denominators = st.sampled_from((1, 2, 3, 4, 6))
        rationals = st.builds(F, st.integers(-6, 6), denominators)
        u = data.draw(st.tuples(*[rationals] * dim).filter(any))
        chains = []
        for _ in range(data.draw(st.integers(1, 3))):
            base = data.draw(st.tuples(*[rationals] * dim))
            step = data.draw(st.builds(F, st.integers(1, 3), denominators))
            steps = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6, unique=True))
            chains.append(ChainSet.build([vadd(base, tuple(k * step * c for c in u)) for k in steps], Cone(dim, (u,), True)))
        d = DecomposableSet(tuple(chains))
        expected = reference_materialize(d).points
        got = materialize(d).points
        assert got == expected
        assert all(type(c) is F for p in got for c in p)
        for a in chains:
            for b in chains:
                assert minkowski_sum(a.base, b.base).points == reference_minkowski_sum(a.base, b.base).points
        # Sets off one line, on a small lattice, still coincide often.
        a, b = (
            FinitePointSet.build(data.draw(st.lists(st.tuples(*[rationals] * dim), max_size=8)))
            for _ in range(2)
        )
        assert minkowski_sum(a, b).points == reference_minkowski_sum(a, b).points

    def test_a_sum_of_sets_of_different_dimensions_is_refused(self):
        with pytest.raises(ValueError):
            minkowski_sum(FinitePointSet.build([(0, 0)]), FinitePointSet.build([(0, 0, 0)]))

    def test_summands_must_share_the_cone(self):
        other = Cone.build(2, [[1, 1]], True)
        c1 = ChainSet.build([(0, 0), (1, 1)], ORTHANT)
        c2 = ChainSet.build([(0, 0), (1, 1)], other)
        with pytest.raises(ValueError):
            DecomposableSet((c1, c2))


class TestConvexHull:
    def test_interior_point_dropped(self):
        # (1/2,1/2) = the midpoint of the other two.
        s = FinitePointSet.build([(0, 0), (1, 1), (F(1, 2), F(1, 2))])
        hull = convex_hull(s)
        assert set(hull.vertices.points) == {(F(0), F(0)), (F(1), F(1))}
        assert hull.rays == ()

    def test_singleton(self):
        hull = convex_hull(FinitePointSet.build([(3, 4)]))
        assert hull.vertices.points == ((F(3), F(4)),)

    def test_hull_point_that_is_not_extreme_is_dropped(self):
        # (1,1) = 1/2*(2,0) + 1/2*(0,2) lies in the hull of the others.
        s = FinitePointSet.build([(0, 0), (2, 0), (0, 2), (1, 1)])
        hull = convex_hull(s)
        assert set(hull.vertices.points) == {(F(0), F(0)), (F(2), F(0)), (F(0), F(2))}

    def test_hull_idempotence(self):
        rng = random.Random(5)
        for _ in range(15):
            pts = FinitePointSet.build(
                [rand_point(rng, 2) for _ in range(rng.randint(1, 6))]
            )
            hull = convex_hull(pts)
            again = convex_hull(hull.vertices)
            assert set(again.vertices.points) == set(hull.vertices.points)

    def test_every_input_point_is_inside_the_hull(self):
        rng = random.Random(8)
        for _ in range(15):
            pts = FinitePointSet.build(
                [rand_point(rng, 3) for _ in range(rng.randint(1, 6))]
            )
            hull = convex_hull(pts)
            assert all(poly_contains(hull, p) for p in pts)


def reference_hull_vertices(points):
    """The LP path of `convex_hull`: keep each point outside the hull of the others."""
    if len(points) == 1:
        return points
    return tuple(p for i, p in enumerate(points) if not hull_membership(p, points[:i] + points[i + 1 :]).member)


planar_coordinates = st.builds(F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))
planar_points = st.tuples(planar_coordinates, planar_coordinates)


@st.composite
def collinear_points(draw):
    base, direction = draw(planar_points), draw(planar_points.filter(any))
    steps = draw(st.lists(planar_coordinates, min_size=1, max_size=10))
    return [tuple(b + t * d for b, d in zip(base, direction)) for t in steps]


@st.composite
def points_on_edges(draw):
    """Points, then points on the segments between some of them (on the hull's
    edges among others), shuffled."""
    corners = draw(st.lists(planar_points, min_size=2, max_size=6))
    extra = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        a, b = draw(st.sampled_from(corners)), draw(st.sampled_from(corners))
        t = draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
        extra.append(tuple(t * x + (1 - t) * y for x, y in zip(a, b)))
    return draw(st.permutations(corners + extra))


planar_sets = st.one_of(
    st.lists(planar_points, min_size=1, max_size=12),
    st.lists(planar_points, min_size=2, max_size=2),
    collinear_points(),
    points_on_edges(),
)


def _no_lp(lp):
    raise RuntimeError("the planar hull solved a linear program")


class TestPlanarConvexHull:
    """In the plane the hull's vertices come from the monotone chain, with
    no LP, and equal the LP path's vertex tuple, order included."""

    @settings(max_examples=300, deadline=None)
    @given(planar_sets)
    def test_the_planar_hull_matches_the_lp_path_without_an_lp(self, points):
        s = FinitePointSet.build(points)
        expected = reference_hull_vertices(s.points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg_module, "lp_solve", _no_lp)
            hull = convex_hull(s)
        assert hull.vertices.points == expected
        assert hull.rays == ()

    def test_eighty_collinear_points_keep_their_two_ends(self):
        order = list(range(80))
        random.Random(13).shuffle(order)
        s = FinitePointSet.build([(F(k, 3), F(2 * k, 3) - 1) for k in order])
        expected = reference_hull_vertices(s.points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg_module, "lp_solve", _no_lp)
            hull = convex_hull(s)
        assert hull.vertices.points == expected
        assert set(expected) == {(F(0), F(-1)), (F(79, 3), F(155, 3))}

    def test_a_hull_in_three_dimensions_keeps_one_lp_per_point(self, monkeypatch):
        calls = []
        solve = linalg_module.lp_solve

        def counted(lp):
            calls.append(lp)
            return solve(lp)

        monkeypatch.setattr(linalg_module, "lp_solve", counted)
        s = FinitePointSet.build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (F(1, 4), F(1, 4), F(1, 4))])
        assert convex_hull(s).vertices.points == s.points[:4]
        assert len(calls) == 5


class TestPolyhedron:
    def test_needs_a_vertex(self):
        with pytest.raises(ValueError):
            Polyhedron.build([], [[1, 0]])

    def test_contains_and_relative_interior(self):
        p = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        assert poly_contains(p, (F(2), F(3)))
        assert not poly_contains(p, (F(-1), F(0)))
        assert in_relative_interior(p, (F(1), F(1)))
        assert not in_relative_interior(p, (F(0), F(0)))

    def test_recession_contains(self):
        p = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        assert recession_contains(p, (F(2), F(3)))
        assert recession_contains(p, (F(0), F(0)))  # zero direction always
        assert not recession_contains(p, (F(-1), F(0)))
        bounded = Polyhedron.build([(0, 0), (1, 1)])
        assert not recession_contains(bounded, (F(1), F(1)))


def same_polyhedron(p, q):
    """Set equality of two polyhedra by containment both ways: each one's
    vertices lie in the other, and so do its rays in the other's recession cone."""
    return all(
        all(poly_contains(b, v) for v in a.vertices) and all(recession_contains(b, r) for r in a.rays)
        for a, b in ((p, q), (q, p))
    )


class TestUpwardHull:
    def test_point_plus_orthant(self):
        hull = upward_hull(FinitePointSet.build([(2, 2)]), ORTHANT)
        assert hull.vertices.points == ((F(2), F(2)),)
        assert set(hull.rays) == {(F(1), F(0)), (F(0), F(1))}

    def test_chain_collapses_to_its_minimum(self):
        # (1,1) = (0,0) + one unit of each generator, so the swept chain
        # equals the single cone shifted to the chain minimum.
        chain = FinitePointSet.build([(0, 0), (1, 1)])
        hull = upward_hull(chain, ORTHANT)
        shifted = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        assert same_polyhedron(hull, shifted)

    def test_empty_cone_keeps_the_bare_hull(self):
        empty = Cone(2, (), True)
        hull = upward_hull(FinitePointSet.build([(0, 0)]), empty)
        assert same_polyhedron(hull, Polyhedron.build([(0, 0)]))

    def test_upward_hull_is_upward_and_contains_cone_steps(self):
        rng = random.Random(21)
        for _ in range(15):
            draw = rand_pointed_cone(rng, 2, rng.random() < 0.5)
            pts = FinitePointSet.build(
                [rand_point(rng, 2) for _ in range(rng.randint(1, 4))]
            )
            hull = upward_hull(pts, draw.cone)
            assert is_upward(hull, draw.cone)
            for p in pts:
                for g in draw.cone.generators:
                    assert poly_contains(hull, vadd(p, g))

    def test_swept_chain_equals_the_cone_at_the_minimum(self):
        rng = random.Random(27)
        for _ in range(15):
            draw = rand_pointed_cone(rng, 2, True)
            chain = rand_chain(rng, draw, rng.randint(2, 5))
            bottom = min(
                chain.base.points,
                key=lambda p: sum(
                    relate(chain.cone, p, q) is Comparability.UP
                    for q in chain.base.points
                ) * -1,
            )
            hull = upward_hull(chain.base, chain.cone)
            shifted = Polyhedron(
                FinitePointSet((bottom,)), k_closure(chain.cone).generators
            )
            assert same_polyhedron(hull, shifted)


class TestIsUpward:
    def test_examples(self):
        up = Polyhedron.build([(2, 2)], [(1, 0), (0, 1)])
        bounded = Polyhedron.build([(0, 0), (1, 1)])
        diag = Polyhedron.build([(0, 0)], [(1, 1)])
        assert is_upward(up, ORTHANT)
        assert not is_upward(bounded, ORTHANT)
        # (2,2) = 2 * (1,1), so the doubled diagonal is in the recession cone.
        assert is_upward(diag, Cone.build(2, [[2, 2]], True))

    def test_upwardness_agrees_with_the_convex_closure(self):
        rng = random.Random(31)
        for _ in range(20):
            draw = rand_pointed_cone(rng, 2, rng.random() < 0.5)
            if rng.random() < 0.5:
                poly = Polyhedron(
                    FinitePointSet((rand_point(rng, 2),)),
                    k_closure(draw.cone).generators,
                )
            else:
                poly = convex_hull(
                    FinitePointSet.build([rand_point(rng, 2) for _ in range(3)])
                )
            assert is_upward(poly, draw.cone) == is_upward(poly, k_closure(draw.cone))

    def test_a_polyhedron_builds_one_ray_cone(self, monkeypatch):
        poly = Polyhedron.build([(2, 2)], [(1, 0), (0, 1), (1, 1)])
        cone = Cone.build(2, [[1, 0], [0, 1], [1, 2], [2, 1]], True)
        built = []
        init = Cone.__init__

        def counting(c, *args, **kwargs):
            built.append(c)
            init(c, *args, **kwargs)

        monkeypatch.setattr(Cone, "__init__", counting)
        assert is_upward(poly, cone)
        assert len(built) == 1 and built == [poly.ray_cone]
        assert is_upward(poly, cone) and recession_contains(poly, (F(3), F(1)))
        assert not recession_contains(poly, (F(-1), F(0)))
        assert built == [poly.ray_cone]
        # Without rays, only the origin is a recession direction, and no cone is built.
        bounded = Polyhedron.build([(0, 0), (1, 1)])
        assert not is_upward(bounded, cone) and recession_contains(bounded, (F(0), F(0)))
        assert built == [poly.ray_cone]


class TestGridAntichainConvex:
    def test_chain_base_is_vacuously_convex(self):
        chain = FinitePointSet.build([(0, 0), (1, 1), (2, 2)])
        assert is_grid_antichain_convex(chain, ORTHANT, 7)

    def test_missing_midpoint_fails(self):
        s = FinitePointSet.build([(0, 0), (0, 2), (2, 0)])
        assert not is_grid_antichain_convex(s, ORTHANT, 2)

    def test_present_midpoint_passes(self):
        s = FinitePointSet.build([(0, 2), (1, 1), (2, 0)])
        assert is_grid_antichain_convex(s, ORTHANT, 2)

    def test_zero_denominator_rejected(self):
        s = FinitePointSet.build([(0, 0)])
        with pytest.raises(ValueError):
            is_grid_antichain_convex(s, ORTHANT, 0)

    def test_matches_the_pairwise_reference(self):
        # Every cone compares pairs by its facet coordinates; the verdicts
        # must be those of `relate` alone.
        rng = random.Random(41)
        cones = [ORTHANT, Cone.build(2, [[1, 0], [1, 1], [0, 1]], True), Cone.build(2, [[1, 0], [-1, 0]], True)]
        verdicts = set()
        for _ in range(150):
            cone = rng.choice(cones + [rand_pointed_cone(rng, 2, True).cone])
            s = FinitePointSet.build(
                [(F(rng.randint(0, 3)), F(rng.randint(0, 3))) for _ in range(rng.randint(1, 6))]
            )
            denominator = rng.randint(2, 4)
            got = is_grid_antichain_convex(s, cone, denominator)
            assert got == reference_grid_antichain_convex(s, cone, denominator)
            verdicts.add(got)
        assert verdicts == {True, False}


def reference_grid_antichain_convex(s, cone, denominator):
    """`is_grid_antichain_convex` with one `relate` per pair and the inferred pitch."""
    if len(s) <= 1:
        return True
    pitch = F(1, lcm(*(c.denominator for p in s.points for c in p)))
    pts = s.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if relate(cone, pts[i], pts[j]) is not Comparability.INCOMPARABLE:
                continue
            for k in range(1, denominator):
                lam = F(k, denominator)
                z = tuple(lam * a + (1 - lam) * b for a, b in zip(pts[i], pts[j]))
                if all((c / pitch).denominator == 1 for c in z) and z not in pts:
                    return False
    return True


class TestCachedViews:
    def test_integer_view_expands_back_to_the_points(self):
        rng = random.Random(43)
        for _ in range(50):
            dim = rng.randint(1, 4)
            s = FinitePointSet.build([rand_point(rng, dim) for _ in range(rng.randint(1, 6))])
            view = s.integer_view
            assert all(type(c) is int for p in view.points for c in p)
            assert tuple(tuple(F(c, view.scale) for c in p) for p in view.points) == s.points
            assert view.scale == lcm(*(c.denominator for p in s.points for c in p))
            assert s.integer_view is view  # built once

    def test_chain_coordinates_are_those_of_its_own_cone(self):
        rng = random.Random(47)
        for _ in range(20):
            draw = rand_pointed_cone(rng, rng.choice((2, 3)), True)
            chain = rand_chain(rng, draw, rng.randint(1, 6))
            assert chain.order.coordinates == ConeOrder(chain.cone, chain.base.points).coordinates
            assert chain.order is chain.order
        line = Cone.build(2, [[1, 0], [-1, 0]], True)
        order = ChainSet.build([(0, 0), (1, 0)], line).order
        assert order.coordinates == ConeOrder(line, order.points).coordinates == [((0,), ()), ((0,), ())]

    def test_a_chain_builds_one_order_and_keeps_it(self, monkeypatch):
        built = []
        init = ConeOrder.__init__

        def counting(order, cone, points):
            built.append(order)
            init(order, cone, points)

        monkeypatch.setattr(ConeOrder, "__init__", counting)
        chain = ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT)
        assert built == [chain.order] and chain.order.points == chain.base.points
        assert chain == ChainSet.build([(0, 0), (1, 1), (2, 3)], ORTHANT) and "order" not in repr(chain)
        built.clear()
        with pytest.raises(ValueError, match=r"points \(.*\) and \(.*\) are incomparable under the cone"):
            ChainSet.build([(0, 0), (0, 2), (2, 0)], ORTHANT)
        assert len(built) == 1
