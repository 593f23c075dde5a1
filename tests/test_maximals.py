"""Relations, preorders, grid demand, and the convexification checks.

Frozen utility values are recomputed in comments; every demand or
maximal-set expectation is either derived by an inline brute-force
enumeration or written out as a one-line hand computation.

`reference_from_utility`, `reference_convexified_maximals`,
`reference_check_local_nonsatiation` and
`reference_check_maximizer_convexity` keep the earlier direct
implementations (a `Fraction` comparison per matrix entry, a hull program
for every member's upper set, a fresh utility call per neighbor, a grid
antichain-convexity pass before the segment scan); the differential tests
compare the package against them.
"""

import importlib
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedom.cones import Cone
from conedom.linalg import ZERO, LimitError, hull_membership, vdot
from conedom.maximals import (
    FiniteRelation,
    GridDomain,
    NonsatiationReport,
    PriceSystem,
    QuasiconcavityReport,
    TotalPreorder,
    UTILITIES,
    budget_set,
    check_antichain_quasiconcavity,
    check_boundary_and_antichain,
    check_convexification_invariance,
    check_local_nonsatiation,
    check_maximizer_convexity,
    convexified_maximals,
    demand,
    find_quasiconcavity_violation,
    linear_utility,
    maximals,
    min_utility,
    orthant_cone,
    ratio_utility,
)
from conedom.sets import FinitePointSet, Polyhedron, is_grid_antichain_convex, poly_contains
from test_order_coordinates import KINDS

# The package re-exports the function `maximals` under the module's name.
maximals_module = importlib.import_module("conedom.maximals")
linalg_module = importlib.import_module("conedom.linalg")


def unit_grid(high: int) -> GridDomain:
    return GridDomain(F(1), ((F(0), F(high)), (F(0), F(high))))


def square_grid(step: F, high: int) -> GridDomain:
    return GridDomain(step, ((F(0), F(high)), (F(0), F(high))))


def reference_from_utility(ground, utility) -> TotalPreorder:
    values = tuple(utility(p) for p in ground.points)
    related = tuple(
        tuple(values[i] >= values[j] for j in range(len(values))) for i in range(len(values))
    )
    return TotalPreorder(ground, related, values)


def reference_preorder_defect(related, totality=True, transitivity=True):
    """The former O(k^3) check of a `TotalPreorder` given by its matrix alone:
    the message of the first defect the loop meets, or None. `totality` and
    `transitivity` switch each test off."""
    k = len(related)
    for i in range(k):
        for j in range(k):
            if totality and not (related[i][j] or related[j][i]):
                return "relation is not total"
            for t in range(k):
                if transitivity and related[i][j] and related[j][t] and not related[i][t]:
                    return "relation is not transitive"
    return None


@st.composite
def matrices(draw):
    """k-by-k boolean matrices, k <= 6: the order of drawn integer ranks (a
    total preorder) with up to three entries flipped, which can break
    totality, transitivity or both, or a matrix drawn entry by entry."""
    k = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()):
        rows = [[draw(st.booleans()) for _ in range(k)] for _ in range(k)]
    else:
        ranks = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k))
        rows = [[a >= b for b in ranks] for a in ranks]
        for _ in range(draw(st.integers(min_value=0, max_value=3)) if k else 0):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            rows[i][j] = not rows[i][j]
    return tuple(map(tuple, rows))


def reference_convexified_maximals(relation, subset, hull=hull_membership):
    order = list(subset.points)
    if relation.utility_values is not None:
        order.sort(key=lambda s: relation.utility_values[relation.index(s)], reverse=True)
    keep = []
    for m in subset.points:
        mi = relation.index(m)
        ok = True
        for s in order:
            si = relation.index(s)
            if relation.related[mi][si]:
                continue
            upper = relation.upper_set(s)
            if not upper or not hull(m, upper).member:
                ok = False
                break
        if ok:
            keep.append(m)
    return FinitePointSet(tuple(keep))


def reference_check_local_nonsatiation(utility, grid) -> NonsatiationReport:
    violators = []
    exempt = []
    for p in grid.points():
        if any(c + grid.step > hi for c, (_, hi) in zip(p, grid.box)):
            exempt.append(p)
            continue
        up = utility(p)
        improved = False
        for d in range(grid.dimension):
            for delta in (grid.step, -grid.step):
                q = tuple(c + delta if i == d else c for i, c in enumerate(p))
                if q in grid and utility(q) > up:
                    improved = True
                    break
            if improved:
                break
        if not improved:
            violators.append(p)
    return NonsatiationReport(not violators, tuple(violators), tuple(exempt))


def reference_check_maximizer_convexity(utility, grid, prices, cone, denominator):
    """The former two-pass check: the demand set must pass
    `is_grid_antichain_convex` under the cone on the grid's lattice, and no
    grid point strictly inside a segment between two demand points may be
    left out of it."""
    if not any(vdot(prices.price, p) == prices.wealth for p in grid.points()):
        raise ValueError("budget line misses the grid; pick aligned prices and wealth")
    dset = demand(utility, grid, prices)
    if not is_grid_antichain_convex(dset, cone, denominator, step=grid.step):
        return False
    pts = dset.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for q in grid.points():
                if q not in dset and strictly_between(pts[i], pts[j], q):
                    return False
    return True


def strictly_between(a, b, q):
    """q = a + t (b - a) for some 0 < t < 1, with t read off the first
    coordinate where a and b differ."""
    d = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    t = (q[d] - a[d]) / (b[d] - a[d])
    return 0 < t < 1 and all(qi == ai + t * (bi - ai) for ai, bi, qi in zip(a, b, q))


def random_aligned_case(rng, dimension):
    """A grid of step 1, 1/2 or 1/3 (3 to 5 points per axis in the plane, 3
    in space), integer prices whose budget line meets a grid point (the
    dearer of two random ones), and a utility: a random 0/1 table (demand
    often not convex), the budget value itself (demand all of the budget
    line's grid points) or random linear weights."""
    step = rng.choice((F(1), F(1, 2), F(1, 3)))
    extent = 4 if dimension == 2 else 2
    grid = GridDomain(step, tuple((F(0), step * rng.randint(2, extent)) for _ in range(dimension)))
    price = tuple(rng.randint(1, 3) for _ in range(dimension))
    wealth = max(vdot(price, rng.choice(grid.points().points)) for _ in range(2))
    prices = PriceSystem.build(price, wealth)
    kind = rng.randrange(3)
    if kind == 0:
        table = {p: F(rng.random() < 0.5) for p in grid.points()}
        return grid, prices, table.__getitem__
    weights = prices.price if kind == 1 else [F(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(dimension)]
    return grid, prices, lambda x: vdot(weights, x)


def reference_axis_values(grid: GridDomain, d: int) -> tuple:
    lo, hi = grid.box[d]
    lo = max(lo, ZERO)
    start = lo / grid.step
    k = start.numerator // start.denominator
    if k * grid.step < lo:
        k += 1
    out = []
    while k * grid.step <= hi:
        out.append(k * grid.step)
        k += 1
    return tuple(out)


def random_preorder_case(rng):
    """A ground set with tied utility values and a random subset of it."""
    pts = FinitePointSet.build(
        [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 9))]
    )
    pool = [F(k, rng.randint(1, 3)) for k in range(rng.randint(1, 4))]
    values = {p: rng.choice(pool) for p in pts.points}
    subset = FinitePointSet(tuple(p for p in pts.points if rng.random() < 0.6))
    return pts, values, subset


class TestRelations:
    def test_holds_and_upper_set(self):
        ground = FinitePointSet.build([(0,), (1,)])
        rel = FiniteRelation(ground, ((True, False), (True, True)))
        assert rel.holds((F(1),), (F(0),))
        assert not rel.holds((F(0),), (F(1),))
        assert rel.upper_set((F(0),)) == ((F(0),), (F(1),))

    def test_unknown_point_raises(self):
        ground = FinitePointSet.build([(0,)])
        rel = FiniteRelation(ground, ((True,),))
        with pytest.raises(ValueError):
            rel.index((F(5),))

    @pytest.mark.parametrize("related", [((True,),), ((True, False), (True,)), ((True, True), (True, True), (True, True))])
    def test_a_matrix_of_the_wrong_shape_is_refused(self, related):
        ground = FinitePointSet.build([(0,), (1,)])
        for kind in (FiniteRelation, TotalPreorder):
            with pytest.raises(ValueError, match="relation matrix shape does not match the ground set"):
                kind(ground, related)

    def test_a_utility_value_count_other_than_the_ground_sets_is_refused(self):
        ground = FinitePointSet.build([(0,), (1,)])
        related = ((True, False), (True, True))
        for values in ((F(0),), (F(0), F(1), F(2))):
            with pytest.raises(ValueError, match="utility value count does not match the ground set"):
                TotalPreorder(ground, related, values)
        assert TotalPreorder(ground, related, (F(0), F(1))).holds((F(1),), (F(0),))

    def test_total_preorder_rejects_a_partial_matrix(self):
        ground = FinitePointSet.build([(0,), (1,)])
        with pytest.raises(ValueError, match="total"):
            TotalPreorder(ground, ((True, False), (False, True)))

    def test_total_preorder_rejects_an_intransitive_matrix(self):
        ground = FinitePointSet.build([(0,), (1,), (2,)])
        # 0 >= 1, 1 >= 2, but not 0 >= 2 (and 2 >= 0 to keep it total).
        related = (
            (True, True, False),
            (False, True, True),
            (True, False, True),
        )
        with pytest.raises(ValueError, match="transitive"):
            TotalPreorder(ground, related)

    def test_utility_matrix_consistency_is_enforced(self):
        ground = FinitePointSet.build([(0,), (1,)])
        with pytest.raises(ValueError, match="utility"):
            TotalPreorder(
                ground,
                ((True, True), (False, True)),
                utility_values=(F(0), F(1)),  # says 1 is better; matrix disagrees
            )

    def test_one_flipped_entry_is_rejected(self):
        ground = FinitePointSet.build([(0,), (1,), (2,), (3,)])
        values = {(F(0),): F(2), (F(1),): F(1, 2), (F(2),): F(2), (F(3),): F(-1)}
        good = TotalPreorder.from_utility(ground, values.__getitem__)
        for i in range(4):
            for j in range(4):
                rows = [list(row) for row in good.related]
                rows[i][j] = not rows[i][j]
                with pytest.raises(ValueError, match="relation matrix disagrees with its utility"):
                    TotalPreorder(ground, tuple(map(tuple, rows)), good.utility_values)

    def test_index_reads_every_ground_point(self):
        ground = FinitePointSet.build([(2, 1), (0, 0), (1, 3)])
        rel = FiniteRelation(ground, ((True,) * 3,) * 3)
        assert [rel.index(p) for p in ground.points] == [0, 1, 2]
        with pytest.raises(ValueError, match="not in the ground set"):
            rel.index((F(1), F(1)))
        with pytest.raises(ValueError, match="not in the ground set"):
            rel.index([F(2), F(1)])  # unhashable, and not a ground point

    def test_from_utility_matches_value_comparison(self):
        ground = FinitePointSet.build([(0,), (1,), (2,)])
        values = {(F(0),): F(5), (F(1),): F(5), (F(2),): F(1)}
        pre = TotalPreorder.from_utility(ground, values.__getitem__)
        assert pre.holds((F(0),), (F(1),)) and pre.holds((F(1),), (F(0),))
        assert pre.holds((F(0),), (F(2),)) and not pre.holds((F(2),), (F(0),))

    @settings(max_examples=400, deadline=None)
    @given(related=matrices())
    @example(related=((True, True, False), (False, True, True), (True, False, True)))  # total, intransitive
    @example(related=((True, False), (False, True)))  # transitive, not total
    @example(related=((True, True, False), (False, True, True), (False, False, True)))  # neither
    @example(related=((False,),))  # an empty diagonal entry
    def test_the_rank_rule_matches_the_triple_loop(self, related):
        ground = FinitePointSet.build([(i,) for i in range(len(related))])
        expected = reference_preorder_defect(related)
        try:
            TotalPreorder(ground, related)
        except ValueError as exc:
            assert expected is not None and type(exc) is ValueError
            total = reference_preorder_defect(related, transitivity=False) is None
            transitive = reference_preorder_defect(related, totality=False) is None
            # With both defects the totality pass runs first; the loop could
            # meet either one first.
            assert str(exc) == (expected if total or transitive else "relation is not total")
        else:
            assert expected is None


class TestMaximals:
    def test_top_level_of_a_preorder(self):
        ground = FinitePointSet.build([(0,), (1,), (2,)])
        values = {(F(0),): F(1), (F(1),): F(0), (F(2),): F(1)}
        pre = TotalPreorder.from_utility(ground, values.__getitem__)
        assert maximals(pre, ground).sorted_points() == ((F(0),), (F(2),))

    def test_preorder_rule_matches_the_raw_definition(self):
        rng = random.Random(41)
        for _ in range(30):
            pts = FinitePointSet.build(
                [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(6)]
            )
            pool = [F(k) for k in range(4)]
            values = {p: rng.choice(pool) for p in pts.points}
            pre = TotalPreorder.from_utility(pts, values.__getitem__)
            raw = FiniteRelation(pts, pre.related)
            subset = FinitePointSet(
                tuple(p for p in pts.points if rng.random() < 0.7) or pts.points[:1]
            )
            assert (
                maximals(pre, subset).sorted_points()
                == maximals(raw, subset).sorted_points()
            )

    def test_convexification_can_add_hull_points(self):
        # Upper set at the top level is {0, 2}; its hull contains 1, so the
        # convexified relation makes 1 equivalent to the top.
        ground = FinitePointSet.build([(0,), (1,), (2,)])
        values = {(F(0),): F(1), (F(1),): F(0), (F(2),): F(1)}
        pre = TotalPreorder.from_utility(ground, values.__getitem__)
        assert convexified_maximals(pre, ground).sorted_points() == (
            (F(0),),
            (F(1),),
            (F(2),),
        )

    def test_maximals_always_survive_convexification(self):
        rng = random.Random(43)
        for _ in range(20):
            pts = FinitePointSet.build(
                [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(6)]
            )
            pool = [F(k) for k in range(3)]
            values = {p: rng.choice(pool) for p in pts.points}
            pre = TotalPreorder.from_utility(pts, values.__getitem__)
            assert set(maximals(pre, pts).points) <= set(
                convexified_maximals(pre, pts).points
            )


class TestAgainstReferences:
    def test_random_utility_preorders_with_ties(self):
        rng = random.Random(53)
        for _ in range(150):
            pts, values, subset = random_preorder_case(rng)
            pre = TotalPreorder.from_utility(pts, values.__getitem__)
            ref = reference_from_utility(pts, values.__getitem__)
            assert pre.related == ref.related
            assert pre.utility_values == ref.utility_values
            assert convexified_maximals(pre, subset).points == (
                reference_convexified_maximals(ref, subset).points
            )

    def test_raw_matrices_without_utility_values(self):
        rng = random.Random(59)
        for _ in range(100):
            pts, values, subset = random_preorder_case(rng)
            raw = TotalPreorder(pts, reference_from_utility(pts, values.__getitem__).related)
            assert raw.utility_values is None
            assert convexified_maximals(raw, subset).points == (
                reference_convexified_maximals(raw, subset).points
            )

    def test_hull_verdicts_below_the_first_top_are_the_hull_programs(self, monkeypatch):
        # Each point below the first top element of the subset is asked about
        # conv(U(top)) once, in subset order, through the polyhedron's facets;
        # the polyhedron is built from points of U(top), in its order, and
        # every verdict must be the hull program's on all of U(top), and the
        # kept set the reference's.
        rng = random.Random(61)
        for _ in range(100):
            pts, values, subset = random_preorder_case(rng)
            pre = TotalPreorder.from_utility(pts, values.__getitem__)
            calls: list = []

            def recording(hull, m):
                verdict = poly_contains(hull, m)
                calls.append((m, hull.vertices.points, verdict))
                return verdict

            monkeypatch.setattr(maximals_module, "poly_contains", recording)
            got = convexified_maximals(pre, subset)
            monkeypatch.undo()
            top = max(subset.points, key=values.__getitem__, default=None)
            below = [m for m in subset.points if values[m] < values[top]]
            assert [m for m, _, _ in calls] == below
            upper = pre.upper_set(top) if calls else ()
            for m, vertices, verdict in calls:
                assert vertices == tuple(p for p in upper if p in vertices)
                assert verdict == hull_membership(m, upper).member, (m, upper)
            assert got.points == reference_convexified_maximals(pre, subset).points

    def test_edge_subsets(self):
        # The ground's top level is (0,2) and (2,0) at value 4; the subset
        # below misses it, so its own top level is (1,1) at value 2.
        ground = FinitePointSet.build([(0, 2), (1, 1), (2, 0), (0, 0), (1, 0)])
        values = dict(zip(ground.points, (F(4), F(2), F(4), F(0), F(2))))
        pre = TotalPreorder.from_utility(ground, values.__getitem__)
        ref = reference_from_utility(ground, values.__getitem__)
        raw = TotalPreorder(ground, ref.related)
        below_top = FinitePointSet.build([(0, 0), (1, 1), (1, 0)])
        cases = [below_top, FinitePointSet(()), ground]
        cases += [FinitePointSet((p,)) for p in ground.points]
        for subset in cases:
            for relation in (pre, raw):
                got = convexified_maximals(relation, subset)
                assert got.points == reference_convexified_maximals(relation, subset).points
        assert convexified_maximals(pre, below_top).points == ((F(1), F(1)), (F(1), F(0)))
        assert convexified_maximals(pre, FinitePointSet(())).points == ()

    def test_nonsatiation_on_random_boxes(self):
        # Boxes with positive, negative and off-lattice bounds in one to
        # three dimensions, with tied utility tables as well as the
        # dimension-free built-in utilities.
        rng = random.Random(71)
        for _ in range(120):
            step = F(rng.randint(1, 3), rng.randint(1, 3))
            box = []
            for _ in range(rng.randint(1, 3)):
                lo = F(rng.randint(-3, 4), rng.randint(1, 2))
                box.append((lo, lo + F(rng.randint(0, 6), rng.randint(1, 2))))
            grid = GridDomain(step, tuple(box))
            table = {p: F(rng.randint(0, 3)) for p in grid.points()}
            for utility in (table.__getitem__, linear_utility, min_utility):
                assert check_local_nonsatiation(utility, grid) == (
                    reference_check_local_nonsatiation(utility, grid)
                )

    def test_unknown_subset_point_raises(self):
        ground = FinitePointSet.build([(0,), (1,)])
        pre = TotalPreorder.from_utility(ground, lambda p: p[0])
        with pytest.raises(ValueError, match="not in the ground set"):
            convexified_maximals(pre, FinitePointSet.build([(0,), (7,)]))

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_grid_instances(self, name):
        utility = UTILITIES[name]
        for step in (F(1), F(1, 2)):
            for high in (2, 3, 4):
                grid = square_grid(step, high)
                ground = grid.points()
                ref = reference_from_utility(ground, utility)
                pre = TotalPreorder.from_utility(ground, utility)
                assert pre.related == ref.related
                nonsatiation = reference_check_local_nonsatiation(utility, grid)
                assert check_local_nonsatiation(utility, grid) == nonsatiation
                for price, wealth in (((1, 1), 0), ((1, 1), 2), ((1, 2), 3), ((3, 1), 5), ((1, 1), 9)):
                    prices = PriceSystem.build(price, wealth)
                    budget = FinitePointSet(
                        tuple(p for p in ground if vdot(prices.price, p) <= prices.wealth)
                    )
                    rep = check_convexification_invariance(utility, grid, prices)
                    assert rep.budget.points == budget.points
                    assert rep.maximals_set.points == maximals(ref, budget).points
                    cset = reference_convexified_maximals(ref, budget)
                    assert rep.convexified_set.points == cset.points
                    assert rep.equal == (
                        maximals(ref, budget).sorted_points() == cset.sorted_points()
                    )
                    assert rep.nonsatiated == nonsatiation.satisfied


class TestGridDomain:
    def test_points_and_membership(self):
        grid = GridDomain(F(1, 2), ((F(0), F(1)), (F(0), F(1))))
        assert len(grid.points()) == 9
        assert (F(1, 2), F(1)) in grid
        assert (F(1, 3), F(0)) not in grid  # off the lattice
        assert (F(2), F(0)) not in grid  # outside the box

    def test_a_point_of_another_dimension_is_not_in_the_grid(self):
        grid = GridDomain(F(1), ((F(0), F(2)), (F(0), F(1))))
        assert (F(1), F(1)) in grid
        for p in ((F(1),), (F(1), F(1), F(0)), ()):
            assert p not in grid

    def test_axis_values(self):
        grid = GridDomain(F(1), ((F(0), F(2)), (F(0), F(1))))
        assert grid.axis_values(0) == (F(0), F(1), F(2))
        assert grid.axis_values(1) == (F(0), F(1))

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            GridDomain(F(0), ((F(0), F(1)),))

    def test_count_and_axes_match_the_enumeration(self):
        rng = random.Random(67)
        for _ in range(200):
            step = F(rng.randint(1, 5), rng.randint(1, 4))
            box = []
            for _ in range(rng.randint(1, 3)):
                lo = F(rng.randint(-6, 6), rng.randint(1, 3))
                box.append((lo, lo + F(rng.randint(0, 12), rng.randint(1, 3))))
            grid = GridDomain(step, tuple(box))
            count = 1
            for d in range(grid.dimension):
                assert grid.axis_values(d) == reference_axis_values(grid, d)
                count *= len(reference_axis_values(grid, d))
            assert grid.point_count == count
            if count <= maximals_module._MAX_GRID_POINTS:
                assert len(grid.points()) == count
            else:
                with pytest.raises(LimitError):
                    grid.points()

    def test_huge_grid_is_refused_before_it_is_built(self):
        grid = GridDomain.build(F(1, 1000), [(0, 10**6), (0, 10**6)])
        assert grid.point_count == (10**9 + 1) ** 2
        start = time.perf_counter()
        with pytest.raises(LimitError, match="more than the limit"):
            grid.points()
        with pytest.raises(LimitError):
            check_convexification_invariance(linear_utility, grid, PriceSystem.build((1, 1), 1))
        assert time.perf_counter() - start < 1.0

    def test_empty_axis_makes_an_empty_grid_at_once(self):
        # The second axis lies below zero, so no point is built at all,
        # however long the first axis is.
        grid = GridDomain.build(F(1, 1000), [(0, 10**6), (-3, -1)])
        assert grid.point_count == 0
        assert grid.points().points == ()

    def test_largest_grid_in_use_is_far_below_the_cap(self):
        assert len(square_grid(F(1, 2), 4).points()) == 81
        assert maximals_module._MAX_GRID_POINTS >= 50 * 81


class TestUtilities:
    def test_ratio_utility_frozen_values(self):
        # u(x1,x2) = x1*x2/(x1+1) - 5*x1 + x2.
        assert ratio_utility((F(0), F(2))) == 2  # 0 - 0 + 2
        assert ratio_utility((F(0), F(0))) == 0
        assert ratio_utility((F(1), F(1))) == F(-7, 2)  # 1/2 - 5 + 1
        assert ratio_utility((F(4), F(12))) == F(8, 5)  # 48/5 - 20 + 12

    def test_ratio_utility_rejects_negative_and_wrong_arity(self):
        with pytest.raises(ValueError):
            ratio_utility((F(-1), F(0)))
        with pytest.raises(ValueError):
            ratio_utility((F(1), F(1), F(1)))

    def test_linear_and_min(self):
        assert linear_utility((F(2), F(3))) == 5
        assert min_utility((F(2), F(3))) == 2

    def test_registry_names(self):
        assert sorted(UTILITIES) == ["linear", "min", "ratio"]


class TestBudgetAndDemand:
    def test_budget_enumeration(self):
        # p=(1,1), w=2 on the unit grid keeps exactly the six points with
        # coordinate sum at most two.
        grid = unit_grid(4)
        price = PriceSystem.build((1, 1), 2)
        expected = {
            (F(0), F(0)), (F(0), F(1)), (F(0), F(2)),
            (F(1), F(0)), (F(1), F(1)), (F(2), F(0)),
        }
        assert set(budget_set(grid, price).points) == expected

    def test_a_price_of_another_dimension_is_refused(self):
        grid, prices = unit_grid(4), PriceSystem.build((1,), 2)
        with pytest.raises(ValueError, match="^price dimension does not match the grid$"):
            budget_set(grid, prices)
        with pytest.raises(ValueError, match="^price dimension does not match the grid$"):
            check_boundary_and_antichain(linear_utility, grid, prices, orthant_cone(2))

    def test_integer_pricing_matches_the_fraction_filter(self):
        # Rational prices, steps and wealth, boxes with negative and
        # off-lattice bounds; wealth often sits exactly on a grid point's cost.
        rng = random.Random(53)
        cases = set()
        for _ in range(300):
            dim = rng.randint(1, 3)
            step = F(rng.randint(1, 3), rng.randint(1, 3))
            box = []
            for _ in range(dim):
                lo = F(rng.randint(-3, 3), rng.randint(1, 2))
                box.append((lo, lo + F(rng.randint(0, 8), rng.randint(1, 3))))
            grid = GridDomain(step, tuple(box))
            prices = PriceSystem(
                tuple(F(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(dim)),
                F(rng.randint(0, 20), rng.randint(1, 6)),
            )
            expected = tuple(p for p in grid.points() if vdot(prices.price, p) <= prices.wealth)
            budget = budget_set(grid, prices)
            assert budget.points == expected
            assert check_convexification_invariance(linear_utility, grid, prices).budget == budget
            cases.add(
                "no grid" if not expected and not grid.point_count
                else "nothing affordable" if not expected
                else "all affordable" if len(expected) == grid.point_count
                else "some affordable"
            )
        assert len(cases) == 4

    def test_price_system_validation(self):
        with pytest.raises(ValueError):
            PriceSystem.build((0, 1), 2)  # prices must be strictly positive
        with pytest.raises(ValueError):
            PriceSystem.build((1, 1), -1)  # wealth must be nonnegative

    def test_showcase_demand_is_the_corner(self):
        # Values over the six budget points: (0,0)->0, (0,1)->1, (0,2)->2,
        # (1,0)->-5, (1,1)->-7/2, (2,0)->-10. Unique best: (0,2).
        grid = unit_grid(4)
        price = PriceSystem.build((1, 1), 2)
        assert demand(ratio_utility, grid, price).sorted_points() == ((F(0), F(2)),)

    def test_tied_demand_keeps_all_argmaxes(self):
        grid = unit_grid(2)
        price = PriceSystem.build((1, 1), 2)
        assert demand(linear_utility, grid, price).sorted_points() == (
            (F(0), F(2)),
            (F(1), F(1)),
            (F(2), F(0)),
        )

    def test_demand_against_brute_force(self):
        rng = random.Random(47)
        for _ in range(15):
            grid = unit_grid(rng.randint(2, 4))
            price = PriceSystem.build(
                (rng.randint(1, 3), rng.randint(1, 3)), rng.randint(1, 6)
            )
            name = rng.choice(sorted(UTILITIES))
            utility = UTILITIES[name]
            feasible = [
                p
                for p in grid.points()
                if vdot(price.price, p) <= price.wealth
            ]
            best = max(utility(p) for p in feasible)
            expected = sorted(p for p in feasible if utility(p) == best)
            assert list(demand(utility, grid, price).sorted_points()) == expected


class TestNonsatiation:
    def test_ratio_utility_improves_off_the_upper_faces(self):
        # Raising the second coordinate always helps: the increment is
        # x1/(x1+1) + 1 > 0 per unit step.
        rep = check_local_nonsatiation(ratio_utility, unit_grid(3))
        assert rep.satisfied
        assert rep.violators == ()

    def test_min_utility_stalls_on_the_diagonal(self):
        # At (0,0) and (1,1) no single-coordinate step raises min(x1,x2).
        rep = check_local_nonsatiation(min_utility, unit_grid(2))
        assert not rep.satisfied
        assert sorted(rep.violators) == [(F(0), F(0)), (F(1), F(1))]
        assert (F(2), F(2)) in rep.exempt  # upper corner is exempt, not failed


class TestConvexificationInvariance:
    def test_utility_is_evaluated_once_per_grid_point(self):
        for grid in (unit_grid(3), square_grid(F(1, 2), 2)):
            seen = []

            def counting(x):
                seen.append(x)
                return ratio_utility(x)

            rep = check_convexification_invariance(counting, grid, PriceSystem.build((1, 1), 2))
            assert rep.equal
            assert sorted(seen) == sorted(grid.points().points)

    def test_no_rank_matrix_is_built_twice(self, monkeypatch):
        # The check reads ranks and builds no matrix at all; a preorder built
        # from a utility builds its matrix once, agreeing with the values by
        # construction, so no second build compares the matrix with itself.
        # A matrix passed with `utility_values` is still checked (TestRelations).
        calls = []
        real = maximals_module._rank_matrix
        monkeypatch.setattr(maximals_module, "_rank_matrix", lambda ranks: calls.append(ranks) or real(ranks))
        grid = square_grid(F(1, 2), 4)
        for utility in (ratio_utility, linear_utility, min_utility):
            calls.clear()
            check_convexification_invariance(utility, grid, PriceSystem.build((1, 1), 3))
            assert calls == []
            calls.clear()
            built = TotalPreorder.from_utility(grid.points(), utility)
            assert len(calls) == 1
            assert built == reference_from_utility(grid.points(), utility)

    def test_empty_budget(self):
        grid = GridDomain(F(1), ((F(1), F(3)), (F(1), F(3))))
        rep = check_convexification_invariance(linear_utility, grid, PriceSystem.build((1, 1), 1))
        assert rep.budget.points == rep.maximals_set.points == rep.convexified_set.points == ()
        assert rep.equal
        assert rep.nonsatiated

    def test_showcase_instance(self):
        grid = unit_grid(4)
        price = PriceSystem.build((1, 1), 2)
        rep = check_convexification_invariance(ratio_utility, grid, price)
        assert rep.equal
        assert rep.nonsatiated
        assert rep.maximals_set.sorted_points() == ((F(0), F(2)),)
        assert rep.convexified_set.sorted_points() == ((F(0), F(2)),)
        assert len(rep.budget) == 6

    def test_linear_ties_survive_convexification(self):
        grid = unit_grid(2)
        price = PriceSystem.build((1, 1), 2)
        rep = check_convexification_invariance(linear_utility, grid, price)
        assert rep.equal
        assert len(rep.maximals_set) == 3

    def test_nonsatiation_verdict_stops_at_the_first_violator(self, monkeypatch):
        # min is flat around the origin, so position 0 is a violator and the
        # verdict reads no further; `check_local_nonsatiation` reads it all.
        pulled = []
        scan = maximals_module._nonsatiation

        def counting(grid, ranks):
            for item in scan(grid, ranks):
                pulled.append(item)
                yield item

        monkeypatch.setattr(maximals_module, "_nonsatiation", counting)
        grid = unit_grid(4)
        assert not check_convexification_invariance(min_utility, grid, PriceSystem.build((1, 1), 4)).nonsatiated
        assert pulled == [(0, False)]
        pulled.clear()
        rep = check_local_nonsatiation(min_utility, grid)
        assert len(pulled) == len(rep.violators) + len(rep.exempt) == 4 + 9


@st.composite
def upper_sets(draw):
    """A grid of 0..k in dimension 2 or 3 (k at most 4 and 3) and one of its
    upper sets: the points whose drawn utility value reaches a drawn level.
    Returns the grid's points and the upper set's, both as `Fraction`s."""
    d = draw(st.integers(2, 3))
    high = draw(st.integers(1, 4 if d == 2 else 3))
    grid = GridDomain.build(1, [(0, high)] * d).points().points
    values = [draw(st.integers(0, 5)) for _ in grid]
    level = draw(st.sampled_from(values))
    return grid, [p for p, v in zip(grid, values) if v >= level]


class TestAxisExtremes:
    """The invariance hull is built from the points of U(s*) that are the
    least or the greatest of U(s*) on every axis-parallel line through them."""

    def test_a_full_square_keeps_its_corners(self):
        square = GridDomain.build(1, [(0, 2), (0, 2)]).points().points
        assert maximals_module._axis_extremes(square) == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_a_point_between_two_others_goes_and_every_line_end_stays(self):
        # x + y >= 2 on 0..2: (1, 2) lies between (0, 2) and (2, 2), and (2, 1)
        # between (2, 0) and (2, 2); (1, 1) ends both of its lines, so it stays
        # although it is no vertex.
        upper = [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        assert maximals_module._axis_extremes(upper) == ((0, 2), (1, 1), (2, 0), (2, 2))
        assert maximals_module._axis_extremes([(3,), (1,), (2,)]) == ((3,), (1,))

    @settings(max_examples=60, deadline=None)
    @given(upper_sets())
    def test_the_filtered_hull_gives_every_verdict_of_the_whole_upper_set(self, case):
        grid, upper = case
        kept = maximals_module._axis_extremes(upper)
        assert set(kept) <= set(upper)
        whole = Polyhedron(FinitePointSet(tuple(upper)), ())
        filtered = Polyhedron(FinitePointSet(kept), ())
        assert [poly_contains(filtered, p) for p in grid] == [poly_contains(whole, p) for p in grid]

    def test_the_invariance_check_on_a_3d_grid_solves_no_lp(self, monkeypatch):
        # U(s*) on 0..7^3 fills R^3 (52 axis-extreme points); its hull gets
        # facets, so no budget point below the top asks a program.
        grid = GridDomain.build(1, [(0, 7)] * 3)
        prices = PriceSystem.build((1, 1, 1), 10)
        ground = grid.points()
        budget = FinitePointSet(tuple(p for p in ground if vdot(prices.price, p) <= prices.wealth))
        ref = reference_from_utility(ground, linear_utility)
        expected = reference_convexified_maximals(ref, budget)

        def no_lp(lp):
            raise AssertionError("the invariance check solved a linear program")

        monkeypatch.setattr(linalg_module, "lp_solve", no_lp)
        report = check_convexification_invariance(linear_utility, grid, prices)
        assert report.budget.points == budget.points
        assert report.convexified_set.points == expected.points == report.maximals_set.points
        assert report.equal and len(expected) == 48

    @pytest.mark.parametrize(
        "utility, dimension, prices",
        [(linear_utility, 3, ((1, 2, 1), 5)), (min_utility, 3, ((1, 2, 1), 5)), (ratio_utility, 2, ((1, 2), 6))],
    )
    def test_the_invariance_report_is_the_unfiltered_hulls(self, utility, dimension, prices, monkeypatch):
        grid = GridDomain.build(1, [(0, 4)] * dimension)
        prices = PriceSystem.build(*prices)
        report = check_convexification_invariance(utility, grid, prices)
        monkeypatch.setattr(maximals_module, "_axis_extremes", tuple)
        assert check_convexification_invariance(utility, grid, prices) == report


class TestBoundaryAndAntichain:
    def test_showcase_report(self):
        grid = unit_grid(4)
        price = PriceSystem.build((1, 1), 2)
        rep = check_boundary_and_antichain(ratio_utility, grid, price, orthant_cone(2))
        assert rep.on_boundary  # 1*0 + 1*2 == 2 == wealth exactly
        assert rep.antichain_orthant
        assert rep.antichain_cone
        assert rep.demand_set.sorted_points() == ((F(0), F(2)),)

    def test_misaligned_wealth_is_refused(self):
        grid = unit_grid(2)
        price = PriceSystem.build((2, 2), 1)  # no grid point satisfies 2x+2y=1
        with pytest.raises(ValueError, match="misses the grid"):
            check_boundary_and_antichain(ratio_utility, grid, price, orthant_cone(2))

    def test_cone_outside_the_orthant_is_refused(self):
        grid = unit_grid(2)
        price = PriceSystem.build((1, 1), 2)
        skew = Cone.build(2, [[1, -1]], True)
        with pytest.raises(ValueError, match="orthant"):
            check_boundary_and_antichain(ratio_utility, grid, price, skew)


@st.composite
def shifted_grid_cases(draw):
    """A grid in dimension 1 to 3 with step 1/2 or 2/3 and a box whose lower
    bounds lie above zero (so no axis index range starts at 0), prices with
    denominators 1 or 2, a wealth that is a grid point's cost, or that cost
    plus a small fraction (usually leaving wealth·m/step off the integers,
    with its floor still a grid point's w·k), and a tied table utility with
    values 0 and 1."""
    dimension = draw(st.integers(1, 3))
    step = draw(st.sampled_from((F(1, 2), F(2, 3))))
    most = (7, 4, 3)[dimension - 1]
    box = []
    for _ in range(dimension):
        lo = F(draw(st.integers(1, 6)), 3)
        box.append((lo, lo + step * draw(st.integers(0, most))))
    grid = GridDomain(step, tuple(box))
    points = grid.points().points
    price = tuple(F(draw(st.integers(1, 4)), draw(st.integers(1, 2))) for _ in range(dimension))
    anchor = draw(st.sampled_from(points)) if points else (ZERO,) * dimension
    extra = draw(st.sampled_from((ZERO, ZERO, ZERO, F(1, 7), F(1, 5))))
    prices = PriceSystem(price, vdot(price, anchor) + extra)
    values = draw(st.lists(st.integers(0, 1), min_size=len(points), max_size=len(points)))
    table = dict(zip(points, map(F, values)))
    return grid, prices, table.__getitem__


class TestMaximizerConvexity:
    def test_showcase_singleton_passes(self):
        grid = unit_grid(4)
        price = PriceSystem.build((1, 1), 2)
        assert check_maximizer_convexity(ratio_utility, grid, price)

    def test_tied_linear_demand_passes(self):
        # Demand {(0,2),(1,1),(2,0)} contains the whole lattice segment.
        grid = unit_grid(2)
        price = PriceSystem.build((1, 1), 2)
        assert check_maximizer_convexity(linear_utility, grid, price)

    def test_bimodal_utility_fails(self):
        # (x1-x2)^2 peaks at both corners; the lattice midpoint (1,1) is
        # feasible but not demanded, so the surrogate must fail.
        def spread(x):
            return (x[0] - x[1]) ** 2

        grid = unit_grid(2)
        price = PriceSystem.build((1, 1), 2)
        assert demand(spread, grid, price).sorted_points() == (
            (F(0), F(2)),
            (F(2), F(0)),
        )
        assert not check_maximizer_convexity(spread, grid, price)

    def test_comparable_pair_with_a_gap_fails_the_segment_scan(self):
        # (x1-1)^2 - x2 is 1 at (0,0) and (2,0) and at most 0 elsewhere in
        # the budget. The two demand points are orthant-comparable, so
        # `is_grid_antichain_convex` passes them; the segment scan finds (1,0).
        def valley(x):
            return (x[0] - 1) ** 2 - x[1]

        grid = unit_grid(2)
        price = PriceSystem.build((1, 1), 2)
        assert demand(valley, grid, price).sorted_points() == ((F(0), F(0)), (F(2), F(0)))
        assert not check_maximizer_convexity(valley, grid, price)

    def test_grid_is_built_once_however_many_pairs(self, monkeypatch):
        # Tied linear demand on the line x1 + x2 = 2: 3 points on the unit
        # grid, 5 on the half grid, so 3 and 10 pairs to scan.
        built = []
        original = GridDomain.points

        def counting_points(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(GridDomain, "points", counting_points)
        price = PriceSystem.build((1, 1), 2)
        counts = []
        for grid in (unit_grid(2), square_grid(F(1, 2), 2)):
            built.clear()
            assert check_maximizer_convexity(linear_utility, grid, price)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_the_segment_scan_alone_matches_the_two_pass_reference(self):
        # 1,024 random aligned grids: every cone kind, with and without the
        # origin, and every denominator from 2 to 5 for the antichain pass.
        rng = random.Random("maximizer-convexity")
        kinds = list(KINDS.values())
        verdicts = []
        for i in range(1024):
            make, _ = kinds[i % len(kinds)]
            cone = make(rng, 2 + (i // 64) % 2, contains_zero=(i // 32) % 2 == 0)
            denominator = 2 + (i // len(kinds)) % 4
            grid, prices, utility = random_aligned_case(rng, cone.dimension)
            got = check_maximizer_convexity(utility, grid, prices)
            assert got == reference_check_maximizer_convexity(utility, grid, prices, cone, denominator)
            dset = demand(utility, grid, prices)
            antichain = is_grid_antichain_convex(dset, cone, denominator, step=grid.step)
            assert antichain or not got  # the pass never refutes what the scan accepts
            verdicts.append((got, antichain))
        assert verdicts.count((True, True)) > 100 and verdicts.count((False, True)) > 100
        assert (False, False) in verdicts

    @settings(max_examples=300, deadline=None)
    @given(case=shifted_grid_cases())
    def test_the_lattice_walk_matches_the_reference_on_shifted_grids(self, case):
        grid, prices, utility = case
        try:
            expected = reference_check_maximizer_convexity(
                utility, grid, prices, orthant_cone(grid.dimension), 2
            )
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                check_maximizer_convexity(utility, grid, prices)
            return
        assert check_maximizer_convexity(utility, grid, prices) == expected
        budget = [p for p in grid.points() if vdot(prices.price, p) <= prices.wealth]
        best = max(map(utility, budget))
        assert demand(utility, grid, prices).points == tuple(p for p in budget if utility(p) == best)

    def test_tied_demand_at_the_cap_passes_in_bounded_time(self):
        # 64 tied points on x1 + x2 = 63: 2,016 pairs, and 4,032 grid points
        # outside the demand that the walk never reads.
        grid = GridDomain.build(1, [(0, 63), (0, 63)])
        assert grid.point_count == maximals_module._MAX_GRID_POINTS
        start = time.process_time()
        assert check_maximizer_convexity(linear_utility, grid, PriceSystem.build((1, 1), 63))
        assert time.process_time() - start < 5.0

    def test_one_midpoint_left_out_at_the_cap_fails(self):
        # The same tied line with (32, 31) valued one lower: it lies between
        # (31, 32) and (33, 30), which stay demanded.
        gap = (F(32), F(31))

        def dented(x):
            return linear_utility(x) - (x == gap)

        grid = GridDomain.build(1, [(0, 63), (0, 63)])
        prices = PriceSystem.build((1, 1), 63)
        assert len(demand(dented, grid, prices)) == 63
        start = time.process_time()
        assert not check_maximizer_convexity(dented, grid, prices)
        assert time.process_time() - start < 5.0


@settings(max_examples=300, deadline=None)
@given(case=shifted_grid_cases())
def test_the_boundary_verdict_matches_the_price_dot_product_on_shifted_grids(case):
    # On the budget line exactly when price . p = wealth, one `Fraction` dot
    # product per demand point: the form the integer rule w.k = B replaced.
    grid, prices, utility = case
    cone = orthant_cone(grid.dimension)
    if not any(vdot(prices.price, p) == prices.wealth for p in grid.points()):
        with pytest.raises(ValueError, match="^budget line misses the grid; pick aligned prices and wealth$"):
            check_boundary_and_antichain(utility, grid, prices, cone)
        return
    report = check_boundary_and_antichain(utility, grid, prices, cone)
    assert report.demand_set == demand(utility, grid, prices)
    assert report.on_boundary == all(vdot(prices.price, p) == prices.wealth for p in report.demand_set.points)


class TestQuasiconcavity:
    def test_incomparable_sampling_holds_on_the_orthant(self):
        grid = GridDomain(F(1, 2), ((F(0), F(4)), (F(0), F(4))))
        rep = check_antichain_quasiconcavity(
            ratio_utility, grid, orthant_cone(2), 300, random.Random(1)
        )
        assert rep.holds and rep.violation is None

    def test_trivial_cone_sampling_finds_a_violation(self):
        # With no generators every distinct pair is incomparable, so the
        # same sampler performs plain quasiconcavity checking, and the
        # utility is not plainly quasiconcave on this box.
        trivial = Cone(2, (), True)
        grid = GridDomain(F(1), ((F(0), F(4)), (F(0), F(12))))
        rep = check_antichain_quasiconcavity(
            ratio_utility, grid, trivial, 200, random.Random(0)
        )
        assert not rep.holds
        x, y, lam = rep.violation
        mixed = tuple(lam * a + (1 - lam) * b for a, b in zip(x, y))
        assert ratio_utility(mixed) < min(ratio_utility(x), ratio_utility(y))

    def test_exhaustive_search_fixture(self):
        # Frozen violating triple: u(0,1)=1, u(4,12)=8/5, and the midpoint
        # (2,13/2) evaluates to 13/3 - 10 + 13/2 = 5/6 < 1.
        grid = GridDomain(F(1), ((F(0), F(4)), (F(0), F(12))))
        found = find_quasiconcavity_violation(ratio_utility, grid)
        assert found is not None
        x, y, lam = found
        mixed = tuple(lam * a + (1 - lam) * b for a, b in zip(x, y))
        assert ratio_utility(mixed) < min(ratio_utility(x), ratio_utility(y))
        fixture = ((F(0), F(1)), (F(4), F(12)), F(1, 2))
        fx, fy, flam = fixture
        fmix = tuple(flam * a + (1 - flam) * b for a, b in zip(fx, fy))
        assert ratio_utility(fmix) == F(5, 6)
        assert ratio_utility(fmix) < min(ratio_utility(fx), ratio_utility(fy))

    def test_min_utility_is_quasiconcave_on_samples(self):
        grid = unit_grid(4)
        rep = check_antichain_quasiconcavity(
            min_utility, grid, Cone(2, (), True), 300, random.Random(3)
        )
        assert rep.holds

    @pytest.mark.parametrize("low", [F(1, 2), F(0)])
    def test_a_grid_of_fewer_than_two_points_holds_without_a_sample(self, low):
        # No multiple of 1 in [1/2, 1/2], then the one point (0, 0): no pair to draw.
        grid = GridDomain(F(1), ((low, low), (F(0), F(0))))
        assert grid.point_count == (low == 0)
        rep = check_antichain_quasiconcavity(
            ratio_utility, grid, orthant_cone(2), 10, random.Random(0)
        )
        assert rep == QuasiconcavityReport(True, None)

    def test_exhaustive_search_finds_nothing_on_a_quasiconcave_utility(self):
        # min and the coordinate sum are quasiconcave, so no mix of two grid
        # points falls below both ends.
        grid = GridDomain(F(1, 2), ((F(0), F(2)), (F(0), F(2))))
        for utility in (min_utility, linear_utility):
            assert find_quasiconcavity_violation(utility, grid) is None
