"""The demand-invariance check on integer ranks and grid positions.

`reference_matrix_check` keeps the check's earlier path: the k-by-k
relation matrix of `TotalPreorder._from_values`, maximals and convexified
maximals read from that matrix through point positions, and the
nonsatiation scan on `Fraction` values. The differential tests require the
whole `InvarianceReport` of the package to equal it. The integer utilities
are compared with their operator forms, and the rank rule for preorders
given by a matrix with the definitional test.
"""

import importlib
import random
import tracemalloc
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedom.linalg import ZERO, vdot
from conedom.maximals import (
    FiniteRelation,
    GridDomain,
    InvarianceReport,
    NonsatiationReport,
    PriceSystem,
    TotalPreorder,
    UTILITIES,
    budget_set,
    check_convexification_invariance,
    check_local_nonsatiation,
    convexified_maximals,
    demand,
    linear_utility,
    maximals,
    min_utility,
    ratio_utility,
)
from conedom.sets import FinitePointSet, Polyhedron, poly_contains
from test_maximals import reference_convexified_maximals, reference_from_utility

maximals_module = importlib.import_module("conedom.maximals")
sets_module = importlib.import_module("conedom.sets")


def matrix_maximals(relation, subset):
    """Members related to every member, read from the matrix."""
    idx = [relation.index(p) for p in subset.points]
    rel = relation.related
    return FinitePointSet(tuple(p for i, p in zip(idx, subset.points) if all(rel[i][j] for j in idx)))


def matrix_convexified_maximals(relation, subset):
    """The first top by a scan of matrix entries, the hull of its upper set
    (a matrix column), and `poly_contains` for every member below it."""
    rel = relation.related
    idx = [relation.index(p) for p in subset.points]
    if not idx:
        return FinitePointSet(())
    top = idx[0]
    for i in idx[1:]:
        if not rel[top][i]:
            top = i
    hull = Polyhedron(FinitePointSet(relation.upper_set(relation.ground.points[top])), ())
    return FinitePointSet(tuple(m for i, m in zip(idx, subset.points) if rel[i][top] or poly_contains(hull, m)))


def value_nonsatiation(grid, points, values):
    """The neighbor scan on `Fraction` values, strides from the axis sizes."""
    sizes = [len(grid.axis_values(d)) for d in range(grid.dimension)]
    strides = [1] * len(sizes)
    for d in range(len(sizes) - 2, -1, -1):
        strides[d] = strides[d + 1] * sizes[d + 1]
    violators, exempt = [], []
    for i, ks in enumerate(product(*map(range, sizes))):
        if any(k == n - 1 for k, n in zip(ks, sizes)):
            exempt.append(points[i])
            continue
        up = values[i]
        if not any(values[i + s] > up or (k > 0 and values[i - s] > up) for k, s in zip(ks, strides)):
            violators.append(points[i])
    return NonsatiationReport(not violators, tuple(violators), tuple(exempt))


def reference_matrix_check(utility, grid, prices) -> InvarianceReport:
    ground = grid.points()
    values = tuple(map(utility, ground.points))
    relation = TotalPreorder._from_values(ground, values)
    budget = FinitePointSet(tuple(p for p in ground.points if vdot(prices.price, p) <= prices.wealth))
    mset = matrix_maximals(relation, budget)
    cset = matrix_convexified_maximals(relation, budget)
    return InvarianceReport(
        budget=budget,
        maximals_set=mset,
        convexified_set=cset,
        equal=mset.sorted_points() == cset.sorted_points(),
        nonsatiated=value_nonsatiation(grid, ground.points, values).satisfied,
    )


def outcome(f, *args):
    """f's value, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


STEPS = (F(1), F(1, 2), F(2, 3))
# Lower bounds above zero, and bounds whose axis holds no multiple of the
# step: [-1, -1] lies below the orthant, [1/3, 2/3] misses every step.
LOWS = (F(-1), F(0), F(1, 3), F(1, 2), F(1))
WIDTHS = (F(0), F(1, 3), F(1), F(3, 2), F(2))
BUDGETS = ("empty", "one point", "full", "some")


def wealth_for(kind: str, grid: GridDomain, price, rng: random.Random) -> F:
    """Wealth whose budget is empty (below the cheapest point's cost, when
    that is positive), the cheapest point alone (the lowest corner is the
    unique cheapest point), the whole grid, or up to a random point's cost."""
    costs = sorted(vdot(price, p) for p in grid.points())
    if not costs:
        return F(rng.randint(0, 3))
    if kind == "empty":
        return max(ZERO, costs[0] - F(1, 3))
    if kind == "one point":
        return costs[0]
    if kind == "full":
        return costs[-1]
    return rng.choice(costs)


@st.composite
def grid_cases(draw):
    dimension = draw(st.integers(1, 3))
    step = draw(st.sampled_from(STEPS))
    lows = draw(st.lists(st.sampled_from(LOWS), min_size=dimension, max_size=dimension))
    box = tuple((lo, lo + draw(st.sampled_from(WIDTHS))) for lo in lows)
    grid = GridDomain(step, box)
    price = tuple(draw(st.sampled_from((F(1), F(1, 2), F(3, 2), F(2)))) for _ in range(dimension))
    rng = random.Random(draw(st.integers(0, 2**32)))
    prices = PriceSystem(price, wealth_for(draw(st.sampled_from(BUDGETS)), grid, price, rng))
    names = ["linear", "min", "table"] + (["ratio"] if dimension == 2 else [])
    name = draw(st.sampled_from(names))
    if name == "table":  # few values, so ties are common
        pool = [F(k, rng.randint(1, 2)) for k in range(rng.randint(1, 3))]
        utility = {p: rng.choice(pool) for p in grid.points()}.__getitem__
    else:
        utility = UTILITIES[name]
    return utility, grid, prices


class TestAgainstTheMatrixPath:
    @settings(max_examples=300, deadline=None)
    @given(grid_cases())
    def test_the_whole_report_equals_the_matrix_path(self, case):
        utility, grid, prices = case
        assert check_convexification_invariance(utility, grid, prices) == reference_matrix_check(utility, grid, prices)

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_every_budget_kind_on_a_grid_above_zero(self, name):
        # The box starts at 1/2 on both axes, so the cheapest point costs more
        # than zero and the "empty" wealth leaves nothing.
        grid = GridDomain(F(1, 2), ((F(1, 2), F(3)), (F(1, 2), F(2))))
        rng = random.Random(name)
        sizes = []
        for kind in BUDGETS:
            prices = PriceSystem((F(1), F(3, 2)), wealth_for(kind, grid, (F(1), F(3, 2)), rng))
            rep = check_convexification_invariance(UTILITIES[name], grid, prices)
            assert rep == reference_matrix_check(UTILITIES[name], grid, prices)
            sizes.append(len(rep.budget))
        assert sizes[:3] == [0, 1, grid.point_count] and 0 < sizes[3] <= grid.point_count

    def test_without_facets_the_hull_program_decides(self, monkeypatch):
        # Polyhedron.facets is None above the facet work bound; then every
        # point below the top goes to `poly_contains` and its hull program.
        rng = random.Random(83)
        cases = []
        for name in sorted(UTILITIES):
            for step in STEPS:
                grid = GridDomain(step, ((F(0), F(2)), (F(1, 2), F(3))))
                price = (F(1), F(rng.randint(1, 3)))
                cases.append((UTILITIES[name], grid, PriceSystem(price, wealth_for("some", grid, price, rng))))
        expected = [reference_matrix_check(*case) for case in cases]
        asked = []
        real = sets_module.hull_membership

        def counting(*args):
            asked.append(args[0])
            return real(*args)

        monkeypatch.setattr(Polyhedron, "facets", property(lambda self: None))
        monkeypatch.setattr(sets_module, "hull_membership", counting)
        assert [check_convexification_invariance(*case) for case in cases] == expected
        below = sum(len(rep.budget) - len(rep.maximals_set) for rep in expected)
        assert len(asked) == below > 0

    def test_the_check_reads_no_position_dict_and_no_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the check must not read this")

        monkeypatch.setattr(FinitePointSet, "position", property(refuse))
        monkeypatch.setattr(maximals_module, "_rank_matrix", refuse)
        grid = GridDomain(F(1, 2), ((F(0), F(3)), (F(0), F(3))))
        for name in sorted(UTILITIES):
            rep = check_convexification_invariance(UTILITIES[name], grid, PriceSystem.build((1, 2), 4))
            assert len(rep.budget) > len(rep.maximals_set) > 0


class TestIntegerUtilities:
    fractions = st.fractions(min_value=-30, max_value=30, max_denominator=40)

    @given(st.lists(fractions, min_size=0, max_size=4))
    @example([F(0), F(2)])
    @example([F(-1), F(0)])
    @example([F(1, 3), F(-1, 7)])
    def test_ratio_utility_is_its_operator_form(self, x):
        def operator_form(x):
            if len(x) != 2:
                raise ValueError("ratio utility is bivariate")
            x1, x2 = x
            if x1 < 0 or x2 < 0:
                raise ValueError("ratio utility requires nonnegative coordinates")
            return x1 * x2 / (x1 + 1) - 5 * x1 + x2

        got = outcome(ratio_utility, tuple(x))
        assert got == outcome(operator_form, tuple(x))
        assert isinstance(got, (F, tuple))

    @given(st.lists(fractions | st.integers(-50, 50), min_size=0, max_size=4))
    def test_linear_utility_is_its_operator_form(self, x):
        got = linear_utility(tuple(x))
        assert type(got) is F and got == sum(x, ZERO)


class TestPreordersGivenByAMatrix:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_the_rank_rule_is_the_definitional_test(self, size, levels, rng):
        ground = FinitePointSet.build([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(size)])
        values = {p: F(rng.randrange(levels), rng.randint(1, 2)) for p in ground.points}
        matrix = reference_from_utility(ground, values.__getitem__).related
        preorder = TotalPreorder(ground, matrix)
        ranks = maximals_module._preorder_ranks(preorder)
        assert all((ri >= rj) == matrix[i][j] for i, ri in enumerate(ranks) for j, rj in enumerate(ranks))
        definitional = FiniteRelation(ground, matrix)
        subset = FinitePointSet(tuple(p for p in ground.points if rng.random() < 0.6))
        assert maximals(preorder, subset) == maximals(definitional, subset)
        assert convexified_maximals(preorder, subset) == reference_convexified_maximals(preorder, subset)


class TestAtTheGridCap:
    def test_a_64_by_64_ratio_check_builds_no_matrix_and_stays_small(self, monkeypatch):
        # The matrix path held a 4,096-by-4,096 matrix here (a tracemalloc
        # peak over 100 MB); the ranks and positions need about 1 MB.
        def refuse(ranks):
            raise AssertionError("no rank matrix at the cap")

        monkeypatch.setattr(maximals_module, "_rank_matrix", refuse)
        grid = GridDomain(F(1), ((F(0), F(63)), (F(0), F(63))))
        assert grid.point_count == maximals_module._MAX_GRID_POINTS
        tracemalloc.start()
        try:
            rep = check_convexification_invariance(ratio_utility, grid, PriceSystem.build((1, 2), 90))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        # u(2, 44) = 88/3 - 10 + 44 = 190/3 is the one best affordable point.
        assert rep.maximals_set == rep.convexified_set == demand(ratio_utility, grid, PriceSystem.build((1, 2), 90))
        assert rep.maximals_set.points == ((F(2), F(44)),)
        assert rep.equal and rep.nonsatiated
        assert len(rep.budget) == sum(min(63, (90 - a) // 2) + 1 for a in range(64))

    def test_an_empty_axis_leaves_a_long_axis_unread(self):
        # A million steps on the first axis and none on the second: the grid
        # is empty, and no index tuple of the first axis is formed.
        grid = GridDomain.build(1, [(0, 10**6), (-3, -1)])
        prices = PriceSystem.build((1, 1), 5)
        tracemalloc.start()
        try:
            rep = check_convexification_invariance(linear_utility, grid, prices)
            assert budget_set(grid, prices).points == ()
            assert check_local_nonsatiation(min_utility, grid) == NonsatiationReport(True, (), ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert rep == InvarianceReport(FinitePointSet(()), FinitePointSet(()), FinitePointSet(()), True, True)
