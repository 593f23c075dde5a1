"""Disjointness certificates and separating functionals.

Each verdict is re-derived in the test body from the returned numbers:
bounds are recomputed as exact dot products over the vertex lists, gaps
are compared as rationals, and sign conditions are checked generator by
generator.
"""

import random
from fractions import Fraction as F

import pytest

from conedom import linalg, separation
from conedom.cones import Cone
from conedom.instances import (
    rand_bounded_disjoint_pair,
    rand_disjoint_pair,
    rand_pointed_cone,
)
from conedom.linalg import LpResult, LpStatus, hull_membership, lp_solve, vadd, vdot, vscale
from conedom.separation import (
    DisjointnessResult,
    SeparationResult,
    hulls_disjoint,
    proper_separator,
    separator_sign_check,
    strict_separator,
    validate_common_point,
    validate_disjointness,
    validate_separation,
)
from conedom.sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    Polyhedron,
    in_relative_interior,
    materialize,
    poly_contains,
    upward_hull,
)

ORTHANT = Cone.build(2, [[1, 0], [0, 1]], True)


def assert_disjoint_certificate(x, y, res):
    pts = materialize(y).points if isinstance(y, DecomposableSet) else y.points
    f = res.functional
    assert all(vdot(f, v) <= res.x_bound for v in x.vertices.points)
    assert all(vdot(f, r) <= 0 for r in x.rays)
    assert all(vdot(f, p) >= res.y_bound for p in pts)
    assert res.x_bound < res.y_bound


class TestHullsDisjoint:
    def test_disjoint_with_certificate(self):
        x = Polyhedron.build([(3, 3)], [(1, 0), (0, 1)])
        y = FinitePointSet.build([(0, 0), (1, 0), (0, 1)])
        res = hulls_disjoint(x, y)
        assert res.disjoint
        assert_disjoint_certificate(x, y, res)

    def test_overlap_returns_a_common_point(self):
        x = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        for y in (FinitePointSet.build([(1, 1), (2, 2)]), FinitePointSet.build([(2, 3)])):
            res = hulls_disjoint(x, y)
            assert not res.disjoint
            assert poly_contains(x, res.common_point)
            assert hull_membership(res.common_point, y.points).member

    def test_decomposable_second_set(self):
        x = Polyhedron.build([(10, 10)], [(1, 0), (0, 1)])
        c1 = ChainSet.build([(0, 0), (1, 1)], ORTHANT)
        c2 = ChainSet.build([(0, 0), (2, 3)], ORTHANT)
        y = DecomposableSet((c1, c2))
        res = hulls_disjoint(x, y)
        assert res.disjoint
        assert_disjoint_certificate(x, y, res)

    def test_touching_sets_are_not_disjoint(self):
        x = Polyhedron.build([(1, 1)], [(1, 0), (0, 1)])
        y = FinitePointSet.build([(0, 0), (2, 2)])
        res = hulls_disjoint(x, y)
        assert not res.disjoint
        assert res.common_point is not None

    def test_common_point_validator(self):
        x = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        y = FinitePointSet.build([(1, 1), (2, 2)])
        assert validate_common_point(hulls_disjoint(x, y).common_point, x, y) == []
        assert validate_common_point((F(3), F(3)), x, y) == ["common point is outside the second hull"]
        assert validate_common_point((F(-1), F(-1)), x, y) == [
            "common point is outside the first hull",
            "common point is outside the second hull",
        ]
        assert validate_common_point((F(1),), x, y) == ["common point does not match the sets' dimension"]
        # The second set's hull is that of its materialized sums.
        chains = DecomposableSet(
            (ChainSet.build([(0, 0), (1, 1)], ORTHANT), ChainSet.build([(0, 0), (2, 3)], ORTHANT))
        )
        assert validate_common_point((F(3), F(4)), x, chains) == []
        assert validate_common_point((F(3), F(3)), x, chains) == ["common point is outside the second hull"]

    def test_dimension_mismatch(self):
        x = Polyhedron.build([(0, 0)])
        y = FinitePointSet.build([(1, 1, 1)])
        with pytest.raises(ValueError):
            hulls_disjoint(x, y)

    def test_random_constructed_pairs_verify(self):
        rng = random.Random(211)
        for _ in range(25):
            x, y, _draw = rand_disjoint_pair(rng, 2, 3, 2, 4)
            res = hulls_disjoint(x, y)
            assert res.disjoint
            assert_disjoint_certificate(x, y, res)


class TestStrictSeparator:
    def test_integer_functional_with_unit_gap(self):
        x = Polyhedron.build([(3, 3)], [(1, 0), (0, 1)])
        y = Polyhedron.build([(0, 0), (1, 0)])
        res = strict_separator(x, y)
        f = res.functional
        assert all(c.denominator == 1 for c in f)
        assert any(c != 0 for c in f)
        assert max(vdot(f, v) for v in x.vertices.points) == res.sup_x
        assert min(vdot(f, w) for w in y.vertices.points) == res.inf_y
        assert all(vdot(f, r) <= 0 for r in x.rays)
        assert res.inf_y - res.sup_x >= 1
        assert res.kind == "strictly_separated"
        assert separator_sign_check(f, ORTHANT)

    def test_intersecting_sets_are_refused(self):
        x = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        y = Polyhedron.build([(1, 1)])
        with pytest.raises(ValueError, match="intersect"):
            strict_separator(x, y)

    def test_unbounded_second_set_is_refused(self):
        x = Polyhedron.build([(3, 3)])
        y = Polyhedron.build([(0, 0)], [(1, 0)])
        with pytest.raises(ValueError, match="bounded"):
            strict_separator(x, y)

    def test_a_dimension_mismatch_is_refused_before_any_program(self, monkeypatch):
        # Any solve, of the separator's program or of a hull program, would raise TypeError.
        monkeypatch.setattr(separation, "lp_solve", None)
        monkeypatch.setattr(linalg, "lp_solve", None)
        with pytest.raises(ValueError, match="dimension mismatch"):
            strict_separator(Polyhedron.build([(3, 3)]), Polyhedron.build([(0, 0, 0)]))

    def test_an_infeasible_program_on_disjoint_sets_is_an_internal_error(self, monkeypatch):
        x = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        y = Polyhedron.build([(1, 1)])
        monkeypatch.setattr(separation, "hulls_disjoint", lambda *_: DisjointnessResult(True))
        with pytest.raises(RuntimeError, match="infeasible despite disjoint"):
            strict_separator(x, y)

    def test_random_pairs_always_separate(self):
        rng = random.Random(223)
        for _ in range(25):
            x, y, draw = rand_bounded_disjoint_pair(rng, rng.choice((2, 3)), 3, 4)
            res = strict_separator(x, y)
            f = res.functional
            assert all(c.denominator == 1 for c in f)
            assert res.inf_y - res.sup_x >= 1
            assert max(vdot(f, v) for v in x.vertices.points) == res.sup_x
            assert min(vdot(f, w) for w in y.vertices.points) == res.inf_y
            assert separator_sign_check(f, draw.cone)


class TestProperSeparator:
    def test_touching_at_the_boundary(self):
        # X is the orthant; Y reaches X only at the origin, a boundary
        # point, so weak separation with one strict pair must exist.
        x = upward_hull(FinitePointSet.build([(0, 0)]), ORTHANT)
        y = DecomposableSet((ChainSet.build([(-2, -2), (0, 0)], ORTHANT),))
        res = proper_separator(x, y)
        assert res.kind == "properly_separated"
        f = res.functional
        pts = materialize(y).points
        assert res.sup_x == max(vdot(f, v) for v in x.vertices.points)
        assert res.inf_y == min(vdot(f, p) for p in pts)
        wx, wy = res.witness_pair
        assert vdot(f, wx) < vdot(f, wy)
        assert all(vdot(f, r) <= 0 for r in x.rays)

    def test_ray_candidate_on_a_boundary_edge(self):
        # Y lies on X's bottom edge, so no (point, vertex) difference is
        # strict and the ray (0, 1) gives f = (0, -1). Both points of Y tie
        # at f = 0; the lexicographically least one, (0, 0), is the witness.
        x = upward_hull(FinitePointSet.build([(0, 0)]), ORTHANT)
        for order in ([(1, 0), (0, 0)], [(0, 0), (1, 0)]):
            y = DecomposableSet((ChainSet.build(order, ORTHANT),))
            res = proper_separator(x, y)
            assert res == SeparationResult((F(0), F(-1)), F(0), F(0), "properly_separated", ((F(0), F(1)), (F(0), F(0))))

    def test_point_in_the_relative_interior_is_refused(self):
        x = upward_hull(FinitePointSet.build([(0, 0)]), ORTHANT)
        y = DecomposableSet((ChainSet.build([(1, 1)], ORTHANT),))
        with pytest.raises(ValueError, match="relative interior"):
            proper_separator(x, y)

    def test_non_upward_first_set_is_refused(self):
        x = Polyhedron.build([(0, 0), (1, 1)])  # bounded, not upward
        y = DecomposableSet((ChainSet.build([(5, 5)], ORTHANT),))
        with pytest.raises(ValueError, match="upward"):
            proper_separator(x, y)


    def test_upward_only_under_another_cone_is_refused(self):
        # X is upward under the orthant, not under the chain's cone((-1, 1)),
        # and conv Y meets ri(X) at (1/2, 1/2) although neither point of Y does.
        x = upward_hull(FinitePointSet.build([(0, 0)]), ORTHANT)
        y = DecomposableSet((ChainSet.build([(2, -1), (-1, 2)], Cone.build(2, [[-1, 1]], True)),))
        with pytest.raises(ValueError, match="upward"):
            proper_separator(x, y)

    def test_no_sum_is_formed_and_one_program_is_solved(self, monkeypatch):
        # Three 40-point chains: 64,000 sum points, above the materialization cap.
        programs = []

        def refuse(d):
            raise AssertionError("the sum was materialized")

        def record(lp):
            programs.append(lp)
            return lp_solve(lp)

        monkeypatch.setattr(separation, "materialize", refuse)
        monkeypatch.setattr(separation, "lp_solve", record)
        x = upward_hull(FinitePointSet.build([(0, 0)]), ORTHANT)
        y = DecomposableSet(
            tuple(ChainSet.build([(-a * i, -b * i) for i in range(40)], ORTHANT) for a, b in ((1, 1), (2, 1), (1, 3)))
        )
        res = proper_separator(x, y)
        wx, wy = res.witness_pair
        assert len(programs) == 1
        assert vdot(res.functional, wx) < vdot(res.functional, wy)

    def test_self_checks_raise_without_asserts(self, monkeypatch):
        # Both self-checks must hold under `python -O` too.
        x = upward_hull(FinitePointSet.build([(0, 0)]), ORTHANT)
        y = DecomposableSet((ChainSet.build([(-2, -2), (0, 0)], ORTHANT),))
        zero = (F(0),) * 5  # f, a, b and g all zero: no positive optimum
        monkeypatch.setattr(separation, "lp_solve", lambda lp: LpResult(LpStatus.OPTIMAL, F(0), zero))
        with pytest.raises(RuntimeError, match="no proper separator"):
            proper_separator(x, y)
        # A positive optimum whose functional is zero has no strict pair.
        monkeypatch.setattr(separation, "lp_solve", lambda lp: LpResult(LpStatus.OPTIMAL, F(1), zero))
        with pytest.raises(RuntimeError, match="no strict pair"):
            proper_separator(x, y)


# Cones in R^3 that are neither pointed nor full: a line, a half-plane and a plane.
DEGENERATE_CONES = {
    "line": Cone.build(3, [[1, 2, 0], [-1, -2, 0]], True),
    "half-plane": Cone.build(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 1]], True),
    "plane": Cone.build(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], True),
}
AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))


def degenerate_sum(rng, cone):
    """Two or three chains, each a walk from a base point by nonnegative
    multiples of the generators: points of one translate of the cone's
    span, where any two differ by a vector of C or of -C."""
    chains = []
    for _ in range(rng.randint(2, 3)):
        base = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        points = [base]
        for _ in range(rng.randint(0, 3)):
            for g in cone.generators:
                points.append(vadd(points[-1], vscale(F(rng.randint(0, 2)), g)))
        chains.append(ChainSet.build(points, cone))
    return DecomposableSet(tuple(chains))


class TestNonPointedAndRankDeficientCones:
    """Each verdict validates and agrees with the materialized sum: a
    disjointness functional bounds every sum point, a common point lies in
    the hull of the sum points, and a proper separator's bounds and witness
    are read off the sum points."""

    @pytest.mark.parametrize("kind", sorted(DEGENERATE_CONES))
    def test_hulls_disjoint(self, kind):
        rng = random.Random(f"disjoint/{kind}")
        verdicts = set()
        for _ in range(25):
            y = degenerate_sum(rng, DEGENERATE_CONES[kind])
            points = materialize(y).points
            vertices = [vadd(rng.choice(points), tuple(F(rng.randint(-2, 2)) for _ in range(3))) for _ in range(2)]
            x = Polyhedron.build(vertices, rng.sample(AXES, rng.randint(0, 2)))
            res = hulls_disjoint(x, y)
            assert validate_disjointness(res, x, y) == []
            if res.disjoint:
                assert_disjoint_certificate(x, y, res)
            else:
                assert poly_contains(x, res.common_point)
                assert hull_membership(res.common_point, points).member
            verdicts.add(res.disjoint)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", sorted(DEGENERATE_CONES))
    def test_proper_separator(self, kind):
        rng = random.Random(f"proper/{kind}")
        cone = DEGENERATE_CONES[kind]
        refused = separated = 0
        for _ in range(25):
            y = degenerate_sum(rng, cone)
            points = materialize(y).points
            # X is upward under the cone: its generators and one more axis are rays.
            vertex = vadd(rng.choice(points), tuple(F(rng.randint(-1, 1)) for _ in range(3)))
            x = Polyhedron.build([vertex], [*cone.generators, rng.choice(AXES)])
            if any(in_relative_interior(x, p) for p in points):
                with pytest.raises(ValueError, match="relative interior"):
                    proper_separator(x, y)
                refused += 1
                continue
            res = proper_separator(x, y)
            assert validate_separation(res, x, y) == []
            f, (wx, wy) = res.functional, res.witness_pair
            assert res.sup_x == max(vdot(f, v) for v in x.vertices.points)
            assert res.inf_y == min(vdot(f, p) for p in points) >= res.sup_x
            assert all(vdot(f, r) <= 0 for r in x.rays)
            assert poly_contains(x, wx) and wy in points and vdot(f, wx) < vdot(f, wy)
            separated += 1
        assert refused and separated


class TestSeparatorSignCheck:
    def test_nonpositive_on_generators(self):
        assert separator_sign_check((F(-1), F(-1)), ORTHANT)
        assert separator_sign_check((F(0), F(-1)), ORTHANT)
        assert not separator_sign_check((F(1), F(-1)), ORTHANT)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            separator_sign_check((F(1),), ORTHANT)
