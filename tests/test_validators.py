"""The shared certificate validators against the checks they replaced.

`validate_disjointness`, `validate_separation` and `validate_membership`
replaced checks that the CLI's `--verify` and the suite families wrote out
by hand. Those checks live on here as `reference_*`, each over every point
of the materialized sum as before. On seeded tamperings of real
certificates, each validator must accept exactly where its reference
accepts. Every message of each validator is reached below, a forged
membership certificate fails under `python -O`, and the validators read a
sum too large to materialize summand by summand.
"""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conedom
from conedom import linalg, separation
from conedom.cones import Cone, ConeMembership, cone_membership, k_closure, validate_membership
from conedom.instances import (
    rand_bounded_disjoint_pair,
    rand_cone_member,
    rand_disjoint_pair,
    rand_point,
    rand_pointed_cone,
    rand_upward_polyhedron,
)
from conedom.linalg import LimitError, LpResult, LpStatus, hull_membership, vadd, vdot, vscale, vsub
from conedom.separation import (
    DisjointnessResult,
    SeparationResult,
    hulls_disjoint,
    proper_separator,
    strict_separator,
    validate_common_point,
    validate_disjointness,
    validate_separation,
)
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, Polyhedron, materialize

ORTHANT = Cone.build(2, [[1, 0], [0, 1]], True)


# --- the former inline checks ----------------------------------------------------


def reference_disjointness(res, x, y):
    """`hulls-disjoint --verify` and suite family 3, disjoint branch."""
    f = res.functional
    pts = materialize(y).points if isinstance(y, DecomposableSet) else y.points
    return (
        all(vdot(f, v) <= res.x_bound for v in x.vertices.points)
        and all(vdot(f, r) <= 0 for r in x.rays)
        and all(vdot(f, p) >= res.y_bound for p in pts)
        and res.x_bound < res.y_bound
    )


def reference_strict_separation(sep, x, y_poly):
    """Suite family 4, without its sign check against the drawn cone."""
    f = sep.functional
    sup_x = max(vdot(f, v) for v in x.vertices.points)
    inf_y = min(vdot(f, w) for w in y_poly.vertices.points)
    return (
        all(c.denominator == 1 for c in f)
        and any(c != 0 for c in f)
        and all(vdot(f, r) <= 0 for r in x.rays)
        and sep.sup_x == sup_x
        and sep.inf_y == inf_y
        and inf_y - sup_x >= 1
    )


def reference_proper_separation(result, x, y):
    """`separate --kind proper --verify`."""
    f = result.functional
    y_points = materialize(y).points
    sup_x = max(vdot(f, v) for v in x.vertices.points)
    ok = all(vdot(f, r) <= 0 for r in x.rays) and sup_x == result.sup_x
    inf_y = min(vdot(f, w) for w in y_points)
    ok = ok and inf_y == result.inf_y and result.inf_y >= result.sup_x
    if result.witness_pair is not None:
        wx, wy = result.witness_pair
        ok = ok and vdot(f, wx) < vdot(f, wy) and wy in y_points
        ok = ok and hull_membership(wx, x.vertices.points, x.rays).member
    return ok


def reference_membership(cone, v, m):
    """The suite's former `_verified_member` asserts, as a verdict."""
    zero = tuple(F(0) for _ in range(cone.dimension))
    if m.member:
        if m.coefficients is None or not all(c >= 0 for c in m.coefficients):
            return False
        rebuilt = tuple(
            sum((c * g[i] for c, g in zip(m.coefficients, cone.generators)), F(0))
            for i in range(cone.dimension)
        )
        if rebuilt != v:
            return False
        return cone.contains_zero or any(c > 0 for c in m.coefficients) or v != zero
    if m.functional is not None:
        f = m.functional
        if not all(vdot(f, g) >= 0 for g in cone.generators):
            return False
        if v == zero:
            return all(vdot(f, g) > 0 for g in cone.generators)
        return vdot(f, v) < 0
    return True


# --- instances -------------------------------------------------------------------


def touching_pair(rng, dimension, n_vertices, steps):
    """An upward X and a chain sum Y that meets X at most in one vertex v.

    v minimizes the cone draw's guard over X's vertices (ties broken
    lexicographically), so it is an extreme point of X. Chain s holds the
    points base - t * g_s for t in `steps[s]`, with g_s in the closed cone
    and base v for the first chain and 0 for the others. A sum point is
    v - c with c in the closed cone: v itself when c = 0, and outside X
    otherwise, since v would be the midpoint of v - c and v + c. So no
    point of Y lies in ri(X).
    """
    draw = rand_pointed_cone(rng, dimension, contains_zero=rng.random() < 0.5)
    x = rand_upward_polyhedron(rng, draw, n_vertices)
    v = min(x.vertices.points, key=lambda p: (vdot(draw.guard, p), p))
    zero = tuple(F(0) for _ in range(dimension))
    chains = []
    for s, ts in enumerate(steps):
        g = rand_cone_member(rng, k_closure(draw.cone), strict=False)
        chains.append(ChainSet.build([vsub(v if s == 0 else zero, vscale(F(t), g)) for t in ts], draw.cone))
    return x, DecomposableSet(tuple(chains))


STEPS = ((0,), (0,), (0, 1), (1, 2), (0, 1, 2))


def shifted_functionals(f):
    """f with one entry moved by +-1 or +-1/3."""
    for i in range(len(f)):
        for delta in (F(1), F(-1), F(1, 3), F(-1, 3)):
            yield tuple(c + delta if j == i else c for j, c in enumerate(f))


def with_a_ray_flipped(x):
    """X with each of its rays negated in turn."""
    for i in range(len(x.rays)):
        yield Polyhedron(x.vertices, tuple(tuple(-c for c in r) if j == i else r for j, r in enumerate(x.rays)))


def assert_agrees(validator_issues, reference_accepts, counts):
    assert (validator_issues == []) == reference_accepts, validator_issues
    counts[reference_accepts] += 1


# --- tamperings --------------------------------------------------------------------


class TestAgainstTheFormerChecks:
    def test_disjointness(self):
        rng = random.Random(801)
        counts = {True: 0, False: 0}
        for _ in range(25):
            x, y, _draw = rand_disjoint_pair(rng, rng.choice((2, 3)), 3, rng.randint(1, 2), 3)
            res = hulls_disjoint(x, y)
            sup_x = max(vdot(res.functional, v) for v in x.vertices)
            inf_y = min(vdot(res.functional, p) for p in materialize(y))
            cases = [(res, x)]
            cases += [(replace(res, functional=f), x) for f in shifted_functionals(res.functional)]
            cases += [
                (replace(res, x_bound=sup_x - F(1, 3)), x),
                (replace(res, x_bound=res.y_bound), x),
                (replace(res, y_bound=inf_y + F(1, 3)), x),
                (replace(res, y_bound=res.x_bound), x),
            ]
            cases += [(res, flipped) for flipped in with_a_ray_flipped(x)]
            for tampered, x_used in cases:
                assert_agrees(validate_disjointness(tampered, x_used, y), reference_disjointness(tampered, x_used, y), counts)
        assert counts[True] >= 25 and counts[False] >= 25 * 6

    def test_strict_separation(self):
        rng = random.Random(802)
        counts = {True: 0, False: 0}
        for _ in range(25):
            x, y, _draw = rand_bounded_disjoint_pair(rng, rng.choice((2, 3)), 3, rng.randint(2, 4))
            sep = strict_separator(x, y)
            f = sep.functional
            third = tuple(c / 3 for c in f)
            cases = [(sep, x)]
            cases += [(replace(sep, functional=g), x) for g in shifted_functionals(f)]
            cases += [
                (replace(sep, sup_x=sep.sup_x + 1), x),
                (replace(sep, sup_x=sep.inf_y), x),
                (replace(sep, inf_y=sep.inf_y - 1), x),
                (replace(sep, inf_y=sep.sup_x), x),
                (replace(sep, functional=third, sup_x=sep.sup_x / 3, inf_y=sep.inf_y / 3), x),
                (replace(sep, functional=tuple(F(0) for _ in f), sup_x=F(0), inf_y=F(0)), x),
            ]
            cases += [(sep, flipped) for flipped in with_a_ray_flipped(x)]
            for tampered, x_used in cases:
                assert_agrees(
                    validate_separation(tampered, x_used, y), reference_strict_separation(tampered, x_used, y), counts
                )
        assert counts[True] >= 25 and counts[False] >= 25 * 6

    def test_proper_separation(self):
        rng = random.Random(803)
        counts = {True: 0, False: 0}
        for _ in range(20):
            steps = [rng.choice(STEPS) for _ in range(rng.randint(1, 2))]
            x, y = touching_pair(rng, rng.choice((2, 3)), rng.randint(1, 3), steps)
            res = proper_separator(x, y)
            f = res.functional
            wx, wy = res.witness_pair
            below = vsub(x.vertices.points[0], vscale(F(100), x.rays[0]))  # outside the upward X
            cases = [(res, x)]
            cases += [(replace(res, functional=g), x) for g in shifted_functionals(f)]
            cases += [
                (replace(res, sup_x=res.inf_y + 1), x),
                (replace(res, inf_y=res.sup_x - 1), x),
                (replace(res, witness_pair=(wy, wx)), x),
                (replace(res, witness_pair=(below, wy)), x),
                (replace(res, witness_pair=(wx, tuple(c + F(1, 4) for c in wy))), x),
            ]
            cases += [(res, flipped) for flipped in with_a_ray_flipped(x)]
            for tampered, x_used in cases:
                assert_agrees(
                    validate_separation(tampered, x_used, y), reference_proper_separation(tampered, x_used, y), counts
                )
        assert counts[True] >= 20 and counts[False] >= 20 * 6

    def test_membership(self):
        rng = random.Random(804)
        counts = {True: 0, False: 0}
        cones = [
            ORTHANT,
            Cone.build(2, [[1, 0], [0, 1]], False),
            Cone.build(2, [[1, 0], [1, 1], [0, 1]], False),  # dependent generators: the LP path
            Cone.build(2, [[1, 1], [0, 0]], False),  # a zero generator
            Cone.build(2, [[1, 0], [-1, 0]], False),  # a line, not pointed
        ]
        for _ in range(30):
            cones.append(rand_pointed_cone(rng, rng.choice((2, 3)), contains_zero=rng.random() < 0.5).cone)
        for cone in cones:
            zero = tuple(F(0) for _ in range(cone.dimension))
            vectors = [zero, rand_point(rng, cone.dimension), rand_point(rng, cone.dimension)]
            vectors += [rand_cone_member(rng, cone, strict=rng.random() < 0.5) for _ in range(2)]
            for v in vectors:
                m = cone_membership(cone, v)
                cases = [m]
                if m.member:
                    c = m.coefficients
                    for i in range(len(c)):
                        cases.append(replace(m, coefficients=tuple(-x - 1 if j == i else x for j, x in enumerate(c))))
                        cases.append(replace(m, coefficients=tuple(x + F(1, 3) if j == i else x for j, x in enumerate(c))))
                    cases.append(replace(m, coefficients=tuple(F(0) for _ in c)))
                elif m.functional is not None:
                    f = m.functional
                    cases.append(replace(m, functional=tuple(-c for c in f)))
                    cases.append(replace(m, functional=zero))
                    cases += [replace(m, functional=g) for g in shifted_functionals(f)]
                for tampered in cases:
                    assert_agrees(validate_membership(cone, v, tampered), reference_membership(cone, v, tampered), counts)
        assert counts[True] >= len(cones) * 5 and counts[False] >= len(cones) * 5


# --- every message -------------------------------------------------------------------


def _messages_in(function):
    """The plain string messages a validator can return: those in its list
    literals, alone or as the message of a (condition, message) check."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(function).lstrip())):
        if isinstance(node, ast.List):
            for elt in node.elts:
                message = elt.elts[-1] if isinstance(elt, ast.Tuple) else elt
                if isinstance(message, ast.Constant) and isinstance(message.value, str):
                    found.add(message.value)
    return found


def _fake_solve(first_side, second_side):
    """Optimal answers with the given weights: the first side's program has
    three columns here (a vertex and two rays), the second side's the rest."""
    return lambda lp: LpResult(LpStatus.OPTIMAL, F(0), tuple(map(F, first_side if lp.num_vars == 3 else second_side)))


class TestEveryMessage:
    X = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
    Y = DecomposableSet((ChainSet.build([(-2, -2), (-1, -1)], ORTHANT), ChainSet.build([(-1, 0), (0, 0)], ORTHANT)))

    def test_disjointness(self):
        x, y = self.X, self.Y
        assert validate_disjointness(hulls_disjoint(x, y), x, y) == []
        # f = -x1 - x2 is at most 0 on X, and its minimum over Y is 2 + 0.
        f = (F(-1), F(-1))
        res = DisjointnessResult(True, functional=f, x_bound=F(0), y_bound=F(2))
        assert validate_disjointness(res, x, y) == []
        reached = {
            m
            for issues in (
                validate_disjointness(DisjointnessResult(True, functional=f), x, y),
                validate_disjointness(DisjointnessResult(False), x, y),
                validate_disjointness(replace(res, functional=(F(1),)), x, y),
                validate_disjointness(replace(res, x_bound=res.x_bound - 1), x, y),
                validate_disjointness(replace(res, functional=(F(1), F(-3))), x, y),
                validate_disjointness(replace(res, y_bound=res.y_bound + 1), x, y),
                validate_disjointness(replace(res, x_bound=res.y_bound), x, y),
            )
            for m in issues
        }
        assert reached == _messages_in(separation.validate_disjointness)
        joint = DisjointnessResult(False, common_point=(F(1), F(1)))
        assert validate_disjointness(joint, x, FinitePointSet.build([(1, 1)])) == []
        assert validate_disjointness(joint, x, y) == ["common point is outside the second hull"]

    def test_common_point(self, monkeypatch):
        x = self.X
        y = FinitePointSet.build([(1, 1), (2, 2)])
        assert validate_common_point((F(-1), F(-1)), x, y) == [
            "common point is outside the first hull",
            "common point is outside the second hull",
        ]
        assert validate_common_point((F(1),), x, y) == ["common point does not match the sets' dimension"]
        assert validate_common_point((F(1), F(1)), x, FinitePointSet.build([(1, 1, 1)])) == [
            "common point does not match the sets' dimension"
        ]
        # Solver answers that rebuild the point from weights that are not
        # convex: 2 * (0, 0) on both sides, then 2 * (1, 1) - (2, 2).
        origin = (F(0), F(0))
        monkeypatch.setattr(linalg, "lp_solve", _fake_solve((2, 0, 0), (2,)))
        assert validate_common_point(origin, x, FinitePointSet.build([(0, 0)])) == [
            "first hull coefficients do not rebuild the common point",
            "second hull coefficients do not rebuild the common point",
        ]
        monkeypatch.setattr(linalg, "lp_solve", _fake_solve((1, 0, 0), (2, -1)))
        assert validate_common_point(origin, x, y) == ["second hull coefficients do not rebuild the common point"]
        monkeypatch.setattr(linalg, "lp_solve", _fake_solve((1, 0, 0), (1, 0)))
        assert validate_common_point(origin, x, y) == ["second hull coefficients do not rebuild the common point"]

    def test_separation(self):
        x, y = self.X, self.Y
        # f = -x1 - x2: sup 0 over X, inf 2 + 0 over Y. f = -x1: sup 0, inf 1 + 0,
        # with (0, 1) in X and (-1, -1) = (-1, -1) + (0, 0) in Y.
        strict = SeparationResult((F(-1), F(-1)), F(0), F(2), "strictly_separated")
        proper = SeparationResult((F(-1), F(0)), F(0), F(1), "properly_separated", ((F(0), F(1)), (F(-1), F(-1))))
        assert validate_separation(strict, x, y) == []
        assert validate_separation(proper, x, y) == []
        reached = {
            m
            for issues in (
                validate_separation(replace(strict, functional=(F(1),)), x, y),
                validate_separation(replace(strict, functional=(F(0), F(0))), x, y),
                validate_separation(replace(strict, functional=(F(1), F(-1))), x, y),
                validate_separation(strict, x, Polyhedron.build([(-2, -2)], [(1, 0)])),
                validate_separation(replace(strict, sup_x=F(-1)), x, y),
                validate_separation(replace(strict, functional=(F(-1, 2), F(-1, 2)), inf_y=F(1)), x, y),
                validate_separation(replace(strict, sup_x=F(3, 2)), x, y),
                validate_separation(replace(proper, inf_y=F(-1)), x, y),
                validate_separation(replace(proper, witness_pair=None), x, y),
                validate_separation(replace(proper, witness_pair=((F(1), F(0)), (F(0), F(0)))), x, y),
                validate_separation(replace(proper, witness_pair=((F(-1), F(0)), (F(0), F(0)))), x, y),
                validate_separation(replace(proper, witness_pair=((F(0), F(0)), (F(1), F(0)))), x, y),
            )
            for m in issues
        }
        assert reached == _messages_in(separation.validate_separation)
        # A tie f(wx) = f(wy) is not strict: Y = {(0, 0)} touches X there.
        touching = DecomposableSet((ChainSet.build([(0, 0)], ORTHANT),))
        tie = replace(proper, inf_y=F(0), witness_pair=((F(0), F(1)), (F(0), F(0))))
        assert validate_separation(tie, x, touching) == ["witness pair is not strict: f(wx) >= f(wy)"]
        kind = validate_separation(replace(strict, kind="sideways"), x, y)
        assert kind == ["unknown separation kind 'sideways'"]
        # The second witness is looked up in the set it belongs to: here
        # (-2, -2) + cone((-1, 0)), where f = -x1 has its minimum 2.
        poly_y = Polyhedron.build([(-2, -2)], [(-1, 0)])
        on_ray = replace(proper, inf_y=F(2), witness_pair=((F(0), F(1)), (F(-3), F(-2))))
        assert validate_separation(on_ray, x, poly_y) == []
        off = replace(on_ray, witness_pair=((F(0), F(1)), (F(-2), F(-1))))
        assert validate_separation(off, x, poly_y) == ["second witness is not a point of the second set"]
        points = FinitePointSet.build([(-1, -1)])
        assert validate_separation(proper, x, points) == []
        assert validate_separation(replace(off, inf_y=F(1)), x, points) == [
            "second witness is not a point of the second set"
        ]

    def test_membership(self):
        no_origin = Cone.build(2, [[1, 0], [0, 1]], False)
        empty = Cone.build(2, [], False)
        v, zero = (F(1), F(2)), (F(0), F(0))
        assert validate_membership(ORTHANT, v, cone_membership(ORTHANT, v)) == []
        assert validate_membership(empty, zero, ConeMembership(False)) == []
        reached = {
            m
            for issues in (
                validate_membership(ORTHANT, v, ConeMembership(True)),
                validate_membership(ORTHANT, zero, ConeMembership(False)),
                validate_membership(ORTHANT, v, ConeMembership(True, coefficients=(F(1),))),
                validate_membership(ORTHANT, (F(1),), ConeMembership(False, functional=(F(1), F(1)))),
                validate_membership(ORTHANT, (F(-1), F(2)), ConeMembership(True, coefficients=(F(-1), F(2)))),
                validate_membership(ORTHANT, v, ConeMembership(True, coefficients=(F(1), F(1)))),
                validate_membership(no_origin, zero, ConeMembership(True, coefficients=(F(0), F(0)))),
                validate_membership(ORTHANT, v, ConeMembership(False, functional=(F(1), F(-1)))),
                validate_membership(ORTHANT, v, ConeMembership(False, functional=(F(1), F(0)))),
                validate_membership(no_origin, zero, ConeMembership(False, functional=(F(1), F(0)))),
            )
            for m in issues
        }
        assert reached == _messages_in(conedom.cones.validate_membership)
        # Stricter than the former asserts: a cone with the origin has it as a member.
        assert reference_membership(ORTHANT, zero, ConeMembership(False, functional=(F(1), F(1))))
        assert validate_membership(ORTHANT, zero, ConeMembership(False, functional=(F(1), F(1)))) == [
            "refutation functional fails to separate the origin"
        ]


def test_a_forged_membership_certificate_fails_under_python_optimize():
    # The suite's former checks were asserts, which `python -O` strips.
    code = (
        "import json, sys\n"
        "from fractions import Fraction as F\n"
        "from conedom.cones import Cone, ConeMembership, validate_membership\n"
        "cone = Cone.build(2, [[1, 0], [0, 1]], True)\n"
        "forged = ConeMembership(True, coefficients=(F(-1), F(3)))\n"
        "print(json.dumps([sys.flags.optimize, validate_membership(cone, (F(-1), F(3)), forged)]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(conedom.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [1, ["membership coefficients are negative"]]


# --- a sum too large to materialize -----------------------------------------------------


def oversize_sum():
    """Three chains of 60 points: a sum of up to 216,000 points."""
    chains = tuple(ChainSet.build([(i, 2 * i + s) for i in range(60)], ORTHANT) for s in range(3))
    return DecomposableSet(chains)


class TestWithoutMaterializing:
    def test_disjointness_and_separation_bounds_validate_summand_by_summand(self):
        y = oversize_sum()
        with pytest.raises(LimitError):
            materialize(y)
        x = Polyhedron.build([(1000, 1000)], [(1, 0), (0, 1)])
        # f = -x1 - x2: at most -2000 on X; its minimum over Y is -(177 + 178 + 179) = -534,
        # at the top of each chain.
        f = (F(-1), F(-1))
        disjoint = DisjointnessResult(True, functional=f, x_bound=F(-2000), y_bound=F(-534))
        assert validate_disjointness(disjoint, x, y) == []
        assert validate_disjointness(replace(disjoint, y_bound=F(-533)), x, y) == [
            "functional falls below y_bound on the second set"
        ]
        strict = SeparationResult(f, F(-2000), F(-534), "strictly_separated")
        assert validate_separation(strict, x, y) == []
        assert validate_separation(replace(strict, inf_y=F(-533)), x, y) == [
            "inf_y is not the functional's minimum over the second set"
        ]
        # The proper witness (0, 3) = (0, 0) + (0, 1) + (0, 2) is looked up in the largest summand, once for
        # each point of the sum of the other two: 3,600 sums, not 216,000. Moved off the sum to (1/2, 4), a
        # point of the sum's hull (on the line y = 2x + 3), it is refused.
        proper = SeparationResult(f, F(-2000), F(-534), "properly_separated", ((F(1000), F(1001)), (F(0), F(3))))
        assert validate_separation(proper, x, y) == []
        moved = replace(proper, witness_pair=((F(1000), F(1001)), (F(1, 2), F(4))))
        assert validate_separation(moved, x, y) == ["second witness is not a point of the second set"]
        # With a fourth chain the three others sum to 216,000 points again: over the cap, a bounded refusal.
        with pytest.raises(LimitError):
            validate_separation(proper, x, DecomposableSet((*y.summands, y.summands[0])))

    def test_hulls_disjoint_and_its_common_point_stay_per_summand(self):
        y = oversize_sum()
        res = hulls_disjoint(Polyhedron.build([(1000, 1000)], [(1, 0), (0, 1)]), y)
        assert res.disjoint
        assert validate_disjointness(res, Polyhedron.build([(1000, 1000)], [(1, 0), (0, 1)]), y) == []
        x = Polyhedron.build([(10, 10)], [(1, 0), (0, 1)])
        res = hulls_disjoint(x, y)
        assert not res.disjoint
        assert validate_disjointness(res, x, y) == []
        assert validate_common_point((F(0), F(3)), x, y) == ["common point is outside the first hull"]


# --- proper separation under hypothesis ----------------------------------------------------


def test_a_point_of_a_sum_is_looked_up_as_in_the_materialized_sum():
    hull_only = []

    @settings(max_examples=60, deadline=None)
    @given(
        rng=st.integers(0, 2**32 - 1).map(random.Random),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    )
    def check(rng, sizes):
        # Chains under the orthant. The candidates are the sum's points, midpoints of two of them (in the
        # hull, often not in the sum) and sum points moved sideways by a third.
        chains = []
        for k in sizes:
            p = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2))
            points = [p]
            for _ in range(k - 1):
                p = vadd(p, (F(rng.randint(0, 2)), F(rng.randint(0, 2), 3)))
                points.append(p)
            chains.append(ChainSet.build(points, ORTHANT))
        y = DecomposableSet(tuple(chains))
        points = materialize(y).points
        midpoints = [vscale(F(1, 2), vadd(rng.choice(points), rng.choice(points))) for _ in range(10)]
        moved = [vadd(rng.choice(points), (F(rng.randint(-1, 1), 3), F(0))) for _ in range(10)]
        for c in (*points, *midpoints, *moved):
            assert separation._holds(y, c) == (c in points)
        hull_only.extend(c for c in midpoints if c not in points)

    check()
    assert hull_only


class TestProperSeparator:
    def test_validates_on_random_touching_pairs_and_reaches_the_ray_candidates(self):
        ray_witnesses = []

        @settings(max_examples=100, deadline=None)
        @given(
            rng=st.integers(0, 2**32 - 1).map(random.Random),
            dimension=st.sampled_from((2, 3)),
            n_vertices=st.sampled_from((1, 1, 2, 3)),
            steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=2),
        )
        def check(rng, dimension, n_vertices, steps):
            x, y = touching_pair(rng, dimension, n_vertices, steps)
            res = proper_separator(x, y)
            assert validate_separation(res, x, y) == []
            assert reference_proper_separation(res, x, y)
            # Only a first vertex moved along a ray walks off the vertex list.
            ray_witnesses.append(res.witness_pair[0] not in x.vertices)

        check()
        assert any(ray_witnesses)
