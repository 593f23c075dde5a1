"""The hull-program builder and the separation rows against the builders
they replaced.

Each `reference_*` function below is one of the package's former inline
builders: it writes its program in `Fraction`s through
`LinearProgram.build`. The programs the package now writes in integer
form (`linalg.hull_program`, `separation._functional_rows`) are recorded
at `lp_solve` and must equal the reference field for field, which means
the same integer rows over the same scale, expand to the same `Fraction`
rows, and solve to the same result. Draws cover blocks with and without
rays, targets whose denominators do not divide the views' lcm, negative
right-hand sides and the free-variable separator rows.

`reference_proper_lp` writes the one proper-separation program the same
way. The former proper-separation scan, which materialized the sum, stays
as `reference_proper_lps` and `reference_proper_verdict`: the new
separator must agree with its verdicts.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conedom import cones, linalg, separation
from conedom.cones import Cone, ConeMembership, is_pointed, k_closure
from conedom.dominance import Decomposition, OutsideHullError, decompose_in_hulls, is_pareto_in_hull
from conedom.instances import (
    rand_cone_member,
    rand_decomposable,
    rand_hull_point,
    rand_pointed_cone,
    rand_upward_polyhedron,
)
from conedom.linalg import (
    ONE,
    REL_EQ,
    REL_GE,
    REL_LE,
    ZERO,
    HullMembership,
    IntegerPoints,
    LinearProgram,
    LpStatus,
    hull_membership,
    integer_points,
    is_zero_vec,
    lp_solve,
    relative_interior_membership,
    vcombination,
    vsub,
    vzero,
)
from conedom.separation import (
    DisjointnessResult,
    hulls_disjoint,
    proper_separator,
    strict_separator,
    validate_common_point,
    validate_separation,
)
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, Polyhedron, materialize, upward_hull
from test_validators import STEPS, touching_pair

# --- the former builders -------------------------------------------------------


def reference_decomposition_lp(y, d):
    n = d.dimension
    sizes = [len(s.base) for s in d.summands]
    cols = sum(sizes)
    rows = []
    for dim in range(n):
        row = []
        for s in d.summands:
            row.extend(p[dim] for p in s.base.points)
        rows.append((row, REL_EQ, y[dim]))
    offset = 0
    for size in sizes:
        row = [ZERO] * cols
        for k in range(size):
            row[offset + k] = ONE
        rows.append((row, REL_EQ, ONE))
        offset += size
    return LinearProgram.build([ZERO] * cols, True, rows)


def reference_pareto_lp(y, d):
    gens = [g for g in d.cone.generators if not is_zero_vec(g)]
    sizes = [len(s.base) for s in d.summands]
    cols = sum(sizes) + len(gens)
    rows = []
    for dim in range(d.dimension):
        row = []
        for s in d.summands:
            row.extend(p[dim] for p in s.base.points)
        row.extend(-g[dim] for g in gens)
        rows.append((row, REL_EQ, y[dim]))
    offset = 0
    for size in sizes:
        row = [ZERO] * cols
        for k in range(size):
            row[offset + k] = ONE
        rows.append((row, REL_EQ, ONE))
        offset += size
    objective = [ZERO] * sum(sizes) + [ONE] * len(gens)
    return LinearProgram.build(objective, True, rows)


def reference_hull_lp(point, vertices, rays):
    nv, nr = len(vertices), len(rays)
    rows = []
    for d in range(len(point)):
        rows.append(([v[d] for v in vertices] + [r[d] for r in rays], REL_EQ, point[d]))
    rows.append(([ONE] * nv + [ZERO] * nr, REL_EQ, ONE))
    return LinearProgram.build([ZERO] * (nv + nr), True, rows)


def reference_relative_interior_lp(point, vertices, rays):
    nv, nr = len(vertices), len(rays)
    rows = []
    for d in range(len(point)):
        tcol = sum((v[d] for v in vertices), ZERO) + sum((r[d] for r in rays), ZERO)
        rows.append(([v[d] for v in vertices] + [r[d] for r in rays] + [tcol], REL_EQ, point[d]))
    rows.append(([ONE] * nv + [ZERO] * nr + [F(nv)], REL_EQ, ONE))
    return LinearProgram.build([ZERO] * (nv + nr) + [ONE], True, rows)


def reference_membership_lp(cone, v, need_unit_mass):
    k = len(cone.generators)
    rows = []
    for d in range(cone.dimension):
        rows.append(([g[d] for g in cone.generators], REL_EQ, v[d]))
    if need_unit_mass:
        rows.append(([ONE] * k, REL_EQ, ONE))
    return LinearProgram.build([ZERO] * k, True, rows)


def reference_common_point_lp(x, blocks):
    n = x.dimension
    xv, xr = x.vertices.points, x.rays
    cols = sum(len(b) for b in blocks) + len(xv) + len(xr)
    rows = []
    for d in range(n):
        row = []
        for b in blocks:
            row.extend(p[d] for p in b)
        row.extend(-v[d] for v in xv)
        row.extend(-r[d] for r in xr)
        rows.append((row, REL_EQ, ZERO))
    offset = 0
    for b in blocks:
        row = [ZERO] * cols
        for k in range(len(b)):
            row[offset + k] = ONE
        rows.append((row, REL_EQ, ONE))
        offset += len(b)
    row = [ZERO] * cols
    for k in range(len(xv)):
        row[offset + k] = ONE
    rows.append((row, REL_EQ, ONE))
    return LinearProgram.build([ZERO] * cols, True, rows)


def reference_strict_lp(x, y):
    n = x.dimension
    cols = n + 2
    rows = []
    for v in x.vertices:
        rows.append((list(v) + [-ONE, ZERO], REL_LE, ZERO))
    for r in x.rays:
        rows.append((list(r) + [ZERO, ZERO], REL_LE, ZERO))
    for w in y.vertices:
        rows.append((list(w) + [ZERO, -ONE], REL_GE, ZERO))
    rows.append(([ZERO] * n + [-ONE, ONE], REL_GE, ONE))
    return LinearProgram.build([ZERO] * cols, True, rows, nonneg=[False] * cols)


def reference_proper_lp(x, y):
    """The one program of `proper_separator`, over f, a, b_s (one per chain)
    and g: the weak rows, the sum of b_s >= a, g <= the rows' total slack
    (written out in closed form) and g <= 1, maximizing g."""
    n, k = x.dimension, len(y.summands)
    cols = n + k + 2
    rows = []
    for v in x.vertices:
        rows.append((list(v) + [-ONE] + [ZERO] * (k + 1), REL_LE, ZERO))
    for r in x.rays:
        rows.append((list(r) + [ZERO] * (k + 2), REL_LE, ZERO))
    for s, chain in enumerate(y.summands):
        for p in chain.base:
            rows.append((list(p) + [ZERO] + [-ONE if j == s else ZERO for j in range(k)] + [ZERO], REL_GE, ZERO))
    rows.append(([ZERO] * n + [-ONE] + [ONE] * k + [ZERO], REL_GE, ZERO))
    points = [p for chain in y.summands for p in chain.base]
    f_slack = [sum(p[d] for p in points) - sum(v[d] for v in x.vertices) - sum(r[d] for r in x.rays) for d in range(n)]
    b_slack = [F(1 - len(chain.base)) for chain in y.summands]
    rows.append((f_slack + [F(len(x.vertices) - 1)] + b_slack + [-ONE], REL_GE, ZERO))
    rows.append(([ZERO] * (cols - 1) + [ONE], REL_LE, ONE))
    return LinearProgram.build([ZERO] * (cols - 1) + [ONE], True, rows, nonneg=[False] * (cols - 1) + [True])


def reference_proper_lps(x, y):
    """Every candidate program of the former `proper_separator` scan, in scan order."""
    pts = materialize(y).points
    n = x.dimension
    xv, xr = x.vertices.points, x.rays
    cols = n + 2
    weak = []
    for v in xv:
        weak.append((list(v) + [-ONE] + [ZERO] * (cols - n - 1), REL_LE, ZERO))
    for r in xr:
        weak.append((list(r) + [ZERO] * (cols - n), REL_LE, ZERO))
    for p in pts:
        weak.append((list(p) + [-ONE] + [ZERO] * (cols - n - 1), REL_GE, ZERO))
    nonneg = [False] * (n + 1) + [True]
    objective = [ZERO] * (n + 1) + [ONE]
    gap_cap = ([ZERO] * (n + 1) + [ONE], REL_LE, ONE)
    strict = [([pi - vi for pi, vi in zip(p, v)] + [ZERO, -ONE], REL_GE, ZERO) for p in pts for v in xv]
    strict += [([-ri for ri in r] + [ZERO, -ONE], REL_GE, ZERO) for r in xr]
    return [LinearProgram.build(objective, True, weak + [row, gap_cap], nonneg=nonneg) for row in strict]


def reference_proper_verdict(x, y):
    """The former `proper_separator`'s verdict: "refused" when a point of the
    materialized sum lies in ri(X), else "separated" when a candidate of its
    scan has a positive gap, else "no separator"."""
    if any(relative_interior_membership(p, x.vertices.points, x.rays) for p in materialize(y).points):
        return "refused"
    results = map(lp_solve, reference_proper_lps(x, y))
    return "separated" if any(r.status is LpStatus.OPTIMAL and r.value > 0 for r in results) else "no separator"


# --- recording and comparing ---------------------------------------------------


@contextmanager
def recorded(*modules):
    """Rebind `lp_solve` in the modules, recording every program they solve
    in the order solved. Hull programs are solved in `linalg`."""
    store = []

    def record(lp):
        store.append(lp)
        return lp_solve(lp)

    for module in modules:
        module.lp_solve = record
    try:
        yield store
    finally:
        for module in modules:
            module.lp_solve = lp_solve


def assert_same_program(built, reference):
    assert built.constraints == reference.constraints
    assert (built.objective, built.maximize, built.nonneg) == (reference.objective, reference.maximize, reference.nonneg)
    assert built == reference  # the same integer rows over the same scale
    assert lp_solve(built) == lp_solve(reference)


# --- draws ---------------------------------------------------------------------

# Denominators 7 and 11 appear in targets only, so a target's denominators
# need not divide the lcm of the points' views.
DENS = (1, 2, 3, 5)
coordinate = st.builds(F, st.integers(-6, 6), st.sampled_from(DENS))
target_coordinate = st.builds(F, st.integers(-9, 9), st.sampled_from(DENS + (7, 11)))
step = st.builds(F, st.integers(0, 4), st.sampled_from(DENS))


def points(n, min_size=1, max_size=4):
    return st.lists(st.tuples(*[coordinate] * n), min_size=min_size, max_size=max_size, unique=True)


def targets(n):
    return st.tuples(*[target_coordinate] * n)


@st.composite
def pointed_cones(draw, n=2):
    """Two independent rational generators in the plane, optionally with a
    zero generator, which `is_pareto_in_hull` must drop."""
    a = draw(st.tuples(step.filter(bool), coordinate))
    b = draw(st.tuples(coordinate, step.filter(bool)))
    assume(a[0] * b[1] - a[1] * b[0] != 0)
    gens = [a, b] + ([(ZERO, ZERO)] if draw(st.booleans()) else [])
    return Cone.build(n, gens, draw(st.booleans()))


@st.composite
def chains(draw, cone):
    """Cumulative sums of nonnegative generator combinations: a chain."""
    p = draw(st.tuples(coordinate, coordinate))
    pts = [p]
    for _ in range(draw(st.integers(0, 3))):
        weights = [draw(step) for _ in cone.generators]
        p = tuple(c + sum((w * g[d] for w, g in zip(weights, cone.generators)), ZERO) for d, c in enumerate(p))
        pts.append(p)
    return ChainSet.build(pts, cone)


@st.composite
def decomposables(draw):
    cone = draw(pointed_cones())
    return DecomposableSet(tuple(draw(chains(cone)) for _ in range(draw(st.integers(1, 3)))))


@st.composite
def polyhedra(draw, n=2, rays=None):
    vertices = draw(points(n))
    has_rays = draw(st.booleans()) if rays is None else rays
    ray_list = draw(points(n, 1, 2)) if has_rays else []
    return Polyhedron.build(vertices, [r for r in ray_list if any(r)])


# --- the hull-shaped programs ----------------------------------------------------


class TestHullProgramAgainstTheFormerBuilders:
    @settings(max_examples=80, deadline=None)
    @given(d=decomposables(), data=st.data())
    def test_decomposition(self, d, data):
        y = data.draw(targets(d.dimension))
        with recorded(linalg) as store:
            try:
                decompose_in_hulls(y, d)
            except OutsideHullError:
                pass
        (built,) = store
        assert_same_program(built, reference_decomposition_lp(y, d))

    @settings(max_examples=60, deadline=None)
    @given(d=decomposables(), data=st.data())
    def test_pareto_in_hull(self, d, data):
        y = data.draw(targets(d.dimension))
        with recorded(linalg) as store:
            try:
                is_pareto_in_hull(y, d)
            except OutsideHullError:
                pass
        (built,) = store
        assert_same_program(built, reference_pareto_lp(y, d))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), with_rays=st.booleans())
    def test_hull_and_relative_interior(self, data, n, with_rays):
        vertices = tuple(data.draw(points(n)))
        rays = tuple(data.draw(points(n, 1, 2))) if with_rays else ()
        point = data.draw(targets(n))
        with recorded(linalg) as store:
            hull_membership(point, vertices, rays)
            relative_interior_membership(point, vertices, rays)
            # Views given by the caller are read as they are.
            hull_membership(point, integer_points(vertices), integer_points(rays))
            relative_interior_membership(point, integer_points(vertices), integer_points(rays))
        hull, interior, hull_from_views, interior_from_views = store
        assert_same_program(hull, reference_hull_lp(point, vertices, rays))
        assert_same_program(interior, reference_relative_interior_lp(point, vertices, rays))
        assert hull_from_views == hull and interior_from_views == interior

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), unit_mass=st.booleans())
    def test_cone_membership(self, data, n, unit_mass):
        cone = Cone.build(n, data.draw(points(n, 1, 4)), data.draw(st.booleans()))
        v = data.draw(targets(n))
        with recorded(linalg) as store:
            cones._solve_membership(cone, v, unit_mass)
        (built,) = store
        assert_same_program(built, reference_membership_lp(cone, v, unit_mass))

    @settings(max_examples=80, deadline=None)
    @given(x=polyhedra(), data=st.data())
    def test_common_point(self, x, data):
        if data.draw(st.booleans()):
            y = data.draw(decomposables())
            blocks = [s.base.points for s in y.summands]
        else:
            y = FinitePointSet.build(data.draw(points(2)))
            blocks = [y.points]
        with recorded(linalg) as store:
            hulls_disjoint(x, y)
        (built,) = store
        assert_same_program(built, reference_common_point_lp(x, blocks))

    def test_decomposition_outside_the_hull_gives_the_same_refutation(self):
        orthant = Cone.build(2, [(1, 0), (0, 1)], True)
        d = DecomposableSet((ChainSet.build([(0, 0), ("1/2", 1)], orthant), ChainSet.build([(0, 0), (1, "1/3")], orthant)))
        y = (F(-3, 7), F(5, 11))  # negative right-hand side, denominators 7 and 11
        built = linalg.hull_program(y, [(1, s.base.integer_view) for s in d.summands])
        assert built.scale == 2 * 3 * 7 * 11
        assert_same_program(built, reference_decomposition_lp(y, d))
        with pytest.raises(OutsideHullError):
            decompose_in_hulls(y, d)


# --- the former readers of the hull program ------------------------------------
#
# Each `former_*` function below is one of the package's former call sites of
# a hull program, which solved it and sliced the solver's witness and Farkas
# vectors by its own offsets. The package now reads every such program in one
# place (`linalg.solve_hulls`); its answers must equal the former
# ones, or raise the same error, field for field. The one message that
# changed is that of an unbounded program, which none of them can reach.


def former_decompose_in_hulls(y, d):
    n = d.dimension
    if len(y) != n:
        raise ValueError("point dimension does not match the set")
    res = lp_solve(linalg.hull_program(y, [(1, s.base.integer_view) for s in d.summands]))
    if res.status is LpStatus.INFEASIBLE:
        raise OutsideHullError(y, res.farkas[:n], res.farkas[n:])
    if res.status is not LpStatus.OPTIMAL:
        raise RuntimeError("decomposition program cannot be unbounded")
    blocks = []
    offset = 0
    for s in d.summands:
        blocks.append(tuple(res.witness[offset : offset + len(s.base)]))
        offset += len(s.base)
    return Decomposition(tuple(blocks))


def former_is_pareto_in_hull(y, d):
    cone = d.cone
    if not is_pointed(cone):
        raise ValueError("hull optimality requires a pointed cone")
    n = d.dimension
    if len(y) != n:
        raise ValueError("point dimension does not match the set")
    view = cone.generator_view
    gens = IntegerPoints(view.scale, tuple(g for g in view.points if any(g)))
    blocks = [(1, s.base.integer_view) for s in d.summands]
    res = lp_solve(linalg.hull_program(y, blocks, (-1, gens), maximize_rays=True))
    if res.status is LpStatus.INFEASIBLE:
        raise OutsideHullError(y, res.farkas[:n], tuple(res.farkas[n:]))
    if res.status is not LpStatus.OPTIMAL:
        raise RuntimeError("hull optimality program cannot be unbounded for a pointed cone")
    return res.value == 0


def former_hulls_disjoint(x, y):
    blocks, n = separation._summands(y), x.dimension
    if separation._dimensions_differ(x, y):
        raise ValueError("dimension mismatch between the two sets")
    groups = [(1, b.integer_view) for b in blocks] + [(-1, x.vertices.integer_view)]
    res = lp_solve(linalg.hull_program(vzero(n), groups, (-1, x.ray_view)))
    if res.status is LpStatus.OPTIMAL:
        offset = sum(len(b) for b in blocks)
        point = vcombination(res.witness[offset:], (*x.vertices.points, *x.rays), n)
        return DisjointnessResult(False, common_point=point)
    if res.status is not LpStatus.INFEASIBLE:
        raise RuntimeError("common point program cannot be unbounded")
    f = res.farkas[:n]
    block_offsets = res.farkas[n : n + len(blocks)]
    x_offset = res.farkas[n + len(blocks)]
    return DisjointnessResult(True, functional=f, x_bound=x_offset, y_bound=-sum(block_offsets, ZERO))


def former_validate_common_point(point, x, y):
    if separation._dimensions_differ(x, y, point):
        return ["common point does not match the sets' dimension"]
    errs = []
    for side, blocks, rays in (("first", [x.vertices], x.rays), ("second", separation._summands(y), ())):
        program = linalg.hull_program(point, [(1, b.integer_view) for b in blocks], (1, integer_points(rays)))
        res = lp_solve(program)
        if res.status is not LpStatus.OPTIMAL:
            errs.append(f"common point is outside the {side} hull")
            continue
        weights = iter(res.witness)
        sums = [sum((next(weights) for _ in b.points), ZERO) for b in blocks]
        rebuilt = vcombination(res.witness, (*(p for b in blocks for p in b.points), *rays), len(point))
        if any(c < 0 for c in res.witness) or any(t != 1 for t in sums) or rebuilt != point:
            errs.append(f"{side} hull coefficients do not rebuild the common point")
    return errs


def former_solve_membership(cone, v, unit_mass):
    generators = (1, cone.generator_view)
    program = linalg.hull_program(v, [generators]) if unit_mass else linalg.hull_program(v, [], generators)
    res = lp_solve(program)
    if res.status is LpStatus.OPTIMAL:
        return ConeMembership(True, coefficients=res.witness)
    return ConeMembership(False, functional=res.farkas[: cone.dimension])


def former_hull_membership(point, vertices, rays=()):
    vs, rs = linalg._hull_views(point, vertices, rays)
    res = lp_solve(linalg.hull_program(point, [(1, vs)], (1, rs)))
    if res.status is LpStatus.OPTIMAL:
        nv = len(vs.points)
        return HullMembership(True, vertex_coefficients=res.witness[:nv], ray_coefficients=res.witness[nv:])
    if res.status is LpStatus.INFEASIBLE:
        n = len(point)
        return HullMembership(False, functional=res.farkas[:n], offset=res.farkas[n])
    raise RuntimeError("hull membership program cannot be unbounded")


def former_relative_interior_membership(point, vertices, rays=()):
    vs, rs = linalg._hull_views(point, vertices, rays)
    res = lp_solve(linalg.hull_program(point, [(1, vs)], (1, rs), bound=True))
    if res.status is LpStatus.INFEASIBLE:
        return False
    if res.status is LpStatus.OPTIMAL:
        return res.value > 0
    raise RuntimeError("relative interior program cannot be unbounded")


def outcome(call, *args):
    """What a call returns, or the error it raises with every field of an
    outside-hull refutation, as one comparable value."""
    try:
        return "returned", call(*args)
    except OutsideHullError as e:
        return "outside", e.target, e.functional, e.offsets, str(e)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def assert_same_outcome(former, current, *args):
    expected = outcome(former, *args)
    assert outcome(current, *args) == expected
    return expected


@st.composite
def hull_targets(draw, d):
    """A drawn target, or a sum of one drawn point per summand (always in
    the hull), or a target of the wrong dimension."""
    kind = draw(st.sampled_from(("free", "inside", "inside", "wrong dimension")))
    if kind == "inside":
        picks = [draw(st.sampled_from(s.base.points)) for s in d.summands]
        return tuple(sum(c, ZERO) for c in zip(*picks))
    return draw(targets(d.dimension + (kind == "wrong dimension")))


class TestOneReaderAgainstTheFormerDecodings:
    @settings(max_examples=80, deadline=None)
    @given(d=decomposables(), data=st.data())
    def test_decomposition_and_hull_optimality(self, d, data):
        y = data.draw(hull_targets(d))
        kinds = {assert_same_outcome(former_decompose_in_hulls, decompose_in_hulls, y, d)[0]}
        kinds.add(assert_same_outcome(former_is_pareto_in_hull, is_pareto_in_hull, y, d)[0])
        if len(y) == d.dimension:
            assert kinds <= {"returned", "outside"}

    @settings(max_examples=80, deadline=None)
    @given(x=polyhedra(), data=st.data())
    def test_common_points_and_their_validation(self, x, data):
        y = data.draw(st.one_of(decomposables(), st.builds(FinitePointSet.build, points(2))))
        verdict = assert_same_outcome(former_hulls_disjoint, hulls_disjoint, x, y)[1]
        point = verdict.common_point if not verdict.disjoint else data.draw(targets(2))
        assert_same_outcome(former_validate_common_point, validate_common_point, point, x, y)
        if verdict.disjoint:
            assert validate_common_point(x.vertices.points[0], x, y) == ["common point is outside the second hull"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), unit_mass=st.booleans())
    def test_cone_membership(self, data, n, unit_mass):
        cone = Cone.build(n, data.draw(points(n, 1, 4)), data.draw(st.booleans()))
        v = data.draw(st.one_of(targets(n), st.sampled_from(cone.generators)))
        assert_same_outcome(former_solve_membership, cones._solve_membership, cone, v, unit_mass)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), with_rays=st.booleans())
    def test_hull_and_relative_interior(self, data, n, with_rays):
        vertices = tuple(data.draw(points(n)))
        rays = tuple(data.draw(points(n, 1, 2))) if with_rays else ()
        point = data.draw(st.one_of(targets(n), st.sampled_from(vertices), targets(n + 1)))
        for args in ((point, vertices, rays), (point, integer_points(vertices), integer_points(rays))):
            assert_same_outcome(former_hull_membership, hull_membership, *args)
            assert_same_outcome(former_relative_interior_membership, relative_interior_membership, *args)

    def test_both_verdicts_and_every_block_shape_occur(self):
        # A joint and a disjoint verdict over one block and over two, and a
        # refutation with its offsets.
        orthant = Cone.build(2, [(1, 0), (0, 1)], True)
        d = DecomposableSet((ChainSet.build([(0, 0), (1, 1)], orthant), ChainSet.build([(0, 0), (1, 2)], orthant)))
        for y in (d, FinitePointSet.build([(0, 0), (2, 3)])):
            for x in (Polyhedron.build([(1, 1)], [(1, 0)]), Polyhedron.build([(5, 5)], [(1, 0), (0, 1)])):
                assert_same_outcome(former_hulls_disjoint, hulls_disjoint, x, y)
        assert hulls_disjoint(Polyhedron.build([(1, 1)], [(1, 0)]), d).disjoint is False
        assert hulls_disjoint(Polyhedron.build([(5, 5)], [(1, 0), (0, 1)]), d).disjoint is True
        refused = assert_same_outcome(former_decompose_in_hulls, decompose_in_hulls, (F(9), F(0)), d)
        assert refused[0] == "outside" and len(refused[3]) == 2

    def test_with_the_bound_the_value_is_the_bound_and_no_ray_weight(self):
        # (1, 1) = 1/2 (0, 0) + 1/4 (3, 0) + 1/4 (0, 3) + 1/4 (1, 1), the split
        # whose least weight is largest: the bound t is 1/4, and the ray block
        # holds the one ray, not t's column.
        triangle = integer_points([(ZERO, ZERO), (F(3), ZERO), (ZERO, F(3))])
        answer = linalg.solve_hulls((F(1), F(1)), [(1, triangle)], (1, integer_points([(ONE, ONE)])), bound=True)
        assert answer.feasible and answer.value == F(1, 4)
        assert len(answer.weights) == 1 and len(answer.weights[0]) == 3 and len(answer.rays) == 1

    def test_an_unbounded_hull_program_is_one_internal_error(self):
        # Ray weight maximized along a line: the one program shape that could
        # be unbounded, which the package never writes (it refuses a cone that
        # is not pointed first).
        line = integer_points([(ONE, ZERO), (-ONE, ZERO)])
        block = [(1, integer_points([(ZERO, ZERO)]))]
        with pytest.raises(RuntimeError, match="^a hull program cannot be unbounded$"):
            linalg.solve_hulls((ZERO, ZERO), block, (-1, line), maximize_rays=True)


# --- the separation rows ---------------------------------------------------------


@st.composite
def strictly_apart(draw):
    """X in the closed negative quadrant (rays included), Y a bounded set in
    the open positive one: always disjoint, so the strict program runs."""
    neg = st.builds(F, st.integers(-6, 0), st.sampled_from(DENS))
    pos = st.builds(F, st.integers(1, 6), st.sampled_from(DENS))
    xv = draw(st.lists(st.tuples(neg, neg), min_size=1, max_size=3, unique=True))
    xr = draw(st.lists(st.tuples(neg, neg).filter(any), max_size=2, unique=True))
    yv = draw(st.lists(st.tuples(pos, pos), min_size=1, max_size=3, unique=True))
    return Polyhedron.build(xv, xr), Polyhedron.build(yv)


@st.composite
def meeting(draw):
    """X as in `strictly_apart`, Y a bounded set with one point in X (a
    vertex of X, moved along a ray when X has one), so the two meet."""
    x, y = draw(strictly_apart())
    common = x.vertices.points[0]
    if x.rays:
        common = tuple(c + r for c, r in zip(common, x.rays[0]))
    return x, Polyhedron.build([*y.vertices.points, common])


class TestSeparationRowsAgainstTheFormerBuilders:
    @settings(max_examples=60, deadline=None)
    @given(pair=strictly_apart())
    def test_strict_separator(self, pair):
        x, y = pair
        with recorded(separation) as store:
            strict_separator(x, y)
        (strict,) = store
        assert_same_program(strict, reference_strict_lp(x, y))

    @settings(max_examples=40, deadline=None)
    @given(pair=meeting())
    def test_strict_separator_on_meeting_sets_names_the_common_point(self, pair):
        # The strict program is infeasible, and only then does the
        # common-point program run, to name the point in the same error.
        x, y = pair
        common = hulls_disjoint(x, y.vertices).common_point
        with recorded(separation, linalg) as store, pytest.raises(ValueError) as refused:
            strict_separator(x, y)
        assert str(refused.value) == f"the sets intersect at {common}; nothing separates them"
        strict, probe = store
        assert_same_program(strict, reference_strict_lp(x, y))
        assert lp_solve(strict).status is LpStatus.INFEASIBLE
        assert_same_program(probe, reference_common_point_lp(x, [y.vertices.points]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_proper_separator(self, data):
        # X is the orthant sweep of a few points, Y a sum of one or two
        # chains at or below X's lowest corner, so no point of Y lies in ri(X).
        orthant = Cone.build(2, [(1, 0), (0, 1)], True)
        base = data.draw(points(2))
        x = upward_hull(FinitePointSet.build(base), orthant)
        corner = tuple(min(p[d] for p in base) for d in range(2))
        chains = []
        for origin in (corner, (ZERO, ZERO))[: data.draw(st.integers(1, 2))]:
            low = data.draw(st.lists(st.tuples(step, step), min_size=1, max_size=3))
            chain = sorted((tuple(c - s for c, s in zip(origin, shift)) for shift in low), key=lambda p: (p[0] + p[1], p))
            assume(all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(chain, chain[1:])))
            chains.append(ChainSet.build(chain, orthant))
        y = DecomposableSet(tuple(chains))
        with recorded(separation) as store:
            proper_separator(x, y)
        (built,) = store
        assert_same_program(built, reference_proper_lp(x, y))

    def test_proper_separator_along_a_ray(self):
        # No (point, vertex) difference is strict here, only the rays are,
        # so the first witness is X's vertex moved along a ray.
        orthant = Cone.build(2, [(1, 0), (0, 1)], True)
        x = Polyhedron.build([(0, 0)], [(1, 0), (0, 1)])
        y = DecomposableSet((ChainSet.build([(0, 0)], orthant),))
        with recorded(separation) as store:
            res = proper_separator(x, y)
        (built,) = store
        assert_same_program(built, reference_proper_lp(x, y))
        assert res.witness_pair[0] != (F(0), F(0))


class TestProperSeparatorAgainstTheFormerScan:
    def test_same_verdicts_and_every_result_validates(self):
        # Touching pairs (never refused), free draws of an upward X and a sum
        # of chains under one cone (mostly apart), and free draws whose X
        # gains a vertex below a point of conv Y (mostly refused).
        rng = random.Random(1211)
        verdicts = Counter()
        for i in range(300):
            dimension = rng.choice((2, 3))
            if i % 3 == 0:
                steps = [rng.choice(STEPS) for _ in range(rng.randint(1, 2))]
                x, y = touching_pair(rng, dimension, rng.randint(1, 3), steps)
            else:
                draw = rand_pointed_cone(rng, dimension, contains_zero=rng.random() < 0.5)
                x = rand_upward_polyhedron(rng, draw, rng.randint(1, 3))
                y = rand_decomposable(rng, draw, rng.randint(1, 2), 3)
            if i % 3 == 2:
                below = vsub(rand_hull_point(rng, y), rand_cone_member(rng, k_closure(draw.cone), strict=False))
                x = upward_hull(FinitePointSet.build([*x.vertices, below]), draw.cone)
            try:
                res = proper_separator(x, y)
            except ValueError:
                verdict = "refused"
            else:
                verdict = "separated"
                assert validate_separation(res, x, y) == []
            assert verdict == reference_proper_verdict(x, y)
            verdicts[verdict] += 1
        assert verdicts["refused"] >= 80 and verdicts["separated"] >= 160, verdicts
