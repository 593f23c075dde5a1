"""Disjointness of hulls and linear separation with exact certificates.

A separating functional f puts X on the low side: sup f[X] <= inf f[Y].
Strict separation demands a positive gap; proper separation only demands
some pair x, y with f(x) < f(y). Functionals are always nonzero; results
carry exact bounds and, for proper separation, the witnessing pair.
One validator per result (`validate_common_point`, `validate_disjointness`,
`validate_separation`) serves the CLI's `--verify`, the suite and the tests.
conv(Y_1 + ... + Y_k) = conv Y_1 + ... + conv Y_k, so they read Y summand by
summand. A proper witness is looked up in the sum of all summands but the
largest, never in the whole sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm

from .cones import Cone
from .linalg import (
    ONE,
    REL_GE,
    REL_LE,
    ZERO,
    LinearProgram,
    LpStatus,
    Vec,
    fvec,
    integer_multiple,
    integer_points,
    is_zero_vec,
    lp_solve,
    solve_hulls,
    vadd,
    vcombination,
    vdot,
    vsub,
    vzero,
)
from .sets import (
    DecomposableSet,
    FinitePointSet,
    Polyhedron,
    in_relative_interior,
    is_upward,
    materialize,
    poly_contains,
)


@dataclass(frozen=True)
class DisjointnessResult:
    """Either a common point of the two hulls or a separating functional.

    On disjointness the functional satisfies f.x <= x_bound on the first
    hull (rays nonpositive) and f.y >= y_bound on the second, with
    x_bound < y_bound.
    """

    disjoint: bool
    common_point: Vec | None = None
    functional: Vec | None = None
    x_bound: Fraction | None = None
    y_bound: Fraction | None = None


@dataclass(frozen=True)
class SeparationResult:
    """A nonzero functional with exact bounds on both sides.

    `sup_x` is the supremum over the polyhedron (its rays never increase
    the functional, so the vertex maximum is exact); `inf_y` the minimum
    over the finite second set. `witness_pair` carries (x, y) with
    f(x) < f(y) when the separation is proper.
    """

    functional: Vec
    sup_x: Fraction
    inf_y: Fraction
    kind: str  # "strictly_separated" or "properly_separated"
    witness_pair: tuple[Vec, Vec] | None = None


SecondSet = DecomposableSet | FinitePointSet | Polyhedron


def _summands(y: SecondSet) -> list[FinitePointSet]:
    """The finite sets whose hulls sum to the second set's bounded part: a
    sum's summands, a polyhedron's vertices, else the set itself."""
    if isinstance(y, DecomposableSet):
        return [s.base for s in y.summands]
    return [y.vertices if isinstance(y, Polyhedron) else y]


def _bounds(f: Vec, x: Polyhedron, y: SecondSet) -> tuple[Fraction, Fraction]:
    """f's maximum over X's vertices, and its minimum over Y's points as the
    sum of its minima over the summands."""
    sup_x = max(vdot(f, v) for v in x.vertices)
    return sup_x, sum((min(vdot(f, p) for p in b) for b in _summands(y)), ZERO)


def _dimensions_differ(x: Polyhedron, y: SecondSet, *vectors: Vec) -> bool:
    return any(len(v) != x.dimension for v in (*vectors, *(p for b in _summands(y) for p in b)))


def hulls_disjoint(x: Polyhedron, y: DecomposableSet | FinitePointSet) -> DisjointnessResult:
    """Exact disjointness of X and the hull of the second set.

    One feasibility program (`solve_hulls`) asks for a point of X in
    the sum of the block hulls (the summands of a decomposable set, else the
    whole set): a point of each block's hull, minus one of X's vertex hull,
    as one more block, minus a combination of X's rays, sums to zero.
    """
    blocks, n = _summands(y), x.dimension
    if _dimensions_differ(x, y):
        raise ValueError("dimension mismatch between the two sets")
    groups = [(1, b.integer_view) for b in blocks] + [(-1, x.vertices.integer_view)]
    answer = solve_hulls(vzero(n), groups, (-1, x.ray_view))
    if answer.feasible:
        # Rebuild the common point from the X-side coefficients.
        point = vcombination((*answer.weights[-1], *answer.rays), (*x.vertices.points, *x.rays), n)
        return DisjointnessResult(False, common_point=point)
    # One offset per block, X's vertex block last: f.p + c_b >= 0 on the
    # points of block b, -f.v + d >= 0 on X's vertices, so sup f[X] <= d and
    # inf over the summed hull >= -sum(c_b), with d + sum(c_b) < 0 giving
    # the strict ordering.
    *block_offsets, x_offset = answer.offsets
    return DisjointnessResult(True, functional=answer.functional, x_bound=x_offset, y_bound=-sum(block_offsets, ZERO))


def validate_common_point(point: Vec, x: Polyhedron, y: DecomposableSet | FinitePointSet) -> list[str]:
    """Re-check a common point of X and the hull of the second set; empty list means valid.

    Membership in each hull is decided afresh, and the coefficients found
    must rebuild the point exactly: all nonnegative, each block of vertex
    weights summing to one. The second hull's program has one block per
    summand, as in `dominance.decompose_in_hulls`.
    """
    if _dimensions_differ(x, y, point):
        return ["common point does not match the sets' dimension"]
    errs: list[str] = []
    for side, blocks, rays in (("first", [x.vertices], x.rays), ("second", _summands(y), ())):
        answer = solve_hulls(point, [(1, b.integer_view) for b in blocks], (1, integer_points(rays)))
        if not answer.feasible:
            errs.append(f"common point is outside the {side} hull")
            continue
        weights = (*(c for w in answer.weights for c in w), *answer.rays)
        rebuilt = vcombination(weights, (*(p for b in blocks for p in b.points), *rays), len(point))
        if any(c < 0 for c in weights) or any(sum(w) != 1 for w in answer.weights) or rebuilt != point:
            errs.append(f"{side} hull coefficients do not rebuild the common point")
    return errs


def validate_disjointness(result: DisjointnessResult, x: Polyhedron, y: DecomposableSet | FinitePointSet) -> list[str]:
    """Re-check a `hulls_disjoint` verdict; empty list means valid. A joint
    verdict is its common point (`validate_common_point`); a disjoint one
    its functional and bounds, with f's minimum over the second set read
    per summand (`_bounds`)."""
    f, a, b = result.functional, result.x_bound, result.y_bound
    if None in ((f, a, b) if result.disjoint else (result.common_point,)):
        return ["verdict lacks its certificate"]
    if not result.disjoint:
        return validate_common_point(result.common_point, x, y)
    if _dimensions_differ(x, y, f):
        return ["functional does not match the sets' dimension"]
    sup_x, inf_y = _bounds(f, x, y)
    checks = [
        (sup_x > a, "functional exceeds x_bound on a vertex of the first set"),
        (any(vdot(f, r) > 0 for r in x.rays), "functional is positive on a ray of the first set"),
        (inf_y < b, "functional falls below y_bound on the second set"),
        (a >= b, "x_bound is not below y_bound"),
    ]
    return [message for failed, message in checks if failed]


def validate_separation(result: SeparationResult, x: Polyhedron, y: SecondSet) -> list[str]:
    """Re-check a strict or proper separation; empty list means valid.

    Both kinds: a nonzero f, nonpositive on X's rays (nonnegative on a
    polyhedral Y's), with `sup_x` its maximum over X's vertices and `inf_y`
    its minimum over Y, read per summand (`_bounds`). Strict: f integer and
    inf_y - sup_x >= 1. Proper: inf_y >= sup_x and a pair with
    f(wx) < f(wy), wx in X and wy in Y. wy is looked up in a sum without
    forming it: only the sum of all summands but the largest (`_holds`).
    """
    f, pair = result.functional, result.witness_pair
    if _dimensions_differ(x, y, f, *(pair or ())):
        return ["certificate does not match the sets' dimension"]
    sup_x, inf_y = _bounds(f, x, y)
    strict, proper = result.kind == "strictly_separated", result.kind == "properly_separated"
    wx, wy = pair if proper and pair else (None, None)
    checks = [
        (is_zero_vec(f), "functional is zero"),
        (any(vdot(f, r) > 0 for r in x.rays), "functional is positive on a ray of the first set"),
        (any(vdot(f, r) < 0 for r in getattr(y, "rays", ())), "functional is negative on a ray of the second set"),
        (sup_x != result.sup_x, "sup_x is not the functional's maximum over the first set"),
        (inf_y != result.inf_y, "inf_y is not the functional's minimum over the second set"),
        (strict and any(c.denominator != 1 for c in f), "strict functional is not integer"),
        (strict and result.inf_y - result.sup_x < 1, "strict gap inf_y - sup_x is below one"),
        (proper and result.inf_y < result.sup_x, "inf_y is below sup_x"),
        (proper and not pair, "proper separation has no witness pair"),
        (wx is not None and vdot(f, wx) >= vdot(f, wy), "witness pair is not strict: f(wx) >= f(wy)"),
        (wx is not None and not poly_contains(x, wx), "first witness is outside the first set"),
        (wy is not None and not _holds(y, wy), "second witness is not a point of the second set"),
        (not (strict or proper), f"unknown separation kind {result.kind!r}"),
    ]
    return [message for failed, message in checks if failed]


def _holds(y: SecondSet, p: Vec) -> bool:
    """Whether p is a point of the second set.

    A point of a sum is p = q + r with r in its largest summand and q in the
    sum of the others, so p - q is looked up in that summand for each q. Only
    the others are summed, under `materialize`'s cap on their product.
    """
    if isinstance(y, Polyhedron):
        return poly_contains(y, p)
    if not isinstance(y, DecomposableSet):
        return p in y
    chains = list(y.summands)
    largest = chains.pop(max(range(len(chains)), key=lambda i: len(chains[i].base))).base
    others = materialize(DecomposableSet(tuple(chains))).points if chains else (vzero(len(p)),)
    return any(vsub(p, q) in largest for q in others)


def _functional_rows(x: Polyhedron, summands: list[FinitePointSet], cols: int) -> tuple[int, list]:
    """Rows f.v <= a on X's vertices, f.r <= 0 on X's rays and f.p >= b_s on
    the points p of summand s, over `cols` variables: f (columns 0..n-1), a
    (column n), b_s (column n + 1 + s), then any others. Returns their
    scale, the lcm of every denominator in them, and the rows in integer form.
    """
    n = x.dimension
    groups = [(x.vertices.integer_view, REL_LE, n), (x.ray_view, REL_LE, None)]
    groups += [(s.integer_view, REL_GE, n + 1 + i) for i, s in enumerate(summands)]
    scale = lcm(*(view.scale for view, _, _ in groups))
    rows = []
    for view, rel, col in groups:
        m = scale // view.scale
        for p in view.points:
            coeffs = [c * m for c in p] + [0] * (cols - n)
            if col is not None:
                coeffs[col] = -scale
            rows.append((tuple(coeffs), rel, 0))
    return scale, rows


def strict_separator(x: Polyhedron, y: Polyhedron) -> SeparationResult:
    """Integer functional with sup f[X] + 1 <= inf f[Y]; Y must be bounded.

    The separation program is feasible exactly when the two polyhedra are
    disjoint (polyhedral separation, with Y compact), so it decides that
    too. Only when it is infeasible does `hulls_disjoint` run, to name a
    common point; finding none would contradict polyhedral separation and
    is reported as an internal error.
    """
    if y.rays:
        raise ValueError("strict separation requires a bounded second set")
    if _dimensions_differ(x, y):
        raise ValueError("dimension mismatch between the two sets")
    n = x.dimension
    # Variables: f (free, n), a (free), b (free); f.v <= a on X vertices,
    # f.r <= 0 on X rays, f.w >= b on Y vertices, b - a >= 1.
    cols = n + 2
    scale, rows = _functional_rows(x, [y.vertices], cols)
    rows.append(((0,) * n + (-scale, scale), REL_GE, scale))
    lp = LinearProgram(cols, (ZERO,) * cols, True, tuple(rows), (False,) * cols, scale)
    res = lp_solve(lp)
    if res.status is not LpStatus.OPTIMAL:
        probe = hulls_disjoint(x, y.vertices)
        if not probe.disjoint:
            raise ValueError(f"the sets intersect at {probe.common_point}; nothing separates them")
        raise RuntimeError("strict separation program infeasible despite disjoint polyhedra")
    f_int = fvec(integer_multiple(res.witness[:n])[1])
    sup_x, inf_y = _bounds(f_int, x, y)
    if inf_y - sup_x < 1:
        raise RuntimeError("scaled separator lost its unit gap")
    return SeparationResult(functional=f_int, sup_x=sup_x, inf_y=inf_y, kind="strictly_separated")


def proper_separator(x: Polyhedron, y: DecomposableSet) -> SeparationResult:
    """Separator with a strict pair for X upward under the chains' cone C and
    Y missing ri(X).

    conv Y lies below the sum t of the chains' tops and ri(X) + C lies in
    ri(X), so conv Y misses ri(X) exactly when t does, and then the two
    separate properly (Rockafellar 1970, Thm 11.3). One program over f, a,
    b_s and g: the rows of `_functional_rows`, sum of b_s >= a, and g <= 1
    and g <= the rows' total slack. Its maximum g is positive.
    """
    if not is_upward(x, y.cone):
        raise ValueError("proper separation here requires a first set upward under the chains' cone")
    t = reduce(vadd, (s.order.support_end((ONE,) * len(s.base), up=True) for s in y.summands))
    if in_relative_interior(x, t):
        raise ValueError(f"point {t} of the second set lies in the relative interior of the first")
    n, summands = x.dimension, _summands(y)
    cols = n + len(summands) + 2
    scale, rows = _functional_rows(x, summands, cols)
    rows.append(((0,) * n + (-scale,) + (scale,) * len(summands) + (0,), REL_GE, 0))
    # A row's slack is its larger side minus its smaller one; g, the last column, is at most their sum.
    signed = [a if rel == REL_GE else tuple(-c for c in a) for a, rel, _ in rows]
    slack = [sum(column) for column in zip(*signed)]
    slack[-1] = -scale
    rows += [(tuple(slack), REL_GE, 0), ((0,) * (cols - 1) + (scale,), REL_LE, scale)]
    objective = (ZERO,) * (cols - 1) + (ONE,)
    res = lp_solve(LinearProgram(cols, objective, True, tuple(rows), (False,) * (cols - 1) + (True,), scale))
    if res.status is not LpStatus.OPTIMAL or res.value <= 0:
        raise RuntimeError("no proper separator found although the hypotheses were verified")
    f = fvec(integer_multiple(res.witness[:n])[1])
    sup_x, inf_y = _bounds(f, x, y)
    return SeparationResult(f, sup_x, inf_y, "properly_separated", witness_pair=_witness_pair(f, x, summands))


def _witness_pair(f: Vec, x: Polyhedron, summands: list[FinitePointSet]) -> tuple[Vec, Vec]:
    """wx is the f-lowest of X's vertices and v0 + r (v0 X's first vertex, r
    a ray), wy the sum of each summand's f-lowest point; ties go to the
    lexicographically least. Were the pair not strict, f would vanish on
    X's rays, so on the chains' cone (X is upward under it), and be constant
    on X and on each chain: no row of the program would have slack."""
    level = lambda p: (vdot(f, p), p)
    xv = x.vertices.points
    wx = min((*xv, *(vadd(xv[0], r) for r in x.rays)), key=level)
    wy = reduce(vadd, (min(s.points, key=level) for s in summands))
    if vdot(f, wx) >= vdot(f, wy):
        raise RuntimeError("the separation program's functional has no strict pair")
    return wx, wy


def separator_sign_check(functional: Vec, cone: Cone) -> bool:
    """Nonpositivity of the functional on every generator of the cone."""
    if len(functional) != cone.dimension:
        raise ValueError("functional dimension does not match the cone")
    return all(vdot(functional, g) <= 0 for g in cone.generators)
