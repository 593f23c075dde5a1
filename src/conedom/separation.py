"""Disjointness of hulls and linear separation with exact certificates.

A separating functional f puts X on the low side: sup f[X] <= inf f[Y].
Strict separation demands a positive gap; proper separation only demands
some pair x, y with f(x) < f(y). Functionals are always nonzero; results
carry exact bounds and, for proper separation, the witnessing pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .cones import Cone
from .linalg import (
    ONE,
    REL_GE,
    REL_LE,
    ZERO,
    IntegerPoints,
    LinearProgram,
    LpResult,
    LpStatus,
    Vec,
    fvec,
    hull_membership,
    hull_program,
    integer_multiple,
    lp_solve,
    vadd,
    vcombination,
    vdot,
    vscale,
    vzero,
)
from .sets import DecomposableSet, FinitePointSet, Polyhedron, in_relative_interior, materialize


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


def hulls_disjoint(x: Polyhedron, y: DecomposableSet | FinitePointSet) -> DisjointnessResult:
    """Exact disjointness of X and the hull of the materialized second set.

    One feasibility program asks for a point of X in the sum of the block
    hulls (the summands of a decomposable set, else the whole set).
    Columns: block coefficients, then X vertex coefficients, then X ray
    coefficients. Rows: coordinates match, each block sums to one, the X
    vertex coefficients sum to one.
    """
    blocks = [s.base for s in y.summands] if isinstance(y, DecomposableSet) else [y]
    n = x.dimension
    if any(len(p) != n for b in blocks for p in b.points):
        raise ValueError("dimension mismatch between the two sets")
    groups = [(1, b.integer_view) for b in blocks] + [(-1, x.vertices.integer_view)]
    res = lp_solve(hull_program(vzero(n), groups, (-1, x.ray_view)))
    if res.status is LpStatus.OPTIMAL:
        # Rebuild the common point from the X-side coefficients.
        offset = sum(len(b) for b in blocks)
        point = vcombination(res.witness[offset:], (*x.vertices.points, *x.rays), n)
        return DisjointnessResult(False, common_point=point)
    if res.status is not LpStatus.INFEASIBLE:
        raise RuntimeError("common point program cannot be unbounded")
    # Farkas rows: n coordinate rows give the functional, then one offset
    # per block, then the X normalization offset.
    f = res.farkas[:n]
    block_offsets = res.farkas[n : n + len(blocks)]
    x_offset = res.farkas[n + len(blocks)]
    # f.p + c_b >= 0 per block point, -f.v + d >= 0 per X vertex, so
    # sup f[X] <= d and inf over the summed hull >= -sum(c_b), with
    # d + sum(c_b) < 0 giving the strict ordering.
    y_bound = -sum(block_offsets, ZERO)
    return DisjointnessResult(True, functional=f, x_bound=x_offset, y_bound=y_bound)


def validate_common_point(point: Vec, x: Polyhedron, y: DecomposableSet | FinitePointSet) -> list[str]:
    """Re-check a common point of X and the hull of the second set; empty list means valid.

    Membership in each hull is decided afresh, and the coefficients found
    must rebuild the point exactly: all nonnegative, vertex weights summing
    to one.
    """
    if len(point) != x.dimension:
        return ["common point does not match the sets' dimension"]
    y_points = materialize(y).points if isinstance(y, DecomposableSet) else y.points
    errs: list[str] = []
    for side, vertices, rays in (("first", x.vertices.points, x.rays), ("second", y_points, ())):
        hm = hull_membership(point, vertices, rays)
        if not hm.member:
            errs.append(f"common point is outside the {side} hull")
            continue
        lam, mu = hm.vertex_coefficients, hm.ray_coefficients
        rebuilt = vcombination((*lam, *mu), (*vertices, *rays), len(point))
        if any(c < 0 for c in (*lam, *mu)) or sum(lam, ZERO) != 1 or rebuilt != point:
            errs.append(f"{side} hull coefficients do not rebuild the common point")
    return errs


def _at_scale(view: IntegerPoints, scale: int) -> list[tuple[int, ...]]:
    """The view's points over `scale`, a multiple of the view's own scale."""
    m = scale // view.scale
    return [tuple(c * m for c in p) for p in view.points]


def _functional_rows(x: Polyhedron, y: FinitePointSet, y_col: int) -> tuple[int, list]:
    """Rows f.v <= a on X's vertices, f.r <= 0 on X's rays and f.w >= the
    variable at `y_col` on the points of y, over the variables f (columns
    0..n-1), a (column n) and one more (column n + 1). Returns their scale,
    the lcm of every denominator in them, and the rows in integer form.
    """
    n = x.dimension
    groups = ((x.vertices.integer_view, REL_LE, n), (x.ray_view, REL_LE, None), (y.integer_view, REL_GE, y_col))
    scale = lcm(*(view.scale for view, _, _ in groups))
    rows = []
    for view, rel, col in groups:
        for p in _at_scale(view, scale):
            coeffs = [*p, 0, 0]
            if col is not None:
                coeffs[col] = -scale
            rows.append((tuple(coeffs), rel, 0))
    return scale, rows


def strict_separator(x: Polyhedron, y: Polyhedron) -> SeparationResult:
    """Integer functional with sup f[X] + 1 <= inf f[Y]; Y must be bounded.

    Disjointness of the two polyhedra is checked first; failure to find a
    separator afterwards would contradict polyhedral separation and is
    reported as an internal error.
    """
    if y.rays:
        raise ValueError("strict separation requires a bounded second set")
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch between the two sets")
    probe = hulls_disjoint(x, y.vertices)
    if not probe.disjoint:
        raise ValueError(f"the sets intersect at {probe.common_point}; nothing separates them")
    n = x.dimension
    # Variables: f (free, n), a (free), b (free); f.v <= a on X vertices,
    # f.r <= 0 on X rays, f.w >= b on Y vertices, b - a >= 1.
    cols = n + 2
    scale, rows = _functional_rows(x, y.vertices, n + 1)
    rows.append(((0,) * n + (-scale, scale), REL_GE, scale))
    lp = LinearProgram(cols, (ZERO,) * cols, True, tuple(rows), (False,) * cols, scale)
    res = lp_solve(lp)
    if res.status is not LpStatus.OPTIMAL:
        raise RuntimeError("strict separation program infeasible despite disjoint polyhedra")
    f_int = fvec(integer_multiple(res.witness[:n])[1])
    sup_x = max(vdot(f_int, v) for v in x.vertices)
    inf_y = min(vdot(f_int, w) for w in y.vertices)
    if inf_y - sup_x < 1:
        raise RuntimeError("scaled separator lost its unit gap")
    return SeparationResult(functional=f_int, sup_x=sup_x, inf_y=inf_y, kind="strictly_separated")


def proper_separator(x: Polyhedron, y: DecomposableSet, cone: Cone) -> SeparationResult:
    """Separator with a strict pair for an upward X touching Y only outside ri(X).

    Candidates are scanned deterministically: for each materialized point
    of Y paired with each vertex of X, then each ray of X, a weak
    separation program with that candidate's strictness objective is
    solved; the first positive gap wins.
    """
    from .sets import is_upward

    if not is_upward(x, cone):
        raise ValueError("proper separation here requires an upward first set")
    y_set = materialize(y)
    pts = y_set.points
    for p in pts:
        if in_relative_interior(x, p):
            raise ValueError(f"point {p} of the second set lies in the relative interior of the first")
    n = x.dimension
    xv, xr = x.vertices.points, x.rays

    # Columns: f (free, n), a (free), g (nonneg gap, capped at one). Every
    # candidate shares the rows f.v <= a, f.r <= 0, f.p >= a and g <= 1 and
    # adds one strict row "its difference . f >= g".
    cols = n + 2
    scale, weak = _functional_rows(x, y_set, n)
    gap_cap = ((0,) * (n + 1) + (scale,), REL_LE, scale)
    nonneg = (False,) * (n + 1) + (True,)
    objective = (ZERO,) * (n + 1) + (ONE,)

    def solve(difference: Sequence[int]) -> LpResult | None:
        rows = (*weak, ((*difference, 0, -scale), REL_GE, 0), gap_cap)
        res = lp_solve(LinearProgram(cols, objective, True, rows, nonneg, scale))
        if res.status is LpStatus.OPTIMAL and res.value > 0:
            return res
        return None

    vs = _at_scale(x.vertices.integer_view, scale)
    for p, pi in zip(pts, _at_scale(y_set.integer_view, scale)):
        for v, vi in zip(xv, vs):
            res = solve([a - b for a, b in zip(pi, vi)])
            if res is not None:
                f_int = fvec(integer_multiple(res.witness[:n])[1])
                sup_x = max(vdot(f_int, w) for w in xv)
                inf_y = min(vdot(f_int, q) for q in pts)
                return SeparationResult(
                    functional=f_int,
                    sup_x=sup_x,
                    inf_y=inf_y,
                    kind="properly_separated",
                    witness_pair=(v, p),
                )
    for r, ri in zip(xr, _at_scale(x.ray_view, scale)):
        res = solve([-c for c in ri])
        if res is not None:
            f_int = fvec(integer_multiple(res.witness[:n])[1])
            sup_x = max(vdot(f_int, w) for w in xv)
            inf_y = min(vdot(f_int, q) for q in pts)
            # Walk far enough along the ray that the pair is strict.
            drop = -vdot(f_int, r)
            v0, y0 = xv[0], min(pts, key=lambda q: (vdot(f_int, q), q))
            t = (vdot(f_int, v0) - vdot(f_int, y0)) / drop + 1
            if t < 1:
                t = ONE
            witness_x = vadd(v0, vscale(t, r))
            return SeparationResult(
                functional=f_int,
                sup_x=sup_x,
                inf_y=inf_y,
                kind="properly_separated",
                witness_pair=(witness_x, y0),
            )
    raise RuntimeError("no proper separator found although the hypotheses were verified")


def separator_sign_check(functional: Vec, cone: Cone) -> bool:
    """Nonpositivity of the functional on every generator of the cone."""
    if len(functional) != cone.dimension:
        raise ValueError("functional dimension does not match the cone")
    return all(vdot(functional, g) <= 0 for g in cone.generators)
