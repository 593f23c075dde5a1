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
    REL_EQ,
    REL_GE,
    REL_LE,
    ZERO,
    LinearProgram,
    LpResult,
    LpStatus,
    Vec,
    hull_membership,
    lp_solve,
    vadd,
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


def _blocks_of(y: DecomposableSet | FinitePointSet) -> list[tuple[Vec, ...]]:
    if isinstance(y, DecomposableSet):
        return [s.base.points for s in y.summands]
    return [tuple(y.points)]


def _common_point_lp(x: Polyhedron, blocks: Sequence[tuple[Vec, ...]]) -> LinearProgram:
    """Feasibility of one point lying in X and in the sum of block hulls.

    Columns: block coefficients, then X vertex coefficients, then X ray
    coefficients. Rows: coordinates match, each block sums to one, the X
    vertex coefficients sum to one.
    """
    n = x.dimension
    xv, xr = x.vertices.points, x.rays
    cols = sum(len(b) for b in blocks) + len(xv) + len(xr)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for d in range(n):
        row: list[Fraction] = []
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


def hulls_disjoint(x: Polyhedron, y: DecomposableSet | FinitePointSet) -> DisjointnessResult:
    """Exact disjointness of X and the hull of the materialized second set."""
    blocks = _blocks_of(y)
    n = x.dimension
    for b in blocks:
        for p in b:
            if len(p) != n:
                raise ValueError("dimension mismatch between the two sets")
    res = lp_solve(_common_point_lp(x, blocks))
    if res.status is LpStatus.OPTIMAL:
        # Rebuild the common point from the X-side coefficients.
        xv, xr = x.vertices.points, x.rays
        offset = sum(len(b) for b in blocks)
        point = [ZERO] * n
        for k, v in enumerate(xv):
            c = res.witness[offset + k]
            if c:
                point = [a + c * vi for a, vi in zip(point, v)]
        offset += len(xv)
        for k, r in enumerate(xr):
            c = res.witness[offset + k]
            if c:
                point = [a + c * ri for a, ri in zip(point, r)]
        return DisjointnessResult(False, common_point=tuple(point))
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
        rebuilt = vzero(len(point))
        for c, v in zip((*lam, *mu), (*vertices, *rays)):
            rebuilt = vadd(rebuilt, vscale(c, v))
        if any(c < 0 for c in (*lam, *mu)) or sum(lam, ZERO) != 1 or rebuilt != point:
            errs.append(f"{side} hull coefficients do not rebuild the common point")
    return errs


def _scale_to_integers(f: Vec, extras: Sequence[Fraction]) -> tuple[Vec, list[Fraction]]:
    denom = 1
    for c in list(f) + list(extras):
        denom = lcm(denom, c.denominator)
    scale = Fraction(denom)
    return vscale(scale, f), [scale * e for e in extras]


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
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for v in x.vertices:
        rows.append((list(v) + [-ONE, ZERO], REL_LE, ZERO))
    for r in x.rays:
        rows.append((list(r) + [ZERO, ZERO], REL_LE, ZERO))
    for w in y.vertices:
        rows.append((list(w) + [ZERO, -ONE], REL_GE, ZERO))
    rows.append(([ZERO] * n + [-ONE, ONE], REL_GE, ONE))
    lp = LinearProgram.build([ZERO] * cols, True, rows, nonneg=[False] * cols)
    res = lp_solve(lp)
    if res.status is not LpStatus.OPTIMAL:
        raise RuntimeError("strict separation program infeasible despite disjoint polyhedra")
    f = res.witness[:n]
    f_int, _ = _scale_to_integers(f, [])
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
    pts = materialize(y).points
    for p in pts:
        if in_relative_interior(x, p):
            raise ValueError(f"point {p} of the second set lies in the relative interior of the first")
    n = x.dimension
    xv, xr = x.vertices.points, x.rays

    def weak_rows(cols: int) -> list[tuple[list[Fraction], str, Fraction]]:
        rows: list[tuple[list[Fraction], str, Fraction]] = []
        for v in xv:
            rows.append((list(v) + [-ONE] + [ZERO] * (cols - n - 1), REL_LE, ZERO))
        for r in xr:
            rows.append((list(r) + [ZERO] * (cols - n), REL_LE, ZERO))
        for p in pts:
            rows.append((list(p) + [-ONE] + [ZERO] * (cols - n - 1), REL_GE, ZERO))
        return rows

    # Columns: f (free, n), a (free), g (nonneg gap, capped at one).
    cols = n + 2
    nonneg = [False] * (n + 1) + [True]
    objective = [ZERO] * (n + 1) + [ONE]
    gap_cap: tuple[list[Fraction], str, Fraction] = ([ZERO] * (n + 1) + [ONE], REL_LE, ONE)

    def solve(extra: tuple[list[Fraction], str, Fraction]) -> LpResult | None:
        rows = weak_rows(cols) + [extra, gap_cap]
        res = lp_solve(LinearProgram.build(objective, True, rows, nonneg=nonneg))
        if res.status is LpStatus.OPTIMAL and res.value > 0:
            return res
        return None

    for p in pts:
        for v in xv:
            strict_row = ([pi - vi for pi, vi in zip(p, v)] + [ZERO, -ONE], REL_GE, ZERO)
            res = solve(strict_row)
            if res is not None:
                f = res.witness[:n]
                f_int, _ = _scale_to_integers(f, [])
                sup_x = max(vdot(f_int, w) for w in xv)
                inf_y = min(vdot(f_int, q) for q in pts)
                return SeparationResult(
                    functional=f_int,
                    sup_x=sup_x,
                    inf_y=inf_y,
                    kind="properly_separated",
                    witness_pair=(v, p),
                )
    for r in xr:
        strict_row = ([-ri for ri in r] + [ZERO, -ONE], REL_GE, ZERO)
        res = solve(strict_row)
        if res is not None:
            f = res.witness[:n]
            f_int, _ = _scale_to_integers(f, [])
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
