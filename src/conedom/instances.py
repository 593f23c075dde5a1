"""Seeded random instance generation for the test and acceptance suites.

The sampling distribution is pinned so oracle runs are reproducible:

- coordinates are rationals with numerators in [-9, 9] and denominators
  in {1, 2, 3};
- suite cones are simplicial (linearly independent generators), drawn in
  the open half-space of a strictly positive guard direction, which makes
  them pointed and keeps every membership query on the fast exact-solve
  path;
- chains are built by sorting a pool of random points along the guard
  direction and greedily keeping a subset in which all pairs are
  comparable.

Every generator takes an explicit `random.Random`; identical seeds give
identical instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cones import Comparability, Cone, relate
from .linalg import ONE, ZERO, Vec, vadd, vdot, vscale
from .sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    Polyhedron,
    convex_hull,
    materialize,
    upward_hull,
)

Rng = random.Random

NUMERATORS = range(-9, 10)
DENOMINATORS = (1, 2, 3)


def rand_frac(rng: Rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def rand_point(rng: Rng, dimension: int) -> Vec:
    return tuple(rand_frac(rng) for _ in range(dimension))


def rand_positive_frac(rng: Rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))


def rand_direction(rng: Rng, dimension: int) -> Vec:
    """Strictly positive direction used for sorting and pointedness guards."""
    return tuple(rand_positive_frac(rng) for _ in range(dimension))


@dataclass(frozen=True)
class ConeDraw:
    cone: Cone
    guard: Vec  # strictly positive; guard . g > 0 for every generator


def rand_pointed_cone(rng: Rng, dimension: int, contains_zero: bool) -> ConeDraw:
    """Simplicial pointed cone in the open half-space of a positive guard."""
    guard = rand_direction(rng, dimension)
    while True:
        gens: list[Vec] = []
        for _ in range(dimension):
            g = rand_point(rng, dimension)
            s = vdot(guard, g)
            if s == 0:
                g = tuple(c + ONE for c in g)  # nudge off the guard hyperplane
                s = vdot(guard, g)
            if s < 0:
                g = tuple(-c for c in g)
            gens.append(g)
        cone = Cone(dimension, tuple(gens), contains_zero)
        if cone.span_solver.unique:
            return ConeDraw(cone, guard)


def rand_convex_coefficients(rng: Rng, k: int, strict: bool = False) -> tuple[Fraction, ...]:
    lo = 1 if strict else 0
    weights = [rng.randint(lo, 9) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def rand_chain(rng: Rng, draw: ConeDraw, size: int, pool_factor: int = 8) -> ChainSet:
    """Sort a random pool along the guard, keep a pairwise-comparable subset."""
    dimension = draw.cone.dimension
    pool = [rand_point(rng, dimension) for _ in range(pool_factor * size)]
    pool.sort(key=lambda p: vdot(draw.guard, p))
    kept: list[Vec] = []
    for p in pool:
        if len(kept) == size:
            break
        if p in kept:
            continue
        if all(relate(draw.cone, q, p) is not Comparability.INCOMPARABLE for q in kept):
            kept.append(p)
    return ChainSet(FinitePointSet(tuple(kept)), draw.cone)


def rand_decomposable(
    rng: Rng, draw: ConeDraw, summands: int, max_points: int
) -> DecomposableSet:
    chains = tuple(
        rand_chain(rng, draw, rng.randint(1, max_points)) for _ in range(summands)
    )
    return DecomposableSet(chains)


def rand_hull_point(rng: Rng, d: DecomposableSet, strict: bool = False) -> Vec:
    """Random point of co(materialize(d)) as a sum of per-summand combinations."""
    total = None
    for s in d.summands:
        pts = s.base.points
        lam = rand_convex_coefficients(rng, len(pts), strict=strict)
        part = tuple(sum(c * p[i] for c, p in zip(lam, pts)) for i in range(d.dimension))
        total = part if total is None else vadd(total, part)
    assert total is not None
    return total


def rand_upward_polyhedron(rng: Rng, draw: ConeDraw, n_vertices: int) -> Polyhedron:
    pts = FinitePointSet.build(
        rand_point(rng, draw.cone.dimension) for _ in range(n_vertices)
    )
    return upward_hull(pts, draw.cone)


def rand_relative_interior_point(rng: Rng, poly: Polyhedron) -> Vec:
    """Strict convex combination of all vertices plus strictly positive ray mass."""
    lam = rand_convex_coefficients(rng, len(poly.vertices), strict=True)
    point = tuple(
        sum(c * v[i] for c, v in zip(lam, poly.vertices.points))
        for i in range(poly.vertices.dimension)
    )
    for r in poly.rays:
        point = vadd(point, vscale(rand_positive_frac(rng), r))
    return point


def lowered_below(
    target: FinitePointSet, guard: Vec, floor: Fraction, margin: Fraction = ONE
) -> Vec:
    """Translation vector pushing every target point strictly below the floor
    along the guard direction (guard value at most floor - margin)."""
    top = max(vdot(guard, p) for p in target.points)
    if top <= floor - margin:
        return tuple(ZERO for _ in guard)
    shift = (top - (floor - margin)) / vdot(guard, guard)
    return vscale(-shift, guard)


def rand_disjoint_pair(
    rng: Rng,
    dimension: int,
    chain_points: int,
    summands: int,
    y_points: int,
) -> tuple[Polyhedron, DecomposableSet, ConeDraw]:
    """Upward convex X and a decomposable Y whose hull sits strictly below X.

    X = chain + cone sits in the half-space {guard . x >= m} where m is the
    guard minimum over the chain; Y is translated so its materialized
    maximum along the guard is at most m - 1, which keeps the hulls
    disjoint by construction.
    """
    draw = rand_pointed_cone(rng, dimension, contains_zero=True)
    chain = rand_chain(rng, draw, chain_points)
    x_poly = upward_hull(chain.base, draw.cone)
    floor = min(vdot(draw.guard, v) for v in x_poly.vertices.points)
    y = rand_decomposable(rng, draw, summands, y_points)
    shift = lowered_below(materialize(y), draw.guard, floor)
    shifted = DecomposableSet(
        (
            ChainSet(
                FinitePointSet(tuple(vadd(p, shift) for p in y.summands[0].base.points)),
                draw.cone,
            ),
        )
        + y.summands[1:]
    )
    return x_poly, shifted, draw


def rand_bounded_disjoint_pair(
    rng: Rng, dimension: int, chain_points: int, y_points: int
) -> tuple[Polyhedron, Polyhedron, ConeDraw]:
    """Upward convex X and a bounded polytope Y strictly below it."""
    draw = rand_pointed_cone(rng, dimension, contains_zero=True)
    chain = rand_chain(rng, draw, chain_points)
    x_poly = upward_hull(chain.base, draw.cone)
    floor = min(vdot(draw.guard, v) for v in x_poly.vertices.points)
    pts = FinitePointSet.build(rand_point(rng, dimension) for _ in range(y_points))
    shift = lowered_below(pts, draw.guard, floor)
    y_poly = convex_hull(FinitePointSet.build(vadd(p, shift) for p in pts))
    return x_poly, y_poly, draw


def rand_cone_member(rng: Rng, cone: Cone, strict: bool = True) -> Vec:
    """Certificate-backed member: explicit nonnegative combination of generators."""
    coeffs = [
        Fraction(rng.randint(1 if strict else 0, 6), rng.choice(DENOMINATORS))
        for _ in cone.generators
    ]
    if strict and all(c == 0 for c in coeffs):
        coeffs[rng.randrange(len(coeffs))] = ONE
    out = tuple(ZERO for _ in range(cone.dimension))
    for c, g in zip(coeffs, cone.generators):
        out = vadd(out, vscale(c, g))
    return out


def rand_utility_table(rng: Rng, ground: FinitePointSet) -> dict[Vec, Fraction]:
    """Random rational utility values with deliberate ties (small value pool)."""
    pool = [Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)) for _ in range(5)]
    return {p: rng.choice(pool) for p in ground.points}


def rand_ground_set(rng: Rng, dimension: int, size: int) -> FinitePointSet:
    pts: dict[Vec, None] = {}
    while len(pts) < size:
        pts[rand_point(rng, dimension)] = None
    return FinitePointSet(tuple(pts))
