"""Seeded random instance generation for the test and acceptance suites.

The sampling distribution is pinned so oracle runs are reproducible:

- coordinates are rationals with numerators in [-9, 9] and denominators
  in {1, 2, 3};
- suite cones are simplicial (linearly independent generators), drawn in
  the open half-space of a strictly positive guard direction, which makes
  them pointed and keeps every membership query on the fast exact-solve
  path;
- chains are built by walking a pool of random points along the guard
  direction and greedily keeping a subset in which all pairs are
  comparable, with one `ConeOrder` on the pool for both the guard keys and
  the comparisons.

Every generator takes an explicit `random.Random`; identical seeds give
identical instances. The coordinate draws hand out values from one table of
the 57 rationals n/d the distribution allows, and the draws that combine
points (hull, cone and relative-interior points) sum in integers over the
sets' cached integer views, with one `Fraction` per output coordinate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .cones import Cone, ConeOrder
from .linalg import ONE, ZERO, IntegerPoints, Vec, integer_multiple, vadd, vdot, vscale
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

# Every value n/d with n in NUMERATORS and d in DENOMINATORS, made once.
_FRACTIONS = {(n, d): Fraction(n, d) for n in NUMERATORS for d in DENOMINATORS}

# Pool points `rand_chain` draws per point it keeps.
_POOL_FACTOR = 8


def rand_frac(rng: Rng) -> Fraction:
    return _FRACTIONS[rng.randint(-9, 9), rng.choice(DENOMINATORS)]


def rand_point(rng: Rng, dimension: int) -> Vec:
    return tuple(rand_frac(rng) for _ in range(dimension))


def rand_positive_frac(rng: Rng) -> Fraction:
    return _FRACTIONS[rng.randint(1, 9), rng.choice(DENOMINATORS)]


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
    # guard.g in integers: h.q has its sign for positive multiples h and q of guard and g.
    _, h = integer_multiple(guard)
    while True:
        gens: list[Vec] = []
        for _ in range(dimension):
            g = rand_point(rng, dimension)
            s = sum(map(mul, h, integer_multiple(g)[1]))
            if s == 0:
                g = tuple(c + ONE for c in g)  # nudge off the guard hyperplane
                s = sum(map(mul, h, integer_multiple(g)[1]))
            if s < 0:
                g = tuple(-c for c in g)
            gens.append(g)
        cone = Cone(dimension, tuple(gens), contains_zero)
        if cone.span_solver.unique:
            return ConeDraw(cone, guard)


def _rand_weights(rng: Rng, k: int, strict: bool) -> list[int]:
    """k integer weights in [0, 9] ([1, 9] when strict), not all zero."""
    lo = 1 if strict else 0
    weights = [rng.randint(lo, 9) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    return weights


def _weighted(rng: Rng, view: IntegerPoints, strict: bool) -> tuple[int, list[int]]:
    """A random convex combination of the view's points as (d, q): the
    point q / d, for q in integers."""
    weights = _rand_weights(rng, len(view.points), strict)
    return sum(weights) * view.scale, [sum(map(mul, weights, column)) for column in zip(*view.points)]


def _combination(terms: Sequence[tuple[int, Sequence[int]]], dimension: int) -> Vec:
    """The sum of q / d over the terms (d, q), for positive integers d and
    integer vectors q, summed in integers over the lcm of the d."""
    denominator = lcm(*(d for d, _ in terms))
    total = [0] * dimension
    for d, q in terms:
        m = denominator // d
        total = [t + m * c for t, c in zip(total, q)]
    return tuple(Fraction(t, denominator) for t in total)


def rand_chain(rng: Rng, draw: ConeDraw, size: int) -> ChainSet:
    """Walk a random pool along the guard, keep a pairwise-comparable subset."""
    dimension = draw.cone.dimension
    pool = [rand_point(rng, dimension) for _ in range(_POOL_FACTOR * size)]
    order = ConeOrder(draw.cone, pool)
    # guard.p in integers, read from the order's view of the pool: one positive scale for the guard and one for the
    # pool keep every comparison.
    _, guard = integer_multiple(draw.guard)
    keys = [sum(map(mul, guard, q)) for q in order.view.points]
    kept: list[int] = []
    for i in sorted(range(len(pool)), key=keys.__getitem__):
        if len(kept) == size:
            break
        if all(pool[i] != pool[k] and order.comparable(k, i) for k in kept):
            kept.append(i)
    return ChainSet(FinitePointSet(tuple(pool[k] for k in kept)), draw.cone)


def rand_decomposable(
    rng: Rng, draw: ConeDraw, summands: int, max_points: int
) -> DecomposableSet:
    chains = tuple(
        rand_chain(rng, draw, rng.randint(1, max_points)) for _ in range(summands)
    )
    return DecomposableSet(chains)


def rand_hull_point(rng: Rng, d: DecomposableSet) -> Vec:
    """Random point of co(materialize(d)) as a sum of per-summand combinations."""
    return _combination([_weighted(rng, s.base.integer_view, False) for s in d.summands], d.dimension)


def rand_upward_polyhedron(rng: Rng, draw: ConeDraw, n_vertices: int) -> Polyhedron:
    pts = FinitePointSet.build(
        rand_point(rng, draw.cone.dimension) for _ in range(n_vertices)
    )
    return upward_hull(pts, draw.cone)


def rand_relative_interior_point(rng: Rng, poly: Polyhedron) -> Vec:
    """Strict convex combination of all vertices plus strictly positive ray mass."""
    terms = [_weighted(rng, poly.vertices.integer_view, strict=True)]
    rays = poly.ray_view
    for r in rays.points:
        c = rand_positive_frac(rng)
        terms.append((c.denominator * rays.scale, [c.numerator * x for x in r]))
    return _combination(terms, poly.dimension)


def lowered_below(target: FinitePointSet, guard: Vec, floor: Fraction) -> Vec:
    """Translation vector pushing every target point strictly below the floor
    along the guard direction (guard value at most floor - 1)."""
    top = max(vdot(guard, p) for p in target.points)
    if top <= floor - ONE:
        return tuple(ZERO for _ in guard)
    shift = (top - (floor - ONE)) / vdot(guard, guard)
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
    """Certificate-backed member: explicit nonnegative combination of generators,
    each with a positive coefficient when `strict`."""
    if strict and not cone.generators:
        raise ValueError("a strict cone member needs a cone with at least one generator")
    coeffs = [_FRACTIONS[rng.randint(1 if strict else 0, 6), rng.choice(DENOMINATORS)] for _ in cone.generators]
    view = cone.generator_view
    return _combination(
        [(c.denominator * view.scale, [c.numerator * x for x in g]) for c, g in zip(coeffs, view.points)],
        cone.dimension,
    )


def rand_utility_table(rng: Rng, ground: FinitePointSet) -> dict[Vec, Fraction]:
    """Random rational utility values with deliberate ties (small value pool)."""
    pool = [Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)) for _ in range(5)]
    return {p: rng.choice(pool) for p in ground.points}


def rand_ground_set(rng: Rng, dimension: int, size: int) -> FinitePointSet:
    pts: dict[Vec, None] = {}
    while len(pts) < size:
        pts[rand_point(rng, dimension)] = None
    return FinitePointSet(tuple(pts))
