"""Finite point sets, chains, Minkowski sums of chains, and V-polyhedra.

A finite set satisfies the antichain-convexity condition relative to a cone
exactly when it is a chain of the cone order (any incomparable pair would
demand fractional combinations the finite set cannot hold), so `ChainSet`
is the canonical finite carrier and `DecomposableSet` a Minkowski sum of
such chains. `is_grid_antichain_convex` is the explicitly discrete
surrogate used for lattice checks and is labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .cones import (
    Comparability,
    Cone,
    cone_contains,
    coordinates_above,
    k_closure,
    order_coordinates,
    relate,
)
from .linalg import (
    Vec,
    fvec,
    hull_membership,
    is_zero_vec,
    relative_interior_membership,
    vadd,
    vscale,
)


@dataclass(frozen=True)
class FinitePointSet:
    """Deduplicated points in insertion order. Equality is order-sensitive;
    use `sorted_points()` to compare as sets."""

    points: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if self.points:
            n = len(self.points[0])
            for p in self.points:
                if len(p) != n:
                    raise ValueError("point dimension mismatch")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be deduplicated; use FinitePointSet.build")

    @classmethod
    def build(cls, points: Iterable[Sequence[object]]) -> "FinitePointSet":
        return cls(tuple(dict.fromkeys(fvec(p) for p in points)))

    @property
    def dimension(self) -> int:
        if not self.points:
            raise ValueError("empty point set has no dimension")
        return len(self.points[0])

    def sorted_points(self) -> tuple[Vec, ...]:
        return tuple(sorted(self.points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p: Vec) -> bool:
        return p in self.points


def _first_pair(s: FinitePointSet, cone: Cone, comparable: bool) -> tuple[Vec, Vec] | None:
    """First pair (points i < j, scanned by i, then j) whose comparability
    in the cone order is `comparable`.

    With order coordinates each point is eliminated once and every pair is
    a sign check; otherwise every pair goes through `relate`.
    """
    pts = s.points
    coords = order_coordinates(cone, pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if coords is None:
                hit = relate(cone, pts[i], pts[j]) is not Comparability.INCOMPARABLE
            else:
                hit = coordinates_above(coords[i], coords[j]) or coordinates_above(coords[j], coords[i])
            if hit == comparable:
                return pts[i], pts[j]
    return None


def first_incomparable_pair(s: FinitePointSet, cone: Cone) -> tuple[Vec, Vec] | None:
    """First pair of points that the cone order leaves incomparable."""
    return _first_pair(s, cone, comparable=False)


def first_comparable_pair(s: FinitePointSet, cone: Cone) -> tuple[Vec, Vec] | None:
    """First pair of distinct points that the cone order compares."""
    return _first_pair(s, cone, comparable=True)


def is_chain(s: FinitePointSet, cone: Cone) -> bool:
    """Every pair of points comparable in the cone order."""
    return first_incomparable_pair(s, cone) is None


def is_antichain(s: FinitePointSet, cone: Cone) -> bool:
    """No two distinct points comparable in the cone order."""
    return first_comparable_pair(s, cone) is None


@dataclass(frozen=True)
class ChainSet:
    """A finite chain of the cone order; validated on construction."""

    base: FinitePointSet
    cone: Cone

    def __post_init__(self) -> None:
        if len(self.base) == 0:
            raise ValueError("a chain needs at least one point")
        if self.base.dimension != self.cone.dimension:
            raise ValueError("chain and cone dimensions differ")
        bad = first_incomparable_pair(self.base, self.cone)
        if bad is not None:
            raise ValueError(f"points {bad[0]} and {bad[1]} are incomparable under the cone")

    @classmethod
    def build(cls, points: Iterable[Sequence[object]], cone: Cone) -> "ChainSet":
        return cls(FinitePointSet.build(points), cone)


@dataclass(frozen=True)
class DecomposableSet:
    """Minkowski sum of chains sharing one cone and one dimension."""

    summands: tuple[ChainSet, ...]

    def __post_init__(self) -> None:
        if not self.summands:
            raise ValueError("a decomposable set needs at least one summand")
        first = self.summands[0]
        for s in self.summands:
            if s.cone != first.cone:
                raise ValueError("summands must share one cone")

    @property
    def cone(self) -> Cone:
        return self.summands[0].cone

    @property
    def dimension(self) -> int:
        return self.summands[0].base.dimension


def minkowski_sum(a: FinitePointSet, b: FinitePointSet) -> FinitePointSet:
    return FinitePointSet.build(vadd(p, q) for p in a.points for q in b.points)


def materialize(d: DecomposableSet) -> FinitePointSet:
    """All sums picking one point per summand; deduplicated."""
    acc = d.summands[0].base
    for s in d.summands[1:]:
        acc = minkowski_sum(acc, s.base)
    return acc


@dataclass(frozen=True)
class Polyhedron:
    """V-representation: conv(vertices) + cone(rays). Vertices nonempty."""

    vertices: FinitePointSet
    rays: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) == 0:
            raise ValueError("a polyhedron needs at least one vertex")
        n = self.vertices.dimension
        for r in self.rays:
            if len(r) != n:
                raise ValueError("ray dimension mismatch")

    @classmethod
    def build(cls, vertices: Iterable[Sequence[object]], rays: Iterable[Sequence[object]] = ()) -> "Polyhedron":
        return cls(FinitePointSet.build(vertices), tuple(fvec(r) for r in rays))

    @property
    def dimension(self) -> int:
        return self.vertices.dimension


def poly_contains(p: Polyhedron, point: Vec) -> bool:
    return hull_membership(point, p.vertices.points, p.rays).member


def in_relative_interior(p: Polyhedron, point: Vec) -> bool:
    return relative_interior_membership(point, p.vertices.points, p.rays)


def convex_hull(s: FinitePointSet) -> Polyhedron:
    """Bounded hull of a finite set: keep exactly the extreme points.

    A point is extreme iff it is outside the hull of the others, so one
    membership program per point decides the vertex list.
    """
    pts = s.points
    if len(pts) == 1:
        return Polyhedron(s, ())
    keep = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not hull_membership(p, others).member:
            keep.append(p)
    if not keep:  # all points coincide after deduplication; cannot happen
        raise RuntimeError("hull lost every point")
    return Polyhedron(FinitePointSet(tuple(keep)), ())


def recession_contains(p: Polyhedron, direction: Vec) -> bool:
    """direction expressible as a nonnegative combination of the rays."""
    if is_zero_vec(direction):
        return True
    if not p.rays:
        return False
    ray_cone = Cone(p.dimension, p.rays, True)
    return cone_contains(ray_cone, direction)


def is_upward(p: Polyhedron, cone: Cone) -> bool:
    """P + C inside P: every generator lies in the recession cone of P."""
    if cone.dimension != p.dimension:
        raise ValueError("cone and polyhedron dimensions differ")
    return all(recession_contains(p, g) for g in cone.generators)


def upward_hull(s: FinitePointSet, cone: Cone) -> Polyhedron:
    """Hull of S swept upward: conv(extreme points of S) plus the closed cone."""
    if s.dimension != cone.dimension:
        raise ValueError("set and cone dimensions differ")
    base = convex_hull(s)
    return Polyhedron(base.vertices, k_closure(cone).generators)


def poly_equal(p: Polyhedron, q: Polyhedron) -> bool:
    """Set equality via mutual containment of vertices and rays."""
    if p.dimension != q.dimension:
        return False
    for v in p.vertices:
        if not poly_contains(q, v):
            return False
    for v in q.vertices:
        if not poly_contains(p, v):
            return False
    for r in p.rays:
        if not recession_contains(q, r):
            return False
    for r in q.rays:
        if not recession_contains(p, r):
            return False
    return True


def _lattice_unit(s: FinitePointSet) -> Fraction:
    """Grid pitch inferred from the coordinates: one over the lcm of all
    coordinate denominators. Integral data yields the unit lattice."""
    denominator = 1
    for p in s.points:
        for c in p:
            denominator = lcm(denominator, c.denominator)
    return Fraction(1, denominator)


def is_grid_antichain_convex(
    s: FinitePointSet,
    cone: Cone,
    denominator: int,
    step: Fraction | None = None,
) -> bool:
    """Discrete surrogate of antichain convexity on a lattice.

    For every incomparable pair and every combination weight k/denominator,
    a combination that lands on the lattice (pitch `step`, inferred from
    the data when omitted) must itself belong to the set. This is only a
    lattice check, not the continuum condition.
    """
    if denominator < 2:
        raise ValueError("denominator must be at least 2")
    if len(s) <= 1:
        return True
    pitch = step if step is not None else _lattice_unit(s)
    pts = s.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if relate(cone, pts[i], pts[j]) is not Comparability.INCOMPARABLE:
                continue
            for k in range(1, denominator):
                lam = Fraction(k, denominator)
                z = vadd(vscale(lam, pts[i]), vscale(1 - lam, pts[j]))
                if all((c / pitch).denominator == 1 for c in z) and z not in pts:
                    return False
    return True
