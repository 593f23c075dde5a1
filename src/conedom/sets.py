"""Finite point sets, chains, Minkowski sums of chains, and V-polyhedra.

A finite set satisfies the antichain-convexity condition relative to a cone
exactly when it is a chain of the cone order (any incomparable pair would
demand fractional combinations the finite set cannot hold), so `ChainSet`
is the canonical finite carrier and `DecomposableSet` a Minkowski sum of
such chains. `is_grid_antichain_convex` is the explicitly discrete
surrogate used for lattice checks and is labeled as such. Every pair is
compared through one `conedom.cones.ConeOrder` per scan; a `ChainSet`
keeps one for its dominance scans. A polyhedron's containment and
relative-interior verdicts are integer dot products with the facets of its
homogenized cone (`Polyhedron.facets`), built once on first use; above the
facet routine's work bound they stay one LP per point. `convex_hull` reads
the facets of the same cone: it keeps the points that share their facets
with no other point, and asks one LP per point only above that bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add, mul
from typing import Iterable, Sequence

from .cones import Cone, ConeOrder, Facets, cone_contains, cone_facets
from .linalg import (
    _MAX_SUM_POINTS,
    IntegerPoints,
    LimitError,
    Vec,
    fvec,
    hull_membership,
    integer_multiple,
    integer_points,
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
        _check_dimensions(self.points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be deduplicated; use FinitePointSet.build")

    @classmethod
    def build(cls, points: Iterable[Sequence[object]]) -> "FinitePointSet":
        distinct = tuple(dict.fromkeys(fvec(p) for p in points))
        _check_dimensions(distinct)
        return cls._of_distinct(distinct)

    @classmethod
    def _of_distinct(cls, points: tuple[Vec, ...]) -> "FinitePointSet":
        """The set of points already known distinct and of one dimension (as
        any subset of a set's points is), without hashing them again."""
        out = object.__new__(cls)
        object.__setattr__(out, "points", points)
        return out

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

    def __contains__(self, p: object) -> bool:
        try:
            return p in self.position
        except TypeError:  # an unhashable p equals no point
            return False

    @cached_property
    def position(self) -> dict[Vec, int]:
        """Each point's index in `points`, built on first use."""
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def integer_view(self) -> IntegerPoints:
        """The points over one common denominator, built on first use."""
        return integer_points(self.points)


def _check_dimensions(points: tuple[Vec, ...]) -> None:
    if any(len(p) != len(points[0]) for p in points):
        raise ValueError("point dimension mismatch")


def _first_pair(order: ConeOrder, comparable: bool) -> tuple[Vec, Vec] | None:
    """First pair (points i < j, scanned by i, then j) whose comparability
    in the cone order is `comparable`."""
    pts = order.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if order.comparable(i, j) == comparable:
                return pts[i], pts[j]
    return None


def first_incomparable_pair(s: FinitePointSet, cone: Cone) -> tuple[Vec, Vec] | None:
    """First pair of points that the cone order leaves incomparable."""
    return _first_pair(ConeOrder(cone, s.points), comparable=False)


def first_comparable_pair(s: FinitePointSet, cone: Cone) -> tuple[Vec, Vec] | None:
    """First pair of distinct points that the cone order compares."""
    return _first_pair(ConeOrder(cone, s.points), comparable=True)


def is_chain(s: FinitePointSet, cone: Cone) -> bool:
    """Every pair of points comparable in the cone order."""
    return first_incomparable_pair(s, cone) is None


def is_antichain(s: FinitePointSet, cone: Cone) -> bool:
    """No two distinct points comparable in the cone order."""
    return first_comparable_pair(s, cone) is None


@dataclass(frozen=True)
class ChainSet:
    """A finite chain of the cone order; validated on construction.

    `order` is the cone order on the chain's points, built once by the
    validating scan and kept; its verdicts serve any cone with the chain's
    generators. Its integer view of the points becomes the base's
    `integer_view` when the base has none yet, so one view serves the
    order, the hull programs and the sums.
    """

    base: FinitePointSet
    cone: Cone
    order: ConeOrder = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.base) == 0:
            raise ValueError("a chain needs at least one point")
        if self.base.dimension != self.cone.dimension:
            raise ValueError("chain and cone dimensions differ")
        order = ConeOrder(self.cone, self.base.points)
        bad = _first_pair(order, comparable=False)
        if bad is not None:
            raise ValueError(f"points {bad[0]} and {bad[1]} are incomparable under the cone")
        object.__setattr__(self, "order", order)
        vars(self.base).setdefault("integer_view", order.view)  # fills the cached_property

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


def _sum_of(summands: Sequence[FinitePointSet]) -> FinitePointSet:
    """Every sum picking one point per summand, in the order of first
    occurrence over the summands' product (a single summand is returned
    as it is).

    The sums are formed in integers, over the lcm of the summands' view
    scales, and deduplicated stage by stage. That keeps the order: the first
    occurrence of a sum extends the first occurrence of its partial sum.
    Each distinct point then takes one `Fraction` per coordinate.
    """
    if len(summands) == 1:
        return summands[0]
    views = [s.integer_view for s in summands]
    scale = lcm(*(v.scale for v in views))
    lifted = [[tuple(scale // v.scale * c for c in q) for q in v.points] for v in views]
    acc: Iterable[tuple[int, ...]] = lifted[0]
    for points in lifted[1:]:
        acc = dict.fromkeys(tuple(map(add, p, q)) for p in acc for q in points)
    return FinitePointSet._of_distinct(tuple(tuple(Fraction(c, scale) for c in p) for p in acc))


def minkowski_sum(a: FinitePointSet, b: FinitePointSet) -> FinitePointSet:
    if a.points and b.points and a.dimension != b.dimension:
        raise ValueError("point dimension mismatch")
    return _sum_of((a, b))


def materialize(d: DecomposableSet) -> FinitePointSet:
    """All sums picking one point per summand; deduplicated. `LimitError`
    when the product of the summand sizes is above `_MAX_SUM_POINTS`."""
    count = prod(len(s.base) for s in d.summands)
    if count > _MAX_SUM_POINTS:
        raise LimitError(
            f"sum of {len(d.summands)} chains has up to {count} points, more than the limit of {_MAX_SUM_POINTS}"
        )
    return _sum_of([s.base for s in d.summands])


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

    @cached_property
    def ray_view(self) -> IntegerPoints:
        """The rays over one common denominator, built on first use."""
        return integer_points(self.rays)

    @cached_property
    def ray_cone(self) -> Cone:
        """The cone of the rays, the recession cone, built on first use."""
        return Cone(self.dimension, self.rays, True)

    @cached_property
    def facets(self) -> Facets | None:
        """Equations and facet normals of the homogenized cone, generated by
        (v, 1) for each vertex and (r, 0) for each ray, built on first use.

        The polyhedron is that cone's slice at last coordinate one, and its
        relative interior the slice of the cone's relative interior. None
        when the double description of `cone_facets` passes its work bound.
        """
        vs = self.vertices.integer_view
        generators = [(*v, vs.scale) for v in vs.points] + [(*r, 0) for r in self.ray_view.points]
        return cone_facets(self.dimension + 1, generators)


def _lifted(p: Polyhedron, point: Vec) -> tuple[int, ...]:
    """(d z, d) for the point z and d the lcm of its denominators."""
    if len(point) != p.dimension:
        raise ValueError("point dimension does not match the polyhedron")
    d, q = integer_multiple(point)
    return (*q, d)


def poly_contains(p: Polyhedron, point: Vec) -> bool:
    """Membership read from `Polyhedron.facets`, or a hull LP without them."""
    facets = p.facets
    if facets is None:
        return hull_membership(point, p.vertices.integer_view, p.ray_view).member
    return facets.contains(_lifted(p, point))


def in_relative_interior(p: Polyhedron, point: Vec) -> bool:
    """Relative-interior membership read from `Polyhedron.facets`, or the
    relative-interior LP without them."""
    facets = p.facets
    if facets is None:
        return relative_interior_membership(point, p.vertices.integer_view, p.ray_view)
    return facets.contains(_lifted(p, point), relative_interior=True)


def convex_hull(s: FinitePointSet) -> Polyhedron:
    """Bounded hull of a finite set: keep exactly the extreme points, in
    input order.

    The points, lifted to (q, scale) from the integer view, generate a
    cone one dimension up, described by its `Cone.facets`, one normal per
    facet. The smallest face of the hull that holds a point p is the hull of
    the points on every facet through p, so p is extreme exactly when no
    other point lies on all of p's facets. Each point's facets are one int
    bitmask, and the distinct bitmasks are counted once. Only above the
    facet work bound, with no facets, is each point asked one membership
    program: it is extreme iff it is outside the hull of the others.
    """
    pts = s.points
    scale, view = s.integer_view
    lifts = tuple((*q, scale) for q in view)
    facets = Cone(s.dimension + 1, lifts, False).facets
    if facets is None:
        keep = [p for i, p in enumerate(pts) if not hull_membership(p, pts[:i] + pts[i + 1 :]).member]
    else:
        tight = [sum(1 << i for i, h in enumerate(facets.normals) if not sum(map(mul, h, x))) for x in lifts]
        faces = Counter(tight)
        keep = [p for p, z in zip(pts, tight) if sum(n for w, n in faces.items() if w & z == z) == 1]
    if not keep:  # all points coincide after deduplication; cannot happen
        raise RuntimeError("hull lost every point")
    return Polyhedron(FinitePointSet._of_distinct(tuple(keep)), ())


def recession_contains(p: Polyhedron, direction: Vec) -> bool:
    """direction expressible as a nonnegative combination of the rays."""
    return is_zero_vec(direction) or (bool(p.rays) and cone_contains(p.ray_cone, direction))


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
    return Polyhedron(base.vertices, cone.generators)


def _lattice_unit(s: FinitePointSet) -> Fraction:
    """Grid pitch inferred from the coordinates: one over the lcm of all
    coordinate denominators (the integer view's scale). Integral data
    yields the unit lattice."""
    return Fraction(1, s.integer_view.scale)


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
    order = ConeOrder(cone, pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if order.comparable(i, j):
                continue
            for k in range(1, denominator):
                lam = Fraction(k, denominator)
                z = vadd(vscale(lam, pts[i]), vscale(1 - lam, pts[j]))
                if all((c / pitch).denominator == 1 for c in z) and z not in pts:
                    return False
    return True
