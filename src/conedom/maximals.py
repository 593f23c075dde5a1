"""Finite relations, maximal elements, budget demand and lattice checks.

A relation is stored as a boolean matrix over a finite ground set:
related[i][j] says point i belongs to the upper set of point j, and a
point's row and column are read from a point-to-position dict. For an
arbitrary relation the maximal elements of a subset come from the
definitional test on the matrix. A total preorder is read through integer
ranks in its own order instead (`_preorder_ranks`): a utility's distinct
values are sorted once and each is mapped to its position (`_ranks`), so
every comparison is an `int` comparison that agrees exactly with the
values'; a preorder given only by its matrix is ranked by its row sums.
The maximal elements of a subset are then its members of the highest rank.
Convexification replaces each upper set by its convex hull. The upper sets
of a total preorder are nested, so only the smallest upper set among the
subset's members, that of a top element, is convexified: the points ranked
at least as high as the top become one `Polyhedron`, asked about each
member below the top through its cached facets.

The maximizer-convexity check walks the lattice between demand points on
their axis indices. For demand indices a and b, with d = b - a and g the gcd
of d's entries, the grid points strictly between them are a + t·d/g for
0 < t < g: the grid is the lattice of integer multiples of step inside a
box, which holds every segment between two of its points. The paper takes antichain convexity as a
hypothesis on the utility, not as something its maximizers must show, and
on the lattice the walk implies it.

Demand evaluates the utility once per budget point and keeps the ascending
positions of the top values, which are already in lexicographic order. The
convexification-invariance check builds its grid once and evaluates the
utility once per grid point. Everything after that is integer work on
positions in the grid: the budget is the positions whose axis indices pass
one integer price test, the maximals and convexified maximals are read
from the value table's ranks at those positions, each hull question goes to
the facets on the point's lattice coordinates, and the nonsatiation verdict
compares the ranks of neighbors. No relation matrix is built and no point
is hashed. A grid computes its axis index ranges once, counts its points in
O(dimension) and refuses to build more than `_MAX_GRID_POINTS` of them
(`LimitError`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .cones import Cone, ConeOrder
from .linalg import _MAX_GRID_POINTS, ZERO, LimitError, Vec, frac, fvec
from .linalg import vadd, vscale
from .sets import FinitePointSet, Polyhedron, is_antichain, poly_contains

Utility = Callable[[Vec], Fraction]


@dataclass(frozen=True)
class FiniteRelation:
    """Boolean matrix relation over a finite ground set."""

    ground: FinitePointSet
    related: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.ground)
        if len(self.related) != k or any(len(row) != k for row in self.related):
            raise ValueError("relation matrix shape does not match the ground set")

    def index(self, p: Vec) -> int:
        try:
            return self.ground.position[p]
        except (KeyError, TypeError):
            raise ValueError(f"point {p} is not in the ground set") from None

    def holds(self, p: Vec, q: Vec) -> bool:
        """p belongs to the upper set of q."""
        return self.related[self.index(p)][self.index(q)]

    def upper_set(self, q: Vec) -> tuple[Vec, ...]:
        col = self.index(q)
        return tuple(p for i, p in enumerate(self.ground.points) if self.related[i][col])


def _ranks(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Each value's position among the sorted distinct values.

    Scaled by the lcm of their denominators the rational values become
    integers in the same order, so rank[i] >= rank[j] exactly when
    values[i] >= values[j].
    """
    scale = lcm(*(v.denominator for v in values))
    keys = [v.numerator * (scale // v.denominator) for v in values]
    level = {key: r for r, key in enumerate(sorted(set(keys)))}
    return tuple(map(level.__getitem__, keys))


def _rank_matrix(ranks: tuple[int, ...]) -> tuple[tuple[bool, ...], ...]:
    """related[i][j] = ranks[i] >= ranks[j]; points of one rank share a row."""
    rows = {r: tuple(map(r.__ge__, ranks)) for r in set(ranks)}
    return tuple(map(rows.__getitem__, ranks))


@dataclass(frozen=True)
class TotalPreorder(FiniteRelation):
    """Total transitive relation, optionally induced by a utility."""

    utility_values: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        k = len(self.ground)
        if self.utility_values is not None:
            # A matrix consistent with a utility ordering is automatically
            # total and transitive, so an O(k^2) consistency pass suffices;
            # it compares every entry with the order of the values' ranks.
            if len(self.utility_values) != k:
                raise ValueError("utility value count does not match the ground set")
            if tuple(map(tuple, self.related)) != _rank_matrix(_ranks(self.utility_values)):
                raise ValueError("relation matrix disagrees with its utility")
            return
        # A total relation is transitive exactly when it is the order of its
        # row sums (`_preorder_ranks`), so both checks are O(k^2).
        rows = tuple(map(tuple, self.related))
        if not all(rows[i][j] or rows[j][i] for i in range(k) for j in range(i + 1)):
            raise ValueError("relation is not total")
        if rows != _rank_matrix(tuple(map(sum, rows))):
            raise ValueError("relation is not transitive")

    @classmethod
    def from_utility(cls, ground: FinitePointSet, utility: Utility) -> "TotalPreorder":
        return cls._from_values(ground, tuple(map(utility, ground.points)))

    @classmethod
    def _from_values(
        cls, ground: FinitePointSet, values: tuple[Fraction, ...]
    ) -> "TotalPreorder":
        # Built from the values, the matrix agrees with them: `__post_init__` would only rebuild it.
        out = object.__new__(cls)
        vars(out).update(ground=ground, related=_rank_matrix(_ranks(values)), utility_values=values)
        return out


def _take(points: tuple[Vec, ...], positions: Iterable[int]) -> FinitePointSet:
    """The points at the given distinct positions, in that order."""
    return FinitePointSet._of_distinct(tuple(map(points.__getitem__, positions)))


def _preorder_ranks(relation: TotalPreorder) -> tuple[int, ...]:
    """Integer ranks in the preorder's order: `_ranks` of its utility values,
    or, for a preorder given only by its matrix, the row sums.

    Row i counts the points t with i ≽ t. If i ≽ j, transitivity puts every
    t below j below i too, and when i ≻ j row i also counts j while row j
    does not; so the row sums order the points exactly as the relation does.
    """
    if relation.utility_values is not None:
        return _ranks(relation.utility_values)
    return tuple(map(sum, relation.related))


def _top_positions(ranks: Sequence[int] | dict[int, Fraction], subset: Sequence[int]) -> list[int]:
    """The positions of `subset`, in its order, that have its highest rank
    (or value, for `ranks` that maps the positions to values)."""
    best = max(map(ranks.__getitem__, subset), default=None)
    return [i for i in subset if ranks[i] == best]


def _convexified_positions(
    points: tuple[Vec, ...],
    ranks: Sequence[int],
    subset: Sequence[int],
    inside: Callable[[Polyhedron, int], bool],
) -> list[int]:
    """The positions of `subset`, in its order, that lie in the convex hull
    of every member's upper set.

    The upper sets are nested, and the smallest among the members' is U(s*)
    for any member s* of the highest rank: the points ranked at least as
    high as s*. So m survives iff m ≽ s* (no hull is needed) or m lies in
    conv(U(s*)). That hull is built once as a `Polyhedron`, and `inside(hull,
    i)` is asked once for each member below s*, in subset order.
    """
    if not subset:
        return []
    best = max(map(ranks.__getitem__, subset))
    hull = Polyhedron(FinitePointSet._of_distinct(tuple(p for p, r in zip(points, ranks) if r >= best)), ())
    return [i for i in subset if ranks[i] >= best or inside(hull, i)]


def maximals(relation: FiniteRelation, subset: FinitePointSet) -> FinitePointSet:
    """Maximal elements of the subset under the relation.

    Definitionally m is maximal when every member of the subset that
    relates to m is related back by m. For a total preorder this reduces
    to m having the highest rank among the members (`_preorder_ranks`).
    """
    idx = [relation.index(p) for p in subset.points]
    if isinstance(relation, TotalPreorder):
        keep = _top_positions(_preorder_ranks(relation), idx)
    else:
        rel = relation.related
        keep = [i for i in idx if all(rel[i][j] for j in idx if rel[j][i])]
    return _take(relation.ground.points, keep)


def convexified_maximals(relation: TotalPreorder, subset: FinitePointSet) -> FinitePointSet:
    """Maximals after replacing each upper set with its convex hull
    (`_convexified_positions`). Each point below the top is asked
    `poly_contains`: integer dot products with the hull's facets, which an
    upper set on a line or a plane gets at any size and in any dimension
    (`cones._outline`), or one hull program per point above the facet work
    bound, which only an upper set that fills three dimensions or more can
    reach.
    """
    points = relation.ground.points
    idx = [relation.index(p) for p in subset.points]
    keep = _convexified_positions(
        points, _preorder_ranks(relation), idx, lambda hull, i: poly_contains(hull, points[i])
    )
    return _take(points, keep)


@dataclass(frozen=True)
class PriceSystem:
    """Strictly positive prices with nonnegative wealth."""

    price: Vec
    wealth: Fraction

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.price):
            raise ValueError("prices must be strictly positive")
        if self.wealth < 0:
            raise ValueError("wealth must be nonnegative")

    @classmethod
    def build(cls, price: Sequence[object], wealth: object) -> "PriceSystem":
        return cls(fvec(price), frac(wealth))


@dataclass(frozen=True)
class GridDomain:
    """Finite lattice: multiples of `step` inside the box, nonnegative orthant."""

    step: Fraction
    box: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        for lo, hi in self.box:
            if lo > hi:
                raise ValueError("box bounds are inverted")

    @classmethod
    def build(cls, step: object, box: Iterable[tuple[object, object]]) -> "GridDomain":
        return cls(frac(step), tuple((frac(lo), frac(hi)) for lo, hi in box))

    @property
    def dimension(self) -> int:
        return len(self.box)

    @cached_property
    def _axis_ranges(self) -> tuple[range, ...]:
        """Per axis, the k with k * step in the box, from floor divisions
        computed once per grid. The grid points run through the index tuples
        of `itertools.product(*_axis_ranges)`, in that order."""
        return tuple(range(-(-max(lo, ZERO) // self.step), hi // self.step + 1) for lo, hi in self.box)

    @property
    def point_count(self) -> int:
        """Number of grid points, counted in O(dimension) without building any."""
        return prod(max(0, r.stop - r.start) for r in self._axis_ranges)

    def _capped_count(self) -> int:
        """`point_count`, or `LimitError` above the cap."""
        count = self.point_count
        if count > _MAX_GRID_POINTS:
            raise LimitError(f"grid has {count} points, more than the limit of {_MAX_GRID_POINTS}")
        return count

    def _index_tuples(self) -> Iterator[tuple[int, ...]]:
        """The axis index tuples of the points, in the order they run;
        `LimitError` above the cap. `itertools.product` reads every axis
        before its first tuple, so an empty grid yields none without reading
        its other axes."""
        return itertools.product(*self._axis_ranges) if self._capped_count() else iter(())

    def axis_values(self, d: int) -> tuple[Fraction, ...]:
        return tuple(k * self.step for k in self._axis_ranges[d])

    def points(self) -> FinitePointSet:
        """All grid points in lexicographic order; `LimitError` above the cap."""
        if self._capped_count() == 0:  # an empty axis: leave the others, however long, unbuilt
            return FinitePointSet(())
        axes = [self.axis_values(d) for d in range(self.dimension)]
        return FinitePointSet._of_distinct(tuple(itertools.product(*axes)))

    def __contains__(self, p: Vec) -> bool:
        if len(p) != self.dimension:
            return False
        for c, (lo, hi) in zip(p, self.box):
            if c < max(lo, ZERO) or c > hi or (c / self.step).denominator != 1:
                return False
        return True


def ratio_utility(x: Vec) -> Fraction:
    """x1 * x2 / (x1 + 1) - 5 x1 + x2 on the nonnegative quadrant.

    Strictly increasing in x2 and eventually decreasing in x1; its level
    sets are orthant-antichain-convex although the function itself is not
    quasiconcave, which makes it the showcase input for the demand checks.
    Each coordinate is read once as an integer ratio; for x = (a/b, c/d) the
    value is the one ratio (abc - 5ad(a + b) + cb(a + b)) / (bd(a + b)).
    """
    if len(x) != 2:
        raise ValueError("ratio utility is bivariate")
    (a, b), (c, d) = (t.as_integer_ratio() for t in x)
    if a < 0 or c < 0:
        raise ValueError("ratio utility requires nonnegative coordinates")
    s = a + b
    return Fraction(a * b * c - 5 * a * d * s + c * b * s, b * d * s)


def linear_utility(x: Vec) -> Fraction:
    """The coordinate sum, kept as one integer ratio (num, den) as `vdot`
    keeps its sum: a term whose denominator is den adds its numerator, any
    other is cross-multiplied in."""
    num, den = 0, 1
    for c in x:
        n, d = c.as_integer_ratio()
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return Fraction(num, den)


def min_utility(x: Vec) -> Fraction:
    return min(x)


UTILITIES: dict[str, Utility] = {
    "ratio": ratio_utility,
    "linear": linear_utility,
    "min": min_utility,
}


def budget_set(grid: GridDomain, prices: PriceSystem) -> FinitePointSet:
    """Grid points affordable at the prices: price . x <= wealth, exactly."""
    return _take(grid.points().points, _budget_positions(grid, prices))


def _price_weights(grid: GridDomain, prices: PriceSystem) -> tuple[list[int], Fraction]:
    """The integer weights w = m·price and the bound B = wealth·m/step, with
    m the lcm of the price denominators.

    Each grid point is step·k for its axis index tuple k, and
    price·(step·k) = (w·k)·step/m, so the point costs at most the wealth
    exactly when w·k <= B, and exactly the wealth when w·k = B.
    """
    if len(prices.price) != grid.dimension:
        raise ValueError("price dimension does not match the grid")
    m = lcm(*(c.denominator for c in prices.price))
    return [c.numerator * (m // c.denominator) for c in prices.price], prices.wealth * m / grid.step


def _budget_positions(grid: GridDomain, prices: PriceSystem) -> list[int]:
    """The positions in `grid.points()` of the affordable points, read from
    the axis index tuples k: w·k is an integer, so w·k <= B exactly when
    w·k <= floor(B), one `int` dot product per point (`_price_weights`).
    """
    weights, bound = _price_weights(grid, prices)
    bound = bound.numerator // bound.denominator
    return [i for i, ks in enumerate(grid._index_tuples()) if sum(map(mul, weights, ks)) <= bound]


def _demand_positions(
    utility: Utility, grid: GridDomain, prices: PriceSystem
) -> tuple[tuple[Vec, ...], list[int]]:
    """The grid's points and the ascending positions of the budget points of
    the highest utility; the utility is evaluated once per budget point."""
    points = grid.points().points
    budget = _budget_positions(grid, prices)
    return points, _top_positions({i: utility(points[i]) for i in budget}, budget)


def demand(utility: Utility, grid: GridDomain, prices: PriceSystem) -> FinitePointSet:
    """Budget points with maximal utility, in lexicographic order: the order
    of their ascending grid positions (`_demand_positions`)."""
    return _take(*_demand_positions(utility, grid, prices))


@dataclass(frozen=True)
class NonsatiationReport:
    satisfied: bool
    violators: tuple[Vec, ...]
    exempt: tuple[Vec, ...]


def check_local_nonsatiation(utility: Utility, grid: GridDomain) -> NonsatiationReport:
    """One-step improvement must exist at every point off the upper faces.

    Points on an upper box face are exempt: their improving neighbors may
    be truncated by the box, so they are reported rather than failed.
    """
    points = grid.points().points
    violators, exempt = [], []
    for i, on_face in _nonsatiation(grid, _ranks(tuple(map(utility, points)))):
        (exempt if on_face else violators).append(points[i])
    return NonsatiationReport(not violators, tuple(violators), tuple(exempt))


def _nonsatiation(grid: GridDomain, ranks: Sequence[int]) -> Iterator[tuple[int, bool]]:
    """(i, on an upper face) for the exempt positions and the violators, in
    the order the points run, from the rank of the utility's value at every
    point of `grid.points()`; rank order is value order, so a neighbor
    improves on p exactly when its rank is higher. A verdict that reads
    `all(on_face ...)` stops at the first violator.

    Neighbors are looked up in the rank table by position. The points run
    through the axis indices k in lexicographic order, so p ± step·e_d sits
    stride_d places from p, and it is in the grid exactly when k_d ± 1 is an
    index of axis d. p is on an upper face exactly when some k_d is its
    axis's last index ((k_d + 1)·step passes hi); off the upper faces
    p + step·e_d is always in the grid and p - step·e_d is when k_d > 0.
    """
    if not ranks:  # an empty axis: leave the others, however long, unread
        return
    sizes = list(map(len, grid._axis_ranges))
    strides = [prod(sizes[d + 1 :]) for d in range(len(sizes))]
    for i, ks in enumerate(itertools.product(*map(range, sizes))):
        on_face = any(k == n - 1 for k, n in zip(ks, sizes))
        up = ranks[i]
        improving = (ranks[i + s] > up or (k > 0 and ranks[i - s] > up) for k, s in zip(ks, strides))
        if on_face or not any(improving):
            yield i, on_face


@dataclass(frozen=True)
class InvarianceReport:
    """Demand computed three ways on one budget set.

    `maximals_set` comes from the relation characterization,
    `convexified_set` from hull-valued upper sets; `equal` records their
    agreement. `nonsatiated` flags whether the one-step improvement
    hypothesis held on the grid (the verdict is reported either way).
    """

    budget: FinitePointSet
    maximals_set: FinitePointSet
    convexified_set: FinitePointSet
    equal: bool
    nonsatiated: bool


def check_convexification_invariance(
    utility: Utility, grid: GridDomain, prices: PriceSystem
) -> InvarianceReport:
    """Maximals versus convexified maximals of the utility preorder on a budget.

    The utility is evaluated once per grid point, and the rest is integer
    work on grid positions (see the module docstring). A budget point below
    the top is asked about the hull through `hull.facets`, on its lattice
    coordinates (k·num(step), den(step)) = den(step)·(step·k, 1), or
    through `poly_contains` when the hull has no facets.
    """
    points = grid.points().points
    ranks = _ranks(tuple(map(utility, points)))
    indices = tuple(grid._index_tuples())
    budget = _budget_positions(grid, prices)
    num, den = grid.step.as_integer_ratio()

    def inside(hull: Polyhedron, i: int) -> bool:
        facets = hull.facets
        if facets is None:
            return poly_contains(hull, points[i])
        return facets.contains((*(k * num for k in indices[i]), den))

    tops = _top_positions(ranks, budget)
    kept = _convexified_positions(points, ranks, budget, inside)
    return InvarianceReport(
        budget=_take(points, budget),
        maximals_set=_take(points, tops),
        convexified_set=_take(points, kept),
        equal=tops == kept,
        nonsatiated=all(on_face for _, on_face in _nonsatiation(grid, ranks)),
    )


@dataclass(frozen=True)
class BoundaryReport:
    on_boundary: bool
    antichain_orthant: bool
    antichain_cone: bool
    demand_set: FinitePointSet


def orthant_cone(dimension: int) -> Cone:
    """The nonnegative orthant, origin included."""
    units = [[1 if i == d else 0 for i in range(dimension)] for d in range(dimension)]
    return Cone.build(dimension, units, True)


def _require_aligned(grid: GridDomain, prices: PriceSystem) -> tuple[tuple[tuple[int, ...], ...], list[int], int]:
    """Some grid point costs the wealth exactly: B is an integer and some
    axis index tuple k has w·k = B (`_price_weights`). Returns the grid's
    axis index tuples, w and B: a point is on the budget line exactly when
    w·k = B. Above the cap the grid raises `LimitError` before the prices
    are read."""
    indices = tuple(grid._index_tuples())
    weights, bound = _price_weights(grid, prices)
    if bound.denominator != 1 or bound.numerator not in (sum(map(mul, weights, ks)) for ks in indices):
        raise ValueError("budget line misses the grid; pick aligned prices and wealth")
    return indices, weights, bound.numerator


def check_boundary_and_antichain(
    utility: Utility, grid: GridDomain, prices: PriceSystem, cone: Cone
) -> BoundaryReport:
    """Demand points must spend the wealth exactly and form an antichain.

    The antichain verdict is taken under the full nonnegative orthant and
    under the supplied sub-cone, whose generators must be nonnegative.
    Refuses misaligned instances: some grid point must price out to the
    wealth exactly, otherwise the boundary claim is vacuous on the lattice.
    A demand point spends the wealth exactly when w·k = B on its axis index
    tuple k (`_require_aligned`).
    """
    indices, weights, bound = _require_aligned(grid, prices)
    if any(c < 0 for g in cone.generators for c in g):
        raise ValueError("the supplied cone must sit inside the nonnegative orthant")
    points, top = _demand_positions(utility, grid, prices)
    on_boundary = all(sum(map(mul, weights, indices[i])) == bound for i in top)
    dset = _take(points, top)
    orthant = orthant_cone(grid.dimension)
    return BoundaryReport(
        on_boundary, is_antichain(dset, orthant), is_antichain(dset, cone), dset
    )


def check_maximizer_convexity(utility: Utility, grid: GridDomain, prices: PriceSystem) -> bool:
    """Lattice surrogate of convexity for the demand set: every grid point
    strictly between two demand points must itself be a demand point.

    So the demand set also passes `sets.is_grid_antichain_convex` on the
    grid's lattice, under any cone: a lattice point that is a strict convex
    combination of two demand points is a grid point on their segment.

    The walk runs on the demand points' axis index tuples (see the module
    docstring): between a and b lie a + t·d/g for 0 < t < g. Only the first
    step a + d/g is looked up for each pair: when it is demanded, the pair
    (a + d/g, b) has the same direction and g - 1 steps left, so by
    induction every pair's walk is looked up in full.
    """
    indices, _, _ = _require_aligned(grid, prices)
    _, top = _demand_positions(utility, grid, prices)
    demanded = set(map(indices.__getitem__, top))
    for a, b in itertools.combinations(demanded, 2):
        g = gcd(*map(sub, b, a))
        if g > 1 and tuple(k + (j - k) // g for k, j in zip(a, b)) not in demanded:
            return False
    return True


@dataclass(frozen=True)
class QuasiconcavityReport:
    holds: bool
    violation: tuple[Vec, Vec, Fraction] | None  # (x, y, weight) with u at the mix below both


_MIX_WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


def _mix_below(utility: Utility, x: Vec, y: Vec) -> Fraction | None:
    """The first weight lam of `_MIX_WEIGHTS` whose mix lam x + (1 - lam) y the
    utility values strictly below both x and y, or None."""
    floor = min(utility(x), utility(y))
    for lam in _MIX_WEIGHTS:
        if utility(vadd(vscale(lam, x), vscale(1 - lam, y))) < floor:
            return lam
    return None


def check_antichain_quasiconcavity(
    utility: Utility,
    grid: GridDomain,
    cone: Cone,
    samples: int,
    rng,
) -> QuasiconcavityReport:
    """Sampled level-set convexity along cone-incomparable directions.

    Draws pairs of grid points, keeps the cone-incomparable ones, and
    evaluates the utility exactly at fixed rational mixes of each pair;
    a mix valued strictly below both endpoints is a violation. With a
    trivial cone every distinct pair is incomparable and the check becomes
    plain quasiconcavity sampling.
    """
    pts = grid.points().points
    if len(pts) < 2:
        return QuasiconcavityReport(True, None)
    order = ConeOrder(cone, pts)
    checked = 0
    guard = 0
    limit = samples * 50
    while checked < samples and guard < limit:
        guard += 1
        i = rng.randrange(len(pts))
        j = rng.randrange(len(pts))
        if i == j or order.comparable(i, j):
            continue
        x, y = pts[i], pts[j]
        checked += 1
        if (lam := _mix_below(utility, x, y)) is not None:
            return QuasiconcavityReport(False, (x, y, lam))
    return QuasiconcavityReport(True, None)


def find_quasiconcavity_violation(
    utility: Utility, grid: GridDomain
) -> tuple[Vec, Vec, Fraction] | None:
    """Deterministic exhaustive search for a plain-quasiconcavity violation."""
    pts = grid.points().points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (lam := _mix_below(utility, pts[i], pts[j])) is not None:
                return (pts[i], pts[j], lam)
    return None
