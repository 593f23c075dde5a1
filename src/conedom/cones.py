"""Finitely generated convex cones over the rationals.

A `Cone` is the set of nonnegative combinations of its generators with
positive total mass, together with the origin iff `contains_zero` is set.
That set is always a convex cone; with no generators and no flag it is the
empty set. Membership follows one rule (`_membership`): by Minkowski-Weyl
the cone is {v : Ev = 0, Hv >= 0} for the integer rows of `Cone.facets`,
and a nonzero v is a member exactly when it passes that test, read in
integers. The facets are built once per cone on first use. Unless the flag
or a zero generator admits it, the origin is a member exactly when the cone
is not pointed, which the same rows decide (`is_pointed`: E and H stacked
have full rank). A small exact LP (`conedom.linalg.solve_hulls`) decides only
the cones above the facet work bound. `cone_contains` takes the verdict
alone; `cone_membership` also builds the certificate from a fraction-free
Gaussian elimination of the generator matrix (`Cone.span_solver`): a
left-null row of E refutes a vector off the span, and E gives the weights
of a member on independent generators. The LP certifies every other
verdict, the origin's as a unit-mass combination, and `validate_membership`
re-checks each certificate.

`ConeOrder` is the cone order on one list of points. Every pairwise
question of the other modules (chains and antichains, Pareto optima,
support tops, the domination matrix) goes through it. It runs the same
test in batch: each point is mapped once to (E.p, H.p), and each
comparison is then a componentwise one. Only a cone above the facet work
bound asks `cone_contains` pair by pair. Its Pareto maxima come from one
sorted sweep on every cone with facets, keyed by the sum of the normal
coordinates; points with equal coordinates (a class along the lineality
space, each above the other) are no maxima and are dropped after it. A
pointed cone with dependent generators and no zero generator keys by one
integer functional positive on every generator instead
(`Cone.positive_functional`, one certified LP per cone). `relate` asks
`cone_contains` of both differences of its two points, so all three read
one test.

For independent generators `Cone.facets` are the elimination's own rows.
Otherwise they are `cone_facets`: the left-null rows of the same
elimination and one primitive normal per facet, from an integer double
description that starts at the pivot generators' simplicial cone and
inserts the other generators one at a time, and re-checked against every
generator. It serves every shape (points on a line or a plane, sets that
fill the space, cones that are not pointed) and gives up, for the LP, only
once its own work passes `_MAX_FACET_WORK`. The generators are eliminated
by `linalg._eliminate`, which the LP presolve runs too. `Polyhedron.facets`
holds the facets for a polyhedron's homogenized cone, whose relative-interior
and containment verdicts read them; `sets.convex_hull` keeps the points
that no other point shares every facet with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import le, mul
from typing import Callable, NamedTuple, Sequence

from .linalg import (
    ONE,
    ZERO,
    IntegerPoints,
    Vec,
    _eliminate,
    fvec,
    integer_multiple,
    integer_points,
    is_zero_vec,
    solve_hulls,
    vcombination,
    vdot,
    vneg,
    vsub,
)


class Comparability(Enum):
    UP = "Up"
    DOWN = "Down"
    BOTH = "Both"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class Cone:
    """Value-semantic cone; equal generators and flag mean equal cones."""

    dimension: int
    generators: tuple[Vec, ...]
    contains_zero: bool

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("cone dimension must be at least 1")
        for g in self.generators:
            if len(g) != self.dimension:
                raise ValueError("generator dimension mismatch")

    @classmethod
    def build(cls, dimension: int, generators, contains_zero: bool) -> "Cone":
        return cls(dimension, tuple(fvec(g) for g in generators), bool(contains_zero))

    @cached_property
    def span_solver(self) -> "_SpanSolver":
        """Elimination data of the generator matrix, built on first use and
        freed with the cone."""
        return _SpanSolver(self.dimension, self.generators)

    @property
    def facets(self) -> "Facets | None":
        """The cone's integer equations and normals (`_SpanSolver.facets`), or
        None above `_MAX_FACET_WORK`. Built on first use and kept on the span
        solver, so the copies `with_origin` makes share them."""
        return self.span_solver.facets

    @property
    def generator_view(self) -> IntegerPoints:
        """The generators over one common denominator: the span solver's,
        which the copies `with_origin` makes share."""
        return self.span_solver.view

    @cached_property
    def positive_functional(self) -> tuple[int, ...] | None:
        """An integer phi with phi.g > 0 on every generator, built on first use.

        It exists exactly when 0 is not in conv G, the origin's verdict on
        the cone without its flag, which `_membership` gives by its one
        origin rule: a zero generator admits the origin, and otherwise the
        facets decide, with no LP (0 in conv G exactly when the cone is not
        pointed). Only then is phi read, as the Farkas vector of the
        unit-mass origin program that certifies the verdict, re-checked in
        integers; above the facet work bound that one LP both decides and
        certifies. None when there are no generators or 0 is in conv G.
        """
        if not self.generators:
            return None
        member, certificate = _membership(with_origin(self, False), (ZERO,) * self.dimension)
        if member:
            return None
        _, phi = integer_multiple(certificate().functional)
        if not all(sum(map(mul, phi, g)) > 0 for g in self.generator_view.points):
            raise RuntimeError("the origin program's Farkas vector is not positive on every generator")
        return phi


@dataclass(frozen=True)
class ConeMembership:
    """Membership verdict with an exact certificate.

    When `member`, `coefficients` are nonnegative generator weights whose
    combination equals the queried vector (all zero only for the origin
    admitted by `contains_zero`). Otherwise `functional` f satisfies
    f.g >= 0 on every generator while f.v < 0 (and, for the origin query,
    f.g > 0 on every generator, refuting zero total-mass-positive combos).
    """

    member: bool
    coefficients: tuple[Fraction, ...] | None = None
    functional: Vec | None = None


class _SpanSolver:
    """Reduced row echelon data for a fixed generator matrix.

    Its elimination matrix E, applied to a vector, tells whether the vector
    lies in the generators' span (the left-null rows of E vanish) and, for
    linearly independent generators, gives its unique generator
    coefficients (the first rank rows); a nonzero left-null row is a
    separating functional. `facets` and the certificates of
    `_span_certificate` read its integer rows.

    E is found without fractions by `_eliminate`: Gauss-Jordan on the
    integer matrix [G' | s I], for G' the generators times s, the lcm of
    their denominators, with every row kept over the positive determinant
    det of the pivots so far. Pivots are chosen as on the rationals (the
    first nonzero entry at or below the current row), so the pivot rows of
    the result are det times those of E, and its left-null rows det * s
    times those of E. Each row is brought to lowest terms with one gcd,
    which gives `integer_elim` and `row_scales`; the `Fraction` rows of E
    (`elim`) are built from them on first use. `view` is the generators
    over their common denominator, which `Cone.generator_view` reads.
    """

    def __init__(self, dimension: int, generators: Sequence[Sequence[Fraction | int]]):
        n, k = dimension, len(generators)
        self.view = integer_points(generators)
        s, g = self.view
        rows = [[g[j][i] for j in range(k)] + [s if t == i else 0 for t in range(n)] for i in range(n)]
        self.pivots, det = _eliminate(rows, k)
        self.rank = r = len(self.pivots)
        self.unique = r == k
        # Row i of E is rows[i][k:] over det (pivot rows) or det * s (left-null
        # rows); its lcm is that denominator over the row's gcd with it.
        scaled = []
        for i, row in enumerate(rows):
            denominator = det if i < r else det * s
            unit = gcd(denominator, *row[k:])
            scaled.append((denominator // unit, tuple(x // unit for x in row[k:])))
        self.row_scales, self.integer_elim = zip(*scaled)
        self.dimension = dimension

    @cached_property
    def elim(self) -> list[Vec]:
        """The rows of E as `Fraction`s: `integer_elim` over `row_scales`."""
        return [tuple(Fraction(x, scale) for x in row) for scale, row in zip(self.row_scales, self.integer_elim)]

    @cached_property
    def facets(self) -> "Facets | None":
        """The cone's `Facets`, built on first use: for independent generators
        the rows of E itself (see `Facets`), else `cone_facets` of the
        generators over one common denominator, which reads this solver's
        pivots and left-null rows; None above `_MAX_FACET_WORK`."""
        if self.unique:
            return Facets(self.integer_elim[self.rank :], self.integer_elim[: self.rank])
        return cone_facets(self.dimension, self.view.points, self)


# `cone_facets` gives up, and its callers keep their LP, once its work passes
# this: for each generator inserted, the rows it is dotted with plus the
# (+, -) pairs it tests for adjacency, counted before the pairs are tested.
# The facets of a cyclic polytope grow as its points to the power
# floor(d / 2), so that count, not the generator count, is what can explode.
# Measured (2 cores, Python 3.11.7): a unit of work cost 0.2-1 µs, the most
# on a grid, whose rows are few. The 29 points (t, t^2, t^3, t^4) of R^4
# (work just under the bound, 377 facets) took 18-22 ms to build, about 14
# solves of the relative-interior LP on them; the 4,096 points of a 64 x 64
# grid took 31-66 ms, where that LP takes 3 s. So a caller who asks about a
# polyhedron once may lose a little, and one who asks a dozen times gains.
_MAX_FACET_WORK = 65536


class Facets(NamedTuple):
    """Integer rows that describe the cone K of nonnegative combinations of
    some generators.

    `equations` E (the left-null rows of the generators' elimination) vanish
    exactly on the generators' span. `normals` H are >= 0 on every
    generator: from `cone_facets`, one primitive row per facet, inside the
    span; for independent generators (`_SpanSolver.facets`), the first rank
    rows of the elimination, which give the generator coefficients on the
    span and are neither primitive nor always inside it. Either way K is
    the x with Ex = 0 and Hx >= 0, and its relative interior the x with
    Ex = 0 and Hx > 0.
    """

    equations: tuple[tuple[int, ...], ...]
    normals: tuple[tuple[int, ...], ...]

    def contains(self, x: Sequence[int], relative_interior: bool = False) -> bool:
        """Whether the integer vector x lies in the cone, or in its relative interior."""
        if any(sum(map(mul, e, x)) for e in self.equations):
            return False
        least = 1 if relative_interior else 0
        return all(sum(map(mul, h, x)) >= least for h in self.normals)

    def coordinates(self, points: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(E.q, H.q) for each integer vector q of `points`, in order. Each row
        of E and H is dotted with every point in one pass, and the per-row
        lists are then zipped back into one pair per point."""
        return list(zip(_columns(self.equations, points), _columns(self.normals, points)))


def _columns(rows: Sequence[Sequence[int]], points: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The tuple (r.q for r in rows) for each q in points."""
    if not rows:
        return [()] * len(points)
    return list(zip(*([sum(map(mul, r, q)) for q in points] for r in rows)))


def _null_vector(rows: Sequence[Sequence[int]], dimension: int) -> tuple[int, ...] | None:
    """A nonzero integer vector orthogonal to dimension - 1 integer rows, or
    None when the rows are linearly dependent.

    After `_eliminate` independent rows have dimension - 1 pivots and one
    free column. Pivot row (r, c) then reads det * x_c + row_r[free] * x_free
    = 0, so x_free = det and x_c = -row_r[free] solve every row: the
    cofactor vector of the rows, up to a nonzero factor.
    """
    m = [list(row) for row in rows]
    pivots, det = _eliminate(m, dimension)
    if len(pivots) < dimension - 1:
        return None
    free = next((i for i, (_, c) in enumerate(pivots) if c != i), dimension - 1)
    h = [0] * dimension
    h[free] = det
    for r, c in pivots:
        h[c] = -m[r][free]
    return tuple(h)


def _oriented(h: tuple[int, ...], generators: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """h or -h, divided by the gcd of its entries, whichever is >= 0 on every
    generator; None when h takes both signs on them."""
    values = [sum(map(mul, h, g)) for g in generators]
    if min(values) < 0 < max(values):
        return None
    unit = gcd(*h) if min(values) >= 0 else -gcd(*h)
    return tuple(c // unit for c in h)


def cone_facets(
    dimension: int, generators: Sequence[Sequence[int]], solver: _SpanSolver | None = None
) -> Facets | None:
    """The equations and facet normals of the cone of integer generators, or
    None once the double description's work passes `_MAX_FACET_WORK`.

    The equations are the left-null rows of the generators' elimination:
    `solver`'s, when the caller has one for these generators, else a new
    `_SpanSolver`'s. The normals come from the double description method
    (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon 1996), run in
    integers inside the span. The r pivot generators span it, and their cone
    has one row per pivot g: the null vector of the other pivots stacked with
    the equations (`_null_vector`), oriented positive on g. Each other
    generator g is then inserted. The rows with h.g >= 0 stay, and every
    combinatorially adjacent pair h+ and h- on either side of g gives the row
    (h+.g) h- - (h-.g) h+, which vanishes on g, divided by its gcd. The pair
    is adjacent when no third row vanishes on every inserted generator that
    both vanish on; each row keeps those generators as an int bitmask, and a
    pair needs r - 2 of them in common. Every row stays a primitive normal of
    one facet of the generators inserted so far, so the result equals the
    facets read from every (r - 1)-subset. Every kept row is re-checked
    against every generator before it is returned.
    """
    if solver is None:
        solver = _SpanSolver(dimension, generators)
    rank = solver.rank
    equations = tuple(solver.integer_elim[rank:])
    pivots = [c for _, c in solver.pivots]
    basis = [generators[c] for c in pivots]
    spanned = sum(1 << c for c in pivots)
    rows = []
    for i, c in enumerate(pivots):
        h = _null_vector((*basis[:i], *basis[i + 1 :], *equations), dimension)
        rows.append((_oriented(h, [generators[c]]), spanned ^ 1 << c))
    work = 0
    for j, g in enumerate(generators):
        if spanned >> j & 1:
            continue
        kept, up, down = [], [], []
        for h, zeros in rows:
            value = sum(map(mul, h, g))
            if value > 0:
                up.append((h, zeros, value))
                kept.append((h, zeros))
            elif value < 0:
                down.append((h, zeros, value))
            else:
                kept.append((h, zeros | 1 << j))
        work += len(rows) + len(up) * len(down)
        if work > _MAX_FACET_WORK:
            return None
        for hp, zp, vp in up:
            for hn, zn, vn in down:
                common = zp & zn
                if common.bit_count() < rank - 2 or sum(z & common == common for _, z in rows) > 2:
                    continue
                h = [vp * a - vn * b for a, b in zip(hn, hp)]
                unit = gcd(*h)
                kept.append((tuple(c // unit for c in h), common | 1 << j))
        rows = kept
    facets = Facets(equations, tuple(sorted(h for h, _ in rows)))
    for e in facets.equations:
        if any(sum(map(mul, e, g)) for g in generators):
            raise RuntimeError("an equation row does not vanish on every generator")
    for h in facets.normals:
        values = [sum(map(mul, h, g)) for g in generators]
        if min(values) < 0 or max(values) <= 0:
            raise RuntimeError("a facet normal is not nonnegative and nonzero on the generators")
    return facets


class ConeOrder:
    """The order of a cone on one list of points, read by position.

    `above(i, j)` says whether point j minus point i lies in the cone, for
    distinct points i and j. That difference v is nonzero, so the verdicts
    depend on the generators alone, not on the origin flag, and v lies in
    the cone exactly when Ev = 0 and Hv >= 0 for the cone's `Facets`. So
    every point is mapped once to its integer coordinates (E.p, H.p)
    (`coordinates`, over one common denominator), after which each verdict
    is a comparison: equal equation coordinates, and no normal coordinate
    falls. Only a cone above the facet work bound (`Cone.facets` None) has
    `coordinates` None and asks `cone_contains` pair by pair, which solves
    its LP.

    The points' integer view (`view`, from `integer_points`) is built once,
    here, and serves every integer key read from the order: the facet
    coordinates and the sweep key of `maxima`. That key is the sum of the
    normal coordinates on every cone with facets, and `maxima` drops the
    points whose coordinates another point shares; only a pointed cone with
    dependent generators and no zero generator keys by phi.p instead.
    """

    def __init__(self, cone: Cone, points: Sequence[Vec]):
        dimension = cone.dimension
        if any(n != dimension for n in map(len, points)):
            raise ValueError("vector dimension does not match the cone")
        self.cone = cone
        self.points = points
        self.view = integer_points(points)
        facets = cone.facets
        self.coordinates = None if facets is None else facets.coordinates(self.view.points)

    def above(self, i: int, j: int) -> bool:
        coords = self.coordinates
        if coords is None:
            return cone_contains(self.cone, vsub(self.points[j], self.points[i]))
        (ei, hi), (ej, hj) = coords[i], coords[j]
        return ei == ej and all(map(le, hi, hj))

    def comparable(self, i: int, j: int) -> bool:
        """Whether point i and point j are ordered one way or the other; the
        second direction is asked only when the first fails."""
        return self.above(i, j) or self.above(j, i)

    def maxima(self) -> list[int]:
        """Positions of the points that no other point lies above, ascending.

        This is the maxima of vectors problem (Kung, Luccio & Preparata
        1975), solved by one sorted sweep on a key that never falls along
        the order: phi.p, read from `view`, on a pointed cone with dependent
        generators and no zero generator, for its `positive_functional` phi;
        on any other cone with facets, the sum of the normal coordinates.
        For y - x in C, phi.(y - x) > 0, and H(y - x) >= 0 sums to zero only
        on the lineality space {Ex = 0, Hx = 0}: the sum rises strictly
        unless x and y share their coordinates (one class), and then each
        lies above the other. Points are visited by the key, descending, and
        a point is kept unless a kept point lies above it (`above`): every
        point below a point of another class lies below a kept one with a
        larger key, and a class keeps at most its first point. A class of two
        or more has no maximum, so the kept points whose coordinates another
        point shares are dropped; the classes are counted only where one can
        hold two points, on cones that are neither independent nor phi cones
        (the others are pointed). Only a cone above the facet work bound with
        no phi compares every pair.
        """
        n, coords, unique = len(self.points), self.coordinates, self.cone.span_solver.unique
        phi = None if unique else self.cone.positive_functional
        if phi is not None:
            key = [sum(map(mul, phi, q)) for q in self.view.points]
        elif coords is not None:
            key = [sum(h) for _, h in coords]
        else:
            return [i for i in range(n) if not any(k != i and self.above(i, k) for k in range(n))]
        kept: list[int] = []
        for i in sorted(range(n), key=lambda i: -key[i]):
            if not any(self.above(i, k) for k in kept):
                kept.append(i)
        if phi is None and not unique:
            classes = Counter(coords)
            kept = [i for i in kept if classes[coords[i]] == 1]
        return sorted(kept)

    def support_end(self, coefficients: Sequence[Fraction], up: bool) -> Vec:
        """The top (`up`) or the bottom of the points with a positive coefficient.

        One scan from the last support point back; a point replaces the best so
        far only when strictly past it, so among tied ends the last listed
        wins. The verdicts are on distinct points, where v lies in -C exactly
        when -v lies in C, so the bottom under C is the top under -C: the scan
        reads `above` with its arguments swapped. An incomparable pair (the
        points are no chain under the cone) raises ValueError.
        """
        pts = self.points
        support = [i for i, c in enumerate(coefficients) if c > 0]
        best = support[-1]
        for i in reversed(support[:-1]):
            low, high = (i, best) if up else (best, i)
            if self.above(low, high):
                continue
            if not self.above(high, low):
                raise ValueError(f"points {pts[i]} and {pts[best]} are incomparable under the cone")
            best = i
        return pts[best]


def _solve_membership(cone: Cone, v: Vec, unit_mass: bool) -> ConeMembership:
    """The generator weights as one block summing to one (`unit_mass`) or as rays."""
    generators = (1, cone.generator_view)
    answer = solve_hulls(v, [generators]) if unit_mass else solve_hulls(v, [], generators)
    if not answer.feasible:
        return ConeMembership(False, functional=answer.functional)
    return ConeMembership(True, coefficients=answer.weights[0] if unit_mass else answer.rays)


def _certified(cone: Cone, v: Vec, member: bool) -> ConeMembership:
    """The LP's certificate for a verdict on v reached without it, asking
    the origin as a unit-mass combination and any other v as rays;
    RuntimeError when the LP disagrees."""
    m = _solve_membership(cone, v, unit_mass=is_zero_vec(v))
    if m.member != member:
        raise RuntimeError("the membership LP contradicts the integer verdict")
    return m


def _span_certificate(cone: Cone, v: Vec, scale: int, q: Sequence[int], member: bool) -> ConeMembership:
    """The certificate of a facet verdict on a nonzero v = q / scale, written
    from the elimination: a left-null row of E that is nonzero on v refutes
    it off the span, and on independent generators a member's weights are
    E.v (generator j pivots in row j; both scales divided out). The LP
    certifies the rest (`_certified`). With no generators -v refutes v."""
    if not cone.generators:
        return ConeMembership(False, functional=vneg(v))
    solver = cone.span_solver
    w = [sum(map(mul, row, q)) for row in solver.integer_elim]
    for row in range(solver.rank, len(w)):
        if w[row]:
            return ConeMembership(False, functional=vneg(solver.elim[row]) if w[row] > 0 else solver.elim[row])
    if member and solver.unique:
        mu = zip(w[: solver.rank], solver.row_scales)
        return ConeMembership(True, coefficients=tuple(Fraction(c, s * scale) for c, s in mu))
    return _certified(cone, v, member)


def _membership(cone: Cone, v: Vec) -> tuple[bool, Callable[[], ConeMembership]]:
    """The verdict on v and a thunk that builds its certificate.

    One rule decides every nonzero v: it is a member iff Ev = 0 and Hv >= 0
    for the cone's `Facets` (the test `ConeOrder` runs in batch), and only
    a cone above the facet work bound (`Cone.facets` None) asks the LP.
    The flag or a zero generator admits the origin. Otherwise the origin is
    a positive-mass combination of nonzero generators exactly when the
    cone is not pointed (some g and -g both in it), so `is_pointed`, one
    rank test on the facets, decides it wherever the facets exist; above
    the bound the LP asks it as a unit-mass combination. Where the facets
    decide, the certificate is written only when the thunk is called, by
    the elimination or the LP (`_span_certificate`, `_certified`).
    """
    if len(v) != cone.dimension:
        raise ValueError("vector dimension does not match the cone")
    gens = cone.generators
    zero = is_zero_vec(v)
    if zero:
        if cone.contains_zero:
            return True, lambda: ConeMembership(True, coefficients=(ZERO,) * len(gens))
        k = next((i for i, g in enumerate(gens) if is_zero_vec(g)), None)
        if k is not None:  # the zero generator alone, with mass one
            return True, lambda: ConeMembership(
                True, coefficients=tuple(ONE if i == k else ZERO for i in range(len(gens)))
            )
        if not gens:
            return False, lambda: ConeMembership(False)
        if cone.facets is not None:
            member = not is_pointed(cone)
            return member, lambda: _certified(cone, v, member)
    elif (facets := cone.facets) is not None:
        scale, q = integer_multiple(v)
        member = facets.contains(q)
        return member, lambda: _span_certificate(cone, v, scale, q, member)
    m = _solve_membership(cone, v, unit_mass=zero)
    return m.member, lambda: m


def cone_membership(cone: Cone, v: Vec) -> ConeMembership:
    """Exact membership with certificate. See `ConeMembership` and `_membership`."""
    return _membership(cone, v)[1]()


def validate_membership(cone: Cone, v: Vec, m: ConeMembership) -> list[str]:
    """Re-check a `cone_membership` verdict on v (see `ConeMembership`);
    empty list means valid. A non-member verdict without a functional holds
    only for the empty cone."""
    cert = m.coefficients if m.member else m.functional
    if cert is None:
        return [] if not (m.member or cone.generators or cone.contains_zero) else ["verdict lacks its certificate"]
    if len(v) != cone.dimension or len(cert) != (len(cone.generators) if m.member else cone.dimension):
        return ["certificate does not match the cone's dimension"]
    zero = is_zero_vec(v)
    if m.member:
        rebuilt, mass = vcombination(cert, cone.generators, cone.dimension), any(c > 0 for c in cert)
        checks = [
            (any(c < 0 for c in cert), "membership coefficients are negative"),
            (rebuilt != v, "membership coefficients do not reproduce the vector"),
            (zero and not (cone.contains_zero or mass), "the zero combination stands for an origin the cone excludes"),
        ]
    else:
        values = [vdot(cert, g) for g in cone.generators]
        positive = all(t > 0 for t in values)
        checks = [
            (any(t < 0 for t in values), "refutation functional is negative on a generator"),
            (not zero and vdot(cert, v) >= 0, "refutation functional fails to separate the vector"),
            (zero and (cone.contains_zero or not positive), "refutation functional fails to separate the origin"),
        ]
    return [message for failed, message in checks if failed]


def cone_contains(cone: Cone, v: Vec) -> bool:
    """Membership verdict only: `_membership` without its certificate."""
    return _membership(cone, v)[0]


def is_pointed(cone: Cone) -> bool:
    """True iff the cone meets its negation only in the origin.

    With `Cone.facets` the cone is {Ex = 0, Hx >= 0}, so its lineality
    space, the cone met with its negation, is {Ex = 0, Hx = 0}: the cone is
    pointed exactly when E and H stacked have rank equal to the dimension,
    one elimination (`_eliminate`). Above the facet work bound, the positive
    hull of the generators contains some nonzero v together with -v iff some
    nonzero generator's negation lies in the hull, so one membership query
    per generator decides pointedness. Each query is about a nonzero
    vector, which the origin flag does not decide.
    """
    facets = cone.facets
    if facets is not None:
        rows = [list(row) for row in (*facets.equations, *facets.normals)]
        return len(_eliminate(rows, cone.dimension)[0]) == cone.dimension
    return not any(cone_contains(cone, vneg(g)) for g in cone.generators if not is_zero_vec(g))


def relate(cone: Cone, x: Vec, y: Vec) -> Comparability:
    """Position of y relative to x in the cone order: y - x in C and/or -C."""
    up, down = cone_contains(cone, vsub(y, x)), cone_contains(cone, vsub(x, y))
    if up and down:
        return Comparability.BOTH
    if up:
        return Comparability.UP
    if down:
        return Comparability.DOWN
    return Comparability.INCOMPARABLE


def with_origin(cone: Cone, contains_zero: bool) -> Cone:
    """The cone with the same generators and the given origin flag.

    The result shares the span solver of `cone` (and with it the facets,
    kept there), which depends on the generators alone, and its positive
    functional once `cone` has built it.
    """
    if cone.contains_zero == contains_zero:
        return cone
    out = Cone(cone.dimension, cone.generators, contains_zero)
    vars(out)["span_solver"] = cone.span_solver  # fills the cached_property
    if "positive_functional" in vars(cone):
        vars(out)["positive_functional"] = cone.positive_functional
    return out


def k_closure(cone: Cone) -> Cone:
    """Convex hull of the cone together with the origin: same generators, origin admitted."""
    return with_origin(cone, True)


def negate(cone: Cone) -> Cone:
    return Cone(cone.dimension, tuple(vneg(g) for g in cone.generators), cone.contains_zero)
