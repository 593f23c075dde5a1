"""Finitely generated convex cones over the rationals.

A `Cone` is the set of nonnegative combinations of its generators with
positive total mass, together with the origin iff `contains_zero` is set.
That set is always a convex cone; with no generators and no flag it is the
empty set. Membership is decided exactly: a Gaussian elimination of the
generator matrix, built once per cone on first use (`Cone.span_solver`),
settles most queries outright, and a small exact LP
(`conedom.linalg.lp_solve`) covers the rest and supplies certificates.

Cones with linearly independent generators, and at least one of them, also
get an order map from that elimination: `order_coordinates` sends each
point to integer coordinates once, after which "y - x lies in the cone" is
a componentwise comparison (`coordinates_above`). `relate` uses it, and so
do chain and antichain checks, Pareto optima and the domination matrix in
`conedom.sets` and `conedom.dominance`. Every other cone (dependent
generators, a zero generator, no generators) answers those questions pair
by pair through `cone_contains`, with the LP as its fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Sequence

from .linalg import (
    ONE,
    REL_EQ,
    ZERO,
    LinearProgram,
    LpStatus,
    Vec,
    fvec,
    is_zero_vec,
    lp_solve,
    vdot,
    vneg,
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


def _integer_multiple(v: Vec) -> tuple[int, ...]:
    """v times the lcm of its denominators: integer entries, same signs."""
    m = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (m // c.denominator) for c in v)


class _SpanSolver:
    """Reduced row echelon data for a fixed generator matrix.

    Solves G mu = v directly when the generators are linearly independent
    and always detects vectors outside the column span, handing back a
    left-nullspace row as a separating functional.
    """

    def __init__(self, dimension: int, generators: tuple[Vec, ...]):
        n, k = dimension, len(generators)
        # Augmented elimination on [G | I]: row-reduce the n x k generator
        # matrix while accumulating the elimination matrix E with E G = R.
        rows = [[generators[j][i] for j in range(k)] + [ONE if t == i else ZERO for t in range(n)] for i in range(n)]
        pivots: list[tuple[int, int]] = []
        r = 0
        for c in range(k):
            sel = next((i for i in range(r, n) if rows[i][c] != 0), None)
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = ONE / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(n):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append((r, c))
            r += 1
            if r == n:
                break
        self.rank = r
        self.pivots = pivots
        self.unique = r == k
        self.elim = [tuple(row[k:]) for row in rows]
        self.left_null = self.elim[r:]
        self.integer_elim = [_integer_multiple(e) for e in self.elim]

    def solve_unique(self, v: Vec) -> tuple[Fraction, ...] | None:
        """Unique coefficients with G mu = v, or None when v is off-span.

        Only valid when `unique` (full column rank).
        """
        w = [vdot(e, v) for e in self.elim]
        for i in range(self.rank, len(w)):
            if w[i] != 0:
                return None
        mu = [ZERO] * len(self.pivots)
        for row, col in self.pivots:
            mu[col] = w[row]
        return tuple(mu)

    def off_span_functional(self, v: Vec) -> Vec | None:
        """A row f with f.G = 0 and f.v < 0, or None when v is in the span."""
        for e in self.left_null:
            val = vdot(e, v)
            if val != 0:
                return e if val < 0 else vneg(e)
        return None


class OrderCoordinates(NamedTuple):
    """Integer image E.p of a point under the elimination matrix E, scaled.

    `generator` holds the first rank rows: on the generators' span these are
    the generator coefficients. `off_span` holds the left-null rows, which
    vanish exactly on the span.
    """

    generator: tuple[int, ...]
    off_span: tuple[int, ...]


def order_coordinates(cone: Cone, points: Sequence[Vec]) -> list[OrderCoordinates] | None:
    """Order coordinates of each point, or None unless the cone has linearly
    independent generators and at least one of them.

    All points are scaled by one common lcm of their denominators, so the
    coordinates of y - x are the coordinates of y minus those of x, up to a
    positive factor that keeps every sign.
    """
    solver = cone.span_solver
    if not cone.generators or not solver.unique:
        return None
    for p in points:
        if len(p) != cone.dimension:
            raise ValueError("vector dimension does not match the cone")
    scale = lcm(*(c.denominator for p in points for c in p))
    rank = solver.rank
    out = []
    for p in points:
        q = [c.numerator * (scale // c.denominator) for c in p]
        w = tuple(sum(a * b for a, b in zip(row, q)) for row in solver.integer_elim)
        out.append(OrderCoordinates(w[:rank], w[rank:]))
    return out


def coordinates_above(a: OrderCoordinates, b: OrderCoordinates) -> bool:
    """Whether y - x lies in the cone, for distinct points x and y with order
    coordinates a and b (from one `order_coordinates` call).

    y - x is then nonzero, so it lies in the cone exactly when it is in the
    generators' span with nonnegative generator coefficients.
    """
    return a.off_span == b.off_span and all(p <= q for p, q in zip(a.generator, b.generator))


def _membership_lp(cone: Cone, v: Vec, need_unit_mass: bool) -> LinearProgram:
    k = len(cone.generators)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for d in range(cone.dimension):
        rows.append(([g[d] for g in cone.generators], REL_EQ, v[d]))
    if need_unit_mass:
        rows.append(([ONE] * k, REL_EQ, ONE))
    return LinearProgram.build([ZERO] * k, True, rows)


def _solve_membership(cone: Cone, v: Vec, unit_mass: bool) -> ConeMembership:
    res = lp_solve(_membership_lp(cone, v, unit_mass))
    if res.status is LpStatus.OPTIMAL:
        return ConeMembership(True, coefficients=res.witness)
    f = res.farkas[: cone.dimension]
    return ConeMembership(False, functional=f)


def cone_membership(cone: Cone, v: Vec) -> ConeMembership:
    """Exact membership with certificate. See `ConeMembership`."""
    if len(v) != cone.dimension:
        raise ValueError("vector dimension does not match the cone")
    if is_zero_vec(v):
        if cone.contains_zero:
            return ConeMembership(True, coefficients=(ZERO,) * len(cone.generators))
        for idx, g in enumerate(cone.generators):
            if is_zero_vec(g):
                mu = [ZERO] * len(cone.generators)
                mu[idx] = ONE
                return ConeMembership(True, coefficients=tuple(mu))
        if not cone.generators:
            return ConeMembership(False, functional=None)
        # Zero with positive mass means zero is a convex combination of
        # the generators; normalize the mass to one and ask the LP.
        return _solve_membership(cone, v, unit_mass=True)
    if not cone.generators:
        return ConeMembership(False, functional=vneg(v))
    solver = cone.span_solver
    f = solver.off_span_functional(v)
    if f is not None:
        return ConeMembership(False, functional=f)
    if solver.unique:
        mu = solver.solve_unique(v)
        if mu is not None and all(c >= 0 for c in mu):
            return ConeMembership(True, coefficients=mu)
        return _solve_membership(cone, v, unit_mass=False)
    return _solve_membership(cone, v, unit_mass=False)


def cone_contains(cone: Cone, v: Vec) -> bool:
    """Membership verdict only; skips certificate crafting on rejection."""
    if len(v) != cone.dimension:
        raise ValueError("vector dimension does not match the cone")
    if is_zero_vec(v):
        if cone.contains_zero or any(is_zero_vec(g) for g in cone.generators):
            return True
        if not cone.generators:
            return False
        if cone.span_solver.unique:
            return False  # independent generators only combine to zero trivially
        return _solve_membership(cone, v, unit_mass=True).member
    if not cone.generators:
        return False
    solver = cone.span_solver
    if solver.off_span_functional(v) is not None:
        return False
    if solver.unique:
        mu = solver.solve_unique(v)
        return mu is not None and all(c >= 0 for c in mu)
    return _solve_membership(cone, v, unit_mass=False).member


def is_pointed(cone: Cone) -> bool:
    """True iff the cone meets its negation only in the origin.

    The positive hull of the generators contains some nonzero v together
    with -v iff some nonzero generator's negation lies in the hull, so one
    membership query per generator decides pointedness.
    """
    probe = k_closure(cone)
    for g in cone.generators:
        if is_zero_vec(g):
            continue
        if cone_contains(probe, vneg(g)):
            return False
    return True


def relate(cone: Cone, x: Vec, y: Vec) -> Comparability:
    """Position of y relative to x in the cone order: y - x in C and/or -C.

    With order coordinates, one elimination of x and y decides both: the
    zero difference is in C exactly when the origin is admitted, and any
    other one by `coordinates_above`.
    """
    coords = order_coordinates(cone, (x, y))
    if coords is None:
        d = tuple(b - a for a, b in zip(x, y, strict=True))
        up = cone_contains(cone, d)
        down = cone_contains(cone, vneg(d))
    elif coords[0] == coords[1]:  # E is invertible, so x == y
        up = down = cone.contains_zero
    else:
        up = coordinates_above(coords[0], coords[1])
        down = coordinates_above(coords[1], coords[0])
    if up and down:
        return Comparability.BOTH
    if up:
        return Comparability.UP
    if down:
        return Comparability.DOWN
    return Comparability.INCOMPARABLE


def with_origin(cone: Cone, contains_zero: bool) -> Cone:
    """The cone with the same generators and the given origin flag.

    The result shares the span solver of `cone`, which depends on the
    generators alone.
    """
    if cone.contains_zero == contains_zero:
        return cone
    out = Cone(cone.dimension, cone.generators, contains_zero)
    vars(out)["span_solver"] = cone.span_solver  # fills the cached_property
    return out


def k_closure(cone: Cone) -> Cone:
    """Convex hull of the cone together with the origin: same generators, origin admitted."""
    return with_origin(cone, True)


def negate(cone: Cone) -> Cone:
    return Cone(cone.dimension, tuple(vneg(g) for g in cone.generators), cone.contains_zero)
