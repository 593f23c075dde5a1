"""Dominating elements, Pareto optima and their hull equivalences.

The central construction: every convex combination y of a chain is
dominated, inside the chain itself, by one of the chain's points. The
recursion peels off the first coefficient; comparability of the first
point with the point returned for the tail decides which of the two
survives. Incomparability is impossible for a valid chain and is reported
as corrupted input. Sums of chains reduce to the chain case summand by
summand after one decomposition program over all coefficient blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import (
    Comparability,
    Cone,
    cone_contains,
    coordinates_above,
    is_pointed,
    k_closure,
    negate,
    order_coordinates,
    relate,
    with_origin,
)
from .linalg import (
    ONE,
    REL_EQ,
    ZERO,
    LinearProgram,
    LpStatus,
    Vec,
    is_zero_vec,
    lp_solve,
    vadd,
    vdot,
    vscale,
    vsub,
    vzero,
)
from .sets import ChainSet, DecomposableSet, FinitePointSet, materialize


class OutsideHullError(ValueError):
    """Raised when a target point is not in the hull of the decomposable set.

    Carries the separating certificate: `functional` f and per-summand
    `offsets` c_s with f.p + c_s >= 0 for every point p of summand s while
    f.y + sum(offsets) < 0.
    """

    def __init__(self, target: Vec, functional: Vec, offsets: tuple[Fraction, ...]):
        super().__init__("point lies outside the hull of the decomposable set")
        self.target = target
        self.functional = functional
        self.offsets = offsets


@dataclass(frozen=True)
class Decomposition:
    """Per-summand convex coefficients reproducing the target exactly."""

    blocks: tuple[tuple[Fraction, ...], ...]

    def summand_points(self, d: DecomposableSet) -> tuple[Vec, ...]:
        out = []
        for block, summand in zip(self.blocks, d.summands, strict=True):
            acc = vzero(d.dimension)
            for c, p in zip(block, summand.base.points, strict=True):
                acc = vadd(acc, vscale(c, p))
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class DominationCertificate:
    """Witness z in the materialized set with z - y (or y - z) in the closed cone.

    `direction` is "witness_dominates" when witness - target is the cone
    vector and "witness_dominated" for the mirrored construction. The
    decomposition blocks and the per-summand chain points allow the whole
    object to be re-checked with sums and one cone membership.
    """

    target: Vec
    witness: Vec
    cone_vector: Vec
    summand_witnesses: tuple[Vec, ...]
    decomposition: Decomposition
    direction: str = "witness_dominates"


def validate_outside_hull(
    target: Vec, functional: Vec, offsets: Sequence[Fraction], d: DecomposableSet
) -> list[str]:
    """Re-check an outside-hull refutation (see OutsideHullError); empty list means valid."""
    if len(functional) != d.dimension or len(offsets) != len(d.summands):
        return ["refutation does not match the set's dimension and summands"]
    errs = [
        f"summand {s} has a point p with functional.p + offset < 0"
        for s, (summand, c) in enumerate(zip(d.summands, offsets))
        if any(vdot(functional, p) + c < 0 for p in summand.base.points)
    ]
    if vdot(functional, target) + sum(offsets, ZERO) >= 0:
        errs.append("functional.target + sum(offsets) is not negative")
    return errs


def validate_certificate(cert: DominationCertificate, d: DecomposableSet) -> list[str]:
    """Re-check every arithmetic claim of a certificate; empty list means valid."""
    errs: list[str] = []
    kc = k_closure(d.cone)
    blocks = cert.decomposition.blocks
    if len(blocks) != len(d.summands):
        return ["decomposition block count does not match the summands"]
    for s, (block, summand) in enumerate(zip(blocks, d.summands)):
        if len(block) != len(summand.base):
            errs.append(f"block {s} length mismatch")
            continue
        if any(c < 0 for c in block):
            errs.append(f"block {s} has a negative coefficient")
        if sum(block) != 1:
            errs.append(f"block {s} does not sum to one")
    if errs:
        return errs
    parts = cert.decomposition.summand_points(d)
    total = parts[0]
    for p in parts[1:]:
        total = vadd(total, p)
    if total != cert.target:
        errs.append("decomposition does not reproduce the target")
    if len(cert.summand_witnesses) != len(d.summands):
        errs.append("per-summand witness count mismatch")
        return errs
    for s, (w, summand) in enumerate(zip(cert.summand_witnesses, d.summands)):
        if w not in summand.base:
            errs.append(f"summand witness {s} is not a point of summand {s}")
    acc = cert.summand_witnesses[0]
    for w in cert.summand_witnesses[1:]:
        acc = vadd(acc, w)
    if acc != cert.witness:
        errs.append("witness is not the sum of the per-summand points")
    expected = (
        vsub(cert.witness, cert.target)
        if cert.direction == "witness_dominates"
        else vsub(cert.target, cert.witness)
    )
    if expected != cert.cone_vector:
        errs.append("cone vector does not match witness minus target")
    if not cone_contains(kc, cert.cone_vector):
        errs.append("cone vector is outside the closed cone")
    return errs


def dominating_element_chain(
    y: Vec,
    coefficients: Sequence[Fraction],
    chain: ChainSet,
    cone: Cone,
) -> tuple[Vec, Vec]:
    """Chain point z with z - y in `cone`, for y a convex combination of the chain.

    `cone` must admit the origin (finitely generated cones here are always
    convex). Coefficients align with the chain's point list, must be
    nonnegative, sum to one and reproduce y exactly.
    """
    pts = chain.base.points
    if len(coefficients) != len(pts):
        raise ValueError("coefficient count does not match the chain")
    if not cone.contains_zero:
        raise ValueError("the dominance cone must contain the origin")
    coeffs = list(coefficients)
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be nonnegative")
    if sum(coeffs) != 1:
        raise ValueError("coefficients must sum to one")
    combo = vzero(len(y))
    for c, p in zip(coeffs, pts):
        combo = vadd(combo, vscale(c, p))
    if combo != y:
        raise ValueError("coefficients do not reproduce the target point")
    support = [(p, c) for p, c in zip(pts, coeffs) if c > 0]
    z = _dominate_support(support, cone)
    return z, vsub(z, y)


def _dominate_support(support: list[tuple[Vec, Fraction]], cone: Cone) -> Vec:
    # Peel the first listed point; the tail is renormalized and recursed.
    if len(support) == 1:
        return support[0][0]
    y1, a1 = support[0]
    rest_mass = 1 - a1
    tail = [(p, c / rest_mass) for p, c in support[1:]]
    z0 = _dominate_support(tail, cone)
    comp = relate(cone, y1, z0)
    if comp in (Comparability.UP, Comparability.BOTH):
        return z0
    if comp is Comparability.DOWN:
        return y1
    raise ValueError(f"chain points {y1} and {z0} are incomparable; corrupted chain input")


def decompose_in_hulls(y: Vec, d: DecomposableSet) -> Decomposition:
    """Split y into per-summand hull combinations via one coefficient program.

    Raises OutsideHullError with a separating certificate when y is not in
    the Minkowski sum of the summand hulls.
    """
    n = d.dimension
    if len(y) != n:
        raise ValueError("point dimension does not match the set")
    sizes = [len(s.base) for s in d.summands]
    cols = sum(sizes)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for dim in range(n):
        row: list[Fraction] = []
        for s in d.summands:
            row.extend(p[dim] for p in s.base.points)
        rows.append((row, REL_EQ, y[dim]))
    offset = 0
    for size in sizes:
        row = [ZERO] * cols
        for k in range(size):
            row[offset + k] = ONE
        rows.append((row, REL_EQ, ONE))
        offset += size
    res = lp_solve(LinearProgram.build([ZERO] * cols, True, rows))
    if res.status is LpStatus.INFEASIBLE:
        f = res.farkas[:n]
        offsets = res.farkas[n:]
        raise OutsideHullError(y, f, offsets)
    if res.status is not LpStatus.OPTIMAL:
        raise RuntimeError("decomposition program cannot be unbounded")
    blocks = []
    offset = 0
    for size in sizes:
        blocks.append(tuple(res.witness[offset : offset + size]))
        offset += size
    return Decomposition(tuple(blocks))


def dominating_element(y: Vec, d: DecomposableSet) -> DominationCertificate:
    """A point of the materialized set dominating y within the closed cone.

    Decomposes y across the summand hulls, runs the chain construction per
    summand under the origin-closed cone, and sums the chain points.
    """
    decomposition = decompose_in_hulls(y, d)
    kc = k_closure(d.cone)
    parts = decomposition.summand_points(d)
    witnesses = []
    for block, summand, part in zip(decomposition.blocks, d.summands, parts):
        z, _ = dominating_element_chain(part, block, summand, kc)
        witnesses.append(z)
    witness = witnesses[0]
    for w in witnesses[1:]:
        witness = vadd(witness, w)
    return DominationCertificate(
        target=y,
        witness=witness,
        cone_vector=vsub(witness, y),
        summand_witnesses=tuple(witnesses),
        decomposition=decomposition,
    )


def dominated_element(y: Vec, d: DecomposableSet) -> DominationCertificate:
    """Mirror construction: a materialized point x with y - x in the closed cone."""
    flipped_cone = negate(d.cone)
    flipped = DecomposableSet(
        tuple(ChainSet(s.base, flipped_cone) for s in d.summands)
    )
    cert = dominating_element(y, flipped)
    return DominationCertificate(
        target=y,
        witness=cert.witness,
        cone_vector=vsub(y, cert.witness),
        summand_witnesses=cert.summand_witnesses,
        decomposition=cert.decomposition,
        direction="witness_dominated",
    )


def pareto_optima_finite(s: FinitePointSet, cone: Cone) -> FinitePointSet:
    """Points of S not dominated by any other point of S, in input order.

    A point loses when some other point sits at it plus a cone vector;
    the origin never disqualifies anything because only other points are
    examined.

    With order coordinates (independent generators), this is the maxima of
    vectors problem (Kung, Luccio & Preparata 1975) solved by a sorted
    sweep. The sum of generator coordinates strictly increases along
    domination, so points are visited by that sum, descending, and a point
    is kept unless a point kept before it dominates it. Independent
    generators make the order antisymmetric, and it is transitive, so every
    dominated point is dominated by a kept one with a larger sum. Other
    cones compare every pair with `cone_contains`.
    """
    pts = s.points
    coords = order_coordinates(cone, pts)
    if coords is None:
        keep = [
            y for y in pts if not any(t != y and cone_contains(cone, vsub(t, y)) for t in pts)
        ]
        return FinitePointSet(tuple(keep))
    kept: list[int] = []
    for i in sorted(range(len(pts)), key=lambda i: -sum(coords[i].generator)):
        if not any(coordinates_above(coords[i], coords[k]) for k in kept):
            kept.append(i)
    return FinitePointSet(tuple(pts[i] for i in sorted(kept)))


def is_pareto_in_hull(y: Vec, d: DecomposableSet) -> bool:
    """Whether y is undominated inside the hull of the materialized set.

    Maximizes the total generator mass one can add to y while staying in
    the hull; the optimum is zero exactly when no nonzero cone vector
    keeps y + c inside. Pointedness makes positive mass equivalent to a
    nonzero cone vector, so non-pointed cones are refused.
    """
    cone = d.cone
    if not is_pointed(cone):
        raise ValueError("hull optimality requires a pointed cone")
    gens = [g for g in cone.generators if not is_zero_vec(g)]
    n = d.dimension
    if len(y) != n:
        raise ValueError("point dimension does not match the set")
    sizes = [len(s.base) for s in d.summands]
    cols = sum(sizes) + len(gens)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for dim in range(n):
        row: list[Fraction] = []
        for s in d.summands:
            row.extend(p[dim] for p in s.base.points)
        row.extend(-g[dim] for g in gens)
        rows.append((row, REL_EQ, y[dim]))
    offset = 0
    for size in sizes:
        row = [ZERO] * cols
        for k in range(size):
            row[offset + k] = ONE
        rows.append((row, REL_EQ, ONE))
        offset += size
    objective = [ZERO] * sum(sizes) + [ONE] * len(gens)
    res = lp_solve(LinearProgram.build(objective, True, rows))
    if res.status is LpStatus.INFEASIBLE:
        raise OutsideHullError(y, res.farkas[:n], tuple(res.farkas[n:]))
    if res.status is not LpStatus.OPTIMAL:
        raise RuntimeError("hull optimality program cannot be unbounded for a pointed cone")
    return res.value == 0


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-checks between the finite optima and their hull counterparts.

    `origin_toggle_invariant`: optima are unchanged when the cone admits
    or drops the origin. `hull_equivalence`: a materialized point is a
    finite optimum iff it is undominated in the hull (pointed cones only,
    else None). `maximals_agree`: the optima coincide with the maximals of
    the domination relation (pointed cones only, else None).
    """

    optima: FinitePointSet
    origin_toggle_invariant: bool
    hull_equivalence: bool | None
    maximals_agree: bool | None

    def all_pass(self) -> bool:
        checks = [self.origin_toggle_invariant, self.hull_equivalence, self.maximals_agree]
        return all(c is True or c is None for c in checks)


def _domination_matrix(pts: FinitePointSet, cone: Cone) -> tuple[tuple[bool, ...], ...]:
    """Entry [t][s]: whether point t minus point s lies in the cone."""
    coords = order_coordinates(cone, pts.points)
    if coords is None:
        return tuple(
            tuple(cone_contains(cone, vsub(t, s)) for s in pts.points) for t in pts.points
        )
    diagonal = cone_contains(cone, vzero(cone.dimension))
    return tuple(
        tuple(diagonal if i == j else coordinates_above(cs, ct) for j, cs in enumerate(coords))
        for i, ct in enumerate(coords)
    )


def check_equivalences(d: DecomposableSet) -> EquivalenceReport:
    from .maximals import FiniteRelation, maximals  # local import to avoid a cycle

    cone = d.cone
    pts = materialize(d)
    optima = pareto_optima_finite(pts, cone)
    with_zero = with_origin(cone, True)
    without_zero = with_origin(cone, False)
    toggle = (
        pareto_optima_finite(pts, with_zero).sorted_points()
        == pareto_optima_finite(pts, without_zero).sorted_points()
    )
    hull_eq: bool | None = None
    maximals_eq: bool | None = None
    if is_pointed(cone):
        hull_eq = all((p in optima.points) == is_pareto_in_hull(p, d) for p in pts)
        related = _domination_matrix(pts, cone)
        relation = FiniteRelation(pts, related)
        maximals_eq = maximals(relation, pts).sorted_points() == optima.sorted_points()
    return EquivalenceReport(
        optima=optima,
        origin_toggle_invariant=toggle,
        hull_equivalence=hull_eq,
        maximals_agree=maximals_eq,
    )
