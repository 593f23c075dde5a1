"""Dominating elements, Pareto optima and their hull equivalences.

The central construction: every convex combination y of a chain is
dominated, inside the chain itself, by one of the chain's points. That
point is the top of the combination's support in the cone order: every
support point lies below it, so each term's difference to it is a cone
vector, and the cone is convex, so the weighted sum of those differences,
z - y, is one too. One scan of the support, asked of the chain's cached
`ConeOrder`, finds the top; Pareto optima are the maxima of that order.
The mirror, a chain point below y, is the theorem under -C, whose order
on the chain is that of C read backwards: the same scan finds the bottom.
Sums of chains reduce to the chain case summand by summand after one
decomposition program over all coefficient blocks, in both directions.
Certificates are re-checked in integers: each block over its own lcm
against the summand's integer view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .cones import (
    Cone,
    ConeOrder,
    cone_contains,
    is_pointed,
    with_origin,
)
from .linalg import (
    ZERO,
    IntegerPoints,
    Vec,
    integer_multiple,
    is_zero_vec,
    solve_hulls,
    vadd,
    vdot,
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


def _reproduces(
    target: Vec, blocks: Sequence[tuple[int, tuple[int, ...]]], summands: Sequence[FinitePointSet]
) -> bool:
    """Whether the blocks' combinations of the summands' points sum to the target.

    Block (L, a) from `integer_multiple` over a summand with `integer_view`
    (D, P) stands for sum_i a_i P_i / (L D). The running sum is an integer
    vector over one integer denominator, cross-multiplied with the target.
    """
    num, den = [0] * len(target), 1
    for (scale, ints), summand in zip(blocks, summands, strict=True):
        view = summand.integer_view
        if len(view.points[0]) != len(target):
            return False
        part = [0] * len(target)
        for a, p in zip(ints, view.points, strict=True):
            if a:
                part = [x + a * c for x, c in zip(part, p)]
        part_den = scale * view.scale
        num = [x * part_den + y * den for x, y in zip(num, part)]
        den *= part_den
    return all(x * t.denominator == t.numerator * den for x, t in zip(num, target))


def validate_certificate(cert: DominationCertificate, d: DecomposableSet) -> list[str]:
    """Re-check every arithmetic claim of a certificate; empty list means valid.

    The blocks and the target are checked in integers (`_reproduces`).
    """
    errs: list[str] = []
    blocks = cert.decomposition.blocks
    if len(blocks) != len(d.summands):
        return ["decomposition block count does not match the summands"]
    scaled = []
    for s, (block, summand) in enumerate(zip(blocks, d.summands)):
        if len(block) != len(summand.base):
            errs.append(f"block {s} length mismatch")
            continue
        scale, ints = integer_multiple(block)
        if any(a < 0 for a in ints):
            errs.append(f"block {s} has a negative coefficient")
        if sum(ints) != scale:
            errs.append(f"block {s} does not sum to one")
        scaled.append((scale, ints))
    if errs:
        return errs
    if not _reproduces(cert.target, scaled, [summand.base for summand in d.summands]):
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
    # The closed cone admits the origin, and the flag decides only the zero vector: any other
    # vector, and one of the wrong dimension, is asked of the cone as it is.
    v = cert.cone_vector
    if not ((is_zero_vec(v) and len(v) == d.dimension) or cone_contains(d.cone, v)):
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
    nonnegative, sum to one and reproduce y exactly; these checks run in
    integers. z is the top of the coefficients' support
    (`ConeOrder.support_end`) in the chain's cached `order` if `cone` has its
    generators, else in a new one.
    """
    pts = chain.base.points
    if len(coefficients) != len(pts):
        raise ValueError("coefficient count does not match the chain")
    if not cone.contains_zero:
        raise ValueError("the dominance cone must contain the origin")
    scale, ints = integer_multiple(coefficients)
    if any(a < 0 for a in ints):
        raise ValueError("coefficients must be nonnegative")
    if sum(ints) != scale:
        raise ValueError("coefficients must sum to one")
    if not _reproduces(y, [(scale, ints)], [chain.base]):
        raise ValueError("coefficients do not reproduce the target point")
    # A one-point support asks the order nothing, so it builds none.
    own = cone.generators == chain.cone.generators or len(ints) - ints.count(0) == 1
    z = (chain.order if own else ConeOrder(cone, pts)).support_end(coefficients, up=True)
    return z, vsub(z, y)


def _summand_blocks(d: DecomposableSet) -> list[tuple[int, IntegerPoints]]:
    """One block per summand, its points' integer view with sign +1."""
    return [(1, s.base.integer_view) for s in d.summands]


def decompose_in_hulls(y: Vec, d: DecomposableSet) -> Decomposition:
    """Split y into per-summand hull combinations via one coefficient program.

    Raises OutsideHullError with a separating certificate when y is not in
    the Minkowski sum of the summand hulls.
    """
    if len(y) != d.dimension:
        raise ValueError("point dimension does not match the set")
    answer = solve_hulls(y, _summand_blocks(d))
    if not answer.feasible:
        raise OutsideHullError(y, answer.functional, answer.offsets)
    return Decomposition(answer.weights)


def _dominance(y: Vec, d: DecomposableSet, up: bool) -> DominationCertificate:
    """Decomposes y across the summand hulls and sums one end of each block's
    support (`ConeOrder.support_end`), read from the summand's cached order.
    The decomposition program is the same for both directions, and its
    certificate check already holds the blocks to nonnegativity, unit sums
    and the target, so no summand point is formed.
    """
    decomposition = decompose_in_hulls(y, d)
    witnesses = [s.order.support_end(block, up) for block, s in zip(decomposition.blocks, d.summands)]
    witness = reduce(vadd, witnesses)
    return DominationCertificate(
        target=y,
        witness=witness,
        cone_vector=vsub(witness, y) if up else vsub(y, witness),
        summand_witnesses=tuple(witnesses),
        decomposition=decomposition,
        direction="witness_dominates" if up else "witness_dominated",
    )


def dominating_element(y: Vec, d: DecomposableSet) -> DominationCertificate:
    """A point z of the materialized set with z - y in the closed cone: the
    sum of the tops of each block's support (`_dominance`)."""
    return _dominance(y, d, up=True)


def dominated_element(y: Vec, d: DecomposableSet) -> DominationCertificate:
    """Mirror construction: a point x of the materialized set with y - x in
    the closed cone, the sum of the bottoms of each block's support, read
    from the same cached orders with ties resolved the same way."""
    return _dominance(y, d, up=False)


def pareto_optima_finite(s: FinitePointSet, cone: Cone) -> FinitePointSet:
    """Points of S not dominated by any other point of S, in input order.

    A point loses when some other point sits at it plus a cone vector;
    the origin never disqualifies anything because only other points are
    examined. These are the maxima of the cone order (`ConeOrder.maxima`).
    """
    return FinitePointSet._of_distinct(tuple(s.points[i] for i in ConeOrder(cone, s.points).maxima()))


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
    if len(y) != d.dimension:
        raise ValueError("point dimension does not match the set")
    # Zero generators clear no denominator, so dropping them keeps the scale.
    view = cone.generator_view
    gens = IntegerPoints(view.scale, tuple(g for g in view.points if any(g)))
    answer = solve_hulls(y, _summand_blocks(d), (-1, gens), maximize_rays=True)
    if not answer.feasible:
        raise OutsideHullError(y, answer.functional, answer.offsets)
    return answer.value == 0


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
    order = ConeOrder(cone, pts.points)
    diagonal = cone_contains(cone, vzero(cone.dimension))
    n = len(pts)
    return tuple(tuple(diagonal if t == s else order.above(s, t) for s in range(n)) for t in range(n))


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
        hull_eq = all((p in optima) == is_pareto_in_hull(p, d) for p in pts)
        related = _domination_matrix(pts, cone)
        relation = FiniteRelation(pts, related)
        maximals_eq = maximals(relation, pts).sorted_points() == optima.sorted_points()
    return EquivalenceReport(
        optima=optima,
        origin_toggle_invariant=toggle,
        hull_equivalence=hull_eq,
        maximals_agree=maximals_eq,
    )
