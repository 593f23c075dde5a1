"""Deterministic verification families behind the `suite` command.

Each family mirrors one acceptance criterion: it generates seeded random
instances, runs the construction under test, and re-checks the result
against independent brute-force oracles or certificate arithmetic. A
fixed seed yields a byte-identical report (rationals are serialized as
strings and nothing time-dependent is recorded).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .cones import (
    Comparability,
    Cone,
    cone_contains,
    cone_membership,
    k_closure,
    negate,
    relate,
    with_origin,
)
from .dominance import (
    check_equivalences,
    dominating_element,
    validate_certificate,
)
from .instances import (
    rand_bounded_disjoint_pair,
    rand_cone_member,
    rand_decomposable,
    rand_disjoint_pair,
    rand_ground_set,
    rand_hull_point,
    rand_point,
    rand_pointed_cone,
    rand_relative_interior_point,
    rand_upward_polyhedron,
    rand_utility_table,
)
from .linalg import ONE, ZERO, Vec, vadd, vdot, vscale, vsub
from .maximals import (
    FiniteRelation,
    GridDomain,
    PriceSystem,
    TotalPreorder,
    UTILITIES,
    check_antichain_quasiconcavity,
    check_boundary_and_antichain,
    check_convexification_invariance,
    convexified_maximals,
    demand,
    find_quasiconcavity_violation,
    maximals,
    orthant_cone,
    ratio_utility,
)
from .sets import (
    FinitePointSet,
    convex_hull,
    in_relative_interior,
    is_upward,
    materialize,
    poly_contains,
)
from .separation import hulls_disjoint, separator_sign_check, strict_separator

DEFAULT_COUNTS = {1: 500, 2: 200, 3: 200, 4: 100, 5: 100, 6: 50, 7: 1000, 8: 200}

_MAX_RECORDED_FAILURES = 5


@dataclass
class FamilyReport:
    criterion: int
    label: str
    instances: int
    passes: int
    failures: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def passed(self) -> bool:
        return not self.failures and self.passes == self.instances

    def record(self, ok: bool, message: str) -> None:
        if ok:
            self.passes += 1
        elif len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append(message)

    def as_dict(self) -> dict[str, Any]:
        return {
            "criterion": self.criterion,
            "label": self.label,
            "instances": self.instances,
            "passes": self.passes,
            "failures": list(self.failures),
            "passed": self.passed(),
            "details": self.details,
        }


def _fmt_vec(v: Vec) -> list[str]:
    return [str(c) for c in v]


def _verified_member(cone: Cone, v: Vec) -> bool:
    """Membership whose certificate is re-checked by direct arithmetic."""
    m = cone_membership(cone, v)
    if m.member:
        assert m.coefficients is not None
        assert all(c >= 0 for c in m.coefficients)
        rebuilt = tuple(
            sum((c * g[i] for c, g in zip(m.coefficients, cone.generators)), ZERO)
            for i in range(cone.dimension)
        )
        assert rebuilt == v, "membership certificate does not reproduce the vector"
        if not cone.contains_zero:
            assert any(c > 0 for c in m.coefficients) or v != tuple(
                ZERO for _ in range(cone.dimension)
            )
    elif m.functional is not None:
        f = m.functional
        assert all(vdot(f, g) >= 0 for g in cone.generators)
        if v == tuple(ZERO for _ in range(cone.dimension)):
            assert all(vdot(f, g) > 0 for g in cone.generators)
        else:
            assert vdot(f, v) < 0, "rejection functional fails to separate"
    return m.member


# --- criterion 1: dominating-element soundness -------------------------------


def run_dominance_family(seed: int, count: int) -> FamilyReport:
    rep = FamilyReport(1, "dominating element on decomposable sets", count, 0)
    rng = random.Random(seed)
    for i in range(count):
        dim = rng.choice((2, 3, 4))
        draw = rand_pointed_cone(rng, dim, contains_zero=rng.random() < 0.5)
        d = rand_decomposable(rng, draw, rng.randint(1, 3), 6)
        mat = materialize(d)
        big = k_closure(d.cone)
        ok = True
        message = ""
        for _ in range(10):
            y = rand_hull_point(rng, d)
            try:
                cert = dominating_element(y, d)
            except ValueError as exc:
                ok, message = False, f"instance {i}: construction failed: {exc}"
                break
            issues = validate_certificate(cert, d)
            if issues:
                ok, message = False, f"instance {i}: certificate invalid: {issues[0]}"
                break
            if cert.witness not in mat:
                ok, message = False, f"instance {i}: witness not a materialized point"
                break
            if not any(cone_contains(big, vsub(z, y)) for z in mat):
                ok, message = False, f"instance {i}: oracle found no dominating point"
                break
        rep.record(ok, message)
    return rep


# --- criterion 2: optima equivalences ----------------------------------------


def run_equivalence_family(seed: int, count: int) -> FamilyReport:
    rep = FamilyReport(2, "optima equivalences on pointed cones", count, 0)
    rng = random.Random(seed)
    for i in range(count):
        dim = rng.choice((2, 3))
        draw = rand_pointed_cone(rng, dim, contains_zero=rng.random() < 0.5)
        d = rand_decomposable(rng, draw, rng.randint(1, 3), 3)
        report = check_equivalences(d)
        if not report.all_pass():
            rep.record(False, f"instance {i}: equivalence report {report}")
            continue
        mat = materialize(d)
        pts = mat.points
        cone = d.cone
        dominated = set()
        for y in pts:
            for s in pts:
                if s != y and _verified_member(cone, vsub(s, y)):
                    dominated.add(y)
                    break
        oracle = tuple(sorted(p for p in pts if p not in dominated))
        if oracle != report.optima.sorted_points():
            rep.record(False, f"instance {i}: oracle optima disagree")
            continue
        rep.record(True, "")
    return rep


# --- criterion 3: disjoint hulls verdicts ------------------------------------


def run_disjointness_family(seed: int, count: int) -> FamilyReport:
    rep = FamilyReport(3, "disjoint hull verdicts with certificates", count, 0)
    rng = random.Random(seed)
    for i in range(count):
        x_poly, y_set, _draw = rand_disjoint_pair(
            rng,
            dimension=rng.choice((2, 3)),
            chain_points=3,
            summands=rng.randint(1, 2),
            y_points=3,
        )
        res = hulls_disjoint(x_poly, y_set)
        if not res.disjoint:
            rep.record(False, f"instance {i}: constructed-disjoint pair reported joint")
            continue
        f = res.functional
        assert f is not None and res.x_bound is not None and res.y_bound is not None
        ok = (
            all(vdot(f, v) <= res.x_bound for v in x_poly.vertices.points)
            and all(vdot(f, r) <= 0 for r in x_poly.rays)
            and all(vdot(f, z) >= res.y_bound for z in materialize(y_set).points)
            and res.x_bound < res.y_bound
        )
        rep.record(ok, f"instance {i}: separation certificate arithmetic failed")
    return rep


# --- criterion 4: strict separation ------------------------------------------


def run_strict_separation_family(seed: int, count: int) -> FamilyReport:
    rep = FamilyReport(4, "strict separators with unit gap", count, 0)
    rng = random.Random(seed)
    for i in range(count):
        x_poly, y_poly, draw = rand_bounded_disjoint_pair(
            rng, rng.choice((2, 3)), 3, rng.randint(2, 4)
        )
        sep = strict_separator(x_poly, y_poly)
        f = sep.functional
        sup_x = max(vdot(f, v) for v in x_poly.vertices.points)
        inf_y = min(vdot(f, w) for w in y_poly.vertices.points)
        ok = (
            all(c.denominator == 1 for c in f)
            and any(c != 0 for c in f)
            and all(vdot(f, r) <= 0 for r in x_poly.rays)
            and sep.sup_x == sup_x
            and sep.inf_y == inf_y
            and inf_y - sup_x >= 1
            and separator_sign_check(f, draw.cone)
        )
        rep.record(ok, f"instance {i}: strict separation checks failed")
    return rep


# --- criterion 5: relative interior is upward --------------------------------


def run_interior_upward_family(seed: int, count: int) -> FamilyReport:
    rep = FamilyReport(5, "relative interior closed under cone steps", count, 0)
    rng = random.Random(seed)
    for i in range(count):
        draw = rand_pointed_cone(rng, rng.choice((2, 3)), contains_zero=True)
        poly = rand_upward_polyhedron(rng, draw, rng.randint(1, 4))
        ok = True
        message = ""
        for _ in range(10):
            z = rand_relative_interior_point(rng, poly)
            if not in_relative_interior(poly, z):
                ok, message = False, f"instance {i}: strict combination not in ri"
                break
            for g in draw.cone.generators:
                if not in_relative_interior(poly, vadd(z, g)):
                    ok, message = False, f"instance {i}: ri point left ri after cone step"
                    break
            if not ok:
                break
        rep.record(ok, message)
    return rep


# --- criterion 6: demand and convexification invariance ----------------------

CORPUS_SEED = 20260814


def _lattice_axis(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    # Independent enumeration of {k*step} within [max(lo,0), hi].
    lo = max(lo, ZERO)
    k = -((-lo) // step)  # ceil(lo/step) for positive step
    out = []
    while k * step <= hi:
        out.append(k * step)
        k += 1
    return out


def _oracle_budget(grid: GridDomain, price: PriceSystem) -> list[Vec]:
    axes = [_lattice_axis(lo, hi, grid.step) for lo, hi in grid.box]
    return [
        p
        for p in itertools.product(*axes)
        if sum((pi * xi for pi, xi in zip(price.price, p)), ZERO) <= price.wealth
    ]


def _oracle_demand(utility: Callable[[Vec], Fraction], budget: list[Vec]) -> list[Vec]:
    values = [(utility(p), p) for p in budget]
    best = max(v for v, _ in values)
    return sorted(p for v, p in values if v == best)


@dataclass(frozen=True)
class InvarianceInstance:
    utility_name: str
    step: Fraction
    box_high: Fraction
    price: Vec
    wealth: Fraction

    def grid(self) -> GridDomain:
        return GridDomain(self.step, ((ZERO, self.box_high), (ZERO, self.box_high)))

    def price_system(self) -> PriceSystem:
        return PriceSystem(self.price, self.wealth)

    def as_dict(self) -> dict[str, Any]:
        return {
            "utility": self.utility_name,
            "step": str(self.step),
            "box_high": str(self.box_high),
            "price": _fmt_vec(self.price),
            "wealth": str(self.wealth),
        }


def build_invariance_corpus(size: int = 50) -> tuple[list[InvarianceInstance], int]:
    """Aligned budget instances on which grid invariance provably holds.

    Instances are drawn from the pinned distribution and kept only when an
    independent brute-force check confirms that plain maximals equal hull
    maximals on the grid (equality is not guaranteed on a finite lattice,
    so holdout instances are recorded rather than asserted).
    Returns the kept instances plus the number of rejected draws.
    """
    rng = random.Random(CORPUS_SEED)
    kept: list[InvarianceInstance] = []
    rejected = 0
    names = sorted(UTILITIES)
    while len(kept) < size:
        step = Fraction(1) if rng.random() < 0.7 else Fraction(1, 2)
        box_high = Fraction(rng.randint(2, 4))
        price = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)))
        grid = GridDomain(step, ((ZERO, box_high), (ZERO, box_high)))
        anchors = [p for p in grid.points() if any(c > 0 for c in p)]
        anchor = anchors[rng.randrange(len(anchors))]
        wealth = vdot(price, anchor)
        name = names[rng.randrange(len(names))]
        inst = InvarianceInstance(name, step, box_high, price, wealth)
        budget = _oracle_budget(grid, inst.price_system())
        if not 2 <= len(budget) <= 24:
            rejected += 1
            continue
        if _invariance_holds_by_oracle(UTILITIES[name], grid, budget):
            kept.append(inst)
        else:
            rejected += 1
    return kept, rejected


def _invariance_holds_by_oracle(
    utility: Callable[[Vec], Fraction], grid: GridDomain, budget: list[Vec]
) -> bool:
    """Brute-force both sides of the invariance claim on one budget set."""
    from .linalg import hull_membership

    ground = grid.points().points
    values = {p: utility(p) for p in ground}
    plain = {m for m in budget if all(values[m] >= values[s] for s in budget)}
    by_value = sorted(budget, key=lambda s: values[s], reverse=True)
    hull_kept = set()
    for m in budget:
        good = True
        for s in by_value:  # highest level first makes failures fail fast
            if values[m] >= values[s]:
                break
            upper = [p for p in ground if values[p] >= values[s]]
            if not hull_membership(m, upper).member:
                good = False
                break
        if good:
            hull_kept.add(m)
    return plain == hull_kept


def run_demand_family(seed: int, count: int) -> FamilyReport:
    rep = FamilyReport(6, "budget demand and convexification invariance", count + 1, 0)
    del seed  # the corpus is pinned; the family is fully deterministic

    # Fixed showcase instance: unit grid on [0,4]^2, prices (1,1), wealth 2.
    grid = GridDomain(Fraction(1), ((ZERO, Fraction(4)), (ZERO, Fraction(4))))
    price = PriceSystem((ONE, ONE), Fraction(2))
    budget = _oracle_budget(grid, price)
    expected_budget = sorted(
        [
            (ZERO, ZERO),
            (ZERO, ONE),
            (ZERO, Fraction(2)),
            (ONE, ZERO),
            (ONE, ONE),
            (Fraction(2), ZERO),
        ]
    )
    dset = demand(ratio_utility, grid, price)
    boundary = check_boundary_and_antichain(
        ratio_utility, grid, price, orthant_cone(2, contains_zero=True)
    )
    inv = check_convexification_invariance(ratio_utility, grid, price)
    fixed_ok = (
        sorted(budget) == expected_budget
        and _oracle_demand(ratio_utility, budget) == [(ZERO, Fraction(2))]
        and dset.sorted_points() == ((ZERO, Fraction(2)),)
        and ratio_utility((ZERO, Fraction(2))) == 2
        and boundary.on_boundary
        and boundary.antichain_orthant
        and inv.equal
        and inv.nonsatiated
    )
    rep.record(fixed_ok, "showcase instance: demand/boundary/invariance mismatch")
    rep.details["showcase_demand"] = [_fmt_vec(p) for p in dset.sorted_points()]

    corpus, rejected = build_invariance_corpus(count)
    rep.details["corpus_rejected_draws"] = rejected
    for idx, inst in enumerate(corpus):
        utility = UTILITIES[inst.utility_name]
        g = inst.grid()
        ps = inst.price_system()
        expected = _oracle_demand(utility, _oracle_budget(g, ps))
        got = demand(utility, g, ps)
        report = check_convexification_invariance(utility, g, ps)
        ok = (
            list(got.sorted_points()) == expected
            and report.equal
            and report.maximals_set.sorted_points() == got.sorted_points()
        )
        rep.record(ok, f"corpus instance {idx}: demand or invariance mismatch")
    return rep


# --- criterion 7: antichain quasiconcavity contrast ---------------------------

# Frozen regression fixture: mixing these two points with weight 1/2 drops
# the utility strictly below both endpoint values.
QUASI_VIOLATION = (
    (ZERO, ONE),
    (Fraction(4), Fraction(12)),
    Fraction(1, 2),
)


def run_quasiconcavity_family(seed: int, samples: int) -> FamilyReport:
    rep = FamilyReport(7, "antichain quasiconcavity versus plain", 2, 0)
    grid = GridDomain(Fraction(1, 2), ((ZERO, Fraction(4)), (ZERO, Fraction(4))))
    orthant = orthant_cone(2, contains_zero=True)
    rng = random.Random(seed)
    verdict = check_antichain_quasiconcavity(ratio_utility, grid, orthant, samples, rng)
    rep.record(
        verdict.holds and verdict.violation is None,
        f"orthant-incomparable sampling found a violation: {verdict.violation}",
    )

    search_grid = GridDomain(Fraction(1), ((ZERO, Fraction(4)), (ZERO, Fraction(12))))
    found = find_quasiconcavity_violation(ratio_utility, search_grid)
    x, y, lam = QUASI_VIOLATION
    mix = vadd(vscale(lam, x), vscale(1 - lam, y))
    fixture_violates = ratio_utility(mix) < min(ratio_utility(x), ratio_utility(y))
    rep.record(
        found is not None and fixture_violates,
        "plain-quasiconcavity search found no violating triple",
    )
    if found is not None:
        rep.details["found_violation"] = {
            "x": _fmt_vec(found[0]),
            "y": _fmt_vec(found[1]),
            "weight": str(found[2]),
        }
    return rep


# --- criterion 8: structural laws ---------------------------------------------


def _escapes_polyhedron(poly, point: Vec, g: Vec) -> bool:
    t = ONE
    for _ in range(40):
        if not poly_contains(poly, vadd(point, vscale(t, g))):
            return True
        t *= 2
    return False


def run_structural_family(seed: int, count: int) -> FamilyReport:
    rep = FamilyReport(8, "structural laws: upwardness, cones, relations", 3 * count, 0)
    rng = random.Random(seed)

    # (a) upward-equivalence between a cone and its convex closure.
    for i in range(count):
        dim = rng.choice((2, 3))
        draw = rand_pointed_cone(rng, dim, contains_zero=rng.random() < 0.5)
        if rng.random() < 0.5:
            poly = rand_upward_polyhedron(rng, rand_pointed_cone(rng, dim, True), 3)
        else:
            poly = convex_hull(
                FinitePointSet.build(rand_point(rng, dim) for _ in range(3))
            )
        up_plain = is_upward(poly, draw.cone)
        up_closed = is_upward(poly, k_closure(draw.cone))
        ok = up_plain == up_closed
        if ok and up_plain:
            member = rand_cone_member(rng, k_closure(draw.cone), strict=False)
            base = poly.vertices.points[rng.randrange(len(poly.vertices.points))]
            ok = poly_contains(poly, vadd(base, member))
        elif ok and not up_plain:
            bad = next(
                (g for g in draw.cone.generators if _escapes_polyhedron(
                    poly, poly.vertices.points[0], g)),
                None,
            )
            ok = bad is not None
        rep.record(ok, f"upwardness law failed on instance {i}")

    # (b) cone addition laws on certificate-backed members.
    for i in range(count):
        dim = rng.choice((2, 3))
        draw = rand_pointed_cone(rng, dim, contains_zero=True)
        closed = k_closure(draw.cone)
        c1 = rand_cone_member(rng, closed, strict=False)
        c2 = rand_cone_member(rng, closed, strict=False)
        ok = cone_contains(closed, vadd(c1, c2))
        strict_cone = with_origin(draw.cone, False)
        s1 = rand_cone_member(rng, strict_cone, strict=True)
        s2 = rand_cone_member(rng, strict_cone, strict=True)
        total = vadd(s1, s2)
        zero = tuple(ZERO for _ in range(dim))
        ok = ok and total != zero and cone_contains(strict_cone, total)
        x = rand_point(rng, dim)
        y = vadd(x, s1)
        ok = (
            ok
            and relate(draw.cone, x, y) in (Comparability.UP, Comparability.BOTH)
            and relate(negate(draw.cone), x, y)
            in (Comparability.DOWN, Comparability.BOTH)
        )
        rep.record(ok, f"cone law failed on instance {i}")

    # (c) relation laws on utility-backed total preorders.
    for i in range(count):
        ground = rand_ground_set(rng, 2, rng.randint(4, 8))
        table = rand_utility_table(rng, ground)
        preorder = TotalPreorder.from_utility(ground, table.__getitem__)
        subset = FinitePointSet(
            tuple(p for p in ground.points if rng.random() < 0.8) or ground.points[:1]
        )
        by_rule = maximals(preorder, subset)
        raw = FiniteRelation(ground, preorder.related)
        by_definition = maximals(raw, subset)
        ok = by_rule.sorted_points() == by_definition.sorted_points()

        cap = sorted(table.values())[len(table) // 2]
        coarse = TotalPreorder.from_utility(ground, lambda p: min(table[p], cap))
        ok = ok and all(
            not preorder.related[a][b] or coarse.related[a][b]
            for a in range(len(ground))
            for b in range(len(ground))
        )
        wider = maximals(coarse, subset)
        ok = ok and set(by_rule.points) <= set(wider.points)
        hulls = convexified_maximals(preorder, subset)
        ok = ok and set(by_rule.points) <= set(hulls.points)

        for m in by_rule.points:
            for x in subset.points:
                if preorder.holds(x, m) and x not in by_rule.points:
                    ok = False
        rep.record(ok, f"relation law failed on instance {i}")
    return rep


# --- assembly -----------------------------------------------------------------

FAMILIES: dict[int, Callable[[int, int], FamilyReport]] = {
    1: run_dominance_family,
    2: run_equivalence_family,
    3: run_disjointness_family,
    4: run_strict_separation_family,
    5: run_interior_upward_family,
    6: run_demand_family,
    7: run_quasiconcavity_family,
    8: run_structural_family,
}


def run_suite(seed: int, counts: dict[int, int] | None = None) -> dict[str, Any]:
    merged = dict(DEFAULT_COUNTS)
    if counts:
        merged.update(counts)
    reports = []
    for criterion in sorted(FAMILIES):
        family_seed = seed * 1000 + criterion
        reports.append(FAMILIES[criterion](family_seed, merged[criterion]))
    return {
        "seed": seed,
        "counts": {str(k): v for k, v in sorted(merged.items())},
        "families": [r.as_dict() for r in reports],
        "all_passed": all(r.passed() for r in reports),
    }
