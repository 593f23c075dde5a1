"""The three benchmark workloads: seeded inputs, the query each one sends,
and the checks that decide whether a query's answer is correct.

A query is one public `conedom` call plus the verification a caller would
run on its answer (what the CLI's `--verify` does, or a known-by-construction
verdict). Its `run` raises `CheckFailed` when the answer fails a check.
`audit` is an independent re-derivation from `oracles`, run once per query
outside the timed region. Library calls go through module attributes
(`dominance.dominating_element`, not a local alias) so that the tracer's
rebinding sees them.

Instance mixes are stratified (dimension, summand count, size class and
kind cycle in a fixed order) so that a run's numbers depend little on
which seed drew the inputs.

Which layer each workload stresses, and where a change to it should show:

  layer       stressed by               should move                 predicted not to move
  linalg      dominate, polyhedra       queries_per_s, query_p50    pareto
  cones       pareto; dominate setup    queries_per_s, tail; setup  polyhedra
  sets        every setup; pareto       setup_s, queries_per_s      -
  dominance   dominate, pareto          query_p50 (dominate),       polyhedra
                                        queries_per_s (pareto)
  separation  polyhedra                 query_p50                   dominate, pareto
  maximals    polyhedra                 query_tail                  dominate, pareto
  instances   every setup               setup_s                     -
  cli, scene  README replay only        none                        -
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from conedom import cones, dominance, instances, separation, sets
from conedom.linalg import ZERO, Vec, vadd, vdot, vsub

import oracles

# `conedom.maximals` the attribute is the function re-exported by the
# package; the module itself has to come from the import system.
maximals = importlib.import_module("conedom.maximals")


class CheckFailed(Exception):
    """A query's answer failed its verification."""


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    serialize: Callable[[Any], Any]
    audit: Callable[[Any], None]


def _no_tick() -> None:
    pass


@dataclass(frozen=True)
class Scale:
    dominate_sets: int
    pareto_rounds: int
    polyhedra_rounds: int


SCALES = {
    "full": Scale(dominate_sets=360, pareto_rounds=16, polyhedra_rounds=4),
    "tiny": Scale(dominate_sets=2, pareto_rounds=1, polyhedra_rounds=1),
}


def _s(v) -> list[str]:
    return [str(c) for c in v]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- dominate ------------------------------------------------------------------


def outside_target(d: sets.DecomposableSet, guard: Vec) -> Vec:
    """A point strictly below the hull along `guard`, so outside it.

    Summing each summand's guard-minimal point and stepping one unit of
    guard value further down gives f.y = sum_s min_s f.p - 1 for f = guard,
    which the refutation (guard, -min_s) certifies.
    """
    total = tuple(ZERO for _ in guard)
    for s in d.summands:
        low = min(s.base.points, key=lambda p: vdot(guard, p))
        total = tuple(a + b for a, b in zip(total, low))
    step = 1 / vdot(guard, guard)
    return tuple(a - step * g for a, g in zip(total, guard))


def _cert_json(cert: dominance.DominationCertificate) -> dict[str, Any]:
    return {
        "witness": _s(cert.witness),
        "cone_vector": _s(cert.cone_vector),
        "summand_witnesses": [_s(w) for w in cert.summand_witnesses],
        "decomposition": [_s(b) for b in cert.decomposition.blocks],
    }


def _dominate_query(y: Vec, d: sets.DecomposableSet, mat: frozenset) -> Query:
    def run():
        cert = dominance.dominating_element(y, d)
        issues = dominance.validate_certificate(cert, d)
        _require(not issues, f"certificate invalid: {issues[:1]}")
        _require(cert.witness in mat, "witness is not a point of the materialized sum")
        return cert

    def audit(cert):
        _require(
            oracles.decomposition_reproduces(d, cert.decomposition.blocks, y),
            "decomposition does not reproduce the target",
        )
        _require(
            oracles.in_closed_cone(d.cone.generators, vsub(cert.witness, y)),
            "witness minus target is outside the closed cone",
        )

    return Query("dominate.in_hull", run, _cert_json, audit)


def _outside_query(y: Vec, d: sets.DecomposableSet) -> Query:
    def run():
        try:
            dominance.dominating_element(y, d)
        except dominance.OutsideHullError as exc:
            f, offsets = exc.functional, exc.offsets
            _require(len(offsets) == len(d.summands), "refutation offset count")
            for s, c in zip(d.summands, offsets):
                _require(all(vdot(f, p) + c >= 0 for p in s.base.points), "refutation misses a summand point")
            _require(vdot(f, y) + sum(offsets, ZERO) < 0, "refutation does not cut off the target")
            return exc
        raise CheckFailed("a target outside the hull received a certificate")

    return Query(
        "dominate.outside_hull",
        run,
        lambda exc: {"functional": _s(exc.functional), "offsets": _s(exc.offsets)},
        lambda exc: None,
    )


def dominate_setup(rng: random.Random, scale: Scale, tick: Callable[[], None] = _no_tick) -> list[Query]:
    """Criterion-1 sets: simplicial pointed cones in dimension 2-4, half of
    them admitting the origin, sums of 1-3 chains of at most 6 points; ten
    targets per set, one of them outside the hull.

    Where `instances.rand_decomposable` draws each requested chain size
    from 1-6, the sizes here cycle through 1-6 within each (dimension,
    summands, origin) cell, so the largest programs, which set the tail
    latency, come in the same number at every seed.
    """
    queries: list[Query] = []
    for i in range(scale.dominate_sets):
        dim = (2, 3, 4)[i % 3]
        summands = 1 + (i // 3) % 3
        draw = instances.rand_pointed_cone(rng, dim, contains_zero=(i // 9) % 2 == 0)
        sizes = [1 + (i // 18 + 2 * s) % 6 for s in range(summands)]
        d = sets.DecomposableSet(tuple(instances.rand_chain(rng, draw, k) for k in sizes))
        mat = frozenset(sets.materialize(d).points)
        outside = rng.randrange(10)
        for t in range(10):
            if t == outside:
                queries.append(_outside_query(outside_target(d, draw.guard), d))
            else:
                queries.append(_dominate_query(instances.rand_hull_point(rng, d), d, mat))
        tick()
    return queries


# --- pareto --------------------------------------------------------------------

# Chain sizes per instance, cycled in this order: materialized sums of 24
# to 64 points over simplicial cones, whose membership queries all take the
# span fast path in `cones`. Sizes spread evenly over that range keep a few
# instances from holding most of the time and put the median and tail
# percentiles where many instances lie. Each round also holds
# NONSIMPLICIAL_PER_ROUND sums of 2 x 3 = 6 points over cones with
# dimension + 1 or + 2 generators, whose membership queries take the LP
# fallback.
PARETO_MIX = (
    (4, 6), (3, 3, 3), (5, 6), (6, 6), (3, 3, 4), (6, 7),
    (3, 3, 5), (6, 8), (3, 4, 4), (7, 8), (3, 4, 5), (4, 4, 4),
)
NONSIMPLICIAL_SIZES = (2, 3)
NONSIMPLICIAL_PER_ROUND = 3


def nonsimplicial_cone(rng: random.Random, dimension: int, extra: int) -> cones.Cone:
    """Pointed cone with `dimension + extra` generators: a simplicial draw
    plus extra generators flipped into the guard's open half-space."""
    draw = instances.rand_pointed_cone(rng, dimension, contains_zero=rng.random() < 0.5)
    gens = list(draw.cone.generators)
    while len(gens) < dimension + extra:
        g = instances.rand_point(rng, dimension)
        s = vdot(draw.guard, g)
        if s == 0 or g in gens:
            continue
        gens.append(g if s > 0 else tuple(-c for c in g))
    return cones.Cone(dimension, tuple(gens), draw.cone.contains_zero)


def full_chain(rng: random.Random, cone: cones.Cone, size: int) -> sets.ChainSet:
    """Exactly `size` points: a random start plus nonzero cone steps, so
    every pair is comparable (`instances.rand_chain` often keeps fewer)."""
    p = instances.rand_point(rng, cone.dimension)
    pts = [p]
    while len(pts) < size:
        step = instances.rand_cone_member(rng, cones.k_closure(cone), strict=False)
        if any(step):
            p = tuple(a + b for a, b in zip(p, step))
            pts.append(p)
    return sets.ChainSet(sets.FinitePointSet(tuple(pts)), cone)


def _pareto_query(pts: sets.FinitePointSet, cone: cones.Cone, kind: str) -> Query:
    def run():
        return dominance.pareto_optima_finite(pts, cone)

    def audit(optima):
        expected = oracles.pareto_optima(pts.points, cone.generators)
        _require(optima.sorted_points() == tuple(sorted(expected)), "optima differ from the oracle")

    return Query(kind, run, lambda optima: [_s(p) for p in optima.sorted_points()], audit)


def pareto_setup(rng: random.Random, scale: Scale, tick: Callable[[], None] = _no_tick) -> list[Query]:
    """PARETO_MIX sums over simplicial pointed cones in dimension 2-4 plus
    the non-simplicial share, shuffled so that any stretch of the queries
    holds the whole mix."""
    queries: list[Query] = []
    for r in range(scale.pareto_rounds):
        for i, sizes in enumerate(PARETO_MIX):
            dim = (2, 3, 4)[(i + r) % 3]
            cone = instances.rand_pointed_cone(rng, dim, contains_zero=rng.random() < 0.5).cone
            d = sets.DecomposableSet(tuple(full_chain(rng, cone, k) for k in sizes))
            queries.append(_pareto_query(sets.materialize(d), cone, "pareto.simplicial"))
            tick()
        for i in range(NONSIMPLICIAL_PER_ROUND):
            cone = nonsimplicial_cone(rng, (2, 3, 4)[i], 1 + (r + i) % 2)
            d = sets.DecomposableSet(tuple(full_chain(rng, cone, k) for k in NONSIMPLICIAL_SIZES))
            queries.append(_pareto_query(sets.materialize(d), cone, "pareto.nonsimplicial"))
            tick()
    rng.shuffle(queries)
    return queries


# --- polyhedra -----------------------------------------------------------------


def _disjoint_query(x: sets.Polyhedron, y: sets.DecomposableSet) -> Query:
    y_points = sets.materialize(y).points

    def run():
        res = separation.hulls_disjoint(x, y)
        _require(res.disjoint, "a constructed-disjoint pair was reported joint")
        f = res.functional
        _require(
            all(vdot(f, v) <= res.x_bound for v in x.vertices.points)
            and all(vdot(f, r) <= 0 for r in x.rays)
            and all(vdot(f, z) >= res.y_bound for z in y_points)
            and res.x_bound < res.y_bound,
            "disjointness bounds fail",
        )
        return res

    return Query(
        "polyhedra.hulls_disjoint",
        run,
        lambda res: {"f": _s(res.functional), "x": str(res.x_bound), "y": str(res.y_bound)},
        lambda res: None,
    )


def _strict_query(x: sets.Polyhedron, y: sets.Polyhedron, cone: cones.Cone) -> Query:
    def run():
        sep = separation.strict_separator(x, y)
        f = sep.functional
        _require(
            all(c.denominator == 1 for c in f)
            and any(f)
            and all(vdot(f, r) <= 0 for r in x.rays)
            and sep.sup_x == max(vdot(f, v) for v in x.vertices.points)
            and sep.inf_y == min(vdot(f, w) for w in y.vertices.points)
            and sep.inf_y - sep.sup_x >= 1
            and all(vdot(f, g) <= 0 for g in cone.generators),
            "strict separator checks fail",
        )
        return sep

    return Query(
        "polyhedra.strict_separator",
        run,
        lambda sep: {"f": _s(sep.functional), "sup_x": str(sep.sup_x), "inf_y": str(sep.inf_y)},
        lambda sep: None,
    )


def _interior_query(poly: sets.Polyhedron, z: Vec, guard: Vec) -> Query:
    """`z` is in the relative interior; the same query asks about a point
    one unit of guard value below every vertex, which lies outside the
    polyhedron since the guard is positive on its rays."""
    floor = min(vdot(guard, v) for v in poly.vertices.points)
    below = vadd(z, instances.lowered_below(sets.FinitePointSet((z,)), guard, floor))

    def run():
        verdicts = [sets.in_relative_interior(poly, z), sets.in_relative_interior(poly, below)]
        _require(verdicts[0], "relative-interior point rejected")
        _require(not verdicts[1], "point below the polyhedron accepted")
        return verdicts

    return Query("polyhedra.relative_interior", run, lambda verdicts: verdicts, lambda verdicts: None)


@dataclass(frozen=True)
class GridInstance:
    utility: str
    grid: maximals.GridDomain
    prices: maximals.PriceSystem


def rand_grid_instance(
    rng: random.Random, utility: str, step: Fraction, box_high: int, band: tuple[float, float]
) -> GridInstance:
    """Aligned budget instance: the wealth is the price of a grid point.

    That anchor point is drawn from the `band` share of the grid points
    ordered by price, so that budget sizes, which set the cost, are spread
    the same way at every seed. Unlike the suite's pinned corpus, no oracle
    filter is applied.
    """
    grid = maximals.GridDomain(step, ((ZERO, Fraction(box_high)), (ZERO, Fraction(box_high))))
    price = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)))
    anchors = sorted((p for p in grid.points() if any(c > 0 for c in p)), key=lambda p: (vdot(price, p), p))
    lo, hi = band
    anchor = anchors[int((lo + (hi - lo) * rng.random()) * len(anchors))]
    return GridInstance(utility, grid, maximals.PriceSystem(price, vdot(price, anchor)))


def _grid_query(inst: GridInstance) -> Query:
    utility = maximals.UTILITIES[inst.utility]
    budget = oracles.grid_budget(inst.grid.step, inst.grid.box, inst.prices.price, inst.prices.wealth)
    best = max(utility(p) for p in budget)
    plain = tuple(sorted(p for p in budget if utility(p) == best))

    def run():
        rep = maximals.check_convexification_invariance(utility, inst.grid, inst.prices)
        _require(rep.maximals_set.sorted_points() == plain, "maximals differ from the brute-force demand")
        _require(rep.equal == (rep.convexified_set.sorted_points() == plain), "equal flag is wrong")
        return rep

    def audit(rep):
        expected = oracles.convexified_maximals_2d(utility, inst.grid.points().points, budget)
        _require(rep.convexified_set.sorted_points() == tuple(sorted(expected)), "convexified maximals differ from the oracle")

    return Query(
        "polyhedra.grid_invariance",
        run,
        lambda rep: {"equal": rep.equal, "convexified": [_s(p) for p in rep.convexified_set.sorted_points()]},
        audit,
    )


GRID_CELLS = tuple(
    (u, step, box)
    for u in sorted(maximals.UTILITIES)
    for step in (Fraction(1), Fraction(1, 2))
    for box in (2, 3, 4)
)


def polyhedra_setup(rng: random.Random, scale: Scale, tick: Callable[[], None] = _no_tick) -> list[Query]:
    """Per round: 24 disjoint pairs, 24 strictly separable pairs, 6 upward
    polyhedra with 10 relative-interior points and their cone steps (each
    paired with an outside point), and
    one grid instance per (utility, step, box) cell, its wealth drawn from
    the round's band of the grid's prices."""
    queries: list[Query] = []
    rounds = scale.polyhedra_rounds
    for r in range(rounds):
        for i in range(24):
            x, y, _ = instances.rand_disjoint_pair(rng, 2 + i % 2, 3, 1 + (i // 2) % 2, 3)
            queries.append(_disjoint_query(x, y))
            tick()
        for i in range(24):
            x, y, draw = instances.rand_bounded_disjoint_pair(rng, 2 + i % 2, 3, 2 + (i // 2) % 3)
            queries.append(_strict_query(x, y, draw.cone))
            tick()
        for i in range(6):
            draw = instances.rand_pointed_cone(rng, 2 + i % 2, contains_zero=True)
            poly = instances.rand_upward_polyhedron(rng, draw, 1 + (i // 2) % 4)
            for _ in range(10):
                z = instances.rand_relative_interior_point(rng, poly)
                queries.append(_interior_query(poly, z, draw.guard))
                for g in draw.cone.generators:
                    queries.append(_interior_query(poly, vadd(z, g), draw.guard))
            tick()
        for utility, step, box in GRID_CELLS:
            band = (r / rounds, (r + 1) / rounds)
            queries.append(_grid_query(rand_grid_instance(rng, utility, step, box, band)))
            tick()
    rng.shuffle(queries)
    return queries


# Each takes the rng, the scale and a `tick` called after every instance
# drawn, which lets the set-up time be read on the reference clock.
WORKLOADS: dict[str, Callable[..., list[Query]]] = {
    "dominate": dominate_setup,
    "pareto": pareto_setup,
    "polyhedra": polyhedra_setup,
}
