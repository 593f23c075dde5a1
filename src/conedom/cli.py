"""Command-line front end: scene files in, JSON verdicts and certificates out.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (or a
failed post-verification), 2 for usage problems including scene errors,
3 for an internal failure (a solver pivot limit or an invalid certificate).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .cones import Cone, relate
from .dominance import (
    Decomposition,
    DominationCertificate,
    OutsideHullError,
    check_equivalences,
    dominated_element,
    dominating_element,
    pareto_optima_finite,
    validate_certificate,
    validate_outside_hull,
)
from .linalg import Vec, hull_membership, vdot
from .maximals import UTILITIES, check_convexification_invariance, demand, orthant_cone
from .scene import Scene, SceneError, fmt, fmt_vec, parse_scene
from .sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    Polyhedron,
    convex_hull,
    first_comparable_pair,
    is_chain,
    first_incomparable_pair,
    materialize,
)
from .separation import hulls_disjoint, proper_separator, strict_separator, validate_common_point
from .suite import DEFAULT_COUNTS, run_suite


class UsageError(ValueError):
    pass


def _parse_vec(text: str) -> Vec:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"unreadable vector {text!r}; write rationals like 3/2,-1")


def _load_scene(path: str | None) -> Scene:
    if path is None:
        return Scene(dimension=0)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scene(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read scene file: {exc}")


def _resolve_cone(scene: Scene, name: str, dimension: int) -> Cone:
    if name in scene.cones:
        return scene.cones[name]
    if name == "orthant":
        if dimension <= 0:
            raise UsageError("cannot infer the dimension for the built-in orthant")
        return orthant_cone(dimension)
    raise UsageError(f"unknown cone {name!r}")

def _resolve_set(scene: Scene, name: str):
    if name not in scene.sets:
        raise UsageError(f"unknown set {name!r}")
    return scene.sets[name]


def _as_decomposable(scene: Scene, name: str) -> DecomposableSet:
    s = _resolve_set(scene, name)
    if isinstance(s, DecomposableSet):
        return s
    if isinstance(s, ChainSet):
        return DecomposableSet((s,))
    raise UsageError(f"set {name!r} must be a chain or a sum of chains")


def _as_points(scene: Scene, name: str) -> FinitePointSet:
    s = _resolve_set(scene, name)
    if isinstance(s, FinitePointSet):
        return s
    if isinstance(s, ChainSet):
        return s.base
    if isinstance(s, DecomposableSet):
        return materialize(s)
    raise UsageError(f"set {name!r} must be points, a chain, or a sum")


def _as_polyhedron(scene: Scene, name: str) -> Polyhedron:
    s = _resolve_set(scene, name)
    if isinstance(s, Polyhedron):
        return s
    if isinstance(s, FinitePointSet):
        return convex_hull(s)
    raise UsageError(f"set {name!r} must be a polyhedron (or a bounded point set)")


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# --- commands -----------------------------------------------------------------


def _cmd_relate(args) -> int:
    origin = _parse_vec(args.origin)
    target = _parse_vec(args.target)
    scene = _load_scene(args.scene)
    cone = _resolve_cone(scene, args.cone, len(origin))
    verdict = relate(cone, origin, target)
    _emit({"relation": verdict.name.title()})
    return 0


def _cmd_chain_check(args) -> int:
    scene = _load_scene(args.scene)
    pts = _as_points(scene, args.set)
    cone = _resolve_cone(scene, args.cone, pts.dimension if len(pts) else 0)
    pair = first_incomparable_pair(pts, cone)
    payload: dict[str, Any] = {"chain": pair is None}
    if pair is not None:
        payload["incomparable_pair"] = [fmt_vec(pair[0]), fmt_vec(pair[1])]
    _emit(payload)
    return 0 if pair is None else 1


def _cmd_antichain_check(args) -> int:
    scene = _load_scene(args.scene)
    pts = _as_points(scene, args.set)
    cone = _resolve_cone(scene, args.cone, pts.dimension if len(pts) else 0)
    pair = first_comparable_pair(pts, cone)
    payload: dict[str, Any] = {"antichain": pair is None}
    if pair is not None:
        payload["comparable_pair"] = [fmt_vec(pair[0]), fmt_vec(pair[1])]
    _emit(payload)
    return 0 if pair is None else 1


def _certificate_payload(cert: DominationCertificate) -> dict[str, Any]:
    return {
        "target": fmt_vec(cert.target),
        "witness": fmt_vec(cert.witness),
        "cone_vector": fmt_vec(cert.cone_vector),
        "direction": cert.direction,
        "summand_witnesses": [fmt_vec(w) for w in cert.summand_witnesses],
        "decomposition": [[fmt(c) for c in block] for block in cert.decomposition.blocks],
    }


def _certificate_from_payload(payload: dict[str, Any]) -> DominationCertificate:
    return DominationCertificate(
        target=tuple(Fraction(c) for c in payload["target"]),
        witness=tuple(Fraction(c) for c in payload["witness"]),
        cone_vector=tuple(Fraction(c) for c in payload["cone_vector"]),
        summand_witnesses=tuple(
            tuple(Fraction(c) for c in w) for w in payload["summand_witnesses"]
        ),
        decomposition=Decomposition(
            tuple(tuple(Fraction(c) for c in block) for block in payload["decomposition"])
        ),
        direction=payload["direction"],
    )


def _cmd_dominate(args) -> int:
    scene = _load_scene(args.scene)
    dset = _as_decomposable(scene, args.set)
    point = _parse_vec(args.point)
    find = dominated_element if args.direction == "dominated" else dominating_element
    try:
        cert = find(point, dset)
    except OutsideHullError as exc:
        refutation: dict[str, Any] = {
            "outside_hull": True,
            "functional": fmt_vec(exc.functional),
            "offsets": [fmt(c) for c in exc.offsets],
        }
        issues: list[str] = []
        if args.verify:
            reread = json.loads(json.dumps(refutation))
            issues = validate_outside_hull(
                point,
                tuple(Fraction(c) for c in reread["functional"]),
                tuple(Fraction(c) for c in reread["offsets"]),
                dset,
            )
            refutation["verified"] = not issues
        _emit(refutation)
        if issues:
            print(f"verification failed: {issues[0]}", file=sys.stderr)
        return 1
    payload = _certificate_payload(cert)
    if args.verify:
        reread = _certificate_from_payload(json.loads(json.dumps(payload)))
        issues = validate_certificate(reread, dset)
        payload["verified"] = not issues
        if issues:
            _emit(payload)
            print(f"verification failed: {issues[0]}", file=sys.stderr)
            return 1
    _emit(payload)
    return 0


def _cmd_pareto(args) -> int:
    scene = _load_scene(args.scene)
    pts = _as_points(scene, args.set)
    cone = _resolve_cone(scene, args.cone, pts.dimension if len(pts) else 0)
    optima = pareto_optima_finite(pts, cone)
    _emit({"optima": [fmt_vec(p) for p in optima.sorted_points()]})
    return 0


def _cmd_equiv(args) -> int:
    scene = _load_scene(args.scene)
    dset = _as_decomposable(scene, args.set)
    report = check_equivalences(dset)
    _emit(
        {
            "origin_toggle_invariant": report.origin_toggle_invariant,
            "hull_equivalence": report.hull_equivalence,
            "maximals_agree": report.maximals_agree,
            "optima": [fmt_vec(p) for p in report.optima.sorted_points()],
            "all_pass": report.all_pass(),
        }
    )
    return 0 if report.all_pass() else 1


def _cmd_hulls_disjoint(args) -> int:
    scene = _load_scene(args.scene)
    x_poly = _as_polyhedron(scene, args.x_set)
    y_raw = _resolve_set(scene, args.y_set)
    if isinstance(y_raw, Polyhedron):
        raise UsageError("the second set must be points, a chain, or a sum")
    y_set = y_raw if isinstance(y_raw, (DecomposableSet, FinitePointSet)) else y_raw.base
    res = hulls_disjoint(x_poly, y_set)
    if res.disjoint:
        payload = {
            "disjoint": True,
            "functional": fmt_vec(res.functional),
            "x_bound": fmt(res.x_bound),
            "y_bound": fmt(res.y_bound),
        }
        if args.verify:
            pts = (
                materialize(y_set) if isinstance(y_set, DecomposableSet) else y_set
            )
            ok = (
                all(vdot(res.functional, v) <= res.x_bound for v in x_poly.vertices.points)
                and all(vdot(res.functional, r) <= 0 for r in x_poly.rays)
                and all(vdot(res.functional, p) >= res.y_bound for p in pts.points)
                and res.x_bound < res.y_bound
            )
            payload["verified"] = ok
            if not ok:
                _emit(payload)
                print("verification failed: certificate arithmetic", file=sys.stderr)
                return 1
        _emit(payload)
        return 0
    payload = {"disjoint": False, "common_point": fmt_vec(res.common_point)}
    issues: list[str] = []
    if args.verify:
        reread = json.loads(json.dumps(payload))
        issues = validate_common_point(tuple(Fraction(c) for c in reread["common_point"]), x_poly, y_set)
        payload["verified"] = not issues
    _emit(payload)
    if issues:
        print(f"verification failed: {issues[0]}", file=sys.stderr)
    return 1


def _cmd_separate(args) -> int:
    scene = _load_scene(args.scene)
    x_poly = _as_polyhedron(scene, args.x_set)
    if args.kind == "strict":
        y_poly = _as_polyhedron(scene, args.y_set)
        result = strict_separator(x_poly, y_poly)
        y_points = y_poly.vertices.points
    else:
        y_set = _as_decomposable(scene, args.y_set)
        cone = _resolve_cone(scene, args.cone, x_poly.vertices.dimension)
        result = proper_separator(x_poly, y_set, cone)
        y_points = materialize(y_set).points
    payload: dict[str, Any] = {
        "kind": result.kind,
        "functional": fmt_vec(result.functional),
        "sup_x": fmt(result.sup_x),
        "inf_y": fmt(result.inf_y),
    }
    if result.witness_pair is not None:
        payload["witness_pair"] = [
            fmt_vec(result.witness_pair[0]),
            fmt_vec(result.witness_pair[1]),
        ]
    if args.verify:
        f = result.functional
        sup_x = max(vdot(f, v) for v in x_poly.vertices.points)
        ok = all(vdot(f, r) <= 0 for r in x_poly.rays) and sup_x == result.sup_x
        inf_y = min(vdot(f, w) for w in y_points)
        ok = ok and inf_y == result.inf_y
        if args.kind == "strict":
            ok = ok and result.inf_y - result.sup_x >= 1
        else:
            ok = ok and result.inf_y >= result.sup_x
            if result.witness_pair is not None:
                wx, wy = result.witness_pair
                ok = ok and vdot(f, wx) < vdot(f, wy) and wy in y_points
                ok = ok and hull_membership(wx, x_poly.vertices.points, x_poly.rays).member
        payload["verified"] = ok
        if not ok:
            _emit(payload)
            print("verification failed: separation arithmetic", file=sys.stderr)
            return 1
    _emit(payload)
    return 0


def _grid_price_utility(args, scene: Scene):
    if args.grid not in scene.grids:
        raise UsageError(f"unknown grid {args.grid!r}")
    if args.price not in scene.prices:
        raise UsageError(f"unknown price system {args.price!r}")
    if args.utility not in UTILITIES:
        raise UsageError(f"unknown utility {args.utility!r}; pick from {sorted(UTILITIES)}")
    return scene.grids[args.grid], scene.prices[args.price], UTILITIES[args.utility]


def _cmd_demand(args) -> int:
    scene = _load_scene(args.scene)
    grid, price, utility = _grid_price_utility(args, scene)
    result = demand(utility, grid, price)
    value = utility(result.points[0]) if len(result) else None
    _emit(
        {
            "demand": [fmt_vec(p) for p in result.sorted_points()],
            "value": fmt(value) if value is not None else None,
        }
    )
    return 0


def _cmd_demand_invariance(args) -> int:
    scene = _load_scene(args.scene)
    grid, price, utility = _grid_price_utility(args, scene)
    report = check_convexification_invariance(utility, grid, price)
    _emit(
        {
            "equal": report.equal,
            "maximals": [fmt_vec(p) for p in report.maximals_set.sorted_points()],
            "convexified": [fmt_vec(p) for p in report.convexified_set.sorted_points()],
            "budget_size": len(report.budget),
            "locally_nonsatiated": report.nonsatiated,
        }
    )
    return 0 if report.equal else 1


def _cmd_suite(args) -> int:
    counts = None
    if args.instances is not None:
        counts = {k: args.instances for k in DEFAULT_COUNTS}
        counts[6] = DEFAULT_COUNTS[6]  # the pinned corpus keeps its size
    report = run_suite(args.seed, counts)
    _emit(report)
    return 0 if report["all_passed"] else 1


# --- argument wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conedom",
        description="Exact cone-order dominance, separation and demand toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("relate", _cmd_relate, help="classify two points under a cone order")
    p.add_argument("--scene")
    p.add_argument("--cone", required=True)
    p.add_argument("--from", dest="origin", required=True, metavar="VEC")
    p.add_argument("--to", dest="target", required=True, metavar="VEC")

    p = add("chain-check", _cmd_chain_check, help="is the set totally ordered?")
    p.add_argument("--scene", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--cone", required=True)

    p = add("antichain-check", _cmd_antichain_check, help="is the set pairwise incomparable?")
    p.add_argument("--scene", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--cone", required=True)

    p = add("dominate", _cmd_dominate, help="find a dominating point with a certificate")
    p.add_argument("--scene", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True, metavar="VEC")
    p.add_argument("--direction", choices=("dominates", "dominated"), default="dominates")
    p.add_argument("--verify", action="store_true")

    p = add("pareto", _cmd_pareto, help="enumerate cone-undominated points")
    p.add_argument("--scene", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--cone", required=True)

    p = add("equiv", _cmd_equiv, help="optima equivalence report for a sum of chains")
    p.add_argument("--scene", required=True)
    p.add_argument("--set", required=True)

    p = add("hulls-disjoint", _cmd_hulls_disjoint, help="are the convex hulls disjoint?")
    p.add_argument("--scene", required=True)
    p.add_argument("--x-set", required=True)
    p.add_argument("--y-set", required=True)
    p.add_argument("--verify", action="store_true")

    p = add("separate", _cmd_separate, help="compute a separating functional")
    p.add_argument("--scene", required=True)
    p.add_argument("--kind", choices=("strict", "proper"), required=True)
    p.add_argument("--x-set", required=True)
    p.add_argument("--y-set", required=True)
    p.add_argument("--cone", default="orthant")
    p.add_argument("--verify", action="store_true")

    p = add("demand", _cmd_demand, help="utility maximizers over a budget set")
    p.add_argument("--scene", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--price", required=True)
    p.add_argument("--utility", required=True)

    p = add(
        "demand-invariance",
        _cmd_demand_invariance,
        help="do maximals survive convexification of the preference?",
    )
    p.add_argument("--scene", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--price", required=True)
    p.add_argument("--utility", required=True)

    p = add("suite", _cmd_suite, help="run the deterministic verification families")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--instances", type=int, default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, SceneError) as exc:
        if isinstance(exc, SceneError):
            for line in exc.errors:
                print(f"scene error: {line}", file=sys.stderr)
        else:
            print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
