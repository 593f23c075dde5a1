"""Command-line front end: scene files in, JSON verdicts and certificates out.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (or a
failed post-verification), 2 for usage problems including scene errors,
3 for an internal failure (a solver pivot limit or an invalid certificate).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Sequence

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
from .linalg import Vec, frac
from .maximals import UTILITIES, check_convexification_invariance, demand, orthant_cone
from .scene import Scene, SceneError, fmt, fmt_vec, parse_scene
from .sets import (
    ChainSet,
    DecomposableSet,
    FinitePointSet,
    Polyhedron,
    convex_hull,
    first_comparable_pair,
    first_incomparable_pair,
    materialize,
)
from .separation import (
    DisjointnessResult,
    SeparationResult,
    hulls_disjoint,
    proper_separator,
    strict_separator,
    validate_disjointness,
    validate_separation,
)
from .suite import DEFAULT_COUNTS, run_suite


class UsageError(ValueError):
    pass


def _parse_vec(text: str | list[str]) -> Vec:
    if isinstance(text, str):  # argparse hands the value `--` over as an empty list
        try:
            return tuple(frac(part.strip()) for part in text.split(","))
        except ValueError:
            pass
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


def _shown(value: Any) -> Any:
    """A result field as the payload shows it: rationals as strings, vectors
    and blocks as arrays, flags and labels as they are."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, Decomposition):
        return _shown(value.blocks)
    return fmt(value) if isinstance(value, Fraction) else [_shown(v) for v in value]


def _payload(result: Any) -> dict[str, Any]:
    """The fields of a result dataclass that are set, as the payload shows them."""
    return {f.name: _shown(getattr(result, f.name)) for f in fields(result) if getattr(result, f.name) is not None}


def _rationals(value: str | list) -> Fraction | tuple:
    return frac(value) if isinstance(value, str) else tuple(_rationals(v) for v in value)


def _reread(payload: dict[str, Any]) -> dict[str, Any]:
    """The payload as a reader of the emitted JSON gets it back: rational
    strings as `Fraction`s and arrays as tuples; flags and the labels
    `direction` and `kind` as they are."""
    doc = json.loads(json.dumps(payload))
    return {k: v if isinstance(v, bool) or k in ("direction", "kind") else _rationals(v) for k, v in doc.items()}


def _report(payload: dict[str, Any], verify: bool, validate: Callable[[dict[str, Any]], list[str]], code: int) -> int:
    """Emit the payload and return `code`. With `verify`, `validate` first
    re-checks the payload as re-read from its JSON (`_reread`) and sets
    `verified`; a failed check prints its first message and returns 1."""
    issues = validate(_reread(payload)) if verify else []
    if verify:
        payload["verified"] = not issues
    _emit(payload)
    if issues:
        print(f"verification failed: {issues[0]}", file=sys.stderr)
        return 1
    return code


# --- commands -----------------------------------------------------------------


def _cmd_relate(args) -> int:
    origin = _parse_vec(args.origin)
    target = _parse_vec(args.target)
    scene = _load_scene(args.scene)
    cone = _resolve_cone(scene, args.cone, len(origin))
    verdict = relate(cone, origin, target)
    _emit({"relation": verdict.name.title()})
    return 0


def _cmd_pair_check(args, find, verdict: str, pair_key: str) -> int:
    """`chain-check` and `antichain-check`: the verdict, else the first pair `find` reports against it."""
    scene = _load_scene(args.scene)
    pts = _as_points(scene, args.set)
    cone = _resolve_cone(scene, args.cone, pts.dimension if len(pts) else 0)
    pair = find(pts, cone)
    payload: dict[str, Any] = {verdict: pair is None}
    if pair is not None:
        payload[pair_key] = [fmt_vec(pair[0]), fmt_vec(pair[1])]
    _emit(payload)
    return 0 if pair is None else 1


def _cmd_dominate(args) -> int:
    scene = _load_scene(args.scene)
    dset = _as_decomposable(scene, args.set)
    point = _parse_vec(args.point)
    find = dominated_element if args.direction == "dominated" else dominating_element
    try:
        cert = find(point, dset)
    except OutsideHullError as exc:
        refutation = {"outside_hull": True, "functional": _shown(exc.functional), "offsets": _shown(exc.offsets)}
        return _report(
            refutation, args.verify, lambda d: validate_outside_hull(point, d["functional"], d["offsets"], dset), 1
        )

    def validate(doc: dict[str, Any]) -> list[str]:
        doc["decomposition"] = Decomposition(doc["decomposition"])
        return validate_certificate(DominationCertificate(**doc), dset)

    return _report(_payload(cert), args.verify, validate, 0)


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
    return _report(
        _payload(res),
        args.verify,
        lambda doc: validate_disjointness(DisjointnessResult(**doc), x_poly, y_set),
        0 if res.disjoint else 1,
    )


def _cmd_separate(args) -> int:
    scene = _load_scene(args.scene)
    x_poly = _as_polyhedron(scene, args.x_set)
    if args.kind == "strict":
        y_set: Polyhedron | DecomposableSet = _as_polyhedron(scene, args.y_set)
        result = strict_separator(x_poly, y_set)
    else:
        y_set = _as_decomposable(scene, args.y_set)
        result = proper_separator(x_poly, y_set)
    return _report(
        _payload(result), args.verify, lambda doc: validate_separation(SeparationResult(**doc), x_poly, y_set), 0
    )


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

    def add(name: str, handler, text: str, *required: str):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for option in required:
            p.add_argument(option, required=True)
        return p

    p = add("relate", _cmd_relate, "classify two points under a cone order")
    p.add_argument("--scene")
    p.add_argument("--cone", required=True)
    p.add_argument("--from", dest="origin", required=True, metavar="VEC")
    p.add_argument("--to", dest="target", required=True, metavar="VEC")

    for name, find, verdict, pair_key, text in (
        ("chain-check", first_incomparable_pair, "chain", "incomparable_pair", "is the set totally ordered?"),
        ("antichain-check", first_comparable_pair, "antichain", "comparable_pair", "is the set pairwise incomparable?"),
    ):
        handler = partial(_cmd_pair_check, find=find, verdict=verdict, pair_key=pair_key)
        add(name, handler, text, "--scene", "--set", "--cone")

    p = add("dominate", _cmd_dominate, "find a dominating point with a certificate", "--scene", "--set")
    p.add_argument("--point", required=True, metavar="VEC")
    p.add_argument("--direction", choices=("dominates", "dominated"), default="dominates")
    p.add_argument("--verify", action="store_true")

    add("pareto", _cmd_pareto, "enumerate cone-undominated points", "--scene", "--set", "--cone")
    add("equiv", _cmd_equiv, "optima equivalence report for a sum of chains", "--scene", "--set")

    p = add("hulls-disjoint", _cmd_hulls_disjoint, "are the convex hulls disjoint?", "--scene", "--x-set", "--y-set")
    p.add_argument("--verify", action="store_true")

    p = add("separate", _cmd_separate, "compute a separating functional", "--scene")
    p.add_argument("--kind", choices=("strict", "proper"), required=True)
    p.add_argument("--x-set", required=True)
    p.add_argument("--y-set", required=True)
    p.add_argument("--verify", action="store_true")

    for name, handler, text in (
        ("demand", _cmd_demand, "utility maximizers over a budget set"),
        ("demand-invariance", _cmd_demand_invariance, "do maximals survive convexification of the preference?"),
    ):
        add(name, handler, text, "--scene", "--grid", "--price", "--utility")

    p = add("suite", _cmd_suite, "run the deterministic verification families")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--instances", type=int, default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SceneError as exc:
        for line in exc.errors:
            print(f"scene error: {line}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a UsageError, a LimitError or another refused input
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug (TypeError, KeyError, ...): one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
