"""JSON scene files: named cones, sets, prices and grids with exact rationals.

Numbers are serialized as strings, either an integer like "3" or a ratio
like "3/2"; JSON floats are rejected so exactness survives round trips.
Validation collects every problem it finds and reports them with a path
into the document, e.g. `sets.Y.points[1][0]: unreadable rational '3/0'`.
Every section goes through one entry walker (`_entries`): a section that is
not an object, or an entry of it that is not one, is reported and skipped,
and each object entry comes with its path. Every object is made by one
guarded constructor (`_build`), which reports the constructor's ValueError
at the entry's path and skips the entry, so the rest of the document is
still read. Sums are read after the other sets, whose chains they name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, TypeVar

from .cones import Cone
from .linalg import Vec, frac
from .maximals import GridDomain, PriceSystem
from .sets import ChainSet, DecomposableSet, FinitePointSet, Polyhedron

SceneSet = FinitePointSet | ChainSet | DecomposableSet | Polyhedron
T = TypeVar("T")


class SceneError(ValueError):
    """Validation failure; `errors` lists path-addressed messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class Scene:
    dimension: int
    cones: dict[str, Cone] = field(default_factory=dict)
    sets: dict[str, SceneSet] = field(default_factory=dict)
    prices: dict[str, PriceSystem] = field(default_factory=dict)
    grids: dict[str, GridDomain] = field(default_factory=dict)


class _Parser:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def rational(self, raw: Any, path: str) -> Fraction:
        if isinstance(raw, bool) or not isinstance(raw, (str, int)):
            self.fail(path, f"expected a rational string, got {raw!r}")
            return Fraction(0)
        text = str(raw)
        try:
            return frac(text)
        except ValueError:
            self.fail(path, f"unreadable rational {text!r}")
            return Fraction(0)

    def vector(self, raw: Any, dimension: int, path: str) -> Vec:
        if not isinstance(raw, list):
            # Like a vector of the wrong length, the placeholder only has to
            # let parsing go on; building `dimension` zeros would let a huge
            # declared dimension allocate before the scene is refused.
            self.fail(path, "expected an array of rationals")
            return ()
        if len(raw) != dimension:
            self.fail(path, f"expected {dimension} coordinates, got {len(raw)}")
        return tuple(self.rational(c, f"{path}[{i}]") for i, c in enumerate(raw))

    def vectors(self, raw: Any, dimension: int, path: str) -> tuple[Vec, ...]:
        if not isinstance(raw, list):
            self.fail(path, "expected an array of points")
            return ()
        return tuple(self.vector(p, dimension, f"{path}[{i}]") for i, p in enumerate(raw))

    def point_set(self, raw: Any, dimension: int, path: str) -> FinitePointSet | None:
        return _build(self, path, FinitePointSet, self.vectors(raw, dimension, path))


def _entries(p: _Parser, raw: Any, section: str, noun: str) -> Iterator[tuple[str, dict, str]]:
    """(name, spec, path) for each entry of a section that is an object; a
    section or an entry of another type is reported, and the entry skipped."""
    if not isinstance(raw, dict):
        p.fail(section, f"must be an object of named {noun}")
        return
    for name, spec in raw.items():
        path = f"{section}.{name}"
        if isinstance(spec, dict):
            yield name, spec, path
        else:
            p.fail(path, "must be an object")


def _build(p: _Parser, path: str, make: Callable[..., T], *args: Any) -> T | None:
    """make(*args), or None after reporting its ValueError at `path`."""
    try:
        return make(*args)
    except ValueError as exc:
        p.fail(path, str(exc))
        return None


def parse_scene(text: str) -> Scene:
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except _FloatError:
        raise SceneError(["$: JSON floats are not allowed; write rationals as strings"])
    except json.JSONDecodeError as exc:
        raise SceneError([f"$: malformed JSON ({exc.msg} at line {exc.lineno})"])
    p = _Parser()
    if not isinstance(doc, dict):
        raise SceneError(["$: top level must be an object"])

    dimension = doc.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        p.fail("dimension", "must be a positive integer")
        dimension = 1

    known = {"dimension", "cones", "sets", "prices", "grids"}
    for key in doc:
        if key not in known:
            p.fail(key, "unknown section")

    scene = Scene(dimension=dimension)
    _parse_cones(p, doc.get("cones", {}), scene)
    _parse_sets(p, doc.get("sets", {}), scene)
    _parse_prices(p, doc.get("prices", {}), scene)
    _parse_grids(p, doc.get("grids", {}), scene)
    if p.errors:
        raise SceneError(p.errors)
    return scene


def _parse_cones(p: _Parser, raw: Any, scene: Scene) -> None:
    for name, spec, path in _entries(p, raw, "cones", "cones"):
        gens = p.vectors(spec.get("generators", []), scene.dimension, f"{path}.generators")
        contains_zero = spec.get("contains_zero", True)
        if not isinstance(contains_zero, bool):
            p.fail(f"{path}.contains_zero", "must be a boolean")
            contains_zero = True
        cone = _build(p, path, Cone, scene.dimension, gens, contains_zero)
        if cone is not None:
            scene.cones[name] = cone


def _parse_sets(p: _Parser, raw: Any, scene: Scene) -> None:
    pending_sums = []
    for name, spec, path in _entries(p, raw, "sets", "sets"):
        kind = spec.get("type")
        built: SceneSet | None = None
        if kind == "points":
            built = p.point_set(spec.get("points", []), scene.dimension, f"{path}.points")
        elif kind == "chain":
            pts = p.point_set(spec.get("points", []), scene.dimension, f"{path}.points")
            cone = _cone_ref(p, spec.get("cone"), scene, f"{path}.cone")
            if pts is not None and cone is not None:
                built = _build(p, path, ChainSet, pts, cone)
        elif kind == "sum":
            pending_sums.append((name, spec, path))
        elif kind == "polyhedron":
            pts = p.point_set(spec.get("vertices", []), scene.dimension, f"{path}.vertices")
            rays = p.vectors(spec.get("rays", []), scene.dimension, f"{path}.rays")
            if pts is not None:
                built = _build(p, path, Polyhedron, pts, rays)
        else:
            p.fail(f"{path}.type", f"unknown set type {kind!r}")
        if built is not None:
            scene.sets[name] = built
    for name, spec, path in pending_sums:
        summands = spec.get("summands")
        if not isinstance(summands, list) or not summands:
            p.fail(f"{path}.summands", "must be a nonempty array of chain names")
            continue
        chains = [scene.sets.get(ref) if isinstance(ref, str) else None for ref in summands]
        bad = [i for i, chain in enumerate(chains) if not isinstance(chain, ChainSet)]
        for i in bad:
            p.fail(f"{path}.summands[{i}]", f"{summands[i]!r} is not a declared chain")
        if not bad:
            total = _build(p, path, DecomposableSet, tuple(chains))
            if total is not None:
                scene.sets[name] = total


def _cone_ref(p: _Parser, ref: Any, scene: Scene, path: str) -> Cone | None:
    if not isinstance(ref, str) or ref not in scene.cones:
        p.fail(path, f"unknown cone {ref!r}")
        return None
    return scene.cones[ref]


def _parse_prices(p: _Parser, raw: Any, scene: Scene) -> None:
    for name, spec, path in _entries(p, raw, "prices", "price systems"):
        price = p.vector(spec.get("price", []), scene.dimension, f"{path}.price")
        wealth = p.rational(spec.get("wealth", "0"), f"{path}.wealth")
        system = _build(p, path, PriceSystem, price, wealth)
        if system is not None:
            scene.prices[name] = system


def _parse_grids(p: _Parser, raw: Any, scene: Scene) -> None:
    for name, spec, path in _entries(p, raw, "grids", "grids"):
        step = p.rational(spec.get("step", "1"), f"{path}.step")
        box_raw = spec.get("box")
        if not isinstance(box_raw, list) or len(box_raw) != scene.dimension:
            p.fail(f"{path}.box", f"expected {scene.dimension} [lo, hi] pairs")
            continue
        box = []
        for i, pair in enumerate(box_raw):
            if isinstance(pair, list) and len(pair) == 2:
                box.append(p.vector(pair, 2, f"{path}.box[{i}]"))
            else:
                p.fail(f"{path}.box[{i}]", "expected a [lo, hi] pair")
                box.append((Fraction(0), Fraction(0)))
        grid = _build(p, path, GridDomain, step, tuple(box))
        if grid is not None:
            scene.grids[name] = grid


class _FloatError(Exception):
    pass


def _reject_float(_: str) -> None:
    raise _FloatError


def fmt(x: Fraction) -> str:
    return str(x)


def fmt_vec(v: Vec) -> list[str]:
    return [fmt(c) for c in v]


def _cone_name(scene: Scene, cone: Cone) -> str:
    for name in sorted(scene.cones):
        if scene.cones[name] == cone:
            return name
    raise SceneError(["$: a set references a cone that is not named in the scene"])


def _chain_doc(scene: Scene, chain: ChainSet) -> dict[str, Any]:
    return {
        "type": "chain",
        "points": [fmt_vec(v) for v in chain.base.points],
        "cone": _cone_name(scene, chain.cone),
    }


def serialize_scene(scene: Scene) -> str:
    doc: dict[str, Any] = {"dimension": scene.dimension}
    if scene.cones:
        doc["cones"] = {
            name: {
                "generators": [fmt_vec(g) for g in cone.generators],
                "contains_zero": cone.contains_zero,
            }
            for name, cone in sorted(scene.cones.items())
        }
    if scene.sets:
        out: dict[str, Any] = {}
        chain_names = {id(s): name for name, s in sorted(scene.sets.items()) if isinstance(s, ChainSet)}
        for name, s in sorted(scene.sets.items()):
            if isinstance(s, ChainSet):
                out[name] = _chain_doc(scene, s)
            elif isinstance(s, FinitePointSet):
                out[name] = {"type": "points", "points": [fmt_vec(v) for v in s.points]}
            elif isinstance(s, Polyhedron):
                out[name] = {
                    "type": "polyhedron",
                    "vertices": [fmt_vec(v) for v in s.vertices.points],
                    "rays": [fmt_vec(r) for r in s.rays],
                }
            elif isinstance(s, DecomposableSet):
                refs = []
                for summand in s.summands:
                    if id(summand) not in chain_names:
                        chain_names[id(summand)] = _anonymous_chain_name(out, scene, summand, name)
                    refs.append(chain_names[id(summand)])
                out[name] = {"type": "sum", "summands": refs}
        doc["sets"] = out
    if scene.prices:
        doc["prices"] = {
            name: {"price": fmt_vec(ps.price), "wealth": fmt(ps.wealth)}
            for name, ps in sorted(scene.prices.items())
        }
    if scene.grids:
        doc["grids"] = {
            name: {
                "step": fmt(g.step),
                "box": [[fmt(lo), fmt(hi)] for lo, hi in g.box],
            }
            for name, g in sorted(scene.grids.items())
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def _anonymous_chain_name(
    out: dict[str, Any], scene: Scene, summand: ChainSet, owner: str
) -> str:
    """The first free name `owner`_part1, _part2, ... for a summand no set
    names, its chain document written under it in `out`."""
    i = 1
    while f"{owner}_part{i}" in out or f"{owner}_part{i}" in scene.sets:
        i += 1
    name = f"{owner}_part{i}"
    out[name] = _chain_doc(scene, summand)
    return name
