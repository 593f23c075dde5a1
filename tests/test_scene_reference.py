"""The scene layer against its former implementation.

`reference_parse_scene` and `reference_serialize_scene` are the section
parsers and the serializer as they were before every section was read
through one entry walker (`scene._entries`) and every object built through
one guarded constructor (`scene._build`): each parser checked its own
section and entries and wrapped each constructor in its own try/except.
Hypothesis documents, valid ones with a few leaves replaced
(`test_cli_fuzz.scenes`) and ones with malformed sections and entries,
must give the same `SceneError.errors` list, or scenes whose serialized
texts are the same. Scenes with unnamed summands and cones, built from
parsed ones, must serialize to the same text or fail with the same errors.
The last tests reach the branches of the parser and the serializer that
the other scene tests leave unreached.
"""

import json
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conedom.cones import Cone
from conedom.linalg import frac
from conedom.maximals import GridDomain, PriceSystem
from conedom.scene import Scene, SceneError, _Parser, fmt_vec, parse_scene, serialize_scene
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, Polyhedron
from test_cli_fuzz import leaves, scenes, valid_scenes

# --- the former section parsers and serializer ----------------------------------


class _ReferenceParser:
    def __init__(self):
        self.errors = []

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def rational(self, raw, path):
        if isinstance(raw, bool) or not isinstance(raw, (str, int)):
            self.fail(path, f"expected a rational string, got {raw!r}")
            return Fraction(0)
        text = str(raw)
        try:
            return frac(text)
        except ValueError:
            self.fail(path, f"unreadable rational {text!r}")
            return Fraction(0)

    def vector(self, raw, dimension, path):
        if not isinstance(raw, list):
            self.fail(path, "expected an array of rationals")
            return ()
        if len(raw) != dimension:
            self.fail(path, f"expected {dimension} coordinates, got {len(raw)}")
        return tuple(self.rational(c, f"{path}[{i}]") for i, c in enumerate(raw))

    def vectors(self, raw, dimension, path):
        if not isinstance(raw, list):
            self.fail(path, "expected an array of points")
            return ()
        return tuple(self.vector(p, dimension, f"{path}[{i}]") for i, p in enumerate(raw))

    def point_set(self, raw, dimension, path):
        pts = self.vectors(raw, dimension, path)
        try:
            return FinitePointSet(pts)
        except ValueError as exc:
            self.fail(path, str(exc))
            return None


class _Float(Exception):
    pass


def _no_float(_):
    raise _Float


def reference_parse_scene(text):
    try:
        doc = json.loads(text, parse_float=_no_float)
    except _Float:
        raise SceneError(["$: JSON floats are not allowed; write rationals as strings"])
    except json.JSONDecodeError as exc:
        raise SceneError([f"$: malformed JSON ({exc.msg} at line {exc.lineno})"])
    p = _ReferenceParser()
    if not isinstance(doc, dict):
        raise SceneError(["$: top level must be an object"])
    dimension = doc.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        p.fail("dimension", "must be a positive integer")
        dimension = 1
    for key in doc:
        if key not in {"dimension", "cones", "sets", "prices", "grids"}:
            p.fail(key, "unknown section")
    scene = Scene(dimension=dimension)
    _reference_cones(p, doc.get("cones", {}), scene)
    _reference_sets(p, doc.get("sets", {}), scene)
    _reference_prices(p, doc.get("prices", {}), scene)
    _reference_grids(p, doc.get("grids", {}), scene)
    if p.errors:
        raise SceneError(p.errors)
    return scene


def _reference_cones(p, raw, scene):
    if not isinstance(raw, dict):
        p.fail("cones", "must be an object of named cones")
        return
    for name, spec in raw.items():
        path = f"cones.{name}"
        if not isinstance(spec, dict):
            p.fail(path, "must be an object")
            continue
        gens = p.vectors(spec.get("generators", []), scene.dimension, f"{path}.generators")
        contains_zero = spec.get("contains_zero", True)
        if not isinstance(contains_zero, bool):
            p.fail(f"{path}.contains_zero", "must be a boolean")
            contains_zero = True
        before = len(p.errors)
        try:
            cone = Cone(scene.dimension, gens, contains_zero)
        except ValueError as exc:
            p.fail(path, str(exc))
            continue
        if len(p.errors) == before:
            scene.cones[name] = cone


def _reference_sets(p, raw, scene):
    if not isinstance(raw, dict):
        p.fail("sets", "must be an object of named sets")
        return
    pending_sums = []
    for name, spec in raw.items():
        path = f"sets.{name}"
        if not isinstance(spec, dict):
            p.fail(path, "must be an object")
            continue
        kind = spec.get("type")
        if kind == "points":
            pts = p.point_set(spec.get("points", []), scene.dimension, f"{path}.points")
            if pts is not None:
                scene.sets[name] = pts
        elif kind == "chain":
            pts = p.point_set(spec.get("points", []), scene.dimension, f"{path}.points")
            ref = spec.get("cone")
            cone = scene.cones[ref] if isinstance(ref, str) and ref in scene.cones else None
            if cone is None:
                p.fail(f"{path}.cone", f"unknown cone {ref!r}")
            if pts is None or cone is None:
                continue
            try:
                scene.sets[name] = ChainSet(pts, cone)
            except ValueError as exc:
                p.fail(path, str(exc))
        elif kind == "sum":
            pending_sums.append((name, spec, path))
        elif kind == "polyhedron":
            pts = p.point_set(spec.get("vertices", []), scene.dimension, f"{path}.vertices")
            rays = p.vectors(spec.get("rays", []), scene.dimension, f"{path}.rays")
            if pts is None:
                continue
            try:
                scene.sets[name] = Polyhedron(pts, rays)
            except ValueError as exc:
                p.fail(path, str(exc))
        else:
            p.fail(f"{path}.type", f"unknown set type {kind!r}")
    for name, spec, path in pending_sums:
        summands = spec.get("summands")
        if not isinstance(summands, list) or not summands:
            p.fail(f"{path}.summands", "must be a nonempty array of chain names")
            continue
        chains = []
        ok = True
        for i, ref in enumerate(summands):
            got = scene.sets.get(ref) if isinstance(ref, str) else None
            if not isinstance(got, ChainSet):
                p.fail(f"{path}.summands[{i}]", f"{ref!r} is not a declared chain")
                ok = False
            else:
                chains.append(got)
        if not ok:
            continue
        try:
            scene.sets[name] = DecomposableSet(tuple(chains))
        except ValueError as exc:
            p.fail(path, str(exc))


def _reference_prices(p, raw, scene):
    if not isinstance(raw, dict):
        p.fail("prices", "must be an object of named price systems")
        return
    for name, spec in raw.items():
        path = f"prices.{name}"
        if not isinstance(spec, dict):
            p.fail(path, "must be an object")
            continue
        price = p.vector(spec.get("price", []), scene.dimension, f"{path}.price")
        wealth = p.rational(spec.get("wealth", "0"), f"{path}.wealth")
        try:
            scene.prices[name] = PriceSystem(price, wealth)
        except ValueError as exc:
            p.fail(path, str(exc))


def _reference_grids(p, raw, scene):
    if not isinstance(raw, dict):
        p.fail("grids", "must be an object of named grids")
        return
    for name, spec in raw.items():
        path = f"grids.{name}"
        if not isinstance(spec, dict):
            p.fail(path, "must be an object")
            continue
        step = p.rational(spec.get("step", "1"), f"{path}.step")
        box_raw = spec.get("box")
        if not isinstance(box_raw, list) or len(box_raw) != scene.dimension:
            p.fail(f"{path}.box", f"expected {scene.dimension} [lo, hi] pairs")
            continue
        box = []
        for i, pair in enumerate(box_raw):
            if not isinstance(pair, list) or len(pair) != 2:
                p.fail(f"{path}.box[{i}]", "expected a [lo, hi] pair")
                box.append((Fraction(0), Fraction(0)))
                continue
            box.append((p.rational(pair[0], f"{path}.box[{i}][0]"), p.rational(pair[1], f"{path}.box[{i}][1]")))
        try:
            scene.grids[name] = GridDomain(step, tuple(box))
        except ValueError as exc:
            p.fail(path, str(exc))


def _reference_cone_name(scene, cone):
    for name in sorted(scene.cones):
        if scene.cones[name] == cone:
            return name
    raise SceneError(["$: a set references a cone that is not named in the scene"])


def reference_serialize_scene(scene):
    doc: dict[str, Any] = {"dimension": scene.dimension}
    if scene.cones:
        doc["cones"] = {
            name: {"generators": [fmt_vec(g) for g in cone.generators], "contains_zero": cone.contains_zero}
            for name, cone in sorted(scene.cones.items())
        }
    if scene.sets:
        out: dict[str, Any] = {}
        chain_names = {}
        for name, s in sorted(scene.sets.items()):
            if isinstance(s, ChainSet):
                chain_names[id(s)] = name
        for name, s in sorted(scene.sets.items()):
            if isinstance(s, ChainSet):
                out[name] = {
                    "type": "chain",
                    "points": [fmt_vec(v) for v in s.base.points],
                    "cone": _reference_cone_name(scene, s.cone),
                }
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
                    ref = chain_names.get(id(summand))
                    if ref is None:
                        i = 1
                        while f"{name}_part{i}" in out or f"{name}_part{i}" in scene.sets:
                            i += 1
                        ref = f"{name}_part{i}"
                        out[ref] = {
                            "type": "chain",
                            "points": [fmt_vec(v) for v in summand.base.points],
                            "cone": _reference_cone_name(scene, summand.cone),
                        }
                        chain_names[id(summand)] = ref
                    refs.append(ref)
                out[name] = {"type": "sum", "summands": refs}
        doc["sets"] = dict(sorted(out.items()))
    if scene.prices:
        doc["prices"] = {
            name: {"price": fmt_vec(ps.price), "wealth": str(ps.wealth)} for name, ps in sorted(scene.prices.items())
        }
    if scene.grids:
        doc["grids"] = {
            name: {"step": str(g.step), "box": [[str(lo), str(hi)] for lo, hi in g.box]}
            for name, g in sorted(scene.grids.items())
        }
    return json.dumps(doc, indent=2, sort_keys=True)


# --- documents ---------------------------------------------------------------------

SECTIONS = ("cones", "sets", "prices", "grids")
# What a section, an entry or a field can be replaced by: values of every
# JSON type, names that exist and names that do not.
odd_values = st.one_of(leaves, st.lists(leaves, max_size=3), st.sampled_from([{}, {"x": "1"}, "C", "A", "Y", []]))


@st.composite
def malformed_scenes(draw):
    """A fuzzed scene with its sections and entries damaged: a section or an
    entry replaced by a value of another type, an unknown section, a field
    removed or replaced, a sum naming a sum, or the dimension changed."""
    doc = draw(scenes())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        section = draw(st.sampled_from(SECTIONS))
        entries = doc.get(section)
        move = draw(st.sampled_from(["section", "entry", "field", "drop", "unknown", "dimension", "sum of sums"]))
        if move == "section":
            doc[section] = draw(odd_values)
        elif move == "unknown":
            doc[draw(st.sampled_from(["cone", "extra", "Sets"]))] = draw(odd_values)
        elif move == "dimension":
            doc["dimension"] = draw(st.one_of(st.integers(min_value=-1, max_value=4), st.booleans(), st.none(), leaves))
        elif move == "sum of sums" and isinstance(doc.get("sets"), dict):
            doc["sets"]["Z"] = {"type": "sum", "summands": draw(st.lists(st.sampled_from(["A", "B", "Y", "Z"]), max_size=3))}
        elif isinstance(entries, dict) and entries:
            name = draw(st.sampled_from(sorted(entries)))
            if move == "entry":
                entries[name] = draw(odd_values)
            elif isinstance(entries[name], dict) and entries[name]:
                key = draw(st.sampled_from(sorted(entries[name])))
                if move == "drop":
                    del entries[name][key]
                else:
                    entries[name][key] = draw(odd_values)
    return doc


def outcome(parse, serialize, text):
    """The errors of parsing `text`, or the serialized scene (or the
    serializer's errors)."""
    try:
        scene = parse(text)
    except SceneError as exc:
        return "parse errors", exc.errors
    try:
        return "text", serialize(scene)
    except SceneError as exc:
        return "serialize errors", exc.errors


@settings(max_examples=2000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(scenes(), malformed_scenes()))
def test_the_walker_gives_the_former_errors_or_the_former_text(doc):
    text = json.dumps(doc)
    assert outcome(parse_scene, serialize_scene, text) == outcome(reference_parse_scene, reference_serialize_scene, text)


@st.composite
def partly_named_scenes(draw):
    """A parsed valid scene with some set and cone names removed, so that its
    sum's summands, or its chains' cones, have no name in the scene; and
    perhaps a set renamed to the first name an unnamed summand would take."""
    try:
        scene = parse_scene(json.dumps(draw(valid_scenes())))
    except SceneError:  # e.g. points drawn twice in one set
        reject()
    for name in draw(st.lists(st.sampled_from(["A", "B", "P", "X"]), max_size=3, unique=True)):
        del scene.sets[name]
    if draw(st.booleans()):
        scene.cones.clear()
    if draw(st.booleans()) and "P" in scene.sets:
        scene.sets["Y_part1"] = scene.sets.pop("P")
    return scene


def serialized(serialize, scene):
    try:
        return serialize(scene)
    except SceneError as exc:
        return exc.errors


@settings(max_examples=300, deadline=None)
@given(scene=partly_named_scenes())
def test_unnamed_summands_and_cones_serialize_as_before(scene):
    assert serialized(serialize_scene, scene) == serialized(reference_serialize_scene, scene)


# --- branches the other scene tests leave unreached ----------------------------------------


@pytest.mark.parametrize("raw", [["1"], None, True])
def test_a_rational_of_another_json_type_is_refused(raw):
    parser = _Parser()
    assert parser.rational(raw, "x") == 0
    assert parser.errors == [f"x: expected a rational string, got {raw!r}"]
    with pytest.raises(SceneError) as exc_info:
        parse_scene(json.dumps({"dimension": 1, "prices": {"p": {"price": ["1"], "wealth": raw}}}))
    assert exc_info.value.errors == [f"prices.p.wealth: expected a rational string, got {raw!r}"]


def test_a_chain_whose_cone_is_not_in_the_scene_is_refused_by_the_serializer():
    orthant = Cone.build(2, [[1, 0], [0, 1]], True)
    scene = Scene(dimension=2, sets={"C": ChainSet.build([(0, 0), (1, 1)], orthant)})
    with pytest.raises(SceneError) as exc_info:
        serialize_scene(scene)
    assert exc_info.value.errors == ["$: a set references a cone that is not named in the scene"]


def test_an_unnamed_summand_takes_the_next_free_part_name():
    orthant = Cone.build(2, [[1, 0], [0, 1]], True)
    chain = ChainSet.build([(0, 0), (1, 1)], orthant)
    taken = FinitePointSet.build([(5, 5)])
    scene = Scene(dimension=2, cones={"orthant": orthant}, sets={"Y": DecomposableSet((chain,)), "Y_part1": taken})
    doc = json.loads(serialize_scene(scene))
    assert doc["sets"]["Y"] == {"type": "sum", "summands": ["Y_part2"]}
    assert doc["sets"]["Y_part1"] == {"type": "points", "points": [["5", "5"]]}
    assert doc["sets"]["Y_part2"] == {"type": "chain", "points": [["0", "0"], ["1", "1"]], "cone": "orthant"}
    again = parse_scene(serialize_scene(scene))
    assert again.sets["Y"].summands[0].base == chain.base
