"""Scene parsing/serialization and the command-line front end.

CLI tests call main() directly and assert on exit codes and the JSON
payloads; exactness is checked by re-reading emitted rationals.
"""

import json
from fractions import Fraction as F

import pytest

from conedom.cli import main
from conedom.cones import Cone
from conedom.maximals import GridDomain, PriceSystem
from conedom.scene import Scene, SceneError, parse_scene, serialize_scene
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, Polyhedron

GOOD_SCENE = """
{
  "dimension": 2,
  "cones": {
    "orthant": {"generators": [["1", "0"], ["0", "1"]], "contains_zero": true}
  },
  "sets": {
    "C1": {"type": "chain", "points": [["0", "0"], ["1", "1"], ["2", "3"]], "cone": "orthant"},
    "C2": {"type": "chain", "points": [["0", "0"], ["1/2", "1"]], "cone": "orthant"},
    "Y": {"type": "sum", "summands": ["C1", "C2"]},
    "P": {"type": "points", "points": [["0", "0"], ["2", "0"], ["0", "2"]]},
    "X": {"type": "polyhedron", "vertices": [["3", "3"]], "rays": [["1", "0"], ["0", "1"]]}
  },
  "prices": {"p": {"price": ["1", "1"], "wealth": "2"}},
  "grids": {"g": {"step": "1", "box": [["0", "4"], ["0", "4"]]}}
}
"""


class TestParseScene:
    def test_full_document(self):
        scene = parse_scene(GOOD_SCENE)
        assert scene.dimension == 2
        assert set(scene.cones) == {"orthant"}
        assert set(scene.sets) == {"C1", "C2", "Y", "P", "X"}
        assert isinstance(scene.sets["Y"], DecomposableSet)
        assert scene.sets["C2"].base.points[1] == (F(1, 2), F(1))
        assert scene.prices["p"].wealth == 2
        assert scene.grids["g"].step == 1

    def test_floats_are_rejected(self):
        with pytest.raises(SceneError, match="floats are not allowed"):
            parse_scene('{"dimension": 2, "grids": {"g": {"step": 0.5, "box": [["0","1"],["0","1"]]}}}')

    def test_zero_denominator_is_rejected(self):
        with pytest.raises(SceneError, match="unreadable rational"):
            parse_scene(
                '{"dimension": 1, "sets": {"s": {"type": "points", "points": [["3/0"]]}}}'
            )

    def test_errors_carry_paths_and_accumulate(self):
        bad = (
            '{"dimension": 2, "sets": {'
            '"a": {"type": "points", "points": [["1", "oops"]]},'
            '"b": {"type": "chain", "points": [["0", "0"]], "cone": "nope"}}}'
        )
        with pytest.raises(SceneError) as exc_info:
            parse_scene(bad)
        messages = exc_info.value.errors
        assert any("sets.a.points[0][1]" in m for m in messages)
        assert any("sets.b.cone" in m for m in messages)

    def test_incomparable_chain_is_rejected(self):
        bad = (
            '{"dimension": 2,'
            ' "cones": {"orthant": {"generators": [["1","0"],["0","1"]]}},'
            ' "sets": {"c": {"type": "chain", "points": [["0","2"],["2","0"]], "cone": "orthant"}}}'
        )
        with pytest.raises(SceneError, match="incomparable"):
            parse_scene(bad)

    def test_sum_must_reference_declared_chains(self):
        bad = (
            '{"dimension": 2, "sets": {"y": {"type": "sum", "summands": ["missing"]}}}'
        )
        with pytest.raises(SceneError, match="not a declared chain"):
            parse_scene(bad)

    def test_unknown_section_and_bad_dimension(self):
        with pytest.raises(SceneError) as exc_info:
            parse_scene('{"dimension": 0, "bogus": {}}')
        messages = exc_info.value.errors
        assert any("dimension" in m for m in messages)
        assert any("bogus" in m for m in messages)

    def test_malformed_json(self):
        with pytest.raises(SceneError, match="malformed JSON"):
            parse_scene("{not json")


class TestSerializeScene:
    def test_round_trip_is_identity(self):
        scene = parse_scene(GOOD_SCENE)
        again = parse_scene(serialize_scene(scene))
        assert again == scene

    def test_serialization_is_deterministic(self):
        scene = parse_scene(GOOD_SCENE)
        assert serialize_scene(scene) == serialize_scene(scene)

    def test_anonymous_summands_get_generated_names(self):
        orthant = Cone.build(2, [[1, 0], [0, 1]], True)
        chain = ChainSet.build([(0, 0), (1, 1)], orthant)
        scene = Scene(
            dimension=2,
            cones={"orthant": orthant},
            sets={"Y": DecomposableSet((chain,))},
        )
        text = serialize_scene(scene)
        again = parse_scene(text)
        assert isinstance(again.sets["Y"], DecomposableSet)
        assert again.sets["Y"].summands[0].base == chain.base

    def test_rationals_survive_exactly(self):
        scene = Scene(
            dimension=1,
            sets={"s": FinitePointSet.build([(F(22, 7),), (F(-3, 2),)])},
            grids={"g": GridDomain(F(1, 3), ((F(0), F(2)),))},
            prices={"p": PriceSystem((F(7, 5),), F(22, 7))},
        )
        again = parse_scene(serialize_scene(scene))
        assert again == scene


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out: str) -> dict:
    return json.loads(out)


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(GOOD_SCENE, encoding="utf-8")
    return str(path)


class TestCliCommands:
    def test_relate_builtin_orthant(self, capsys):
        code, out, _ = run(capsys, "relate", "--cone", "orthant", "--from", "0,0", "--to", "1,1")
        assert code == 0
        assert payload(out) == {"relation": "Up"}

    def test_relate_scene_cone(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "relate", "--scene", scene_file, "--cone", "orthant",
            "--from", "1,1", "--to", "0,0",
        )
        assert code == 0
        assert payload(out) == {"relation": "Down"}

    def test_chain_check_true_and_false(self, capsys, scene_file):
        code, out, _ = run(capsys, "chain-check", "--scene", scene_file, "--set", "C1", "--cone", "orthant")
        assert code == 0 and payload(out)["chain"] is True
        code, out, _ = run(capsys, "chain-check", "--scene", scene_file, "--set", "P", "--cone", "orthant")
        assert code == 1
        doc = payload(out)
        assert doc["chain"] is False and "incomparable_pair" in doc

    def test_antichain_check(self, capsys, scene_file):
        code, out, _ = run(capsys, "antichain-check", "--scene", scene_file, "--set", "P", "--cone", "orthant")
        assert code == 1
        # The first comparable pair in (i, j) scan order: (0,0) below (2,0).
        assert payload(out) == {"antichain": False, "comparable_pair": [["0", "0"], ["2", "0"]]}

    def test_dominate_with_verification(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y",
            "--point", "1,3/2", "--verify",
        )
        assert code == 0
        doc = payload(out)
        assert doc["verified"] is True
        assert doc["direction"] == "witness_dominates"
        witness = tuple(F(c) for c in doc["witness"])
        target = tuple(F(c) for c in doc["target"])
        cone_vec = tuple(F(c) for c in doc["cone_vector"])
        assert tuple(w - t for w, t in zip(witness, target)) == cone_vec
        assert all(c >= 0 for c in cone_vec)

    def test_dominate_outside_hull(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y", "--point", "9,0"
        )
        assert code == 1
        doc = payload(out)
        assert doc["outside_hull"] is True
        assert "functional" in doc

    def test_pareto(self, capsys, scene_file):
        code, out, _ = run(capsys, "pareto", "--scene", scene_file, "--set", "P", "--cone", "orthant")
        assert code == 0
        assert payload(out)["optima"] == [["0", "2"], ["2", "0"]]

    def test_equiv(self, capsys, scene_file):
        code, out, _ = run(capsys, "equiv", "--scene", scene_file, "--set", "Y")
        assert code == 0
        doc = payload(out)
        assert doc["all_pass"] is True
        assert doc["optima"] == [["5/2", "4"]]

    def test_hulls_disjoint_verified(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "hulls-disjoint", "--scene", scene_file,
            "--x-set", "X", "--y-set", "P", "--verify",
        )
        assert code == 0
        doc = payload(out)
        assert doc["disjoint"] is True and doc["verified"] is True
        assert F(doc["x_bound"]) < F(doc["y_bound"])

    def test_separate_strict_verified(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "separate", "--scene", scene_file, "--kind", "strict",
            "--x-set", "X", "--y-set", "P", "--verify",
        )
        assert code == 0
        doc = payload(out)
        assert doc["kind"] == "strictly_separated"
        assert F(doc["inf_y"]) - F(doc["sup_x"]) >= 1

    def test_demand_and_invariance(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "demand", "--scene", scene_file, "--grid", "g",
            "--price", "p", "--utility", "ratio",
        )
        assert code == 0
        assert payload(out) == {"demand": [["0", "2"]], "value": "2"}
        code, out, _ = run(
            capsys, "demand-invariance", "--scene", scene_file, "--grid", "g",
            "--price", "p", "--utility", "ratio",
        )
        assert code == 0
        doc = payload(out)
        assert doc["equal"] is True and doc["budget_size"] == 6

    def test_suite_small_run(self, capsys):
        code, out, _ = run(capsys, "suite", "--seed", "3", "--instances", "3")
        assert code == 0
        doc = payload(out)
        assert doc["all_passed"] is True
        assert len(doc["families"]) == 8

    def test_suite_reports_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "suite", "--seed", "3", "--instances", "3")
        _, second, _ = run(capsys, "suite", "--seed", "3", "--instances", "3")
        assert first == second


class TestCliErrors:
    def test_unknown_set_is_a_usage_error(self, capsys, scene_file):
        code, _, err = run(capsys, "dominate", "--scene", scene_file, "--set", "NOPE", "--point", "1,1")
        assert code == 2
        assert "unknown set" in err

    def test_bad_vector_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "relate", "--cone", "orthant", "--from", "1,zz", "--to", "0,0")
        assert code == 2
        assert "unreadable vector" in err

    def test_scene_errors_are_reported_with_paths(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 2, "sets": {"b": {"type": "points", "points": [[0.5, "1"]]}}}')
        code, _, err = run(capsys, "chain-check", "--scene", str(path), "--set", "b", "--cone", "orthant")
        assert code == 2
        assert "scene error" in err

    def test_missing_scene_file(self, capsys):
        code, _, err = run(capsys, "equiv", "--scene", "/does/not/exist.json", "--set", "Y")
        assert code == 2
        assert "cannot read scene" in err

    def test_wrong_set_kind_for_dominate(self, capsys, scene_file):
        code, _, err = run(capsys, "dominate", "--scene", scene_file, "--set", "P", "--point", "1,1")
        assert code == 2
        assert "must be a chain or a sum" in err

    def test_unknown_utility(self, capsys, scene_file):
        code, _, err = run(
            capsys, "demand", "--scene", scene_file, "--grid", "g",
            "--price", "p", "--utility", "sqrt",
        )
        assert code == 2
        assert "unknown utility" in err
