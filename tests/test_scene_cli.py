"""Scene parsing/serialization and the command-line front end.

CLI tests call main() directly and assert on exit codes and the JSON
payloads; exactness is checked by re-reading emitted rationals.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from conedom import cli, dominance, linalg
from conedom.cli import main
from conedom.dominance import OutsideHullError
from conedom.cones import Cone
from conedom.maximals import GridDomain, PriceSystem
from conedom.scene import Scene, SceneError, _Parser, parse_scene, serialize_scene
from conedom.separation import DisjointnessResult, SeparationResult
from conedom.linalg import vdot
from conedom.sets import ChainSet, DecomposableSet, FinitePointSet, Polyhedron, materialize

SRC = str(Path(__file__).resolve().parent.parent / "src")

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

    @pytest.mark.parametrize("ref", [[], {}, 3, None])
    def test_a_summand_that_is_not_a_name_is_a_scene_error(self, ref):
        # A list or an object is no key of the set table: it is reported
        # with its path, not raised as a TypeError (exit 3 at the CLI).
        bad = json.dumps({"dimension": 2, "sets": {"y": {"type": "sum", "summands": [ref]}}})
        with pytest.raises(SceneError, match=r"sets\.y\.summands\[0\]: .* is not a declared chain"):
            parse_scene(bad)

    def test_a_vector_that_is_no_array_is_refused_without_building_one(self):
        # The placeholder is empty whatever the declared dimension, so a huge
        # dimension with a malformed vector is refused, not allocated.
        parser = _Parser()
        assert parser.vector(5, 10**6, "v") == () and parser.errors == ["v: expected an array of rationals"]
        doc = json.dumps({"dimension": 10**6, "cones": {"c": {"generators": [5]}}, "prices": {"p": {"price": 5}}})
        with pytest.raises(SceneError) as exc_info:
            parse_scene(doc)
        assert "cones.c.generators[0]: expected an array of rationals" in exc_info.value.errors
        assert "prices.p.price: expected an array of rationals" in exc_info.value.errors

    def test_rationals_follow_one_grammar(self):
        # Scene files and `linalg.frac` share the reader: an exponent, a
        # decimal or a trailing newline is refused like a zero denominator.
        for text in ("1e3", "1.5", "3\n", "+3"):
            doc = json.dumps({"dimension": 1, "sets": {"s": {"type": "points", "points": [[text]]}}})
            with pytest.raises(SceneError, match="unreadable rational"):
                parse_scene(doc)

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

    def test_dominated_direction_with_verification(self, capsys, scene_file):
        # The bottoms of the blocks' supports are (0,0) in both chains.
        code, out, _ = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y",
            "--point", "1,3/2", "--direction", "dominated", "--verify",
        )
        assert code == 0
        doc = payload(out)
        assert doc["verified"] is True
        assert doc["direction"] == "witness_dominated"
        assert doc["witness"] == ["0", "0"] and doc["cone_vector"] == ["1", "3/2"]

    def test_dominated_direction_with_the_top_fails_verification(self, capsys, scene_file, monkeypatch):
        # The top (2,3) labelled as dominated: y - witness = (-1,-3/2) leaves the orthant.
        def topped(point, dset):
            cert = dominance.dominating_element(point, dset)
            return dominance.DominationCertificate(
                target=cert.target,
                witness=cert.witness,
                cone_vector=tuple(t - w for t, w in zip(cert.target, cert.witness)),
                summand_witnesses=cert.summand_witnesses,
                decomposition=cert.decomposition,
                direction="witness_dominated",
            )

        monkeypatch.setattr(cli, "dominated_element", topped)
        code, out, err = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y",
            "--point", "1,3/2", "--direction", "dominated", "--verify",
        )
        assert code == 1
        assert payload(out)["verified"] is False
        assert err == "verification failed: cone vector is outside the closed cone\n"

    def test_dominate_outside_hull(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y", "--point", "9,0"
        )
        assert code == 1
        doc = payload(out)
        assert doc["outside_hull"] is True
        assert "functional" in doc
        assert "verified" not in doc

    def test_dominate_outside_hull_verified(self, capsys, scene_file):
        code, out, err = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y",
            "--point", "9,0", "--verify",
        )
        assert code == 1 and err == ""
        doc = payload(out)
        assert doc["outside_hull"] is True and doc["verified"] is True

    def test_dominate_forged_refutation_fails_verification(self, capsys, scene_file, monkeypatch):
        # A zero functional with zero offsets cuts nothing off: f.y + sum(c) = 0.
        def forged(point, dset):
            raise OutsideHullError(point, (F(0), F(0)), (F(0), F(0)))

        monkeypatch.setattr(cli, "dominating_element", forged)
        code, out, err = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y",
            "--point", "9,0", "--verify",
        )
        assert code == 1
        assert payload(out)["verified"] is False
        assert err.startswith("verification failed: ")

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

    def test_hulls_disjoint_common_point_verified(self, capsys, tmp_path):
        doc = json.loads(GOOD_SCENE)
        doc["sets"]["Z"] = {"type": "polyhedron", "vertices": [["1", "1"]], "rays": [["1", "0"]]}
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for y_set in ("P", "Y"):
            code, out, err = run(
                capsys, "hulls-disjoint", "--scene", str(path),
                "--x-set", "Z", "--y-set", y_set, "--verify",
            )
            assert code == 1 and err == ""
            assert payload(out) == {"disjoint": False, "common_point": ["1", "1"], "verified": True}

    def test_hulls_disjoint_forged_common_point_fails_verification(self, capsys, scene_file, monkeypatch):
        # (9, 0) lies in neither hull.
        monkeypatch.setattr(cli, "hulls_disjoint", lambda x, y: DisjointnessResult(False, common_point=(F(9), F(0))))
        code, out, err = run(
            capsys, "hulls-disjoint", "--scene", scene_file,
            "--x-set", "X", "--y-set", "P", "--verify",
        )
        assert code == 1
        assert payload(out)["verified"] is False
        assert err == "verification failed: common point is outside the first hull\n"

    def test_separate_strict_verified(self, capsys, scene_file):
        code, out, _ = run(
            capsys, "separate", "--scene", scene_file, "--kind", "strict",
            "--x-set", "X", "--y-set", "P", "--verify",
        )
        assert code == 0
        doc = payload(out)
        assert doc["kind"] == "strictly_separated"
        assert F(doc["inf_y"]) - F(doc["sup_x"]) >= 1

    @pytest.mark.parametrize(
        "pair, code, verified",
        [
            (((F(3), F(3)), (F(0), F(0))), 0, True),  # (3,3) is X's vertex, (0,0) = (0,0) + (0,0) in Y
            (((F(4), F(0)), (F(0), F(0))), 1, False),  # (4,0) is below X
            (((F(3), F(3)), (F(1, 4), F(0))), 1, False),  # (1/4,0) is no point of Y
        ],
    )
    def test_separate_proper_checks_the_witness_pair(self, capsys, scene_file, monkeypatch, pair, code, verified):
        # f = (-1, 0) is a valid proper separator of X and Y: f <= 0 on X's
        # rays, sup over X is -3 and inf over Y is -5/2. Every pair above has
        # f(wx) < f(wy), so only the pair's membership can fail it.
        forged = SeparationResult((F(-1), F(0)), F(-3), F(-5, 2), "properly_separated", witness_pair=pair)
        monkeypatch.setattr(cli, "proper_separator", lambda x, y: forged)
        got, out, err = run(
            capsys, "separate", "--scene", scene_file, "--kind", "proper",
            "--x-set", "X", "--y-set", "Y", "--verify",
        )
        assert got == code
        assert payload(out)["verified"] is verified
        assert ("verification failed" in err) is not verified

    def test_separate_proper_checks_upwardness_under_the_chains_cone(self, capsys, tmp_path):
        # X is upward under the orthant but not under the chain's cone((-1, 1)),
        # and conv Y meets ri(X) at (1/2, 1/2): a usage error, not an internal one.
        path = tmp_path / "skew.json"
        path.write_text(
            '{"dimension": 2,'
            ' "cones": {"skew": {"generators": [["-1", "1"]], "contains_zero": true}},'
            ' "sets": {"X": {"type": "polyhedron", "vertices": [["0", "0"]], "rays": [["1", "0"], ["0", "1"]]},'
            ' "C": {"type": "chain", "points": [["2", "-1"], ["-1", "2"]], "cone": "skew"},'
            ' "Y": {"type": "sum", "summands": ["C"]}}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "separate", "--scene", str(path), "--kind", "proper", "--x-set", "X", "--y-set", "Y")
        assert (code, out) == (2, "")
        assert err == "usage error: proper separation here requires a first set upward under the chains' cone\n"

    def test_separate_takes_no_cone(self, capsys, scene_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["separate", "--scene", scene_file, "--kind", "proper", "--x-set", "X", "--y-set", "Y", "--cone", "orthant"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --cone orthant" in capsys.readouterr().err

    def test_verify_reads_the_emitted_payload(self, capsys, scene_file, monkeypatch):
        # Every rational is printed as "0": the result in memory is valid, the payload is not.
        monkeypatch.setattr(cli, "fmt", lambda c: "0")
        code, out, err = run(
            capsys, "hulls-disjoint", "--scene", scene_file,
            "--x-set", "X", "--y-set", "P", "--verify",
        )
        assert code == 1
        doc = payload(out)
        assert (doc["functional"], doc["x_bound"], doc["y_bound"]) == (["0", "0"], "0", "0")
        assert doc["verified"] is False
        assert err == "verification failed: x_bound is not below y_bound\n"

    def test_reread_gives_back_each_result(self):
        results = [
            DisjointnessResult(True, functional=(F(-1), F(1, 2)), x_bound=F(-3), y_bound=F(7, 3)),
            DisjointnessResult(False, common_point=(F(1), F(-2, 3))),
            SeparationResult((F(-1), F(0)), F(-3), F(-5, 2), "properly_separated", ((F(3), F(3)), (F(0), F(0)))),
        ]

        def as_json(v):
            return v if isinstance(v, (bool, str)) else str(v) if isinstance(v, F) else [as_json(c) for c in v]

        for res in results:
            doc = {k: as_json(v) for k, v in vars(res).items() if v is not None}
            assert type(res)(**cli._reread(doc)) == res

    def test_separate_failure_names_the_validators_first_message(self, capsys, scene_file, monkeypatch):
        forged = SeparationResult((F(-1), F(-1)), F(-6), F(1), "strictly_separated")
        monkeypatch.setattr(cli, "strict_separator", lambda x, y: forged)
        code, out, err = run(
            capsys, "separate", "--scene", scene_file, "--kind", "strict",
            "--x-set", "X", "--y-set", "P", "--verify",
        )
        assert code == 1 and payload(out)["verified"] is False
        assert err == "verification failed: inf_y is not the functional's minimum over the second set\n"

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


# The rays of the half-space z >= c.
UPPER_HALF_SPACE = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1))
# Cones in R^3 that are neither pointed nor full, each with two chains of its order.
DEGENERATE_SCENES = {
    "line": ([[1, 2, 0], [-1, -2, 0]], [[[0, 0, 0], [1, 2, 0], [3, 6, 0]], [[1, 0, 1], [0, -2, 1]]]),
    "half-plane": ([[1, 0, 0], [-1, 0, 0], [0, 1, 1]], [[[0, 0, 0], [2, 0, 0], [2, 1, 1]], [[0, 0, 1], [-1, 2, 3]]]),
    "plane": ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], [[[0, 0, 0], [1, -1, 0], [3, 2, 0]], [[0, 0, 2], [-2, 1, 2]]]),
}


class TestCliOnNonPointedAndRankDeficientCones:
    """`hulls-disjoint --verify` and `separate --kind proper --verify` on a
    sum of two chains, against the same questions asked of the sum's points
    listed one by one (the set "M")."""

    @staticmethod
    def _scene(tmp_path, kind):
        generators, chains = DEGENERATE_SCENES[kind]
        cone = Cone.build(3, generators, True)
        y = DecomposableSet(tuple(ChainSet.build(points, cone) for points in chains))
        points = materialize(y).points
        top = max(p[2] for p in points)
        text = lambda vectors: [[str(c) for c in v] for v in vectors]
        sets = {f"C{i}": {"type": "chain", "points": text(c), "cone": "c"} for i, c in enumerate(chains)}
        sets["Y"] = {"type": "sum", "summands": sorted(sets)}
        sets["M"] = {"type": "points", "points": text(points)}
        # Above every point of the sum; the whole space above z = -10; and the cone swept up from the sum's
        # highest level, whose relative interior lies strictly above it.
        sets["far"] = {"type": "polyhedron", "vertices": [["0", "0", "10"]], "rays": [["0", "0", "1"]]}
        sets["near"] = {"type": "polyhedron", "vertices": [["0", "0", "-10"]], "rays": text(UPPER_HALF_SPACE)}
        sets["up"] = {"type": "polyhedron", "vertices": [["0", "0", str(top)]], "rays": text([*generators, (0, 0, 1)])}
        doc = {"dimension": 3, "cones": {"c": {"generators": text(generators), "contains_zero": True}}, "sets": sets}
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path), points

    @pytest.mark.parametrize("kind", sorted(DEGENERATE_SCENES))
    def test_hulls_disjoint_verifies_and_agrees_with_the_listed_points(self, capsys, tmp_path, kind):
        path, points = self._scene(tmp_path, kind)
        for x_set, disjoint in (("far", True), ("near", False)):
            verdicts = []
            for y_set in ("Y", "M"):
                code, out, err = run(capsys, "hulls-disjoint", "--scene", path, "--x-set", x_set, "--y-set", y_set, "--verify")
                doc = payload(out)
                assert (code, err, doc["verified"]) == (0 if disjoint else 1, "", True)
                verdicts.append(doc["disjoint"])
            assert verdicts == [disjoint, disjoint]
            if disjoint:
                f = tuple(F(c) for c in doc["functional"])
                assert min(vdot(f, p) for p in points) >= F(doc["y_bound"])

    @pytest.mark.parametrize("kind", sorted(DEGENERATE_SCENES))
    def test_separate_proper_verifies_and_agrees_with_the_listed_points(self, capsys, tmp_path, kind):
        path, points = self._scene(tmp_path, kind)
        code, out, err = run(capsys, "separate", "--scene", path, "--kind", "proper", "--x-set", "up", "--y-set", "Y", "--verify")
        doc = payload(out)
        assert (code, err, doc["kind"], doc["verified"]) == (0, "", "properly_separated", True)
        f = tuple(F(c) for c in doc["functional"])
        wx, wy = (tuple(F(c) for c in w) for w in doc["witness_pair"])
        assert F(doc["inf_y"]) == min(vdot(f, p) for p in points) >= F(doc["sup_x"])
        assert wy in points and vdot(f, wx) < vdot(f, wy)


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

    @pytest.mark.parametrize("command", ["demand", "demand-invariance"])
    def test_huge_grid_is_a_usage_error_at_once(self, capsys, tmp_path, command):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "prices": {"p": {"price": ["1", "1"], "wealth": "2"}},
                    "grids": {"g": {"step": "1/1000", "box": [["0", "1000000"], ["0", "1000000"]]}},
                }
            ),
            encoding="utf-8",
        )
        start = time.perf_counter()
        code, out, err = run(
            capsys, command, "--scene", str(path), "--grid", "g", "--price", "p", "--utility", "linear"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("usage error: grid has ") and "more than the limit" in err

    def test_oversize_sum_is_a_usage_error_where_every_point_is_needed(self, capsys, tmp_path):
        chains = {
            f"C{s}": {
                "type": "chain",
                "points": [[str(i), str(2 * i + s)] for i in range(60)],
                "cone": "orthant",
            }
            for s in range(3)
        }
        doc = json.loads(GOOD_SCENE)
        doc["sets"].update(chains)
        doc["sets"]["S"] = {"type": "sum", "summands": sorted(chains)}
        path = tmp_path / "oversize.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "pareto", "--scene", str(path), "--set", "S", "--cone", "orthant")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert err == "usage error: sum of 3 chains has up to 216000 points, more than the limit of 50000\n"
        # Certificates of the same sum are checked summand by summand.
        code, out, err = run(
            capsys, "hulls-disjoint", "--scene", str(path), "--x-set", "X", "--y-set", "S", "--verify"
        )
        assert code == 1 and err == ""
        assert payload(out)["verified"] is True

    @pytest.mark.parametrize(
        "exc, message",
        [
            (RuntimeError("simplex pivot limit exceeded"), "simplex pivot limit exceeded"),
            (KeyError("row"), "KeyError: 'row'"),
            (TypeError("unsupported operand"), "TypeError: unsupported operand"),
        ],
    )
    def test_internal_failure_exits_3_without_a_traceback(self, capsys, scene_file, monkeypatch, exc, message):
        def failing(lp):
            raise exc

        monkeypatch.setattr(linalg, "lp_solve", failing)
        code, out, err = run(
            capsys, "dominate", "--scene", scene_file, "--set", "Y", "--point", "1,3/2"
        )
        assert code == 3
        assert out == ""
        assert err == f"internal error: {message}\n"
        assert "Traceback" not in err


def scene_with(tmp_path, **sections):
    """GOOD_SCENE with the given top-level sections replaced, written to a file."""
    doc = json.loads(GOOD_SCENE)
    doc.update(sections)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCliInputChecks:
    """Each refused scene or argument exits 2 with its path-addressed message."""

    CONES, SETS = json.loads(GOOD_SCENE)["cones"], json.loads(GOOD_SCENE)["sets"]
    POINTS = {"P": SETS["P"]}  # a set that names no cone

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"cones": [], "sets": POINTS}, "cones: must be an object of named cones"),
            ({"sets": "P"}, "sets: must be an object of named sets"),
            ({"prices": 1}, "prices: must be an object of named price systems"),
            ({"grids": None}, "grids: must be an object of named grids"),
            ({"cones": {"c": ["1", "0"]}, "sets": POINTS}, "cones.c: must be an object"),
            ({"sets": {**SETS, "s": []}}, "sets.s: must be an object"),
            ({"prices": {"p": "1"}}, "prices.p: must be an object"),
            ({"grids": {"g": 2}}, "grids.g: must be an object"),
            ({"grids": {"g": {"box": [["0", "4"]]}}}, "grids.g.box: expected 2 [lo, hi] pairs"),
            ({"grids": {"g": {"box": "0,4"}}}, "grids.g.box: expected 2 [lo, hi] pairs"),
            ({"grids": {"g": {"box": [["0", "4"], ["0"]]}}}, "grids.g.box[1]: expected a [lo, hi] pair"),
            ({"grids": {"g": {"box": ["0", ["0", "4"]]}}}, "grids.g.box[0]: expected a [lo, hi] pair"),
            (
                {"sets": {**SETS, "S": {"type": "sum", "summands": []}}},
                "sets.S.summands: must be a nonempty array of chain names",
            ),
            ({"cones": {"c": {"contains_zero": "yes"}}, "sets": POINTS}, "cones.c.contains_zero: must be a boolean"),
            ({"sets": {**SETS, "s": {"type": "cloud"}}}, "sets.s.type: unknown set type 'cloud'"),
            (
                {
                    "cones": {**CONES, "axis": {"generators": [["1", "0"]]}},
                    "sets": {
                        **SETS,
                        "A": {"type": "chain", "points": [["0", "0"]], "cone": "axis"},
                        "S": {"type": "sum", "summands": ["C1", "A"]},
                    },
                },
                "sets.S: summands must share one cone",
            ),
            ({"prices": {"p": {"price": ["0", "1"], "wealth": "1"}}}, "prices.p: prices must be strictly positive"),
            ({"prices": {"p": {"price": ["1"], "wealth": "1"}}}, "prices.p.price: expected 2 coordinates, got 1"),
            ({"grids": {"g": {"box": [["2", "1"], ["0", "1"]]}}}, "grids.g: box bounds are inverted"),
        ],
    )
    def test_a_malformed_scene_is_refused_with_its_path(self, capsys, tmp_path, sections, message):
        path = scene_with(tmp_path, **sections)
        code, out, err = run(capsys, "pareto", "--scene", path, "--set", "P", "--cone", "orthant")
        assert code == 2 and out == ""
        assert err == f"scene error: {message}\n"

    @pytest.mark.parametrize(
        "sections, argv, message",
        [
            ({}, ["relate", "--cone", "nope", "--from", "0,0", "--to", "1,1"], "unknown cone 'nope'"),
            ({}, ["demand", "--grid", "nope", "--price", "p", "--utility", "linear"], "unknown grid 'nope'"),
            ({}, ["demand", "--grid", "g", "--price", "nope", "--utility", "linear"], "unknown price system 'nope'"),
            (
                # No scene cone is named orthant, and an empty set gives no dimension.
                {"cones": {}, "sets": {"E": {"type": "points", "points": []}}},
                ["pareto", "--set", "E", "--cone", "orthant"],
                "cannot infer the dimension for the built-in orthant",
            ),
            ({}, ["pareto", "--set", "X", "--cone", "orthant"], "set 'X' must be points, a chain, or a sum"),
            (
                {},
                ["separate", "--kind", "strict", "--x-set", "Y", "--y-set", "P"],
                "set 'Y' must be a polyhedron (or a bounded point set)",
            ),
            (
                {},
                ["hulls-disjoint", "--x-set", "P", "--y-set", "X"],
                "the second set must be points, a chain, or a sum",
            ),
        ],
    )
    def test_a_refused_argument_is_a_usage_error(self, capsys, tmp_path, sections, argv, message):
        path = scene_with(tmp_path, **sections)
        code, out, err = run(capsys, argv[0], "--scene", path, *argv[1:])
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"


def test_python_m_conedom_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "conedom", "relate", "--cone", "orthant", "--from", "0,0"]
    done = subprocess.run([*command, "--to", "1,1/2"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, json.loads(done.stdout), done.stderr) == (0, {"relation": "Up"}, "")
    done = subprocess.run([*command, "--to", "1,x"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "usage error: unreadable vector '1,x'; write rationals like 3/2,-1\n"
