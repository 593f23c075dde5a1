"""Fuzzing the command line: scene files and vector arguments drawn by
hypothesis go through `cli.main` as a user's would.

Whatever the input, the exit code is one of the four the CLI documents
(0 true or done, 1 false or failed verification, 2 usage or scene error,
3 internal failure), and nothing prints a traceback. Inputs are kept small
(dimension at most 3, a few points per set), so each example runs in
milliseconds; the size caps have their own tests in `test_scene_cli.py`.
"""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conedom.cli import main

EXIT_CODES = {0, 1, 2, 3}

# Rationals as a scene or a vector argument writes them, mixed with the
# forms the grammar refuses: decimals, exponents, signs, zero denominators.
rational_texts = st.one_of(
    st.integers(min_value=-4, max_value=4).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=3)),
    st.sampled_from(["1e3", "1e2000000", "-2.5", "+1", " 1", "1/", "/2", "", "x", "1/-2", "0x10", "١"]),
    st.text(alphabet="0123456789/-+.eE, ", max_size=8),
)
# A JSON leaf where a rational is expected: mostly strings, sometimes a
# value of another type.
leaves = st.one_of(rational_texts, rational_texts, st.integers(min_value=-3, max_value=3), st.none(), st.booleans())

small = st.integers(min_value=-3, max_value=3)
ratios = st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}", small, st.integers(min_value=1, max_value=3))


@st.composite
def valid_scenes(draw):
    """A scene every command can read: a cone C, chains A and B built by
    adding cone generators (so each is totally ordered under C), their sum Y,
    points P, a polyhedron X, a price system and a small grid."""
    d = draw(st.integers(min_value=1, max_value=3))
    vector = st.lists(small, min_size=d, max_size=d)
    generators = draw(st.lists(vector, min_size=1, max_size=3))

    def chain():
        point = draw(vector)
        out = [point]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            g = generators[draw(st.integers(min_value=0, max_value=len(generators) - 1))]
            k = draw(st.integers(min_value=1, max_value=2))
            point = [a + k * b for a, b in zip(point, g)]
            out.append(point)
        return [[str(c) for c in p] for p in out]

    def texts(n):
        return draw(st.lists(st.lists(ratios, min_size=d, max_size=d), min_size=n, max_size=n + 2))

    return {
        "dimension": d,
        "cones": {"C": {"generators": [[str(c) for c in g] for g in generators], "contains_zero": draw(st.booleans())}},
        "sets": {
            "A": {"type": "chain", "points": chain(), "cone": "C"},
            "B": {"type": "chain", "points": chain(), "cone": "C"},
            "Y": {"type": "sum", "summands": ["A", "B"]},
            "P": {"type": "points", "points": texts(1)},
            "X": {"type": "polyhedron", "vertices": texts(1), "rays": texts(0)},
        },
        "prices": {"p": {"price": ["1"] * d, "wealth": draw(st.sampled_from(["0", "1", "2", "5/2"]))}},
        "grids": {"g": {"step": "1", "box": [["0", "2"]] * d}},
    }


def _leaf_paths(node, path=()):
    """The path of every leaf and every list in the document."""
    if isinstance(node, dict):
        return [q for k, v in node.items() for q in _leaf_paths(v, (*path, k))]
    if isinstance(node, list):
        return [path] + [q for i, v in enumerate(node) for q in _leaf_paths(v, (*path, i))]
    return [path]


@st.composite
def scenes(draw):
    """A valid scene with none, one or a few of its leaves or arrays
    replaced: by a refused rational, a value of the wrong type, a wrong
    name or an array of the wrong length."""
    doc = draw(valid_scenes())
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        paths = _leaf_paths(doc)
        path = paths[draw(st.integers(min_value=0, max_value=len(paths) - 1))]
        replacement = draw(st.one_of(leaves, st.lists(leaves, max_size=4), st.sampled_from(["C", "A", "Z", {}])))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = replacement
    return doc


def commands(scene: str, vector: str) -> list[list[str]]:
    """One invocation of each command against the scene, with `vector` as the
    point or the end of a pair."""
    return [
        ["relate", "--scene", scene, "--cone", "C", "--from=0,0", f"--to={vector}"],
        ["relate", "--cone", "orthant", f"--from={vector}", f"--to={vector}"],
        ["chain-check", "--scene", scene, "--set", "A", "--cone", "C"],
        ["antichain-check", "--scene", scene, "--set", "P", "--cone", "orthant"],
        ["dominate", "--scene", scene, "--set", "Y", f"--point={vector}", "--verify"],
        ["dominate", "--scene", scene, "--set", "A", f"--point={vector}", "--direction", "dominated", "--verify"],
        ["pareto", "--scene", scene, "--set", "Y", "--cone", "C"],
        ["equiv", "--scene", scene, "--set", "Y"],
        ["hulls-disjoint", "--scene", scene, "--x-set", "X", "--y-set", "Y", "--verify"],
        ["separate", "--scene", scene, "--kind", "strict", "--x-set", "X", "--y-set", "P", "--verify"],
        ["separate", "--scene", scene, "--kind", "proper", "--x-set", "X", "--y-set", "Y", "--verify"],
        ["demand", "--scene", scene, "--grid", "g", "--price", "p", "--utility", "linear"],
    ]


def run(capsys, argv: list[str]) -> tuple[int, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a malformed command line with exit 2
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out + captured.err


vectors = st.lists(rational_texts, min_size=1, max_size=3).map(",".join)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=scenes(), vector=vectors)
def test_every_command_on_a_fuzzed_scene_exits_with_a_documented_code(capsys, doc, vector):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "scene.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in commands(str(path), vector):
            code, text = run(capsys, argv)
            assert code in EXIT_CODES, (argv, code, text)
            assert "Traceback" not in text, (argv, text)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=st.one_of(st.text(max_size=40), st.sampled_from(["[]", "{}", "null", '{"dimension": 2.5}', "{" * 50])))
def test_arbitrary_scene_text_exits_with_a_documented_code(capsys, text):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "scene.json"
        path.write_text(text, encoding="utf-8")
        code, out = run(capsys, ["pareto", "--scene", str(path), "--set", "Y", "--cone", "orthant"])
        assert code in EXIT_CODES and "Traceback" not in out


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(vector=vectors)
def test_a_fuzzed_vector_is_read_or_refused_as_a_usage_error(capsys, vector):
    code, text = run(capsys, ["relate", "--cone", "orthant", f"--from={vector}", f"--to={vector}"])
    assert code in (0, 2) and "Traceback" not in text
    if code == 2:
        assert text.startswith("usage error:")


@pytest.mark.parametrize("text", ["1e2000000", "1E2000000", "-1e-2000000", "1.5e9"])
def test_an_exponent_is_a_usage_error_at_once(capsys, text):
    start = time.perf_counter()
    code, out = run(capsys, ["relate", "--cone", "orthant", "--from=0,0", f"--to={text},0"])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out.startswith("usage error: unreadable vector")


def test_a_double_dash_vector_is_a_usage_error(capsys):
    # argparse hands the value `--` over as an empty list, not as text.
    code, out = run(capsys, ["relate", "--cone", "orthant", "--from=--", "--to=--"])
    assert code == 2 and out.startswith("usage error: unreadable vector")
