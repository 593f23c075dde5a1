"""The snapshot writer `tools/snapshot.py`, fed canned `bench/run.py` results.

No test here runs the benchmark: `run_bench` and `git_revision` are
replaced, and the canned results carry the metric names and units of
`BENCHMARK.json`.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_loader = importlib.util.spec_from_file_location("snapshot", ROOT / "tools" / "snapshot.py")
snapshot = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(snapshot)


def canned(section: str, value: float, correct: bool = True) -> dict:
    """A run.py result printing every metric of the section, each at `value`."""
    metrics = {e["name"]: {"value": value, "unit": e["unit"]} for e in SPEC[section]}
    return {"correct": correct, "attempted": 7, "failed": 0 if correct else 1, "metrics": metrics}


def canned_runs(correct: bool = True):
    names = [w["name"] for w in SPEC["workloads"]]
    untraced = {n: [canned("end_to_end", v) for v in (3.0, 1.0, 5.0, 2.0, 4.0)] for n in names}
    traced = {n: canned("per_layer", 0.5, correct) for n in names}
    return untraced, traced


def test_each_end_to_end_metric_gets_its_median_and_quartiles():
    untraced, traced = canned_runs()
    out = snapshot.summarize(SPEC, untraced, traced)
    assert list(out) == [w["name"] for w in SPEC["workloads"]]
    for workload in out.values():
        assert workload["correct"] and workload["failed"] == 0 and workload["attempted"] == 6 * 7
        assert list(workload["end_to_end"]) == [e["name"] for e in SPEC["end_to_end"]]
        for entry in SPEC["end_to_end"]:
            got = workload["end_to_end"][entry["name"]]
            assert (got["unit"], got["better"]) == (entry["unit"], entry["better"])
            assert (got["q1"], got["median"], got["q3"], got["iqr"]) == (2.0, 3.0, 4.0, 2.0)
            assert got["runs"] == [3.0, 1.0, 5.0, 2.0, 4.0]
        assert workload["per_layer"] == {e["name"]: 0.5 for e in SPEC["per_layer"]}


def test_a_failed_run_marks_its_workload_incorrect():
    untraced, traced = canned_runs(correct=False)
    out = snapshot.summarize(SPEC, untraced, traced)
    assert not any(w["correct"] for w in out.values())
    assert all(w["failed"] == 1 for w in out.values())


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_a_metric_missing_or_in_another_unit_is_refused(section):
    result = canned(section, 1.0)
    first = SPEC[section][0]["name"]
    wrong_unit = json.loads(json.dumps(result))
    wrong_unit["metrics"][first]["unit"] = "furlongs"
    missing = json.loads(json.dumps(result))
    del missing["metrics"][first]
    for bad in (wrong_unit, missing):
        with pytest.raises(ValueError, match="BENCHMARK.json"):
            snapshot.checked_metrics(bad, SPEC[section])


def test_the_command_is_the_shipped_benchmark():
    argv = snapshot.bench_command("pareto", 11, SPEC["run_seconds"], 0)
    assert argv[1] == os.path.join(str(ROOT), "bench", "run.py") and os.path.exists(argv[1])
    assert argv[2:] == ["--workload", "pareto", "--seed", "11", "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]


def test_main_runs_every_seed_and_one_trace_per_workload(monkeypatch, tmp_path):
    untraced, traced = canned_runs()
    calls = []

    def fake_run(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        if trace:
            return traced[workload]
        return untraced[workload][snapshot.SEEDS.index(seed)]

    monkeypatch.setattr(snapshot, "run_bench", fake_run)
    monkeypatch.setattr(snapshot, "git_revision", lambda: "0" * 40)
    out = tmp_path / "BENCH_1.json"
    assert snapshot.main(["--out", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["workloads"] == snapshot.summarize(SPEC, untraced, traced)
    assert (written["revision"], written["run_seconds"], written["trace_seed"]) == ("0" * 40, SPEC["run_seconds"], 4)
    assert written["seeds"] == list(snapshot.SEEDS) and len(set(snapshot.SEEDS)) == 5
    assert isinstance(written["python"], str) and written["cores"] >= 1
    expected = []
    for w in SPEC["workloads"]:
        expected += [(w["name"], s, SPEC["run_seconds"], 0) for s in snapshot.SEEDS]
        expected.append((w["name"], snapshot.TRACE_SEED, SPEC["run_seconds"], 1))
    assert calls == expected
