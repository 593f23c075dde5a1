"""Tests of the benchmark itself, at its tiny size.

    python3 -m pytest -q bench

The first run also replays `conedom suite --seed 20260814` once (about
half a minute) to check its pinned digest; later runs reuse that result
while the sources are unchanged.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics derived from counts alone, which must repeat exactly.
COUNT_SHARES = {"linalg.lp.infeasible_share", "cones.lp_fallback_share"}


def bench(*args: str, script: str = os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, *args], capture_output=True, text=True, timeout=600
    )
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload: str, seed: int, trace: int):
    return bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
        "--trace", str(trace), "--size", "tiny",
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = tiny(workload, 3, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {e["name"]: e["unit"] for e in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = (result_of(tiny(workload, 5, 1))["metrics"] for _ in range(2))
    counts = [
        e["name"] for e in SPEC["per_layer"] if e["unit"] in ("count", "bits") or e["name"] in COUNT_SHARES
    ]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def copy_benchmark(root) -> str:
    """Copy BENCHMARK.json and bench/ into `root`; returns the copied run.py."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return str(root / "bench" / "run.py")


@pytest.mark.parametrize("seed", [PINS["default_seed"], PINS["default_seed"] + 1])
def test_corrupted_output_digest_fails_the_command(tmp_path, seed):
    script = copy_benchmark(tmp_path)
    pins = json.loads(json.dumps(PINS))
    pins["workloads"]["dominate"]["tiny"] = "0" * 64
    (tmp_path / "bench" / "pins.json").write_text(json.dumps(pins))
    # The copy runs the repository's package and shares its remembered
    # suite-digest check.
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    os.symlink(os.path.join(ROOT, ".bench_build"), tmp_path / ".bench_build")
    proc = bench(
        "--workload", "dominate", "--seed", str(seed), "--seconds", "0.3", "--trace", "0", "--size", "tiny",
        script=script,
    )
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    proc = bench(
        "--workload", "dominate", "--seed", "1", "--seconds", "1", "--trace", "0",
        script=copy_benchmark(tmp_path),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def traced_pool(workload: str):
    """Per query of the tiny pool at seed 7: (kind, lp_solve calls, cones self s, total s)."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import spans
    import workloads

    pool = workloads.WORKLOADS[workload](random.Random("7"), workloads.SCALES["tiny"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        for k, q in enumerate(pool):
            tracer.current_query = k
            root = tracer.open("bench.query")
            q.run()
            tracer.close(root)
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    out = [[q.kind, 0, 0.0, 0.0] for q in pool]
    for i in range(len(tracer.name)):
        name, row = tracer.names[tracer.name[i]], out[tracer.query[i]]
        row[1] += name == "linalg.lp_solve"
        row[2] += selfs[i] if name.startswith("cones.") else 0.0
        row[3] += selfs[i]
    return out


def test_dominate_solves_one_lp_per_query():
    assert all(lps == 1 for _, lps, _, _ in traced_pool("dominate"))


def test_pareto_lps_come_only_from_nonsimplicial_cones():
    rows = traced_pool("pareto")
    assert all(lps == 0 for kind, lps, _, _ in rows if kind == "pareto.simplicial")
    assert all(lps > 0 for kind, lps, _, _ in rows if kind == "pareto.nonsimplicial")


def test_polyhedra_spends_little_time_in_cones():
    rows = traced_pool("polyhedra")
    assert sum(r[2] for r in rows) < 0.05 * sum(r[3] for r in rows)
