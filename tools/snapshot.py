"""Write a benchmark snapshot, BENCH_<n>.json, for the current tree.

    python3 tools/snapshot.py --out BENCH_1.json

Runs `bench/run.py` as shipped, at the run length `BENCHMARK.json` fixes
(`run_seconds`): each workload at the five seeds of `SEEDS` with
`--trace 0`, and once at `TRACE_SEED` with `--trace 1`. The snapshot holds,
per workload, every end-to-end metric's value in each run with its median
and quartiles, the traced per-layer metrics, and whether every run read
`correct`; and the git revision, the Python version and the core count it
was taken with. Metric names and units are checked against
`BENCHMARK.json`. One snapshot takes about ten minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (11, 23, 37, 41, 53)
TRACE_SEED = 4


def bench_command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [
        sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the JSON object its last stdout line prints."""
    proc = subprocess.run(bench_command(workload, seed, seconds, trace), capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench/run.py printed nothing for {workload} seed {seed}: {proc.stderr}")
    return json.loads(lines[-1])


def checked_metrics(result: dict, section: list[dict]) -> dict:
    """The run's metric values by name, after checking that it printed
    exactly the metrics of `section` (a `BENCHMARK.json` list) in its units."""
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {entry["name"]: entry["unit"] for entry in section}
    if printed != wanted:
        raise ValueError(f"metric names or units differ from BENCHMARK.json: {sorted(set(printed.items()) ^ set(wanted.items()))}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarize(spec: dict, untraced: dict[str, list[dict]], traced: dict[str, dict]) -> dict:
    """The per-workload part of a snapshot from `run.py` results: for each
    workload, its `--trace 0` results in seed order and its `--trace 1` one."""
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [checked_metrics(r, spec["end_to_end"]) for r in untraced[name]]
        every = untraced[name] + [traced[name]]
        out[name] = {
            "correct": all(r["correct"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "end_to_end": {
                e["name"]: {"unit": e["unit"], "better": e["better"], **spread([r[e["name"]] for r in runs])}
                for e in spec["end_to_end"]
            },
            "per_layer": checked_metrics(traced[name], spec["per_layer"]),
        }
    return out


def git_revision() -> str:
    """HEAD, with `-dirty` when the tracked files differ from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, capture_output=True, text=True, check=True)
    return head + ("-dirty" if status.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the snapshot file to write, e.g. BENCH_1.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    untraced: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    for w in spec["workloads"]:
        name = w["name"]
        untraced[name] = []
        for seed in SEEDS:
            print(f"{name} seed {seed} --trace 0", flush=True)
            untraced[name].append(run_bench(name, seed, seconds, 0))
        print(f"{name} seed {TRACE_SEED} --trace 1", flush=True)
        traced[name] = run_bench(name, TRACE_SEED, seconds, 1)
    snapshot = {
        "revision": git_revision(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "workloads": summarize(spec, untraced, traced),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    correct = all(w["correct"] for w in snapshot["workloads"].values())
    print(f"wrote {args.out}; every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
