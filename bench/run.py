"""conedom benchmark: one certified query at a time against the public API.

    python3 bench/run.py --workload {dominate,pareto,polyhedra} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory. One caller in one process sends the next query only after the
last one returned (closed loop). A query is a public call plus the check a
caller runs on its answer; `workloads.py` defines the inputs and checks.
The workload's inputs at a seed are three parts drawn independently.

--trace 0 sets up the three parts, each timed on its own (`setup_s` is
the import time plus the three parts' set-up times), then cycles through
all queries until their summed latency reaches --seconds, and prints the
end-to-end metrics. Latencies and part set-up times are in reference
seconds (see `refclock.py`): measured time scaled by the machine speed
measured between queries or drawn instances; the import time stays raw,
and raw figures are printed beside the scaled ones.
--trace 1 sets up under tracing, runs one untimed warm-up pass, one
untraced pass over every fourth query and one traced pass over all of
them, and prints the per-layer metrics (see `spans.py`); it writes its
spans to .bench_build/conedom-bench/.

Every run also checks: each answer against the workload's checks, an
independent oracle on the first pass, the same answer on every later
pass, the digest of the workload's answers at its pinned seed, the digest
of the `conedom suite --seed 20260814` report, and the README CLI
examples. The two digest checks are remembered in .bench_build/ per
content hash of the files they depend on, since they cannot change
unless those files do. The last stdout line is one JSON object; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_build", "conedom-bench")
SETUPS = 3
OVERHEAD_STRIDE = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("dominate", "pareto", "polyhedra"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the benchmark's tests")
    return p.parse_args(argv)


def content_key(bench_files: tuple[str, ...], *extra: str) -> str:
    """Hash of the package sources, the named benchmark files and `extra`."""
    h = hashlib.sha256(sys.version.encode())
    files = sorted(glob.glob(os.path.join(ROOT, "src", "conedom", "*.py")))
    files += [os.path.join(HERE, f) for f in bench_files]
    for path in files:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    for e in extra:
        h.update(e.encode())
    return h.hexdigest()


def digest(serialized) -> str:
    return hashlib.sha256(json.dumps(serialized, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class Ledger:
    """Attempted and failed checks; a query's answer counts as one attempt."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


class Pass:
    """Runs queries of one pool and checks every answer."""

    def __init__(self, pool, ledger: Ledger, workloads) -> None:
        self.pool = pool
        self.ledger = ledger
        self.wl = workloads
        self.first: list = [None] * len(pool)

    def execute(self, k: int) -> float:
        q = self.pool[k]
        t0 = time.perf_counter()
        try:
            out = q.run()
        except Exception as exc:  # any raise is a failed query; keep the loop going
            latency = time.perf_counter() - t0
            self.ledger.check(False, f"query {k} ({q.kind}): {type(exc).__name__}: {exc}")
            return latency
        latency = time.perf_counter() - t0
        ser = q.serialize(out)
        if self.first[k] is None:
            try:
                q.audit(out)
                ok, why = True, ""
            except self.wl.CheckFailed as exc:
                ok, why = False, str(exc)
            self.first[k] = ser
            self.ledger.check(ok, f"query {k} ({q.kind}): oracle: {why}")
        else:
            self.ledger.check(ser == self.first[k], f"query {k} ({q.kind}): answer changed between passes")
        return latency

    def complete(self) -> str:
        """Run any query not answered yet (untimed) and digest the answers."""
        for k in range(len(self.pool)):
            if self.first[k] is None:
                self.execute(k)
        return digest(self.first)


def build(workloads, refclock, workload: str, seed: int, size: str) -> tuple[list, list[float], list[float]]:
    """The workload's queries at `seed`: SETUPS parts drawn independently,
    each set up and timed on its own. Measuring over all parts gives the
    tail percentiles more distinct inputs without extra set-up work.

    Returns the queries, each part's set-up time and the same in reference
    seconds, read with the reference kernel between drawn instances.
    """
    pool: list = []
    times = []
    ref_times = []
    for j in range(SETUPS):
        clock = refclock.RefClock()
        segments: list[float] = []
        last = time.perf_counter()

        def tick() -> None:
            nonlocal last
            segments.append(time.perf_counter() - last)
            clock.tick(segments[-1])
            last = time.perf_counter()

        pool.extend(workloads.WORKLOADS[workload](random.Random(f"{seed}/{j}"), workloads.SCALES[size], tick))
        tick()
        times.append(sum(segments))
        ref_times.append(sum(clock.scale(segments)))
    return pool, times, ref_times


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest of p99/p90/p50 with at least ten samples beyond it (nearest rank)."""
    s = sorted(latencies)
    n = len(s)
    for p in (99, 90, 50):
        if n * (100 - p) >= 1000:
            return p, s[math.ceil(p * n / 100) - 1]
    return 50, statistics.median(s)


def cached_check(ledger: Ledger, label: str, key: str, compute) -> None:
    """Run `compute() -> (ok, message)` unless it passed before for `key`."""
    marker = os.path.join(CACHE, f"ok-{key}")
    if os.path.exists(marker):
        ledger.check(True, label)
        print(f"{label}: ok (passed before for this source)")
        return
    ok, message = compute()
    ledger.check(ok, f"{label}: {message}")
    print(f"{label}: {'ok' if ok else 'FAILED'} {message}")
    if ok:
        os.makedirs(CACHE, exist_ok=True)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(label + "\n")


def check_pinned(args, pins, ledger: Ledger, own_digest: str, workloads, refclock) -> None:
    pinned_seed = pins["default_seed"]
    pinned = pins["workloads"][args.workload][args.size]
    label = f"{args.workload} digest at pinned seed {pinned_seed} ({args.size})"
    if args.seed == pinned_seed:
        ok = own_digest == pinned
        ledger.check(ok, f"{label}: {own_digest} != {pinned}")
        print(f"{label}: {'ok' if ok else 'FAILED'}")
        return

    def compute():
        pool, _, _ = build(workloads, refclock, args.workload, pinned_seed, args.size)
        sub = Ledger()
        got = Pass(pool, sub, workloads).complete()
        ledger.attempted += sub.attempted
        ledger.failed += sub.failed
        ledger.messages.extend(sub.messages[:3])
        return got == pinned, f"{got} vs pinned {pinned}"

    cached_check(ledger, label, content_key(("workloads.py", "oracles.py"), args.workload, args.size, pinned), compute)


def check_suite(pins, ledger: Ledger) -> None:
    seed, pinned = pins["suite"]["seed"], pins["suite"]["sha256"]

    def compute():
        from conedom import run_suite

        got = hashlib.sha256(json.dumps(run_suite(seed), indent=2, sort_keys=True).encode()).hexdigest()
        return got == pinned, f"{got} vs pinned {pinned}"

    cached_check(ledger, f"suite --seed {seed} report digest", content_key((), "suite", pinned), compute)


def check_replay(ledger: Ledger, replay) -> None:
    results = replay.replay()
    for cmd, problem in results:
        ledger.check(problem is None, f"README example {cmd}: {problem}")
    bad = [c for c, p in results if p]
    print(f"README CLI examples: {len(results) - len(bad)}/{len(results)} ok{' FAILED: ' + ', '.join(bad) if bad else ''}")


def end_to_end(args, workloads, refclock, ledger: Ledger, import_s: float):
    pool, times, ref_times = build(workloads, refclock, args.workload, args.seed, args.size)
    run = Pass(pool, ledger, workloads)
    clock = refclock.RefClock()
    latencies: list[float] = []
    busy = 0.0
    while busy < args.seconds:
        lat = run.execute(len(latencies) % len(pool))
        clock.tick(lat)
        latencies.append(lat)
        busy += lat
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    own = run.complete()
    ref = clock.scale(latencies)
    p, tail_ref = tail(ref)
    setup_s = import_s + sum(ref_times)
    print(f"workload {args.workload} seed {args.seed}: {len(pool)} distinct queries, {len(latencies)} timed, {busy:.3f} s busy")
    print(f"  machine speed  {clock.speed():.3f} x reference kernel time ({len(clock.samples)} samples); raw: "
          f"{len(latencies) / busy:.2f} 1/s, p50 {statistics.median(latencies) * 1e3:.4f} ms, p{p} {tail(latencies)[1] * 1e3:.4f} ms")
    print(f"  setup_s        {setup_s:.4f} s  (import {import_s:.4f} s + part setups {', '.join(f'{t:.3f}' for t in ref_times)} ref_s; raw {', '.join(f'{t:.3f}' for t in times)} s)")
    print(f"  queries_per_s  {len(ref) / sum(ref):.2f} 1/ref_s")
    print(f"  query_p50_ms   {statistics.median(ref) * 1e3:.4f} ref_ms")
    print(f"  query_tail_ms  {tail_ref * 1e3:.4f} ref_ms  (p{p} of {len(ref)} samples)")
    print(f"  peak_rss_mb    {peak_rss_mb:.2f} MB")
    print(f"  answers digest {own}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(ref) / sum(ref), "1/ref_s"),
        "query_p50_ms": (statistics.median(ref) * 1e3, "ref_ms"),
        "query_tail_ms": (tail_ref * 1e3, "ref_ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, own


def per_layer(args, workloads, spans, refclock, replay, ledger: Ledger):
    tracer = spans.Tracer()
    tracer.install()
    pool, times, _ = build(workloads, refclock, args.workload, args.seed, args.size)
    setup_wall = sum(times)
    tracer.uninstall()

    # A warm-up pass runs each query once, with its oracle audit, so that
    # the untraced and the traced timings below both see warm code. The
    # untraced timing covers every OVERHEAD_STRIDE-th query only, which
    # keeps a full-size traced run well inside its time limit.
    run = Pass(pool, ledger, workloads)
    own = run.complete()
    sample = range(0, len(pool), OVERHEAD_STRIDE)
    clock = refclock.RefClock()
    lat = []
    for k in sample:
        lat.append(run.execute(k))
        clock.tick(lat[-1])
    untraced = sum(clock.scale(lat))

    tracer.install()
    clock = refclock.RefClock()
    lat = []
    for k in range(len(pool)):
        tracer.current_query = k
        root = tracer.open("bench.query")
        lat.append(run.execute(k))
        tracer.close(root)
        clock.tick(lat[-1])
    traced = sum(clock.scale(lat)[k] for k in sample)
    tracer.current_query = spans.REPLAY
    check_replay(ledger, replay)
    tracer.uninstall()

    def timed(q):
        return q >= 0

    def in_setup(q):
        return q == spans.SETUP

    tm = tracer.summary(timed)
    st = tracer.summary(in_setup)
    rp = tracer.summary(lambda q: q == spans.REPLAY)
    base = tm["bench.query"]["incl_s"]
    m: dict[str, tuple[float, str]] = {}
    for module, fns in spans.TRACED.items():
        for fn in fns:
            name = f"{module}.{fn}"
            m[f"{name}.calls"] = (tm[name]["calls"] if name in tm else 0, "count")
            m[f"{name}.self_share"] = (tm[name]["self_s"] / base if name in tm else 0.0, "share")
            m[f"setup.{name}.calls"] = (st[name]["calls"] if name in st else 0, "count")
            m[f"setup.{name}.self_share"] = (st[name]["self_s"] / setup_wall if name in st else 0.0, "share")
    lps = [(cols, infeasible, bits) for idx, cols, infeasible, bits in tracer.lp_info if timed(tracer.query[idx])]
    m["linalg.lp.infeasible_share"] = (sum(1 for _, inf, _ in lps if inf) / len(lps) if lps else 0.0, "share")
    m["linalg.lp.mean_cols"] = (sum(c for c, _, _ in lps) / len(lps) if lps else 0.0, "count")
    m["linalg.lp.max_bits"] = (max((b for _, _, b in lps), default=0), "bits")
    with_lp, cone_queries = tracer.lp_fallback_share(timed)
    m["cones.lp_fallback_share"] = (with_lp / cone_queries if cone_queries else 0.0, "share")
    m["setup.sets.materialize.points"] = (
        sum(n for idx, n in tracer.materialized if in_setup(tracer.query[idx])),
        "count",
    )
    m["instances.generate_s"] = (tracer.outermost_seconds("instances.", in_setup), "s")
    m["cli.main.calls"] = (rp["cli.main"]["calls"], "count")
    m["cli.main.self_s"] = (rp["cli.main"]["self_s"], "s")
    m["scene.parse_scene.self_s"] = (rp["scene.parse_scene"]["self_s"], "s")
    m["bench.query.self_share"] = (tm["bench.query"]["self_s"] / base, "share")
    m["trace.queries"] = (len(pool), "count")
    m["trace.timed_s"] = (base, "s")
    m["trace.overhead_share"] = ((traced - untraced) / untraced, "share")

    os.makedirs(CACHE, exist_ok=True)
    span_file = os.path.join(CACHE, f"spans-{args.workload}-{args.size}-seed{args.seed}.tsv")
    tracer.write(span_file)
    print(f"workload {args.workload} seed {args.seed}: traced {len(pool)} queries, {len(tracer.name)} spans -> {span_file}")
    print(f"  every {OVERHEAD_STRIDE}th query: untraced {untraced:.3f} ref_s, traced {traced:.3f} ref_s; setup {setup_wall:.3f} s")
    for name in ("linalg.lp_solve", "linalg.check_certificates", "cones.cone_contains", "dominance.pareto_optima_finite"):
        print(f"  {name:32s} calls {m[name + '.calls'][0]:>8}  self share {m[name + '.self_share'][0]:.3f}")
    return m, own


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    src = os.path.join(ROOT, "src", "conedom")
    try:
        import conedom
    except ImportError as exc:
        print(f"error: cannot import conedom from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(conedom.__file__)) != src:
        print(f"error: conedom was imported from {conedom.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    import refclock
    import replay
    import spans
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)

    ledger = Ledger()
    if args.trace:
        metrics, own = per_layer(args, workloads, spans, refclock, replay, ledger)
        wanted = spec["per_layer"]
    else:
        metrics, own = end_to_end(args, workloads, refclock, ledger, import_s)
        check_replay(ledger, replay)
        wanted = spec["end_to_end"]
    check_pinned(args, pins, ledger, own, workloads, refclock)
    check_suite(pins, ledger)
    print(f"  failed_share   {ledger.failed / ledger.attempted:.6f} share  ({ledger.failed} of {ledger.attempted} checks)")
    for message in ledger.messages:
        print(f"  FAILED: {message}")

    out = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"metric {entry['name']} is in {unit}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
