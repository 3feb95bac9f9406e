"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run times fresh interpreters importing the program and
sets up its inputs, several times each (untraced, for ``setup_s``), then
runs whole rounds of the workload until ``--seconds`` have passed,
checks every round's outputs, and prints
``{"correct", "attempted", "failed", "metrics"}`` as its last line.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the program's public functions are
wrapped (``bench/tracing.py``) and the metrics are the per-layer ones, per
set-up plus one round; the spans go to ``bench/out/``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import serverfeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per untraced run, and fresh interpreters that import the
#: program; ``setup_s`` is the median of the one plus that of the other.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
#: Metric units by name; the traced run reports every per-layer metric,
#: per set-up plus one round.
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
#: Per-layer values that are peaks, not sums.
PEAKS = ("engine.queue_peak", "baselines.observations_max", "server.records_held")


def _workload(name: str, out_dir: str, traced: bool):
    if name == "population_tracecorona":
        return workloads.population_tracecorona()
    if name == "population_baselines":
        return workloads.population_baselines()
    if name == "server_feed":
        return serverfeed.ServerFeedWorkload(ROOT, out_dir, in_process=traced)
    return workloads.BundledWorkload(out_dir)


def _per_layer(tracer, after_setup: dict, rounds: int, traced_run_s: float) -> dict:
    final = tracer.snapshot()
    values = {}
    for name in PER_LAYER:
        if name in PEAKS:
            values[name] = final.get(name, 0)
        elif name in ("engine.events_per_link_s", "traced.run_s"):
            continue
        else:
            first = after_setup.get(name, 0)
            values[name] = first + (final.get(name, 0) - first) / rounds
    link_seconds = final.get("engine.link_seconds", 0)
    values["engine.events_per_link_s"] = (
        final.get("engine.events", 0) / link_seconds if link_seconds else 0.0
    )
    values["traced.run_s"] = traced_run_s
    return values


def _import_seconds(speed) -> float:
    """Median time, at nominal host speed, from starting a fresh
    interpreter until it has imported the program."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    command = [sys.executable, "-c", "import tracecorona.cli"]
    times = []
    with hostspeed.Phase(speed) as phase:
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            subprocess.run(command, env=env, check=True)
            times.append(time.perf_counter() - start)
    return statistics.median(times) * phase.factor


def run(args, out_dir: str) -> dict:
    workload = _workload(args.workload, out_dir, bool(args.trace))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    speed = hostspeed.HostSpeed()
    import_s = 0.0 if tracer else _import_seconds(speed)
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        inputs = None  # the last set-up's inputs are not alive during the next
        with hostspeed.Phase(speed) as phase:
            inputs = workload.setup(args.seed)
        setups.append(phase.scaled_s)
    after_setup = tracer.snapshot() if tracer else {}
    # The inputs stay alive for the whole run; keep them out of the
    # collector's scans so that its work is the program's own.
    gc.freeze()

    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.run_round(inputs, speed))
        # Each round starts from a collected heap, so that peak memory does
        # not depend on when the cyclic collector last ran.
        gc.collect()
    if tracer:
        tracer.uninstall()

    if rounds[0].samples and not tracer:
        # server_feed's own figures: shown on stderr, not gated, since the
        # result line carries only metrics that every workload has.
        samples = {k: [x for r in rounds for x in r.samples[k]] for k in rounds[0].samples}
        shown = {
            "upload_p50_ms": statistics.median(samples["upload_ms"]),
            "upload_p99_ms": statistics.quantiles(samples["upload_ms"], n=100)[98],
            "restart_s": statistics.median(samples["restart_s"]),
            "sync_s": statistics.median(samples["sync_s"]),
            "server_rss_mb": max(samples["server_rss_mb"]),
        }
        print(f"shown: {json.dumps(shown)}", file=sys.stderr)
    problems = [p for r in rounds for p in r.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in sorted({f for r in rounds for f in r.failed}):
        print(f"failed operation: {failure}", file=sys.stderr)
    run_s = statistics.median(r.seconds for r in rounds)
    print(
        f"raw: rounds {len(rounds)}, run_s {statistics.median(r.raw_seconds for r in rounds):.4f} s, "
        f"reference chunk {min(speed.reference_s) * 1000:.2f}"
        f"..{max(speed.reference_s) * 1000:.2f} ms (nominal {hostspeed.NOMINAL_S * 1000:.2f} ms)",
        file=sys.stderr,
    )

    if tracer:
        values = _per_layer(tracer, after_setup, len(rounds), run_s)
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        tracer.write(
            os.path.join(BENCH, "out", f"trace-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
             "round_s": [r.seconds for r in rounds],
             "round_raw_s": [r.raw_seconds for r in rounds],
             "reference_s": speed.reference_s},
        )
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Keep the run, and the server it starts, on one CPU: the host's speed
    # differs from core to core, and the reference computation in
    # hostspeed.py must measure the core the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = os.path.join(BENCH, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        result = run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
