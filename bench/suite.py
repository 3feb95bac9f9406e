"""Run every workload, each in a fresh process, and collect the results.

    python3 bench/suite.py --label NAME [--seeds 1 2 3] [--trace]

For each seed and every workload of ``BENCHMARK.json`` this runs
``bench/run.py`` once for the run length of ``BENCHMARK.json`` (and once
more with ``--trace 1`` if ``--trace`` is given), prints every metric by
name with its unit and the attempted and failed operations (and, for
``server_feed``, the figures that are shown but not gated), and appends
the result to ``bench/results/NAME.jsonl``; ``bench/compare.py`` reads
two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    command = [
        sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    raw, shown = "", {}
    for line in done.stderr.splitlines():
        if line.startswith("check failed"):
            print(f"  {line}")
        elif line.startswith("raw: "):
            raw = line[len("raw: "):]
        elif line.startswith("shown: "):
            shown = json.loads(line[len("shown: "):])
    return {"workload": workload, "seed": seed, "trace": int(traced), **result,
            "raw": raw, "shown": shown}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--trace", action="store_true", help="add one traced run per untraced one")
    args = parser.parse_args()

    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    path = os.path.join(BENCH, "results", f"{args.label}.jsonl")
    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            for traced in (False, True) if args.trace else (False,):
                result = run_one(workload, seed, spec["run_seconds"], traced)
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(result) + "\n")
                metrics = "  ".join(
                    f"{name}={m['value']:.6g} {m['unit']}"
                    for name, m in result["metrics"].items()
                    if not traced or name.endswith("self_s") or name == "traced.run_s"
                )
                shown = "  ".join(f"{name}={value:.6g}" for name, value in result["shown"].items())
                print(
                    f"{workload} seed={seed} trace={int(traced)} correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']}  {metrics}"
                    + (f"  (not gated: {shown})" if shown else ""),
                    flush=True,
                )
    print(f"results appended to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
