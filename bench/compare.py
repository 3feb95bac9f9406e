"""Compare two sets of benchmark results.

    python3 bench/compare.py bench/results/A.jsonl bench/results/B.jsonl

For every workload and end-to-end metric of ``BENCHMARK.json`` this
prints each side's median, first and third quartiles and sample count,
the spread (quartile distance over the median) of each side, whether
B's median is within the metric's bound of A's in the worse direction,
and whether a spread exceeds the bound (or a third of it; ``setup_s``
is exempt).  ``server_feed``'s own figures (upload latency, restart,
sync, server memory) are shown the same way but not gated.  It also
compares the share of failed operations, which must be identical, and
reports the tracing overhead (traced ``traced.run_s`` minus untraced
``run_s``) where traced runs are present.  Exits 1 if any median or
spread is out of bound or the failed shares differ.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                result = json.loads(line)
                runs[(result["workload"], result["trace"])].append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def row(workload: str, name: str, va: list[float], vb: list[float]) -> tuple[float, float, float]:
    """Print the start of one metric's row; return both spreads and B/A."""
    qa, qb = quartiles(va), quartiles(vb)
    spread_a, spread_b = (qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]
    ratio = qb[1] / qa[1]
    print(
        f"{workload:24} {name:15} {len(va):>2}/{len(vb):<2} {qa[1]:11.5g} "
        f"{qa[0]:11.5g}..{qa[2]:<11.5g}{spread_a:6.3f} {qb[1]:11.5g} "
        f"{qb[0]:11.5g}..{qb[2]:<11.5g}{spread_b:6.3f} {ratio:6.3f}",
        end="",
    )
    return spread_a, spread_b, ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    a, b = load(argv[0]), load(argv[1])
    ok = True
    print(f"A = {argv[0]}\nB = {argv[1]}\n")
    header = (f"{'workload':24} {'metric':15} {'n':>5} {'A median':>11} {'A q1..q3':>23} "
              f"{'A spr':>6} {'B median':>11} {'B q1..q3':>23} {'B spr':>6} {'B/A':>6} {'bound':>5}  verdict")
    print(header)
    for item in spec["workloads"]:
        workload = item["name"]
        runs_a, runs_b = a.get((workload, 0), []), b.get((workload, 0), [])
        if not runs_a or not runs_b:
            print(f"{workload:24} (no untraced runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
            if not va or not vb:
                continue
            spread_a, spread_b, ratio = row(workload, name, va, vb)
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            # set-up time is exempt from the spread rule, not from the median rule
            if name != "setup_s" and max(spread_a, spread_b) > metric["bound"]:
                verdict += " SPREAD>BOUND"
            elif name != "setup_s" and max(spread_a, spread_b) > metric["bound"] / 3:
                verdict += " (spread>bound/3)"
            ok &= "WORSE" not in verdict and "BOUND" not in verdict
            print(f" {metric['bound']:5.2f}  {verdict}")
        # Figures only one workload has (server_feed's), shown but not gated.
        for name in sorted({k for r in runs_a + runs_b for k in r.get("shown", {})}):
            va = [r["shown"][name] for r in runs_a if name in r.get("shown", {})]
            vb = [r["shown"][name] for r in runs_b if name in r.get("shown", {})]
            if va and vb:
                row(workload, name, va, vb)
                print("     -  shown, not gated")
        share_a = {r["failed"] / r["attempted"] for r in runs_a}
        share_b = {r["failed"] / r["attempted"] for r in runs_b}
        same = len(share_a | share_b) == 1
        ok &= same
        print(f"{workload:24} failed share A {sorted(share_a)} B {sorted(share_b)}: "
              f"{'identical' if same else 'DIFFERENT'}")
        for label, runs in (("A", a), ("B", b)):
            traced = runs.get((workload, 1), [])
            plain = runs.get((workload, 0), [])
            if traced and plain:
                t = statistics.median(r["metrics"]["traced.run_s"]["value"] for r in traced)
                u = statistics.median(r["metrics"]["run_s"]["value"] for r in plain)
                print(f"{workload:24} tracing overhead {label}: traced run_s {t:.3f} s - "
                      f"untraced {u:.3f} s = {t - u:.3f} s ({(t - u) / u:+.0%})")
        print()
    print("all medians and spreads within bound, failed shares identical" if ok
          else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
