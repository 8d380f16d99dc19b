#!/usr/bin/env python3
"""Steadiness self-check and A/A comparison of the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Runs every workload of BENCHMARK.json --runs times in each of two sets of
the same build, each run with its own seed, interleaving the workloads so
host noise hits all of them alike. For each end-to-end metric it prints the
median and the spread (the distance between the first and third quartile
as a share of the median) of each set beside the metric's bound, and the
A/A drift of the second set's median against the first, in the metric's
worse direction. A spread at or above a third of the bound (for setup_s,
above the bound) or a drift above the bound is marked. Exits nonzero if any
run fails its known-answer check or any mark is set.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(cmd, workload, seed, seconds):
    full = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(full, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} exited {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady.py: {workload} seed {seed} failed its known-answer check")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, second, better):
    """How much worse the second median is than the first, as a share."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def unsteady(metric, values):
    limit = metric["bound"] if metric["name"] == "setup_s" else metric["bound"] / 3
    return spread(values) >= limit


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # samples[set][workload][metric] -> list of values
    samples = [{w: {m["name"]: [] for m in metrics} for w in workloads}
               for _ in range(SETS)]
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + 100 * s + i
                values = run_once(bench["command"], w, seed, args.seconds)
                for m in metrics:
                    samples[s][w][m["name"]].append(values[m["name"]])
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: " +
                      ", ".join(f"{k}={values[k]:.6g}" for k in sorted(values)),
                      flush=True)

    marked = False
    print(f"\n{'workload':<17} {'metric':<16} {'median':>12} {'spread 1':>9} "
          f"{'spread 2':>9} {'bound':>6} {'A/A drift':>10}")
    for w in workloads:
        for m in metrics:
            first, second = (samples[s][w][m["name"]] for s in range(SETS))
            d = drift(first, second, m["better"])
            mark = unsteady(m, first) or unsteady(m, second) or d > m["bound"]
            marked = marked or mark
            print(f"{w:<17} {m['name']:<16} {statistics.median(first):>12.6g} "
                  f"{spread(first):>9.3f} {spread(second):>9.3f} "
                  f"{m['bound']:>6.2f} {d:>+10.3f}" +
                  ("  <-- not steady" if mark else ""))
    return 1 if marked else 0


if __name__ == "__main__":
    sys.exit(main())
