#!/usr/bin/env python3
"""Bench regression gate: compare two Google-Benchmark JSON files.

Usage:
    bench_gate.py OLD.json NEW.json [--benchmark NAME ...] [--max-ratio R]
                  [--speedup FAST:BASE:MIN ...]
                  [--min-counter BENCH:COUNTER:MIN ...]

Fails (exit 1) when any named benchmark's time in NEW exceeds max-ratio x
its time in OLD. Benchmarks named but missing from OLD are reported and
skipped (first run after a rename must not trip the gate); benchmarks
missing from NEW are a hard failure (the series silently disappeared).
Default benchmark: BM_Dpor_MessageRace/4, the headline instance of the
checkpoint/undo execution core.

Times are cpu_time, except for benchmarks registered with UseRealTime
(their JSON names end in "/real_time"): those gate on real_time, the only
meaningful metric for a multi-threaded run whose cpu_time sums the whole
worker fleet.

--speedup FAST:BASE:MIN (repeatable) is an intra-run ratio gate on
NEW.json alone: fail unless time(BASE) / time(FAST) >= MIN. The nightly
uses it to pin the sharded symbolic stage's scaling floor, e.g.
BM_Symbolic_Sharded/4/real_time (4 workers) against .../1/real_time
(serial) at 1.8x. Either side missing from NEW is a hard failure.

--min-counter BENCH:COUNTER:MIN (repeatable) gates a user counter of one
benchmark in NEW.json: fail unless counters[COUNTER] >= MIN. The nightly
uses it as the state_hits floor on the stateful exploration bench: the
visited-state store must actually collapse revisits. A benchmark missing
from NEW.json entirely is a skip with a ::notice (run_benches.sh
BENCH_FILTER legitimately leaves whole bench binaries out of a run; an
unfiltered night still catches a renamed series because the counter gate
then guards nothing and the compared-nothing warning fires). A benchmark that IS present but lacks
the named counter is a hard failure — the series ran and silently lost
its telemetry.

The nightly workflow feeds this with the previous run's bench-json
artifact, turning the accumulating perf trajectory into an alarm instead
of a write-only archive.
"""

import argparse
import json
import os
import sys


def annotate(level, message):
    """Surface a skip/warning in the GitHub Actions UI, not just the log.

    Outside Actions (no GITHUB_ACTIONS env) the plain message is printed,
    so local runs read the same information without the :: markup.
    """
    if os.environ.get("GITHUB_ACTIONS"):
        print(f"::{level}::{message}")
    else:
        print(f"{level}: {message}")


def load_entries(path):
    """benchmark name -> raw JSON entry, aggregates excluded.

    User counters appear as top-level numeric keys of the entry, next to
    real_time/cpu_time — the counter gate reads them straight off it.
    """
    with open(path) as f:
        data = json.load(f)
    return {
        bench["name"]: bench
        for bench in data.get("benchmarks", [])
        if bench.get("run_type") != "aggregate"
    }


def load_times(path):
    """benchmark name -> gated time (ns), aggregates excluded.

    UseRealTime benchmarks (name suffix "/real_time") gate on real_time;
    everything else on cpu_time.
    """
    times = {}
    for name, bench in load_entries(path).items():
        field = "real_time" if name.endswith("/real_time") else "cpu_time"
        times[name] = float(bench[field])
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old_json")
    parser.add_argument("new_json")
    parser.add_argument(
        "--benchmark",
        action="append",
        default=None,
        help="benchmark name to gate (repeatable; default BM_Dpor_MessageRace/4)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when new time > max-ratio * old time (default 2.0)",
    )
    parser.add_argument(
        "--speedup",
        action="append",
        default=[],
        metavar="FAST:BASE:MIN",
        help="intra-run ratio gate on NEW.json: fail unless "
        "time(BASE)/time(FAST) >= MIN (repeatable)",
    )
    parser.add_argument(
        "--min-counter",
        action="append",
        default=[],
        metavar="BENCH:COUNTER:MIN",
        help="counter floor gate on NEW.json: fail unless the named "
        "benchmark's user counter is >= MIN (repeatable)",
    )
    args = parser.parse_args()
    # Ratio/counter-only invocations (intra-NEW gates) skip the default
    # old-vs-new benchmark; naming none with neither gate keeps the
    # historical default.
    if args.benchmark is not None:
        benchmarks = args.benchmark
    elif args.speedup or args.min_counter:
        benchmarks = []
    else:
        benchmarks = ["BM_Dpor_MessageRace/4"]

    old_times = load_times(args.old_json)
    new_times = load_times(args.new_json)

    failed = False
    compared = 0
    skipped = []
    for name in benchmarks:
        if name not in new_times:
            print(f"FAIL {name}: missing from {args.new_json}")
            failed = True
            continue
        if name not in old_times:
            # A skip means this series was NOT gated tonight. Say so where
            # a reviewer will see it, instead of scrolling past a log line.
            annotate(
                "notice",
                f"bench gate skipped {name}: no baseline in {args.old_json} "
                "(expected on the first run after adding or renaming it)",
            )
            skipped.append(name)
            continue
        old, new = old_times[name], new_times[name]
        ratio = new / old if old > 0 else float("inf")
        verdict = "FAIL" if ratio > args.max_ratio else "ok"
        print(
            f"{verdict} {name}: {old:.0f}ns -> {new:.0f}ns "
            f"({ratio:.2f}x, limit {args.max_ratio:.2f}x)"
        )
        failed |= ratio > args.max_ratio
        compared += 1

    for spec in args.speedup:
        parts = spec.rsplit(":", 2)
        if len(parts) != 3:
            print(f"FAIL --speedup '{spec}': expected FAST:BASE:MIN")
            failed = True
            continue
        fast, base, min_s = parts[0], parts[1], float(parts[2])
        missing = [n for n in (fast, base) if n not in new_times]
        if missing:
            print(f"FAIL speedup {fast}: missing from {args.new_json}: "
                  f"{', '.join(missing)}")
            failed = True
            continue
        speedup = new_times[base] / new_times[fast] if new_times[fast] > 0 \
            else float("inf")
        verdict = "FAIL" if speedup < min_s else "ok"
        print(
            f"{verdict} speedup {fast} vs {base}: {speedup:.2f}x "
            f"(floor {min_s:.2f}x)"
        )
        failed |= speedup < min_s

    new_entries = load_entries(args.new_json) if args.min_counter else {}
    for spec in args.min_counter:
        parts = spec.rsplit(":", 2)
        if len(parts) != 3:
            print(f"FAIL --min-counter '{spec}': expected BENCH:COUNTER:MIN")
            failed = True
            continue
        bench, counter, floor = parts[0], parts[1], float(parts[2])
        entry = new_entries.get(bench)
        if entry is None:
            # The whole series is absent from the run — a BENCH_FILTERed
            # night, or the first night before the bench existed. Not gated
            # tonight; say so visibly instead of failing a filtered run.
            annotate(
                "notice",
                f"counter gate skipped {bench}: missing from "
                f"{args.new_json} (bench not part of this run, e.g. "
                "BENCH_FILTER)",
            )
            skipped.append(bench)
            continue
        value = entry.get(counter)
        if not isinstance(value, (int, float)):
            print(f"FAIL counter {bench}: no counter '{counter}'")
            failed = True
            continue
        verdict = "FAIL" if value < floor else "ok"
        print(
            f"{verdict} counter {bench} {counter}={value:.0f} "
            f"(floor {floor:.0f})"
        )
        failed |= value < floor

    print(
        f"summary: {compared} compared, {len(skipped)} skipped, "
        f"{len(args.speedup)} speedup gate(s), "
        f"{len(args.min_counter)} counter gate(s)"
    )
    if benchmarks and compared == 0 and not failed:
        # Every named series was skipped: the gate ran but guarded nothing.
        # Escalate to a warning so a missing/corrupt baseline artifact
        # cannot masquerade as a green perf night.
        annotate(
            "warning",
            f"bench gate compared nothing: all {len(skipped)} named "
            f"benchmark(s) had no baseline in {args.old_json}",
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
