#!/usr/bin/env python3
"""Build and run the mcsym end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (its own CMake project, compiling mcsym from ../src) into
$CARGO_TARGET_DIR, default .bench_build, under the checkout root, then runs
one workload. Standard output ends with one JSON line: correct, attempted,
failed and the metrics. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dpor_exhaustive", "dpor_parallel", "symbolic_traces", "serve_mixed")
BUILD_JOBS = "3"


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    if not (ROOT / "src" / "check" / "verifier.hpp").is_file():
        sys.exit("run.py: mcsym sources (src/) not found beside perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", BUILD_JOBS,
         "--target", "perfbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        out = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        sys.exit(f"run.py: build failed: {err}")
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")], cwd=ROOT).returncode
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--examples", str(ROOT / "examples")]
    if args.trace:
        cmd += ["--spans-out", str(out / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
