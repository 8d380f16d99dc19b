#!/usr/bin/env bash
# Runs every bench binary and records Google-Benchmark JSON as
# BENCH_<name>.json, so the perf trajectory is comparable commit to commit.
#
#   tools/run_benches.sh [build-dir]        # default: build
#
# Knobs:
#   BENCH_OUT_DIR   where the .json files land (default: the build dir)
#   BENCH_MIN_TIME  per-benchmark min time in seconds, as a bare number:
#                   libbenchmark 1.7 ignores a value with a unit suffix.
#                   E.g. 2 for stable numbers (default 0.05: quick smoke
#                   that still emits real data)
#   BENCH_FILTER    extended regex over bench names; only matching benches
#                   run (e.g. 'state_space|service'). Skipped benches emit
#                   no JSON — downstream bench_gate.py counter gates treat
#                   a bench missing from the run as a skip, not a failure,
#                   so a filtered perf night stays green.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${BENCH_OUT_DIR:-$BUILD_DIR}"
MIN_TIME="${BENCH_MIN_TIME:-0.05}"
FILTER="${BENCH_FILTER:-}"

benches=(
  bench_encoding
  bench_figure4
  bench_matchgen
  bench_nonblocking
  bench_poll
  bench_service
  bench_solver
  bench_state_space
  bench_symbolic_vs_explicit
)

mkdir -p "$OUT_DIR"
ran=0
for b in "${benches[@]}"; do
  if [[ -n "$FILTER" ]] && ! [[ "$b" =~ $FILTER ]]; then
    echo "== $b (skipped by BENCH_FILTER='$FILTER')"
    continue
  fi
  exe="$BUILD_DIR/$b"
  if [[ ! -x "$exe" ]]; then
    echo "error: $exe not found or not executable (build first: cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
  echo "== $b"
  "$exe" --benchmark_min_time="$MIN_TIME" \
         --benchmark_out="$OUT_DIR/BENCH_${b#bench_}.json" \
         --benchmark_out_format=json
  ran=$((ran + 1))
done

echo "wrote $ran BENCH_*.json files to $OUT_DIR (${#benches[@]} known)"
