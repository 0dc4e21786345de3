#!/usr/bin/env bash
# Runs the microbenchmark suite and records the results as JSON so the
# perf trajectory is tracked across PRs (compare BENCH_micro.json between
# commits). Usage:
#   tools/run_benchmarks.sh [--allow-debug] [output.json] [extra bench_micro_perf flags...]
#   tools/run_benchmarks.sh [--allow-debug] --with-metrics [output.json] [extra flags...]
#   tools/run_benchmarks.sh --sanitize
#   tools/run_benchmarks.sh [--allow-debug] --robustness [output.json]
#   tools/run_benchmarks.sh --trace-overhead
#   tools/run_benchmarks.sh [--allow-debug] --service [output.json]
#   tools/run_benchmarks.sh [--allow-debug] --store [output.json]
#   tools/run_benchmarks.sh [--allow-debug] --chaos [output.json]
#   tools/run_benchmarks.sh [--allow-debug] --query [output.json]
# Modes:
#   --with-metrics  run the microbenchmarks, then run one instrumented
#                 pipeline pass (bench_pipeline_metrics) and embed its
#                 metrics snapshot + per-span stage summary into the same
#                 JSON report (keys "pipeline_metrics", "stage_summary").
#   --sanitize    configure a separate build tree with ASan+UBSan
#                 (DBSHERLOCK_SANITIZE=address+undefined), build, and run
#                 the full ctest suite under it. No JSON is written; the
#                 exit status is the verdict.
#   --robustness  run the hostile-telemetry corruption sweep and write the
#                 accuracy-vs-corruption curve (default BENCH_robustness.json).
#   --trace-overhead  verify the disabled-tracer overhead bound (<2% of a
#                 diagnosis); the exit status is the verdict.
#   --store       run the embedded time-series store benchmark (append
#                 throughput, scan latency vs range length, compression
#                 ratio vs raw CSV, the retained-history scan curve with
#                 zone-map segment skip/decode counts, and a predicate-
#                 pushdown demo checked bit-identical against the full
#                 decode; default BENCH_store.json). Exit status is
#                 nonzero unless the ratio meets the <= 0.35x bound and
#                 the pushdown parity check passes.
#   --chaos       run the crash-chaos sweep: 25 seeded episodes of kill -9
#                 and injected I/O/network faults against the real daemon
#                 binary, asserting exactly-once ingest, durable models,
#                 and bounded recovery. Writes the recovery-time/shed-rate
#                 distributions plus each episode's seed and fault
#                 schedule (default BENCH_chaos.json). Exit status is
#                 nonzero if any invariant was violated.
#   --query       run the DQL pipeline sweep: parse/compile latency for a
#                 representative EXPLAIN WHERE statement (compile includes
#                 exact percentile resolution via zone-map bracketing),
#                 the discovery scan with pushdown vs the prune-free full
#                 decode, and end-to-end EXPLAINQ latency against a real
#                 daemon subprocess (default BENCH_query.json). Exit
#                 status is nonzero unless pushdown discovery decoded
#                 strictly fewer segments than the full scan.
#   --service     run the dbsherlockd end-to-end replay (8 simulated
#                 tenants over the real socket path) and write throughput,
#                 p99 append latency, shed rate, and per-tenant diagnosis
#                 accuracy, then the sharded-fleet scaling sweep (1000
#                 tenants through the consistent-hash router over 1/2/4
#                 shards; "fleet" key in the same report; default
#                 BENCH_service.json). Exit status is nonzero unless every
#                 tenant's cause ranks top-1 and every fleet row lands.
#
# Build policy: an unconfigured BUILD_DIR is configured as Release and
# built here; an existing BUILD_DIR is reused as-is. BENCH_*.json is only
# written from an optimized build (Release/RelWithDebInfo/MinSizeRel per
# the tree's CMakeCache.txt) — debug numbers are not comparable across
# PRs, so recording them requires the explicit --allow-debug flag. Every
# emitted JSON carries the build type and the resolved SIMD ISA (context
# keys "dbsherlock_build_type"/"simd_isa" for bench_micro_perf, object key
# "build_info" for the other harnesses).
# Env:
#   BUILD_DIR  build tree holding the bench binaries (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

ALLOW_DEBUG=0
if [[ "${1:-}" == "--allow-debug" ]]; then
  ALLOW_DEBUG=1
  shift
fi

# Configures (Release) when the tree doesn't exist yet, then builds the
# requested bench target.
ensure_built() {
  local target="$1"
  if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
    echo "configuring $BUILD_DIR as Release" >&2
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$BUILD_DIR" -j --target "$target"
}

cached_build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" | head -1
}

# Refuses to record benchmark JSON from a non-optimized tree unless
# --allow-debug was passed.
require_optimized_build() {
  local bt
  bt="$(cached_build_type)"
  case "$bt" in
    Release|RelWithDebInfo|MinSizeRel) return 0 ;;
  esac
  if [[ "$ALLOW_DEBUG" == 1 ]]; then
    echo "warning: recording benchmarks from a '$bt' build (--allow-debug)" >&2
    return 0
  fi
  echo "error: $BUILD_DIR is CMAKE_BUILD_TYPE='$bt', not an optimized build." >&2
  echo "Benchmark JSON from debug builds is not comparable across PRs." >&2
  echo "Either reconfigure (cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release)" >&2
  echo "or pass --allow-debug as the first argument to record it anyway." >&2
  exit 1
}

if [[ "${1:-}" == "--sanitize" ]]; then
  SAN_DIR="${BUILD_DIR}-asan-ubsan"
  cmake -B "$SAN_DIR" -S . -DDBSHERLOCK_SANITIZE=address+undefined
  cmake --build "$SAN_DIR" -j
  ctest --test-dir "$SAN_DIR" --output-on-failure -j
  echo "sanitizer sweep passed ($SAN_DIR)"
  exit 0
fi

if [[ "${1:-}" == "--robustness" ]]; then
  OUT="${2:-BENCH_robustness.json}"
  ensure_built bench_corruption_robustness
  require_optimized_build
  "$BUILD_DIR/bench/bench_corruption_robustness" --json_out "$OUT"
  exit 0
fi

if [[ "${1:-}" == "--service" ]]; then
  OUT="${2:-BENCH_service.json}"
  ensure_built bench_service
  require_optimized_build
  # The fleet sweep (router + 1/2/4 shards, 1000 tenants) rides in
  # the same report under the "fleet" key.
  "$BUILD_DIR/bench/bench_service" --json_out "$OUT" --fleet_shards 1,2,4
  exit 0
fi

if [[ "${1:-}" == "--chaos" ]]; then
  OUT="${2:-BENCH_chaos.json}"
  ensure_built bench_chaos
  require_optimized_build
  "$BUILD_DIR/bench/bench_chaos" --json_out "$OUT"
  exit 0
fi

if [[ "${1:-}" == "--query" ]]; then
  OUT="${2:-BENCH_query.json}"
  ensure_built bench_query
  require_optimized_build
  "$BUILD_DIR/bench/bench_query" --json_out "$OUT"
  exit 0
fi

if [[ "${1:-}" == "--store" ]]; then
  OUT="${2:-BENCH_store.json}"
  ensure_built bench_store
  require_optimized_build
  "$BUILD_DIR/bench/bench_store" --json_out "$OUT"
  exit 0
fi

if [[ "${1:-}" == "--trace-overhead" ]]; then
  ensure_built bench_trace_overhead
  "$BUILD_DIR/bench/bench_trace_overhead"
  exit 0
fi

WITH_METRICS=0
if [[ "${1:-}" == "--with-metrics" ]]; then
  WITH_METRICS=1
  shift || true
fi

OUT="${1:-BENCH_micro.json}"
shift || true

ensure_built bench_micro_perf
require_optimized_build
BIN="$BUILD_DIR/bench/bench_micro_perf"
"$BIN" --print-build-info
"$BIN" --benchmark_format=json "$@" > "$OUT"
echo "wrote $OUT"

if [[ "$WITH_METRICS" == 1 ]]; then
  ensure_built bench_pipeline_metrics
  "$BUILD_DIR/bench/bench_pipeline_metrics" --merge-into "$OUT"
  echo "attached metrics snapshot to $OUT"
fi
