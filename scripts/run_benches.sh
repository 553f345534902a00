#!/usr/bin/env bash
# Runs the benchmark suite and collects machine-readable results.
#
# Usage: scripts/run_benches.sh [build-dir] [out-dir]
#
#   build-dir  CMake build tree containing bench/ binaries (default: build)
#   out-dir    where BENCH_*.json files are collected (default: bench-results)
#
# Benchmarks that support --json write BENCH_<name>.json; the remaining
# table-only benches have their stdout captured as <name>.txt.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build the project first" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
cd "$OUT_DIR"
OUT_ABS="$PWD"
cd - > /dev/null

run() {
  local name="$1"
  shift
  local bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "skipping $name (not built)"
    return
  fi
  echo "== $name $* =="
  "$bin" "$@" | tee "$OUT_ABS/$name.txt"
}

# Like run, but captures stdout under a distinct label so one binary can
# contribute several workloads without clobbering its own .txt.
run_as() {
  local label="$1"
  local name="$2"
  shift 2
  local bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "skipping $name (not built)"
    return
  fi
  echo "== $label: $name $* =="
  "$bin" "$@" | tee "$OUT_ABS/$label.txt"
}

# JSON-capable benches: results land in $OUT_DIR/BENCH_<name>.json.
# --threads records the worker count in the JSON metadata (concurrent_read
# additionally sweeps its built-in 1/2/4/8 ladder).
run empirical_io --json="$OUT_ABS/BENCH_empirical_io.json" --device=file \
  500 2
run scale_io --json="$OUT_ABS/BENCH_scale_io.json" --preset=ci
run micro_ops --json="$OUT_ABS/BENCH_micro_ops.json" --threads=4
run concurrent_read --json="$OUT_ABS/BENCH_concurrent_read.json" --threads=4
run net_throughput --json="$OUT_ABS/BENCH_net_throughput.json" --max-clients 64

# Multi-writer concurrency benches (DESIGN.md §14): disjoint-set writers
# must show zero lock conflicts (net_throughput exits nonzero otherwise);
# the mixed mode measures reader throughput alongside concurrent updates
# of the replicated field.
run_as net_multiwriter net_throughput \
  --json="$OUT_ABS/BENCH_net_multiwriter.json" --sets=4
run_as concurrent_mixed concurrent_read \
  --json="$OUT_ABS/BENCH_concurrent_mixed.json" --mixed=2

# Table-only benches (stdout captured).
run fig11_unclustered_model
run fig13_clustered_model
run fig12_selected_costs
run fig14_selected_costs
run ablation_inline_links
run ablation_collapsed_paths
run wal_overhead

echo
echo "results collected in $OUT_DIR/"
ls -l "$OUT_ABS"
