#!/usr/bin/env bash
# Benchmark entry point: build the default configuration and run the
# oracle-overhead, compile-time, simulator, alias, pipelining, workload and
# service benchmarks, leaving google-benchmark JSON at the repo root as
# BENCH_oracle.json plus the parallel-driver thread sweep as
# BENCH_compile_parallel.json, the legacy-vs-predecoded simulator
# comparison as BENCH_sim.json, the syntactic-vs-flow-sensitive
# disambiguation-rate and cycle table as BENCH_alias.json, the
# exact-pipelining optimality-gap table (per-loop achieved-II vs min-II vs
# exact-II over every kernel x machine) as BENCH_pipelining.json, the full
# per-kernel measurement matrix (every registered kernel x
# O0/Classical/Vliw x three machine models, with and without PDF) as
# BENCH_workloads.json, and the compile-service cold-vs-warm-cache
# throughput with per-class hit rates as BENCH_service.json
# (human-readable tables go to stdout). The PDF gain table
# (bench_pdf_gain) prints to stdout only and is not run here.
#
#   scripts/bench.sh [JOBS]
set -euo pipefail

JOBS="${1:-$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS" \
  --target bench_oracle_overhead --target bench_compile_time \
  --target bench_sim --target bench_alias \
  --target bench_pipelining --target bench_workloads --target bench_service

"$ROOT/build/bench/bench_oracle_overhead" \
  --benchmark_out="$ROOT/BENCH_oracle.json" \
  --benchmark_out_format=json

"$ROOT/build/bench/bench_compile_time" \
  --parallel-out="$ROOT/BENCH_compile_parallel.json" \
  --benchmark_filter='^$'

"$ROOT/build/bench/bench_sim" \
  --sim-out="$ROOT/BENCH_sim.json" \
  --benchmark_filter='^$'

# Disambiguation-rate table: syntactic vs flow-sensitive tier, annotated
# vs symbol-stripped front ends, plus the end-to-end cycle delta.
"$ROOT/build/bench/bench_alias" \
  --alias-out="$ROOT/BENCH_alias.json" \
  --benchmark_filter='^$'

# Exact-pipelining optimality gap: every kernel x rs6000/power2/ppc601
# compiled in Apply mode; per-loop achieved-II/min-II/exact-II records,
# gap geomean, and the audited thread-invariance check on the first
# kernel where Apply beats the heuristic.
"$ROOT/build/bench/bench_pipelining" \
  --pipelining-out="$ROOT/BENCH_pipelining.json" \
  --benchmark_filter='^$'

# Full per-kernel matrix over the registry (spec six + irregular five):
# cycles at every opt level on every machine model, with and without PDF,
# including the measured layout-gate decision per cell.
"$ROOT/build/bench/bench_workloads" \
  --workloads-out="$ROOT/BENCH_workloads.json" \
  --benchmark_filter='^$'

# Compile-service throughput: a seeded request stream served cold then
# warm by one service; asserts byte-identical responses and the 3x
# warm-cache floor, and reports per-class hit rates.
"$ROOT/build/bench/bench_service" \
  --service-out="$ROOT/BENCH_service.json"

echo "wrote $ROOT/BENCH_oracle.json"
echo "wrote $ROOT/BENCH_compile_parallel.json"
echo "wrote $ROOT/BENCH_sim.json"
echo "wrote $ROOT/BENCH_alias.json"
echo "wrote $ROOT/BENCH_pipelining.json"
echo "wrote $ROOT/BENCH_workloads.json"
echo "wrote $ROOT/BENCH_service.json"
