#!/usr/bin/env bash
# CI entry point: build the default and the ASan+UBSan configurations and
# run the full test suite under both, at VSC_THREADS=1 and VSC_THREADS=4
# (the parallel per-function driver must be byte-identical and
# divergence-free at every thread count — the sanitize x threads=4 cell
# doubles as the data-race check). Each configuration then re-runs the
# fuzz suite — which carries the semantic audits, the differential
# execution oracle at Boundaries level, and the alias audit (every NoAlias
# claim the pipeline issues is validated against the addresses the
# simulator actually touches) — on a shifted VSC_FUZZ_SEED, so every CI
# run also validates the pipeline on 40 programs no previous run has
# seen, with the analysis-cache recompute-and-compare checker forced on
# (VSC_CHECK_ANALYSES=1). Finally each configuration runs the simulator
# fast-path differential, reference-interpreter and oracle suites, the
# cost-model-vs-simulator timing differential, and the alias-analysis/audit
# suites explicitly.
# The default configuration also runs the benchmark's self-test and checks
# that bench_alias, bench_workloads and bench_pipelining reproduce the
# committed BENCH_alias.json, BENCH_workloads.json and BENCH_pipelining.json.
#
#   scripts/ci.sh [JOBS]
#
# Exits non-zero on the first failing build or test run.
set -euo pipefail

JOBS="${1:-$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# Fresh fuzz programs per day; override with VSC_FUZZ_SEED=N scripts/ci.sh.
FUZZ_SEED="${VSC_FUZZ_SEED:-$(( $(date +%Y%m%d) * 100 ))}"

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S "$ROOT" "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  for threads in 1 4; do
    echo "=== [$name] ctest, VSC_THREADS=$threads ==="
    VSC_THREADS="$threads" \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  done
  # The compiled-output golden digests ride along: with the cache checker
  # on, every lazily fetched analysis is compared with a fresh recompute.
  # So do the suites of the passes that keep analyses across their own
  # edits (global scheduling verifies the cache after every hoist and
  # re-runs every probe it skipped; LICM and the pipeliner's rotations
  # keep structure) and of the cache itself, at both thread counts. The
  # fuzz suites also check every graded loop's min-II against the
  # heuristic's and the exact search's II.
  for threads in 1 4; do
    echo "=== [$name] oracle+alias-audit fuzz + analysis checking, seed base $FUZZ_SEED, VSC_THREADS=$threads ==="
    VSC_FUZZ_SEED="$FUZZ_SEED" VSC_CHECK_ANALYSES=1 VSC_THREADS="$threads" \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'Fuzz|CompileGolden|GlobalSchedule|LocalSchedule|JoinHoist|Combining|Cfg|AnalysisCache|AnalysisChecker|Licm|LiPipeline|MinII|Exact'
  done
  # The flow-sensitive alias tier and its dynamic audit are the soundness
  # backbone of every disambiguation consumer; run their suites explicitly
  # so a filtered invocation above can never silently skip them. The
  # golden digests of compiled output (tests/test_compile_golden.cpp) pin
  # every byte those consumers emit, at both thread counts.
  for threads in 1 4; do
    echo "=== [$name] alias analysis + audit + golden suites, VSC_THREADS=$threads ==="
    VSC_THREADS="$threads" \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'MemAlias|ValueTrack|AliasClaimLog|AliasAudit|CompileGolden'
  done
  # Exact software pipelining: the one dependence graph against its
  # all-pairs reference, the min-II analysis, the branch-and-bound
  # scheduler's verdicts, and the Grade/Apply wiring (Apply through the
  # full audited pipeline, thread-invariant), under the analysis checker
  # at both thread counts. The fuzz run above already grades every fuzzed
  # loop — auditedOptions() carries ExactPipelining=Grade — so arbitrary
  # generated shapes go through the min-II model too.
  for threads in 1 4; do
    echo "=== [$name] exact pipelining suites + analysis checking, VSC_THREADS=$threads ==="
    VSC_CHECK_ANALYSES=1 VSC_THREADS="$threads" \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'DepGraph|MinII|ExactPipeliner|ExactGrade|ExactApply|ExactEdge'
  done
  # The predecoded simulator must stay byte-identical to the legacy
  # interpreter, and the scheduler's cycle estimate must equal both
  # simulators' cycles on random single blocks, which share the issue
  # rules of machine/IssueCore.h. The oracle's reference interpreter now
  # shares the fast path's value core (sim/ValueCore.h), so its own suites
  # (Interp, DiffFunctions) run here too: they hold it to the legacy
  # engine's independent copy.
  echo "=== [$name] simulator fast-path + oracle + timing differential suites ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
    -R 'Fastpath|SimFastpath|SimDispatch|Oracle|Interp|DiffFunctions|TimingDifferential'
  # ProfileStore + PDF experiment driver: persistence round-trips, dense
  # counts against the simulator's ground truth, the counter scheme
  # against the exact counts on every kernel, the measured layout gate,
  # and thread-count invariance of the whole experiment (run at both
  # counts like the main suite).
  for threads in 1 4; do
    echo "=== [$name] pdf suite, VSC_THREADS=$threads ==="
    VSC_THREADS="$threads" \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'PdfStore|PdfExperiment|PdfGate'
  done
  # Compile-service suites: the sealed-artifact envelope, the LRU cache's
  # rejection discipline, the JsonWriter byte contract, and the service's
  # response determinism across thread counts and request orders.
  for threads in 1 4; do
    echo "=== [$name] compile service suites, VSC_THREADS=$threads ==="
    VSC_THREADS="$threads" \
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'SealedArtifact|ArtifactCache|CompileService|JsonWriter'
  done
  # The workload-kernel suites (SPEC six + irregular five): host-reference
  # checksums, the OptLevel x machine x threads matrix, and the audited
  # oracle+alias pipeline per kernel. Run explicitly so a filtered
  # invocation above can never silently skip the kernels that anchor every
  # measured table.
  echo "=== [$name] workload kernel suites ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
    -R 'Workload|AllKernels'
  # Cross-process profile handoff: pdf_workflow trains and persists a
  # profile, vscc compiles the emitted source with it in a separate
  # process; the measured layout gate must reach the identical decision.
  echo "=== [$name] cross-process profile handoff ==="
  local tmp decision_a decision_b
  tmp="$(mktemp -d)"
  "$dir/examples/example_pdf_workflow" --workload=eqntott \
    --emit-source="$tmp/eqntott.c" --save-profile="$tmp/eqntott.vscp" \
    --superblocks > "$tmp/workflow.out"
  decision_a="$(grep '^pdf-layout:' "$tmp/workflow.out")"
  "$dir/examples/example_vscc" "$tmp/eqntott.c" -O3 \
    --load-profile="$tmp/eqntott.vscp" --superblocks -- 1 \
    > /dev/null 2> "$tmp/vscc.err"
  decision_b="$(grep '^pdf-layout:' "$tmp/vscc.err")"
  if [ "$decision_a" != "$decision_b" ]; then
    echo "pdf-layout decision diverged across processes:" >&2
    echo "  pdf_workflow: $decision_a" >&2
    echo "  vscc:         $decision_b" >&2
    exit 1
  fi
  echo "handoff agreed: $decision_a"
  rm -rf "$tmp"
  # vscc --pdf trains the two-pass counter scheme on its run args. Given a
  # kernel's training scale it must reach the same measured layout
  # decision as pdf_workflow's counter-scheme experiment, which trains and
  # gates on that scale. gcc reads its scale argument, so training on a
  # prolog-less module would profile a garbage scale.
  local kernel scale
  for kernel in eqntott gcc; do
    echo "=== [$name] vscc --pdf vs pdf_workflow --counters on $kernel ==="
    tmp="$(mktemp -d)"
    "$dir/examples/example_pdf_workflow" --workload="$kernel" --counters \
      --emit-source="$tmp/$kernel.c" > "$tmp/workflow.out"
    decision_a="$(grep '^pdf-layout:' "$tmp/workflow.out")"
    scale="$(sed -n 's/^pass 1: .*(scale \([0-9]*\))$/\1/p' "$tmp/workflow.out")"
    "$dir/examples/example_vscc" "$tmp/$kernel.c" -O3 --pdf -- "$scale" \
      > /dev/null 2> "$tmp/vscc.err"
    decision_b="$(grep '^pdf-layout:' "$tmp/vscc.err")"
    if [ -z "$scale" ] || [ "$decision_a" != "$decision_b" ]; then
      echo "vscc --pdf diverged from pdf_workflow --counters on $kernel:" >&2
      echo "  pdf_workflow: $decision_a (scale '$scale')" >&2
      echo "  vscc:         $decision_b" >&2
      exit 1
    fi
    echo "vscc --pdf agreed on $kernel (scale $scale): $decision_a"
    rm -rf "$tmp"
  done
  # Cross-process artifact handoff through the compile service: one vscd
  # process persists a profile, a second feeds it back into a guided
  # compile (response bytes must agree at --threads=1 and 4), and vscc
  # loading the same profile must reach the identical measured layout
  # decision.
  echo "=== [$name] cross-process vscd smoke ==="
  local svc_layout cc_layout
  tmp="$(mktemp -d)"
  printf 'save-profile name=sp kernel=eqntott train=1 out=%s/eqntott.vscp\n' \
    "$tmp" > "$tmp/save.req"
  "$dir/examples/example_vscd" --requests="$tmp/save.req" \
    --out="$tmp/save.out"
  grep -q '^sp ok ' "$tmp/save.out"
  printf 'compile name=g kernel=eqntott level=O3 profile=%s/eqntott.vscp args=1\n' \
    "$tmp" > "$tmp/guided.req"
  "$dir/examples/example_vscd" --requests="$tmp/guided.req" --threads=1 \
    --out="$tmp/guided1.out"
  "$dir/examples/example_vscd" --requests="$tmp/guided.req" --threads=4 \
    --out="$tmp/guided4.out"
  cmp "$tmp/guided1.out" "$tmp/guided4.out"
  grep -q '^g ok ' "$tmp/guided1.out"
  svc_layout="$(sed -n 's/.* layout=\([a-z-]*\).*/\1/p' "$tmp/guided1.out")"
  "$dir/examples/example_pdf_workflow" --workload=eqntott \
    --emit-source="$tmp/eqntott.c" > /dev/null
  "$dir/examples/example_vscc" "$tmp/eqntott.c" -O3 \
    --load-profile="$tmp/eqntott.vscp" -- 1 \
    > /dev/null 2> "$tmp/vscc.err"
  cc_layout="$(sed -n 's/^pdf-layout: \([a-z-]*\)$/\1/p' "$tmp/vscc.err")"
  if [ -z "$svc_layout" ] || [ "$svc_layout" != "$cc_layout" ]; then
    echo "vscd/vscc layout decision diverged: '$svc_layout' vs '$cc_layout'" >&2
    exit 1
  fi
  echo "vscd handoff agreed: layout=$svc_layout"
  rm -rf "$tmp"
}

run_config default "$ROOT/build"
# Every field of BENCH_alias.json is deterministic (NoAlias rates, simulated
# cycles, alias-analysis build counts), so a fresh bench_alias run must
# reproduce the committed file byte for byte. The empty benchmark filter
# skips the timed builds; only the table runs.
echo "=== [default] BENCH_alias.json reproduces ==="
tmp="$(mktemp -d)"
"$ROOT/build/bench/bench_alias" --alias-out="$tmp/alias.json" \
  --benchmark_filter='^$' > /dev/null
cmp "$tmp/alias.json" "$ROOT/BENCH_alias.json"
# The same exact gate for the kernel matrix (simulated cycles and PDF
# layout decisions of 11 kernels x 3 machines x O0/Classical/Vliw/Vliw+PDF)
# and for the pipelining records (one per chain-shaped innermost loop): a
# change that moves a cycle count or an II commits the new file on purpose.
echo "=== [default] BENCH_workloads.json and BENCH_pipelining.json reproduce ==="
"$ROOT/build/bench/bench_workloads" --workloads-out="$tmp/workloads.json" \
  --benchmark_filter='^$' > /dev/null
cmp "$tmp/workloads.json" "$ROOT/BENCH_workloads.json"
"$ROOT/build/bench/bench_pipelining" --pipelining-out="$tmp/pipelining.json" \
  --benchmark_filter='^$' > /dev/null
cmp "$tmp/pipelining.json" "$ROOT/BENCH_pipelining.json"
rm -rf "$tmp"
# The benchmark (perfbench/) builds its own program against ../src, so a
# src/ API change can break it without failing any step above. Its
# self-test builds it into the git-ignored .bench_build and checks the
# generated programs, the metric table against BENCHMARK.json and the
# bit-for-bit repeatability of every exact metric (about 1.5 min).
echo "=== [default] benchmark self-test ==="
python3 "$ROOT/perfbench/selftest.py"
run_config sanitize "$ROOT/build-sanitize" -DVSC_SANITIZE=ON

echo "=== CI green: default + sanitize ==="
