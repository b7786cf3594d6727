//===- bench/BenchUtil.h - Shared benchmark plumbing ----------*- C++ -*-===//
///
/// \file
/// Helpers shared by the per-experiment benchmark binaries. Each binary
/// prints its paper-style table first, then runs any registered
/// google-benchmark timings (which measure the host-side cost of
/// simulation/compilation — useful for tracking this repository itself).
///
//===----------------------------------------------------------------------===//

#ifndef VSC_BENCH_BENCHUTIL_H
#define VSC_BENCH_BENCHUTIL_H

#include "sim/Simulator.h"
#include "support/Json.h" // JsonWriter, for the BENCH_*.json emitters
#include "vliw/Pipeline.h"
#include "workloads/Registry.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

namespace vsc {

/// Builds workload \p W at \p L.
inline std::unique_ptr<Module> buildAt(const Workload &W, OptLevel L,
                                       const MachineModel &Machine) {
  auto M = buildWorkload(W);
  PipelineOptions Opts;
  Opts.Machine = Machine;
  optimize(*M, L, Opts);
  return M;
}

/// Simulates \p M on the workload's reference input.
inline RunResult runRef(const Module &M, const Workload &W,
                        const MachineModel &Machine) {
  return simulate(M, Machine, workloadInput(W.RefScale));
}

/// Aborts loudly when two runs diverge (benchmarks must never report
/// numbers from broken transformations).
inline void checkSame(const RunResult &A, const RunResult &B,
                      const char *What) {
  if (A.fingerprint() != B.fingerprint()) {
    std::fprintf(stderr, "BEHAVIOUR MISMATCH in %s:\n  %s\n  %s\n", What,
                 A.fingerprint().c_str(), B.fingerprint().c_str());
    std::abort();
  }
}

inline double geomean(const std::vector<double> &Xs) {
  double S = 0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / static_cast<double>(Xs.size()));
}

/// Runs google-benchmark with the binary's registered timings.
inline int runRegisteredBenchmarks(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

} // namespace vsc

#endif // VSC_BENCH_BENCHUTIL_H
