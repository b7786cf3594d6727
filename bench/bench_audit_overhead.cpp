//===- bench/bench_audit_overhead.cpp - PassAudit compile-time cost ---------===//
///
/// Measures the compile-time overhead of the semantic pass audits on the
/// SPECint workload table: optimize() at OptLevel::Vliw with
/// AuditLevel::Off vs Boundaries (the level the fuzz suite runs at) vs
/// Full (a checkpoint after every sub-pass). The audits are a debugging /
/// CI net, so the interesting number is what Boundaries costs if left on.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>
#include <chrono>

using namespace vsc;

namespace {

/// One audited compile of every workload at Full level, merging the
/// per-stage alias-query deltas PassAudit charged at its checkpoints.
/// Shows which passes actually consume the disambiguator and how often
/// each gets a NoAlias answer.
void printAliasQueryTable() {
  std::vector<std::pair<std::string, AliasQueryCounters>> Stages;
  for (const Workload &W : specWorkloads()) {
    auto M = buildWorkload(W);
    PipelineOptions Opts;
    Opts.Audit = AuditLevel::Full;
    PipelineStats Stats;
    Opts.Stats = &Stats;
    optimize(*M, OptLevel::Vliw, Opts);
    for (const auto &E : Stats.AliasQueriesByStage) {
      auto It = std::find_if(Stages.begin(), Stages.end(),
                             [&](const auto &S) { return S.first == E.first; });
      if (It == Stages.end()) {
        Stages.push_back(E);
      } else {
        It->second += E.second;
      }
    }
  }
  std::printf("Alias queries and analysis builds by pipeline stage (all "
              "six kernels, Full audit)\n");
  std::printf("%-16s %10s %10s %8s %8s %8s %8s %10s\n", "Stage", "queries",
              "noalias", "must", "may", "no%", "builds", "cells");
  AliasQueryCounters Tot;
  for (const auto &S : Stages) {
    const AliasQueryCounters &C = S.second;
    Tot += C;
    std::printf("%-16s %10llu %10llu %8llu %8llu %7.1f%% %8llu %10llu\n",
                S.first.c_str(),
                static_cast<unsigned long long>(C.Queries),
                static_cast<unsigned long long>(C.NoAlias),
                static_cast<unsigned long long>(C.MustAlias),
                static_cast<unsigned long long>(C.MayAlias),
                C.Queries ? 100.0 * static_cast<double>(C.NoAlias) /
                                static_cast<double>(C.Queries)
                          : 0.0,
                static_cast<unsigned long long>(C.Builds),
                static_cast<unsigned long long>(C.StateCells));
  }
  std::printf("%-16s %10llu %10llu %8s %8s %7.1f%% %8llu %10llu\n\n",
              "total", static_cast<unsigned long long>(Tot.Queries),
              static_cast<unsigned long long>(Tot.NoAlias), "", "",
              Tot.Queries ? 100.0 * static_cast<double>(Tot.NoAlias) /
                                static_cast<double>(Tot.Queries)
                          : 0.0,
              static_cast<unsigned long long>(Tot.Builds),
              static_cast<unsigned long long>(Tot.StateCells));
}

double compileSeconds(const Workload &W, AuditLevel Audit, int Reps = 5) {
  using Clock = std::chrono::steady_clock;
  double Best = 1e30;
  for (int R = 0; R != Reps; ++R) {
    auto M = buildWorkload(W);
    PipelineOptions Opts;
    Opts.Audit = Audit;
    auto T0 = Clock::now();
    optimize(*M, OptLevel::Vliw, Opts);
    auto T1 = Clock::now();
    Best = std::min(Best,
                    std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

} // namespace

static void BM_VliwAuditBoundaries(benchmark::State &State) {
  const Workload &W = specWorkloads()[static_cast<size_t>(State.range(0))];
  for (auto _ : State) {
    auto M = buildWorkload(W);
    PipelineOptions Opts;
    Opts.Audit = AuditLevel::Boundaries;
    optimize(*M, OptLevel::Vliw, Opts);
    benchmark::DoNotOptimize(M->instrCount());
  }
  State.SetLabel(W.Name);
}
BENCHMARK(BM_VliwAuditBoundaries)->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

int main(int Argc, char **Argv) {
  std::printf("PassAudit compile-time overhead on the VLIW pipeline "
              "(best of 5)\n");
  std::printf("%-10s %10s %14s %12s %10s %10s\n", "Benchmark", "off(ms)",
              "boundaries(ms)", "full(ms)", "bnd ovh", "full ovh");
  std::vector<double> BndRatios, FullRatios;
  for (const Workload &W : specWorkloads()) {
    double Off = compileSeconds(W, AuditLevel::Off);
    double Bnd = compileSeconds(W, AuditLevel::Boundaries);
    double Full = compileSeconds(W, AuditLevel::Full);
    BndRatios.push_back(Bnd / Off);
    FullRatios.push_back(Full / Off);
    std::printf("%-10s %10.2f %14.2f %12.2f %9.0f%% %9.0f%%\n",
                W.Name.c_str(), Off * 1e3, Bnd * 1e3, Full * 1e3,
                (Bnd / Off - 1.0) * 100.0, (Full / Off - 1.0) * 100.0);
  }
  std::printf("%-10s %10s %14s %12s %9.0f%% %9.0f%%\n\n", "geomean", "", "",
              "", (geomean(BndRatios) - 1.0) * 100.0,
              (geomean(FullRatios) - 1.0) * 100.0);
  printAliasQueryTable();
  return runRegisteredBenchmarks(Argc, Argv);
}
