//===- bench/bench_li_pipeline.cpp - Experiment E2 ---------------------------===//
///
/// Regenerates the paper's worked xlygetvalue figure: the SPEC li inner
/// loop at each compilation stage. Paper: 11 cycles/iteration original,
/// 14 cycles per 2 iterations after unroll+rename+global scheduling, 10
/// cycles per 2 iterations with software pipelining.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cfg/CfgEdit.h"
#include "vliw/Rename.h"
#include "vliw/Schedule.h"
#include "vliw/Unroll.h"
#include "workloads/LiKernel.h"

using namespace vsc;

namespace {

double cyclesPerIter(void (*Apply)(Module &)) {
  auto M1 = buildLiSearch(64);
  auto M2 = buildLiSearch(128);
  Apply(*M1);
  Apply(*M2);
  RunResult R1 = simulate(*M1, rs6000());
  RunResult R2 = simulate(*M2, rs6000());
  if (R1.Trapped || R2.Trapped || R1.Output != "1\n" ||
      R2.Output != "1\n") {
    std::fprintf(stderr, "li pipeline stage broke the kernel\n");
    std::abort();
  }
  return static_cast<double>(R2.Cycles - R1.Cycles) / 64.0;
}

void stageOriginal(Module &) {}

void stageGlobalSched(Module &M) {
  Function &F = *M.findFunction("xlygetvalue");
  FunctionAnalyses FA(F);
  globalSchedule(F, rs6000(), M, FA);
  straighten(F);
}

void stageUnrollRename(Module &M) {
  Function &F = *M.findFunction("xlygetvalue");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  renameInnermostLoops(F, FA);
  globalSchedule(F, rs6000(), M, FA);
  straighten(F);
}

void stageEps(Module &M) {
  Function &F = *M.findFunction("xlygetvalue");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  renameInnermostLoops(F, FA);
  pipelineInnermostLoops(F, rs6000(), M, FA);
  globalSchedule(F, rs6000(), M, FA);
  straighten(F);
}

} // namespace

static void BM_LiFullPipeline(benchmark::State &State) {
  for (auto _ : State) {
    auto M = buildLiSearch(128);
    stageEps(*M);
    RunResult R = simulate(*M, rs6000());
    benchmark::DoNotOptimize(R.Cycles);
  }
}
BENCHMARK(BM_LiFullPipeline);

int main(int Argc, char **Argv) {
  std::printf("xlygetvalue staged compilation (rs6000 model)\n");
  std::printf("%-34s %14s %14s\n", "stage", "cycles/iter", "paper");
  std::printf("%-34s %14.2f %14s\n", "original", cyclesPerIter(stageOriginal),
              "11");
  std::printf("%-34s %14.2f %14s\n", "global scheduling",
              cyclesPerIter(stageGlobalSched), "(14/2 = 7)");
  std::printf("%-34s %14.2f %14s\n", "unroll+rename+global sched",
              cyclesPerIter(stageUnrollRename), "(14/2 = 7)");
  std::printf("%-34s %14.2f %14s\n", "+ software pipelining (EPS)",
              cyclesPerIter(stageEps), "(10/2 = 5)");
  std::printf("\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
