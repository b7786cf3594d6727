//===- bench/bench_combining.cpp - Experiment E9 -------------------------------===//
///
/// Limited combining: collapsible register copies and load-immediates are
/// folded into their users across basic-block boundaries, with duplication
/// past join points. Measures pathlength reduction on copy-dense kernels.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Parser.h"
#include "opt/Classical.h"
#include "vliw/LimitedCombine.h"

using namespace vsc;

namespace {

/// A loop whose body is the load/store-motion output shape: copy in, AI,
/// copy out — the paper's canonical combining food.
std::unique_ptr<Module> buildCopyLoop(unsigned Trips) {
  std::string Text = "func main(0) {\nentry:\n  LI r30 = " +
                     std::to_string(Trips) + "\n" + R"(  MTCTR r30
  LI r20 = 0
loop:
  LR r40 = r20
  AI r41 = r40, 1
  LR r20 = r41
  LI r42 = 3
  A r21 = r41, r42
  BCT loop
exit:
  A r3 = r20, r21
  CALL print_int, 1
  RET
}
)";
  std::string Err;
  auto M = parseModule(Text, &Err);
  assert(M && "kernel must parse");
  return M;
}

} // namespace

static void BM_CombinePass(benchmark::State &State) {
  for (auto _ : State) {
    auto M = buildCopyLoop(100);
    Function &F = *M->findFunction("main");
    FunctionAnalyses FA(F);
    limitedCombine(F, FA);
    benchmark::DoNotOptimize(M->instrCount());
  }
}
BENCHMARK(BM_CombinePass);

int main(int Argc, char **Argv) {
  std::printf("Limited combining on a copy-dense loop\n");
  std::printf("%8s %12s %12s %12s %12s %10s\n", "trips", "dyn-before",
              "dyn-after", "cyc-before", "cyc-after", "static");
  for (unsigned Trips : {100u, 1000u, 10000u}) {
    auto Before = buildCopyLoop(Trips);
    auto After = buildCopyLoop(Trips);
    Function &F = *After->findFunction("main");
    FunctionAnalyses FA(F);
    limitedCombine(F, FA);
    deadCodeElim(F, FA);
    RunResult RB = simulate(*Before, rs6000());
    RunResult RA = simulate(*After, rs6000());
    checkSame(RB, RA, "copy loop");
    std::printf("%8u %12llu %12llu %12llu %12llu %5zu->%zu\n", Trips,
                static_cast<unsigned long long>(RB.DynInstrs),
                static_cast<unsigned long long>(RA.DynInstrs),
                static_cast<unsigned long long>(RB.Cycles),
                static_cast<unsigned long long>(RA.Cycles),
                Before->instrCount(), After->instrCount());
  }
  std::printf("\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
