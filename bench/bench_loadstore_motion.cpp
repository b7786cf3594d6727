//===- bench/bench_loadstore_motion.cpp - Experiment E7 -----------------------===//
///
/// The paper's speculative load/store motion example: a conditionally
/// executed load/increment/store of a TOC-anchored global inside a loop is
/// register-cached, shrinking the loop to a single AI after cleanup.
/// Sweeps the trip count.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Parser.h"
#include "opt/Classical.h"
#include "vliw/LimitedCombine.h"
#include "vliw/LoadStoreMotion.h"

using namespace vsc;

namespace {

std::unique_ptr<Module> buildKernel(unsigned Trips) {
  std::string Text = R"(
global a : 16
func main(0) {
entry:
  LTOC r4 = .a
)";
  Text += "  LI r32 = " + std::to_string(Trips) + "\n";
  Text += R"(  MTCTR r32
  LI r33 = 0
CL.0:
  AI r33 = r33, 1
  ANDI r34 = r33, 3
  CI cr0 = r34, 0
  BT CL.1, cr0.eq
body:
  L r3 = 12(r4) !a
  AI r3 = r3, 1
  ST 12(r4) !a = r3
CL.1:
  BCT CL.0
exit:
  L r3 = 12(r4) !a
  CALL print_int, 1
  RET
}
)";
  std::string Err;
  auto M = parseModule(Text, &Err);
  assert(M && "kernel must parse");
  return M;
}

void applyMotion(Module &M) {
  Function &F = *M.findFunction("main");
  FunctionAnalyses FA(F);
  speculativeLoadStoreMotion(F, M, FA);
  limitedCombine(F, FA);
  if (copyPropagate(F))
    FA.invalidate(PreservedAnalyses::structure());
  deadCodeElim(F, FA);
}

} // namespace

static void BM_MotionPass(benchmark::State &State) {
  for (auto _ : State) {
    auto M = buildKernel(1000);
    applyMotion(*M);
    benchmark::DoNotOptimize(M->instrCount());
  }
}
BENCHMARK(BM_MotionPass);

int main(int Argc, char **Argv) {
  std::printf("Speculative load/store motion out of loops (the paper's "
              "example)\n");
  std::printf("%8s %14s %14s %14s %14s\n", "trips", "cycles-before",
              "cycles-after", "dyn-before", "dyn-after");
  for (unsigned Trips : {100u, 1000u, 10000u}) {
    auto Before = buildKernel(Trips);
    auto After = buildKernel(Trips);
    applyMotion(*After);
    RunResult RB = simulate(*Before, rs6000());
    RunResult RA = simulate(*After, rs6000());
    checkSame(RB, RA, "loadstore-motion kernel");
    std::printf("%8u %14llu %14llu %14llu %14llu\n", Trips,
                static_cast<unsigned long long>(RB.Cycles),
                static_cast<unsigned long long>(RA.Cycles),
                static_cast<unsigned long long>(RB.DynInstrs),
                static_cast<unsigned long long>(RA.DynInstrs));
  }
  std::printf("(the loop body loses its load and store; only the AI on the "
              "register-cached copy remains)\n\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
