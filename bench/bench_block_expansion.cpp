//===- bench/bench_block_expansion.cpp - Experiment E10 -----------------------===//
///
/// Basic block expansion: removing the RS/6000's untaken-conditional-
/// branch-then-taken-unconditional-branch stall by copying code from the
/// branch target. Sweeps the window size (the paper's knob that bounds
/// code expansion).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Parser.h"
#include "vliw/BlockExpansion.h"

using namespace vsc;

namespace {

std::unique_ptr<Module> buildStallLoop(unsigned Trips) {
  std::string Text = "func main(0) {\nentry:\n  LI r30 = " +
                     std::to_string(Trips) + "\n" + R"(  MTCTR r30
  LI r34 = 2000000
  LI r33 = 0
loop:
  AI r33 = r33, 1
  C cr0 = r33, r34
  BT never, cr0.eq
  B join
join:
  AI r35 = r35, 1
  AI r35 = r35, 3
  AI r35 = r35, 5
  AI r35 = r35, 7
  BCT loop
exit:
  A r3 = r33, r35
  CALL print_int, 1
  RET
never:
  LI r3 = -1
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

static void BM_ExpansionPass(benchmark::State &State) {
  for (auto _ : State) {
    auto M = buildStallLoop(100);
    Function &F = *M->findFunction("main");
    FunctionAnalyses FA(F);
    expandBasicBlocks(F, rs6000(), FA);
    benchmark::DoNotOptimize(M->instrCount());
  }
}
BENCHMARK(BM_ExpansionPass);

int main(int Argc, char **Argv) {
  std::printf("Basic block expansion (window-size sweep, 10000-trip stall "
              "loop)\n");
  std::printf("%8s %12s %14s %12s %10s\n", "window", "cycles",
              "branch-stall", "dyn", "static");
  auto Baseline = buildStallLoop(10000);
  RunResult RB = simulate(*Baseline, rs6000());
  std::printf("%8s %12llu %14llu %12llu %10zu\n", "none",
              static_cast<unsigned long long>(RB.Cycles),
              static_cast<unsigned long long>(RB.BranchStallCycles),
              static_cast<unsigned long long>(RB.DynInstrs),
              Baseline->instrCount());
  for (unsigned Window : {2u, 8u, 24u}) {
    auto M = buildStallLoop(10000);
    Function &F = *M->findFunction("main");
    FunctionAnalyses FA(F);
    expandBasicBlocks(F, rs6000(), FA, Window);
    RunResult R = simulate(*M, rs6000());
    checkSame(RB, R, "stall loop");
    std::printf("%8u %12llu %14llu %12llu %10zu\n", Window,
                static_cast<unsigned long long>(R.Cycles),
                static_cast<unsigned long long>(R.BranchStallCycles),
                static_cast<unsigned long long>(R.DynInstrs),
                M->instrCount());
  }
  std::printf("(a sufficient window removes the unconditional branch from "
              "the trace)\n\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
