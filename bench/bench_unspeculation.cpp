//===- bench/bench_unspeculation.cpp - Experiment E8 --------------------------===//
///
/// The paper's unspeculation examples: the flag=1/if(cond){...flag=0}
/// pattern moves the speculative store-equivalent to the else arm, and
/// speculative code inside a loop is pushed out through the exits. Sweeps
/// the probability of the path that makes the work useless.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Parser.h"
#include "vliw/Unspeculation.h"

using namespace vsc;

namespace {

/// flag kernel: per iteration, flag=1 then conditionally overwritten.
/// Mod controls how often the overwrite happens (the paper's "result not
/// always used" case).
std::unique_ptr<Module> buildFlagKernel(unsigned Trips, unsigned Mod) {
  std::string Text = "func main(0) {\nentry:\n  LI r30 = " +
                     std::to_string(Trips) + "\n  MTCTR r30\n  LI r31 = 0\n" +
                     "  LI r29 = 0\nloop:\n  AI r31 = r31, 1\n  LI r40 = 1\n" +
                     "  ANDI r32 = r31, " + std::to_string(Mod - 1) + "\n" +
                     R"(  CI cr0 = r32, 0
  BT keep, cr0.eq
set0:
  MULI r41 = r31, 3
  LI r40 = 0
keep:
  A r29 = r29, r40
  BCT loop
exit:
  LR r3 = r29
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

static void BM_UnspeculatePass(benchmark::State &State) {
  for (auto _ : State) {
    auto M = buildFlagKernel(1000, 4);
    Function &F = *M->findFunction("main");
    FunctionAnalyses FA(F);
    unspeculate(F, FA);
    benchmark::DoNotOptimize(M->instrCount());
  }
}
BENCHMARK(BM_UnspeculatePass);

int main(int Argc, char **Argv) {
  std::printf("Unspeculation (flag example; overwrite every Mod-th "
              "iteration)\n");
  std::printf("%6s %14s %14s %14s %14s\n", "Mod", "dyn-before",
              "dyn-after", "cycles-before", "cycles-after");
  for (unsigned Mod : {2u, 4u, 8u}) {
    auto Before = buildFlagKernel(4000, Mod);
    auto After = buildFlagKernel(4000, Mod);
    Function &F = *After->findFunction("main");
    FunctionAnalyses FA(F);
    unspeculate(F, FA);
    RunResult RB = simulate(*Before, rs6000());
    RunResult RA = simulate(*After, rs6000());
    checkSame(RB, RA, "flag kernel");
    std::printf("%6u %14llu %14llu %14llu %14llu\n", Mod,
                static_cast<unsigned long long>(RB.DynInstrs),
                static_cast<unsigned long long>(RA.DynInstrs),
                static_cast<unsigned long long>(RB.Cycles),
                static_cast<unsigned long long>(RA.Cycles));
  }
  std::printf("(LI r40=1 executes only on the path that needs it after the "
              "pass)\n\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
