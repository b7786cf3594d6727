//===- bench/bench_prolog_tailoring.cpp - Experiment E11 ----------------------===//
///
/// Prolog tailoring on the paper's two-branch procedure: per-path saves
/// against whole-procedure saves, across the distribution of which path
/// executes. The unwind invariant is checked on every variant.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Parser.h"
#include "vliw/PrologTailor.h"

using namespace vsc;

namespace {

/// Caller invokes the paper's `sub` Trips times; Bias selects how often
/// the r29/r31-killing side runs (percent).
std::unique_ptr<Module> buildCaller(unsigned Trips, unsigned Bias) {
  std::string Text = R"(
func sub(2) {
entry:
  CI cr0 = r3, 0
  BT L1, cr0.eq
fall:
  LI r29 = 100
  LI r31 = 200
  A r3 = r29, r31
  RET
L1:
  LI r28 = 7
  CI cr1 = r4, 0
  BT L2, cr1.eq
killr30:
  LI r30 = 50
  A r28 = r28, r30
L2:
  LR r3 = r28
  RET
}
func main(0) {
)";
  Text += "entry:\n  LI r20 = " + std::to_string(Trips) + "\n";
  Text += "  MTCTR r20\n  LI r21 = 0\n  LI r22 = 0\nloop:\n";
  Text += "  AI r21 = r21, 1\n";
  // r3 = (r21 % 100) < Bias ? 1 : 0 via masks: approximate with AND.
  Text += "  ANDI r23 = r21, 127\n  CI cr0 = r23, " +
          std::to_string((Bias * 128) / 100) + "\n";
  Text += R"(  LI r3 = 0
  BF cont, cr0.lt
fallside:
  LI r3 = 1
cont:
  ANDI r4 = r21, 1
  CALL sub, 2
  A r22 = r22, r3
  BCT loop
exit:
  LR r3 = r22
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

static void BM_TailorPass(benchmark::State &State) {
  for (auto _ : State) {
    auto M = buildCaller(10, 50);
    Function &Sub = *M->findFunction("sub");
    FunctionAnalyses FA(Sub);
    insertPrologEpilog(Sub, FA, true);
    benchmark::DoNotOptimize(M->instrCount());
  }
}
BENCHMARK(BM_TailorPass);

int main(int Argc, char **Argv) {
  std::printf("Prolog tailoring on the paper's procedure (2000 calls)\n");
  std::printf("%12s %14s %14s %12s %12s\n", "bias(fall%)", "dyn-classic",
              "dyn-tailored", "cyc-classic", "cyc-tailored");
  for (unsigned Bias : {10u, 50u, 90u}) {
    auto Classic = buildCaller(2000, Bias);
    auto Tailored = buildCaller(2000, Bias);
    for (auto &F : Classic->functions()) {
      FunctionAnalyses FA(*F);
      insertPrologEpilog(*F, FA, false);
    }
    for (auto &F : Tailored->functions()) {
      FunctionAnalyses FA(*F);
      insertPrologEpilog(*F, FA, true);
      std::string E = verifyUnwindInvariant(*F);
      if (!E.empty()) {
        std::fprintf(stderr, "unwind invariant: %s\n", E.c_str());
        return 1;
      }
    }
    RunResult RC = simulate(*Classic, rs6000());
    RunResult RT = simulate(*Tailored, rs6000());
    checkSame(RC, RT, "prolog kernel");
    std::printf("%12u %14llu %14llu %12llu %12llu\n", Bias,
                static_cast<unsigned long long>(RC.DynInstrs),
                static_cast<unsigned long long>(RT.DynInstrs),
                static_cast<unsigned long long>(RC.Cycles),
                static_cast<unsigned long long>(RT.Cycles));
  }
  std::printf("(tailored prologs save only the registers each path kills; "
              "the unwind invariant holds)\n\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
