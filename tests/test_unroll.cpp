//===- tests/test_unroll.cpp - Loop unrolling ------------------------------===//
///
/// Tests for the unrolling pass: BCT trip semantics across factors 2..4,
/// side exits keeping their targets, the MaxBodyInstrs refusal, and exact
/// store-stream preservation via the differential execution oracle.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "audit/PassAudit.h"
#include "cfg/Loops.h"
#include "oracle/ExecOracle.h"
#include "vliw/Unroll.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// BCT-counted loop with an argument-dependent trip count, so every
/// residue class modulo the unroll factor is reachable.
const char *CountedLoop = R"(
func main(1) {
entry:
  AI r32 = r3, 1
  MTCTR r32
  LI r34 = 0
  LI r35 = 1
loop:
  A r34 = r34, r35
  AI r35 = r35, 2
  BCT loop
exit:
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";

/// Loop with a data-dependent side exit ("break") in the middle of the
/// body; the side exit must keep its original target in every copy.
const char *SideExitLoop = R"(
func main(1) {
entry:
  LI r32 = 50
  MTCTR r32
  LI r34 = 0
loop:
  AI r34 = r34, 3
  C cr0 = r34, r3
  BT found, cr0.gt
latch:
  BCT loop
exit:
  LI r34 = -1
found:
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";

unsigned unrollMain(Module &M, unsigned Factor, size_t MaxBody = 64) {
  Function &F = *M.findFunction("main");
  FunctionAnalyses FA(F);
  return unrollInnermostLoops(F, FA, Factor, MaxBody);
}

} // namespace

TEST(Unroll, FactorsPreserveTripSemantics) {
  for (unsigned Factor : {2u, 3u, 4u}) {
    for (int64_t Arg : {0, 1, 2, 3, 5, 11}) {
      RunOptions Opts;
      Opts.Args = {Arg};
      auto M = transformPreservesBehaviour(
          CountedLoop,
          [&](Module &Mod) { EXPECT_EQ(unrollMain(Mod, Factor), 1u); },
          Opts);
      ASSERT_TRUE(M);
      const Function &F = *M->findFunction("main");
      // Each copy carries its own count-decrementing branch.
      EXPECT_EQ(countOps(F, Opcode::BCT), Factor) << printFunction(F);
    }
  }
}

TEST(Unroll, SideExitsKeepTargets) {
  for (int64_t Arg : {0, 10, 29, 1000}) {
    RunOptions Opts;
    Opts.Args = {Arg};
    auto M = transformPreservesBehaviour(
        SideExitLoop,
        [](Module &Mod) { EXPECT_EQ(unrollMain(Mod, 3), 1u); }, Opts);
    ASSERT_TRUE(M);
    const Function &F = *M->findFunction("main");
    // All three copies test the break condition.
    EXPECT_EQ(countOps(F, Opcode::BT), 3u) << printFunction(F);
  }
}

TEST(Unroll, OracleConfirmsExactStoreStream) {
  // Unrolling must replay the identical store sequence — strict trace
  // compare across the oracle's whole input battery.
  const char *Text = R"(
global a : 64
func main(1) {
entry:
  LTOC r4 = .a
  AI r32 = r3, 1
  MTCTR r32
  LI r34 = 0
loop:
  SLI r36 = r34, 2
  A r37 = r4, r36
  ST 0(r37) !a = r34
  AI r34 = r34, 1
  BCT loop
exit:
  L r3 = 4(r4) !a
  CALL print_int, 1
  RET
}
)";
  for (unsigned Factor : {2u, 4u}) {
    auto M = parseOrDie(Text);
    ASSERT_TRUE(M);
    auto Before = cloneFunction(*M->findFunction("main"));
    ASSERT_EQ(unrollMain(*M, Factor), 1u);
    ASSERT_EQ(verifyModule(*M), "") << printModule(*M);
    OracleOptions Opts;
    Opts.CompareStoreTrace = true;
    Opts.CompareCallTrace = true;
    OracleResult R = diffFunctions(*Before, *M->findFunction("main"), *M,
                                   "unroll", Opts);
    EXPECT_TRUE(R.ok()) << "factor " << Factor << "\n" << R.Report;
  }
}

TEST(Unroll, RefusesOversizedBody) {
  auto M = parseOrDie(CountedLoop);
  ASSERT_TRUE(M);
  Function &F = *M->findFunction("main");
  std::string BeforeText = printFunction(F);
  // The body has 3 instructions; a 2-instruction budget must refuse it.
  FunctionAnalyses FA(F);
  EXPECT_EQ(unrollInnermostLoops(F, FA, 2, /*MaxBodyInstrs=*/2), 0u);
  EXPECT_EQ(printFunction(F), BeforeText);
}

TEST(Unroll, RefusesFactorBelowTwo) {
  auto M = parseOrDie(CountedLoop);
  ASSERT_TRUE(M);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators D(G);
  LoopInfo LI(G, D);
  ASSERT_EQ(LI.innermostLoops().size(), 1u);
  EXPECT_FALSE(unrollLoop(F, *LI.innermostLoops().front(), 1));
  EXPECT_FALSE(unrollLoop(F, *LI.innermostLoops().front(), 0));
}
