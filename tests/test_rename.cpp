//===- tests/test_rename.cpp - Live-range renaming in loops ----------------===//
///
/// Tests for the paper's live-range renaming: non-final definitions in an
/// (unrolled) loop body get fresh names, and "for each register r that is
/// live at an edge that leaves the loop, a copy operation LR r=r is
/// inserted at that exit edge" — so the values reaching the loop's join
/// points stay correct on every exit path. Verified structurally and with
/// the differential execution oracle (strict store/call traces).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "audit/PassAudit.h"
#include "cfg/CfgEdit.h"
#include "cfg/Loops.h"
#include "oracle/ExecOracle.h"
#include "vliw/Rename.h"
#include "vliw/Unroll.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// Argument-dependent trip count: after unrolling, different arguments
/// leave through different copies' exit edges, so the join at `exit:`
/// receives its values from every renamed path.
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
  LR r3 = r35
  CALL print_int, 1
  RET
}
)";

const char *LoopWithCall = R"(
func main(1) {
entry:
  AI r32 = r3, 1
  MTCTR r32
loop:
  LI r3 = 1
  CALL print_int, 1
  BCT loop
exit:
  RET
}
)";

size_t countExitCopies(const Function &F) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    for (const Instr &I : BB->instrs())
      if (I.Op == Opcode::LR && I.Dst.isGpr() && I.Src1.isGpr() &&
          I.Dst != I.Src1)
        ++N;
  return N;
}

Loop *soleInnermostLoop(Function &F, Cfg &G, Dominators &D, LoopInfo &LI) {
  auto Inner = LI.innermostLoops();
  return Inner.size() == 1 ? Inner.front() : nullptr;
}

} // namespace

TEST(Rename, LoopChainAcceptsCountedLoop) {
  auto M = parseOrDie(CountedLoop);
  ASSERT_TRUE(M);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators D(G);
  LoopInfo LI(G, D);
  Loop *L = soleInnermostLoop(F, G, D, LI);
  ASSERT_TRUE(L);
  std::vector<BasicBlock *> Chain = loopChain(G, *L);
  ASSERT_EQ(Chain.size(), 1u);
  EXPECT_EQ(Chain.front(), L->Header);
}

TEST(Rename, LoopChainRefusesCalls) {
  // Renaming scope excludes call-bearing loops (Rename.h).
  auto M = parseOrDie(LoopWithCall);
  ASSERT_TRUE(M);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators D(G);
  LoopInfo LI(G, D);
  Loop *L = soleInnermostLoop(F, G, D, LI);
  ASSERT_TRUE(L);
  EXPECT_TRUE(loopChain(G, *L).empty());
}

TEST(Rename, UnrolledLoopGetsRenamedWithExitCopies) {
  for (int64_t Arg : {0, 1, 4, 7}) {
    RunOptions Opts;
    Opts.Args = {Arg};
    auto M = transformPreservesBehaviour(
        CountedLoop,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          unrollInnermostLoops(F, FA, 2);
          straighten(F);
          EXPECT_GE(renameInnermostLoops(F, FA), 1u);
        },
        Opts);
    ASSERT_TRUE(M);
    const Function &F = *M->findFunction("main");
    // The sum (r34) and stride (r35) are live out of the loop: the copy-0
    // exit edge needs bookkeeping copies for both.
    EXPECT_GE(countExitCopies(F), 2u) << printFunction(F);
    // Renaming introduced fresh names: the body's non-final defs no longer
    // all target r34/r35.
    EXPECT_GT(F.size(), 3u);
  }
}

TEST(Rename, JoinPointValuesCorrectOnEveryExitPath) {
  // The oracle compares the original against unroll+rename on a battery
  // that reaches both the odd-trip and the even-trip exit edge — the join
  // block must observe identical values either way. Strict store/call
  // traces are sound here: renaming preserves them exactly.
  auto M = parseOrDie(CountedLoop);
  ASSERT_TRUE(M);
  auto Before = cloneFunction(*M->findFunction("main"));
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  ASSERT_GE(renameInnermostLoops(F, FA), 1u);
  ASSERT_EQ(verifyModule(*M), "") << printModule(*M);
  OracleOptions Opts;
  Opts.CompareStoreTrace = true;
  Opts.CompareCallTrace = true;
  OracleResult R = diffFunctions(*Before, F, *M, "rename", Opts);
  EXPECT_TRUE(R.ok()) << R.Report;
}

TEST(Rename, RenamedStoresKeepAddressAndOrder) {
  // A memory-writing loop: renaming must not perturb the store stream.
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
  L r3 = 0(r4) !a
  CALL print_int, 1
  RET
}
)";
  auto M = parseOrDie(Text);
  ASSERT_TRUE(M);
  auto Before = cloneFunction(*M->findFunction("main"));
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  renameInnermostLoops(F, FA);
  ASSERT_EQ(verifyModule(*M), "") << printModule(*M);
  OracleOptions Opts;
  Opts.CompareStoreTrace = true;
  OracleResult R = diffFunctions(*Before, F, *M, "rename", Opts);
  EXPECT_TRUE(R.ok()) << R.Report;
}

TEST(Rename, ReturnsZeroWhenNothingToRename) {
  // A loop whose registers are all defined once and not live out needs no
  // renaming work at all — the pass must not invent changes.
  const char *Text = R"(
func main(1) {
entry:
  AI r32 = r3, 1
  MTCTR r32
loop:
  BCT loop
exit:
  LI r3 = 0
  RET
}
)";
  auto M = parseOrDie(Text);
  ASSERT_TRUE(M);
  Function &F = *M->findFunction("main");
  std::string BeforeText = printFunction(F);
  FunctionAnalyses FA(F);
  renameInnermostLoops(F, FA);
  ASSERT_EQ(verifyModule(*M), "") << printModule(*M);
  InterpResult R = interpret(*M);
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
}
