//===- tests/test_block_expansion.cpp - Basic block expansion --------------===//

#include "TestUtil.h"
#include "vliw/BlockExpansion.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// The paper's motivating shape: an untaken conditional branch chased by a
/// taken unconditional branch, inside a hot loop.
const char *StallLoop = R"(
func main(0) {
entry:
  LI r32 = 1000
  MTCTR r32
  LI r34 = 2000
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

} // namespace

TEST(BlockExpansion, RemovesUncondBranchStall) {
  auto Before = parseOrDie(StallLoop);
  RunResult RB = simulate(*Before, rs6000());
  ASSERT_FALSE(RB.Trapped) << RB.TrapMsg;
  EXPECT_GT(RB.BranchStallCycles, 2500u) << "the stall must exist first";

  auto After = transformPreservesBehaviour(StallLoop, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    expandBasicBlocks(F, rs6000(), FA);
  });
  ASSERT_TRUE(After);
  RunResult RA = simulate(*After, rs6000());
  EXPECT_LT(RA.BranchStallCycles, RB.BranchStallCycles / 2)
      << printFunction(*After->findFunction("main"));
  EXPECT_LT(RA.Cycles, RB.Cycles);
}

TEST(BlockExpansion, SkipsWellSeparatedBranches) {
  const char *Separated = R"(
func main(0) {
entry:
  LI r32 = 10
  MTCTR r32
loop:
  AI r33 = r33, 1
  AI r33 = r33, 1
  AI r33 = r33, 1
  AI r33 = r33, 1
  AI r33 = r33, 1
  B join
join:
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  std::string Err;
  auto M = parseModule(Separated, &Err);
  ASSERT_TRUE(M) << Err;
  size_t Before = M->instrCount();
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  expandBasicBlocks(F, rs6000(), FA);
  // Straightening may simplify, but no code may be *added*.
  EXPECT_LE(M->instrCount(), Before);
}

TEST(BlockExpansion, StopsBeforeConditionalBranchWhenWindowRunsOut) {
  // The target's code reaches a conditional branch before the objective is
  // met; the stopping point is the instruction before it.
  const char *Text = R"(
func main(1) {
entry:
  CI cr0 = r3, 99
  BT never, cr0.eq
  B target
never:
  LI r3 = -1
  CALL print_int, 1
  RET
target:
  AI r40 = r3, 1
  CI cr1 = r40, 50
  BT big, cr1.gt
small:
  LI r3 = 1
  CALL print_int, 1
  RET
big:
  LI r3 = 2
  CALL print_int, 1
  RET
}
)";
  for (int64_t A : {10, 60}) {
    RunOptions Opts;
    Opts.Args = {A};
    auto M = transformPreservesBehaviour(
        Text,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          expandBasicBlocks(F, rs6000(), FA);
        },
        Opts);
    ASSERT_TRUE(M);
  }
}

TEST(BlockExpansion, CopiesAcrossConditionalBranches) {
  // The search passes a conditional branch and keeps gathering; the copied
  // region then contains that branch with its original target.
  const char *Text = R"(
func main(1) {
entry:
  CI cr0 = r3, 99
  BT never, cr0.eq
  B target
never:
  LI r3 = -1
  CALL print_int, 1
  RET
target:
  AI r40 = r3, 1
  CI cr1 = r40, 50
  BT big, cr1.gt
small:
  AI r41 = r40, 2
  AI r41 = r41, 3
  AI r41 = r41, 4
  AI r41 = r41, 5
  AI r41 = r41, 6
  LR r3 = r41
  CALL print_int, 1
  RET
big:
  LI r3 = 2
  CALL print_int, 1
  RET
}
)";
  for (int64_t A : {10, 60, 99}) {
    RunOptions Opts;
    Opts.Args = {A};
    auto M = transformPreservesBehaviour(
        Text,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          expandBasicBlocks(F, rs6000(), FA);
        },
        Opts);
    ASSERT_TRUE(M);
  }
}

TEST(BlockExpansion, WindowBoundsCodeGrowth) {
  auto Grow = [](unsigned Window) {
    std::string Err;
    auto M = parseModule(StallLoop, &Err);
    EXPECT_TRUE(M) << Err;
    Function &F = *M->findFunction("main");
    FunctionAnalyses FA(F);
    expandBasicBlocks(F, rs6000(), FA, Window);
    return M->instrCount();
  };
  std::string Err;
  auto Orig = parseModule(StallLoop, &Err);
  size_t Base = Orig->instrCount();
  // A window of 0 forbids any expansion; bigger windows may grow code but
  // within reason.
  EXPECT_EQ(Grow(0), Base);
  EXPECT_LE(Grow(24), Base + 24);
}
