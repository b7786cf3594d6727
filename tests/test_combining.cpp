//===- tests/test_combining.cpp - Limited combining ------------------------===//

#include "TestUtil.h"
#include "opt/Classical.h"
#include "vliw/LimitedCombine.h"
#include "vliw/LoadStoreMotion.h"

#include <gtest/gtest.h>

using namespace vsc;

TEST(Combining, CollapsesCopyIntoUser) {
  // The paper's canonical pattern: LR r4=r5; A r6=r4,r7 -> A r6=r5,r7.
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r35 = 10
  LI r37 = 3
  LR r34 = r35
  A r36 = r34, r37
  LR r3 = r36
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         limitedCombine(F, FA);
                                       });
  ASSERT_TRUE(M);
  // Combining + coalescing collapse every copy; the immediate folds into
  // the add: the function shrinks to LI/AI/CALL/RET.
  const Function *F = M->findFunction("main");
  EXPECT_EQ(countOps(*F, Opcode::LR), 0u) << printFunction(*F);
  EXPECT_LE(F->instrCount(), 4u) << printFunction(*F);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "13\n");
}

TEST(Combining, FoldsImmediateIntoUsers) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r35 = 4
  LI r34 = 7
  A r36 = r34, r35
  MUL r37 = r35, r36
  A r3 = r36, r37
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         limitedCombine(F, FA);
                                       });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  // A + MUL fold to AI/MULI and the LI r35 disappears.
  EXPECT_EQ(countOps(*F, Opcode::AI), 1u) << printFunction(*F);
  EXPECT_EQ(countOps(*F, Opcode::MULI), 1u) << printFunction(*F);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "55\n");
}

TEST(Combining, WalksThroughUnconditionalBranches) {
  // The copy's last use sits two unconditional branches away.
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r35 = 21
  LR r34 = r35
  B mid
tail:
  A r3 = r36, r36
  CALL print_int, 1
  RET
mid:
  AI r36 = r34, 0
  B tail
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         limitedCombine(F, FA);
                                       });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  EXPECT_EQ(countOps(*F, Opcode::LR), 0u) << printFunction(*F);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "42\n");
}

TEST(Combining, DuplicatesAcrossJoinPoint) {
  // The paper's example shape: the walked path passes a label other code
  // joins at; combining must duplicate the sequence, keeping the original
  // for the joining path.
  const char *Text = R"(
func main(1) {
entry:
  CI cr0 = r3, 0
  BT other, cr0.eq
fast:
  LI r40 = 100
  LR r34 = r40
  B join
other:
  LI r34 = 7
  B join
join:
  AI r35 = r34, 1
  LR r3 = r35
  CALL print_int, 1
  RET
}
)";
  for (int64_t A : {0, 1}) {
    RunOptions Opts;
    Opts.Args = {A};
    auto M = transformPreservesBehaviour(
        Text,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          limitedCombine(F, FA);
        },
        Opts);
    ASSERT_TRUE(M);
  }
  // Structure: the fast path must no longer pass through the copy.
  std::string Err;
  auto M = parseModule(Text, &Err);
  ASSERT_TRUE(M) << Err;
  {
    Function &Main = *M->findFunction("main");
    FunctionAnalyses FA(Main);
    limitedCombine(Main, FA);
  }
  const Function *F = M->findFunction("main");
  const BasicBlock *Fast = F->findBlock("fast");
  ASSERT_TRUE(Fast);
  for (const Instr &I : Fast->instrs())
    EXPECT_NE(I.Op, Opcode::LR) << printFunction(*F);
}

TEST(Combining, StopsAtSourceRedefinition) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r35 = 5
  LR r34 = r35
  LI r35 = 99
  A r3 = r34, r35
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         limitedCombine(F, FA);
                                       });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "104\n");
}

TEST(Combining, RefusesWhenDestLiveAcrossConditional) {
  // r34 is used on both sides of a conditional branch; the walk cannot
  // follow both, and r34 is live past the stop point -> no transformation
  // beyond safety.
  const char *Text = R"(
func main(1) {
entry:
  LI r35 = 5
  LR r34 = r35
  LI r35 = 1
  CI cr0 = r3, 0
  BT a, cr0.eq
b:
  LR r3 = r34
  CALL print_int, 1
  RET
a:
  AI r3 = r34, 1
  CALL print_int, 1
  RET
}
)";
  for (int64_t A : {0, 1}) {
    RunOptions Opts;
    Opts.Args = {A};
    auto M = transformPreservesBehaviour(
        Text,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          limitedCombine(F, FA);
        },
        Opts);
    ASSERT_TRUE(M);
  }
}

TEST(Combining, ReducesPathlengthAfterLoadStoreMotion) {
  // The paper notes the two LRs left by load/store motion "will eventually
  // be eliminated by a later coalescing or limited combining stage, leaving
  // only an AI in the loop".
  const char *Text = R"(
global a : 16
func main(0) {
entry:
  LTOC r4 = .a
  LI r32 = 100
  MTCTR r32
loop:
  L r5 = 12(r4) !a
  AI r5 = r5, 1
  ST 12(r4) !a = r5
  BCT loop
exit:
  L r3 = 12(r4) !a
  CALL print_int, 1
  RET
}
)";
  auto Before = parseOrDie(Text);
  RunResult RB = simulate(*Before, rs6000());

  auto After = parseOrDie(Text);
  Function &F = *After->findFunction("main");
  FunctionAnalyses FA(F);
  speculativeLoadStoreMotion(F, *After, FA);
  limitedCombine(F, FA);
  deadCodeElim(F, FA);
  ASSERT_EQ(verifyModule(*After), "");
  RunResult RA = simulate(*After, rs6000());
  EXPECT_EQ(RB.fingerprint(), RA.fingerprint());
  // The loop body should now be a lone AI on the cached register plus the
  // BCT: pathlength drops sharply (from 4 to 2 instructions/iteration).
  const BasicBlock *Loop = F.findBlock("loop");
  ASSERT_TRUE(Loop);
  EXPECT_EQ(Loop->size(), 2u) << printFunction(F);
  EXPECT_LT(RA.DynInstrs, RB.DynInstrs);
}
