//===- tests/test_classical.cpp - Baseline scalar optimizations ------------===//

#include "TestUtil.h"
#include "opt/Classical.h"

#include <gtest/gtest.h>

using namespace vsc;

TEST(CopyProp, ForwardsWithinBlock) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r32 = 5
  LR r33 = r32
  AI r34 = r33, 1
  LR r3 = r34
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         copyPropagate(F);
                                         deadCodeElim(F, FA);
                                       });
  ASSERT_TRUE(M);
  // The chain collapses; only the physical argument setup copy (LR r3)
  // remains, since r3 is live into the call.
  EXPECT_EQ(countOps(*M->findFunction("main"), Opcode::LR), 1u);
}

TEST(CopyProp, StopsAtRedefinition) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r32 = 5
  LR r33 = r32
  LI r32 = 9
  LR r3 = r33
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         copyPropagate(F);
                                         deadCodeElim(F, FA);
                                       });
  ASSERT_TRUE(M);
}

TEST(CopyProp, CallClobbersMappings) {
  auto M = transformPreservesBehaviour(R"(
func id(1) {
entry:
  RET
}
func main(0) {
entry:
  LI r4 = 5
  LR r5 = r4
  LI r3 = 0
  CALL id, 1
  LR r3 = r5
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         copyPropagate(*Mod.findFunction("main"));
                                       });
  ASSERT_TRUE(M);
  // r5 = r4 must NOT be forwarded past the call (r4 is clobbered).
  const Function *F = M->findFunction("main");
  bool FoundUseOfR5 = false;
  for (const auto &BB : F->blocks())
    for (const Instr &I : BB->instrs())
      if (I.Op == Opcode::LR && I.Src1 == Reg::gpr(5))
        FoundUseOfR5 = true;
  EXPECT_TRUE(FoundUseOfR5);
}

TEST(Lvn, EliminatesRedundantExpressions) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r32 = 6
  LI r33 = 7
  A r34 = r32, r33
  A r35 = r32, r33
  A r3 = r34, r35
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         localValueNumbering(*Mod.findFunction("main"));
                                       });
  ASSERT_TRUE(M);
  EXPECT_EQ(countOps(*M->findFunction("main"), Opcode::A), 2u);
  EXPECT_EQ(countOps(*M->findFunction("main"), Opcode::LR), 1u);
}

TEST(Lvn, RedundantLoadsUntilStore) {
  auto M = transformPreservesBehaviour(R"(
global g : 8 = [3 0 0 0]
func main(0) {
entry:
  LTOC r32 = .g
  L r33 = 0(r32) !g
  L r34 = 0(r32) !g
  ST 4(r32) !g = r34
  L r35 = 0(r32) !g
  A r3 = r33, r35
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         localValueNumbering(*Mod.findFunction("main"));
                                       });
  ASSERT_TRUE(M);
  // Second load is redundant; the one after the store must stay.
  EXPECT_EQ(countOps(*M->findFunction("main"), Opcode::L), 2u);
}

TEST(Lvn, RespectsRedefinedOperands) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r32 = 6
  AI r33 = r32, 1
  LI r32 = 9
  AI r34 = r32, 1
  A r3 = r33, r34
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         localValueNumbering(*Mod.findFunction("main"));
                                       });
  ASSERT_TRUE(M);
  EXPECT_EQ(countOps(*M->findFunction("main"), Opcode::AI), 2u);
}

TEST(Dce, RemovesDeadChains) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r32 = 6
  AI r33 = r32, 1
  MUL r34 = r33, r33
  LI r3 = 1
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         deadCodeElim(F, FA);
                                       });
  ASSERT_TRUE(M);
  // The whole r32/r33/r34 chain dies.
  EXPECT_EQ(M->findFunction("main")->instrCount(), 3u);
}

TEST(Dce, KeepsStoresAndVolatiles) {
  auto M = transformPreservesBehaviour(R"(
global g : 8
func main(0) {
entry:
  LTOC r32 = .g
  LI r33 = 1
  ST 0(r32) !g = r33
  L r34 = 4(r32) !g !volatile
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         deadCodeElim(F, FA);
                                       });
  ASSERT_TRUE(M);
  EXPECT_EQ(countOps(*M->findFunction("main"), Opcode::ST), 1u);
  EXPECT_EQ(countOps(*M->findFunction("main"), Opcode::L), 1u);
}

TEST(Licm, HoistsInvariantAlu) {
  auto M = transformPreservesBehaviour(R"(
func main(0) {
entry:
  LI r32 = 100
  MTCTR r32
  LI r33 = 10
  LI r36 = 0
loop:
  AI r34 = r33, 5
  A r36 = r36, r34
  BCT loop
exit:
  LR r3 = r36
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         classicalLicm(F, FA);
                                       });
  ASSERT_TRUE(M);
  // "AI r34 = r33, 5" must leave the loop body.
  const Function *F = M->findFunction("main");
  const BasicBlock *Loop = F->findBlock("loop");
  ASSERT_TRUE(Loop);
  EXPECT_EQ(Loop->size(), 2u) << printFunction(*F);
}

TEST(Licm, RefusesConditionalLoad) {
  // The load sits under a conditional branch inside the loop; classical
  // LICM must not touch it (that is the speculative pass's job).
  auto M = transformPreservesBehaviour(R"(
global g : 8 = [7 0 0 0]
func main(0) {
entry:
  LI r32 = 100
  MTCTR r32
  LTOC r33 = .g
  LI r36 = 0
  LI r37 = 0
loop:
  AI r37 = r37, 1
  ANDI r38 = r37, 1
  CI cr0 = r38, 0
  BT skip, cr0.eq
body:
  L r34 = 0(r33) !g
  A r36 = r36, r34
skip:
  BCT loop
exit:
  LR r3 = r36
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         classicalLicm(F, FA);
                                       });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  const BasicBlock *Body = F->findBlock("body");
  ASSERT_TRUE(Body);
  EXPECT_EQ(countOps(*F, Opcode::L), 1u);
  // Load still in the conditional block.
  bool LoadInBody = false;
  for (const Instr &I : Body->instrs())
    if (I.Op == Opcode::L)
      LoadInBody = true;
  EXPECT_TRUE(LoadInBody) << printFunction(*F);
}

TEST(Licm, HoistsUnconditionalLoadWithNoAliasingStore) {
  auto M = transformPreservesBehaviour(R"(
global g : 8 = [7 0 0 0]
global out : 408
func main(0) {
entry:
  LI r32 = 100
  MTCTR r32
  LTOC r33 = .g
  LTOC r35 = .out
  LI r36 = 0
loop:
  L r34 = 0(r33) !g
  A r36 = r36, r34
  ST 0(r35) !out = r36
  AI r35 = r35, 4
  BCT loop
exit:
  LR r3 = r36
  CALL print_int, 1
  RET
}
)",
                                       [](Module &Mod) {
                                         Function &F = *Mod.findFunction("main");
                                         FunctionAnalyses FA(F);
                                         classicalLicm(F, FA);
                                       });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  const BasicBlock *Loop = F->findBlock("loop");
  ASSERT_TRUE(Loop);
  EXPECT_EQ(countOps(*F, Opcode::L), 1u);
  for (const Instr &I : Loop->instrs())
    EXPECT_FALSE(I.isLoad()) << printFunction(*F);
}

TEST(Classical, FullPipelineShrinksAndPreserves) {
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 100
  MTCTR r32
  LI r33 = 3
  LI r40 = 0
loop:
  LR r41 = r33
  AI r42 = r41, 4
  AI r43 = r41, 4
  A r44 = r42, r43
  A r40 = r40, r44
  MUL r45 = r44, r44
  BCT loop
exit:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";
  auto Before = parseOrDie(Text);
  size_t SizeBefore = Before->instrCount();
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    runClassicalPipeline(F, FA);
  });
  ASSERT_TRUE(M);
  EXPECT_LT(M->instrCount(), SizeBefore);
  // The dead MUL and the redundant AI disappear; the loop gets shorter.
  const Function *F = M->findFunction("main");
  EXPECT_EQ(countOps(*F, Opcode::MUL), 0u);
}

TEST(Classical, PipelineSpeedsUpLoop) {
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 1000
  MTCTR r32
  LI r33 = 3
  LI r40 = 0
loop:
  AI r42 = r33, 4
  A r40 = r40, r42
  BCT loop
exit:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";
  auto Before = parseOrDie(Text);
  RunResult RB = simulate(*Before, rs6000());
  auto After = parseOrDie(Text);
  Function &F = *After->findFunction("main");
  FunctionAnalyses FA(F);
  runClassicalPipeline(F, FA);
  RunResult RA = simulate(*After, rs6000());
  EXPECT_EQ(RB.fingerprint(), RA.fingerprint());
  EXPECT_LT(RA.Cycles, RB.Cycles);
  EXPECT_LT(RA.DynInstrs, RB.DynInstrs);
}
