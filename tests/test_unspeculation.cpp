//===- tests/test_unspeculation.cpp - Unspeculation pass -------------------===//

#include "TestUtil.h"
#include "opt/Classical.h"
#include "vliw/Unspeculation.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// The paper's C example: flag=1; if (cond) { ...; flag=0; }
/// becomes: if (cond) { ...; flag=0; } else { flag=1; }.
const char *FlagExample = R"(
func main(1) {
entry:
  LI r40 = 1
  CI cr0 = r3, 0
  BT skip, cr0.eq
body:
  AI r41 = r3, 100
  LI r40 = 0
skip:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";

size_t blockOps(const Function &F, const char *Label, Opcode Op) {
  const BasicBlock *BB = F.findBlock(Label);
  if (!BB)
    return 0;
  size_t N = 0;
  for (const Instr &I : BB->instrs())
    if (I.Op == Op)
      ++N;
  return N;
}

} // namespace

TEST(Unspeculation, FlagExampleMovesToElseArm) {
  for (int64_t Cond : {0, 1}) {
    RunOptions Opts;
    Opts.Args = {Cond};
    auto M = transformPreservesBehaviour(
        FlagExample,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          unspeculate(F, FA);
        },
        Opts);
    ASSERT_TRUE(M);
    const Function *F = M->findFunction("main");
    // "LI r40 = 1" must no longer execute on the fall-through (cond!=0)
    // path: it leaves the entry block.
    EXPECT_EQ(blockOps(*F, "entry", Opcode::LI), 0u) << printFunction(*F);
  }
}

TEST(Unspeculation, FlagExamplePathlength) {
  // On the cond!=0 path the flag=1 instruction no longer executes.
  auto Before = parseOrDie(FlagExample);
  auto After = parseOrDie(FlagExample);
  Function &F = *After->findFunction("main");
  FunctionAnalyses FA(F);
  unspeculate(F, FA);
  RunOptions Opts;
  Opts.Args = {1};
  RunResult RB = simulate(*Before, rs6000(), Opts);
  RunResult RA = simulate(*After, rs6000(), Opts);
  EXPECT_EQ(RB.fingerprint(), RA.fingerprint());
  EXPECT_LT(RA.DynInstrs, RB.DynInstrs);
}

TEST(Unspeculation, PushesChainOfInstructions) {
  // A two-instruction computation used only on the taken side drains down
  // one instruction at a time.
  const char *Text = R"(
func main(1) {
entry:
  AI r40 = r3, 7
  MULI r41 = r40, 3
  CI cr0 = r3, 0
  BT use, cr0.eq
other:
  LI r3 = -1
  CALL print_int, 1
  RET
use:
  LR r3 = r41
  CALL print_int, 1
  RET
}
)";
  for (int64_t Cond : {0, 5}) {
    RunOptions Opts;
    Opts.Args = {Cond};
    auto M = transformPreservesBehaviour(
        Text,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          unspeculate(F, FA);
        },
        Opts);
    ASSERT_TRUE(M);
    const Function *F = M->findFunction("main");
    EXPECT_EQ(blockOps(*F, "entry", Opcode::AI), 0u) << printFunction(*F);
    EXPECT_EQ(blockOps(*F, "entry", Opcode::MULI), 0u) << printFunction(*F);
  }
}

TEST(Unspeculation, StaysWhenLiveOnBothSides) {
  const char *Text = R"(
func main(1) {
entry:
  AI r40 = r3, 7
  CI cr0 = r3, 0
  BT left, cr0.eq
right:
  LR r3 = r40
  CALL print_int, 1
  RET
left:
  AI r3 = r40, 1
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    unspeculate(F, FA);
  });
  ASSERT_TRUE(M);
  EXPECT_EQ(blockOps(*M->findFunction("main"), "entry", Opcode::AI), 1u);
}

TEST(Unspeculation, StaysWhenUsedBeforeBranch) {
  const char *Text = R"(
func main(1) {
entry:
  AI r40 = r3, 7
  C cr0 = r40, r3
  BT left, cr0.eq
right:
  LI r3 = 0
  CALL print_int, 1
  RET
left:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    unspeculate(F, FA);
  });
  ASSERT_TRUE(M);
  // The compare between the AI and the branch reads r40: rule 2b.
  EXPECT_EQ(blockOps(*M->findFunction("main"), "entry", Opcode::AI), 1u);
}

TEST(Unspeculation, PushesLoadOutOfLoopExit) {
  // The load feeds only post-loop code; it must leave the BCT loop through
  // the exit edge, shrinking the loop body.
  const char *Text = R"(
global g : 8 = [9 0 0 0]
func main(0) {
entry:
  LI r32 = 200
  MTCTR r32
  LTOC r33 = .g
  LI r36 = 0
loop:
  AI r36 = r36, 2
  L r40 = 0(r33) !g
  BCT loop
exit:
  A r3 = r36, r40
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    unspeculate(F, FA);
  });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  const BasicBlock *Loop = F->findBlock("loop");
  ASSERT_TRUE(Loop);
  for (const Instr &I : Loop->instrs())
    EXPECT_FALSE(I.isLoad()) << printFunction(*F);

  auto Before = parseOrDie(Text);
  RunResult RB = simulate(*Before, rs6000());
  RunResult RA = simulate(*M, rs6000());
  EXPECT_LT(RA.DynInstrs, RB.DynInstrs);
  EXPECT_LT(RA.Cycles, RB.Cycles);
}

TEST(Unspeculation, DoesNotPushAcrossBctBackEdge) {
  // r40 is live around the loop (used at the header side); it must not be
  // pushed onto the back edge.
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 10
  MTCTR r32
  LI r36 = 0
  LI r40 = 0
loop:
  A r36 = r36, r40
  AI r40 = r36, 1
  BCT loop
exit:
  LR r3 = r36
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    unspeculate(F, FA);
  });
  ASSERT_TRUE(M);
  const BasicBlock *Loop = M->findFunction("main")->findBlock("loop");
  ASSERT_TRUE(Loop);
  EXPECT_EQ(Loop->size(), 3u);
}

TEST(Unspeculation, ReorderRpoPreservesBehaviour) {
  // Blocks deliberately laid out in a scrambled order.
  const char *Text = R"(
func main(1) {
entry:
  CI cr0 = r3, 0
  BT b2, cr0.eq
  B b1
b3:
  LR r3 = r40
  CALL print_int, 1
  RET
b1:
  LI r40 = 10
  B b3
b2:
  LI r40 = 20
  B b3
}
)";
  for (int64_t Cond : {0, 1}) {
    RunOptions Opts;
    Opts.Args = {Cond};
    transformPreservesBehaviour(
        Text,
        [](Module &Mod) { reorderReversePostorder(*Mod.findFunction("main")); },
        Opts);
    transformPreservesBehaviour(
        Text,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          unspeculate(F, FA);
        },
        Opts);
  }
}

TEST(Unspeculation, VolatileLoadStays) {
  const char *Text = R"(
global v : 8 volatile
func main(1) {
entry:
  LTOC r33 = .v
  L r40 = 0(r33) !v !volatile
  CI cr0 = r3, 0
  BT use, cr0.eq
other:
  LI r3 = 0
  CALL print_int, 1
  RET
use:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    unspeculate(F, FA);
  });
  ASSERT_TRUE(M);
  EXPECT_EQ(blockOps(*M->findFunction("main"), "entry", Opcode::L), 1u);
}
