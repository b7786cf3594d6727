//===- tests/test_vliw_packing.cpp - VLIW word view + join hoisting --------===//

#include "TestUtil.h"
#include "cfg/CfgEdit.h"
#include "vliw/Rename.h"
#include "vliw/Schedule.h"
#include "vliw/Unroll.h"
#include "workloads/LiKernel.h"

#include <gtest/gtest.h>

using namespace vsc;

TEST(VliwPacking, GroupsIndependentOpsIntoOneWord) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r40 = 1
  LI r41 = 2
  A r42 = r40, r41
  CI cr0 = r42, 3
  BT yes, cr0.eq
no:
  LI r3 = 0
  CALL print_int, 1
  RET
yes:
  LI r3 = 1
  CALL print_int, 1
  RET
}
)");
  const BasicBlock *Entry = M->findFunction("main")->entry();
  MachineModel MM = rs6000();
  auto Words = packIntoVliwWords(*Entry, MM);
  ASSERT_FALSE(Words.empty());
  // Single FXU: the two LIs cannot share a word; but the BT (branch unit)
  // shares a cycle with an FXU op.
  bool BranchShared = false;
  for (const VliwWord &W : Words) {
    unsigned Fxu = 0, Bu = 0;
    for (size_t Idx : W.Ops) {
      UnitKind U = MM.unitOf(Entry->instrs()[Idx]);
      Fxu += U == UnitKind::Fxu;
      Bu += U == UnitKind::Bu;
    }
    EXPECT_LE(Fxu, MM.FxuWidth);
    EXPECT_LE(Bu, MM.BuWidth);
    if (Fxu && Bu)
      BranchShared = true;
  }
  EXPECT_TRUE(BranchShared) << formatAsVliw(*Entry, MM);
}

TEST(VliwPacking, WiderMachinePacksDenser) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r40 = 1
  LI r41 = 2
  LI r42 = 3
  LI r43 = 4
  A r3 = r40, r41
  CALL print_int, 1
  RET
}
)");
  const BasicBlock *Entry = M->findFunction("main")->entry();
  auto Narrow = packIntoVliwWords(*Entry, rs6000());
  auto Wide = packIntoVliwWords(*Entry, power2());
  EXPECT_GT(Narrow.size(), Wide.size());
}

TEST(VliwPacking, PipelinedLiLoopPacksTight) {
  auto M = buildLiSearch(32);
  Function &F = *M->findFunction("xlygetvalue");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  renameInnermostLoops(F, FA);
  pipelineInnermostLoops(F, rs6000(), *M, FA);
  globalSchedule(F, rs6000(), *M, FA);
  straighten(F);
  // The scheduled loop should issue >1 op per word on average in its
  // biggest block.
  size_t BestSize = 0;
  double BestDensity = 0;
  for (const auto &BB : F.blocks()) {
    auto Words = packIntoVliwWords(*BB, rs6000());
    if (BB->size() >= BestSize && !Words.empty()) {
      BestSize = BB->size();
      BestDensity = static_cast<double>(BB->size()) / Words.size();
    }
  }
  EXPECT_GT(BestDensity, 1.0) << printFunction(F);
}

TEST(JoinHoist, BookkeepingCopiesIntoBothPredecessors) {
  // The join block's independent load can move above the join; the paper
  // requires a copy in each joining path.
  // Each arm has a load-use stall hole the hoisted join load can fill —
  // the profitability rule only accepts free slots.
  const char *Text = R"(
global g : 16 = [5 0 0 0 7 0 0 0 9 0 0 0]
func main(1) {
entry:
  LTOC r32 = .g
  CI cr0 = r3, 0
  BT left, cr0.eq
right:
  L r50 = 8(r32) !g
  AI r40 = r50, 1
  B join
left:
  L r51 = 8(r32) !g
  AI r40 = r51, 2
join:
  L r41 = 4(r32) !g
  A r3 = r40, r41
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
          globalSchedule(F, rs6000(), Mod, FA);
        },
        Opts);
    ASSERT_TRUE(M);
  }
  // Structure: the join's load moved up; both arms carry a copy.
  std::string Err;
  auto M = parseModule(Text, &Err);
  ASSERT_TRUE(M) << Err;
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  globalSchedule(F, rs6000(), *M, FA);
  const BasicBlock *Join = F.findBlock("join");
  ASSERT_TRUE(Join);
  size_t LoadsInJoin = 0;
  for (const Instr &I : Join->instrs())
    LoadsInJoin += I.isLoad();
  size_t CopiesInArms = 0;
  for (const char *L : {"right", "left"})
    for (const Instr &I : F.findBlock(L)->instrs())
      CopiesInArms += I.isLoad() && I.memDisp() == 4;
  EXPECT_EQ(LoadsInJoin, 0u) << printFunction(F);
  EXPECT_EQ(CopiesInArms, 2u) << "one bookkeeping copy per joining path\n"
                              << printFunction(F);
}
