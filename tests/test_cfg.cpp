//===- tests/test_cfg.cpp - CFG layer: edges, dominators, loops, editing ---===//

#include "TestUtil.h"
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"
#include "pm/PassManager.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// A diamond inside a loop with a side exit:
///   entry -> head -> (left|right) -> join -> head | exit
const char *LoopDiamond = R"(
func main(1) {
entry:
  LI r32 = 5
  LI r33 = 0
head:
  AI r33 = r33, 1
  ANDI r34 = r33, 1
  CI cr0 = r34, 0
  BT left, cr0.eq
right:
  AI r35 = r35, 2
  B join
left:
  AI r35 = r35, 3
join:
  C cr1 = r33, r32
  BF head, cr1.eq
exit:
  LR r3 = r35
  CALL print_int, 1
  RET
}
)";

} // namespace

TEST(Cfg, SuccessorsAndPredecessors) {
  auto M = parseOrDie(LoopDiamond);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  BasicBlock *Head = F.findBlock("head");
  BasicBlock *Right = F.findBlock("right");
  BasicBlock *Left = F.findBlock("left");
  BasicBlock *Join = F.findBlock("join");

  ASSERT_EQ(G.succs(Head).size(), 2u);
  EXPECT_TRUE(G.succs(Head)[0].IsTaken);
  EXPECT_EQ(G.succs(Head)[0].To, Left);
  EXPECT_FALSE(G.succs(Head)[1].IsTaken);
  EXPECT_EQ(G.succs(Head)[1].To, Right);

  ASSERT_EQ(G.preds(Join).size(), 2u);
  ASSERT_EQ(G.preds(Head).size(), 2u); // entry fallthrough + join back edge
  EXPECT_EQ(G.succs(Right).size(), 1u);
  EXPECT_EQ(G.succs(Right)[0].To, Join);
}

TEST(Cfg, RpoVisitsEveryReachableBlockOnce) {
  auto M = parseOrDie(LoopDiamond);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  EXPECT_EQ(G.rpo().size(), F.size());
  EXPECT_EQ(G.rpo().front(), F.entry());
  // RPO index of a block is smaller than that of blocks it dominates.
  EXPECT_LT(G.rpoIndex(F.findBlock("head")), G.rpoIndex(F.findBlock("join")));
}

TEST(Cfg, UnreachableBlocksExcluded) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r3 = 0
  RET
island:
  LI r3 = 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  Cfg G(F);
  EXPECT_FALSE(G.isReachable(F.findBlock("island")));
  EXPECT_EQ(removeUnreachableBlocks(F), 1u);
  EXPECT_EQ(F.size(), 1u);
}

TEST(Dominators, LoopDiamondRelations) {
  auto M = parseOrDie(LoopDiamond);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators Dom(G);
  BasicBlock *Entry = F.entry();
  BasicBlock *Head = F.findBlock("head");
  BasicBlock *Left = F.findBlock("left");
  BasicBlock *Right = F.findBlock("right");
  BasicBlock *Join = F.findBlock("join");
  BasicBlock *Exit = F.findBlock("exit");

  EXPECT_TRUE(Dom.dominates(Entry, Exit));
  EXPECT_TRUE(Dom.dominates(Head, Join));
  EXPECT_TRUE(Dom.dominates(Head, Exit));
  EXPECT_FALSE(Dom.dominates(Left, Join));
  EXPECT_FALSE(Dom.dominates(Right, Join));
  EXPECT_EQ(Dom.idom(Join), Head);
  EXPECT_EQ(Dom.idom(Left), Head);
  EXPECT_EQ(Dom.idom(Head), Entry);
  EXPECT_EQ(Dom.idom(Entry), nullptr);
  // Reflexive.
  EXPECT_TRUE(Dom.dominates(Join, Join));
}

TEST(Dominators, PostDominators) {
  auto M = parseOrDie(LoopDiamond);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators PDom(G, /*Post=*/true);
  BasicBlock *Join = F.findBlock("join");
  BasicBlock *Left = F.findBlock("left");
  BasicBlock *Exit = F.findBlock("exit");
  EXPECT_TRUE(PDom.dominates(Join, Left));
  EXPECT_TRUE(PDom.dominates(Exit, Join));
  EXPECT_FALSE(PDom.dominates(Left, Join));
}

TEST(Loops, DetectsLoopShape) {
  auto M = parseOrDie(LoopDiamond);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators Dom(G);
  LoopInfo LI(G, Dom);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = *LI.loops()[0];
  EXPECT_EQ(L.Header, F.findBlock("head"));
  EXPECT_EQ(L.Blocks.size(), 4u);
  EXPECT_TRUE(L.contains(F.findBlock("left")));
  EXPECT_TRUE(L.contains(F.findBlock("join")));
  EXPECT_FALSE(L.contains(F.entry()));
  EXPECT_FALSE(L.contains(F.findBlock("exit")));
  ASSERT_EQ(L.Latches.size(), 1u);
  EXPECT_EQ(L.Latches[0], F.findBlock("join"));
  ASSERT_EQ(L.Exits.size(), 1u);
  EXPECT_EQ(L.Exits[0].To, F.findBlock("exit"));
  EXPECT_TRUE(L.isInnermost());
}

namespace {

/// Inserts a non-terminator just before every conditional branch, erases
/// the first instruction of the block after it, and inserts one at the
/// top of the loop exit: edits that leave every terminator suffix alone.
void editNonTerminators(Function &F) {
  for (auto &BB : F.blocks()) {
    size_t Term = BB->firstTerminatorIdx();
    if (Term == BB->size() || !BB->instrs()[Term].isCondBranch())
      continue;
    Instr I;
    I.Op = Opcode::LI;
    I.Dst = Reg::gpr(60);
    I.Imm = 1;
    F.assignId(I);
    BB->instrs().insert(BB->instrs().begin() + static_cast<long>(Term), I);
  }
  BasicBlock *Right = F.findBlock("right");
  Right->instrs().erase(Right->instrs().begin());
  Instr J;
  J.Op = Opcode::LI;
  J.Dst = Reg::gpr(61);
  J.Imm = 2;
  F.assignId(J);
  BasicBlock *Exit = F.findBlock("exit");
  Exit->instrs().insert(Exit->instrs().begin(), J);
}

class NonTerminatorEditPass : public FunctionPass {
public:
  const char *name() const override { return "non-terminator-edit"; }
  PreservedAnalyses run(Function &F, Module &, FunctionAnalyses &) override {
    editNonTerminators(F);
    return PreservedAnalyses::structure();
  }
};

} // namespace

/// An edge names its branch by position within the terminator suffix, so
/// inserting and erasing non-terminators (even just before a conditional
/// branch) keeps every edge, dominator and loop: the cached views equal
/// fresh builds, and a checking pass manager accepts a pass that makes
/// such edits and claims structure().
TEST(Cfg, NonTerminatorEditsKeepEdgesDominatorsAndLoops) {
  auto M = parseOrDie(LoopDiamond);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  const Cfg &G = FA.cfg();
  (void)FA.dominators();
  (void)FA.postDominators();
  const LoopInfo &LI = FA.loops();
  editNonTerminators(F);
  EXPECT_EQ(FA.verifyCache(), "");
  Cfg Fresh(F);
  EXPECT_TRUE(G.edges() == Fresh.edges());
  for (const CfgEdge &E : G.edges())
    if (E.IsTaken)
      EXPECT_EQ(E.branch().Target, E.To->label());
  ASSERT_EQ(LI.loops().size(), 1u);
  ASSERT_EQ(LI.loops()[0]->Exits.size(), 1u);
  const CfgEdge &Exit = LI.loops()[0]->Exits[0];
  EXPECT_TRUE(Exit.IsTaken == false || Exit.branch().Target == "exit");

  auto M2 = parseOrDie(LoopDiamond);
  Function &F2 = *M2->findFunction("main");
  FunctionPassManager FPM;
  FPM.setCheckAnalyses(true);
  FPM.add(std::make_unique<NonTerminatorEditPass>());
  FunctionAnalyses FA2(F2);
  (void)FA2.loops();
  (void)FA2.postDominators();
  EXPECT_EQ(FPM.run(F2, *M2, FA2), "");
  EXPECT_TRUE(FA2.hasCached(AnalysisKind::Loops));
  EXPECT_TRUE(FA2.hasCached(AnalysisKind::PostDominators));
}

TEST(Loops, NestingDepths) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = 3
  MTCTR r32
outer:
  LI r33 = 2
  LR r40 = r33
inner:
  SI r40 = r40, 1
  CI cr0 = r40, 0
  BF inner, cr0.eq
latch:
  BCT outer
exit:
  LI r3 = 0
  RET
}
)");
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators Dom(G);
  LoopInfo LI(G, Dom);
  ASSERT_EQ(LI.loops().size(), 2u);
  Loop *Inner = LI.loopFor(F.findBlock("inner"));
  ASSERT_TRUE(Inner);
  EXPECT_EQ(Inner->Depth, 2u);
  EXPECT_EQ(Inner->Header, F.findBlock("inner"));
  ASSERT_TRUE(Inner->Parent);
  EXPECT_EQ(Inner->Parent->Header, F.findBlock("outer"));
  EXPECT_EQ(Inner->Parent->Depth, 1u);
  EXPECT_FALSE(Inner->Parent->isInnermost());
  EXPECT_EQ(LI.innermostLoops().size(), 1u);
  EXPECT_EQ(LI.topLevelLoops().size(), 1u);
}

TEST(CfgEdit, SplitFallthroughEdge) {
  auto M = parseOrDie(LoopDiamond);
  Function &F = *M->findFunction("main");
  Cfg G(F);
  // head -> right is the fallthrough edge.
  const CfgEdge *E = nullptr;
  for (const CfgEdge &Edge : G.succs(F.findBlock("head")))
    if (!Edge.IsTaken)
      E = &Edge;
  ASSERT_TRUE(E);
  size_t SizeBefore = F.size();
  BasicBlock *S = splitEdge(F, *E);
  EXPECT_EQ(F.size(), SizeBefore + 1);
  // The new block sits between head and right in layout.
  EXPECT_EQ(F.indexOf(S), F.indexOf(F.findBlock("head")) + 1);
  EXPECT_EQ(verifyFunction(F), "");
  RunOptions Opts;
  Opts.Args = {0};
  RunResult R = simulate(*M, rs6000(), Opts);
  EXPECT_EQ(R.Output, "12\n"); // odd iters +2 (x3), even iters +3 (x2)
}

TEST(CfgEdit, SplitTakenEdge) {
  auto M = parseOrDie(LoopDiamond);
  auto Ref = parseOrDie(LoopDiamond);
  RunResult RR = simulate(*Ref, rs6000());
  Function &F = *M->findFunction("main");
  Cfg G(F);
  const CfgEdge *E = nullptr;
  for (const CfgEdge &Edge : G.succs(F.findBlock("head")))
    if (Edge.IsTaken)
      E = &Edge;
  ASSERT_TRUE(E);
  splitEdge(F, *E);
  EXPECT_EQ(verifyFunction(F), "");
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(RR.fingerprint(), R.fingerprint());
}

TEST(CfgEdit, EnsurePreheaderCreatesOne) {
  auto M = parseOrDie(LoopDiamond);
  auto Ref = parseOrDie(LoopDiamond);
  RunResult RR = simulate(*Ref, rs6000());
  Function &F = *M->findFunction("main");
  Cfg G(F);
  Dominators Dom(G);
  LoopInfo LI(G, Dom);
  BasicBlock *PH = ensurePreheader(F, G, *LI.loops()[0]);
  ASSERT_TRUE(PH);
  // The preheader's single successor is the header, and the only
  // out-of-loop predecessor of the header is the preheader.
  Cfg G2(F);
  ASSERT_EQ(G2.succs(PH).size(), 1u);
  EXPECT_EQ(G2.succs(PH)[0].To, F.findBlock("head"));
  EXPECT_EQ(verifyFunction(F), "");
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(RR.fingerprint(), R.fingerprint());
}

TEST(CfgEdit, LayoutBlocksPreservesSemantics) {
  auto M = parseOrDie(LoopDiamond);
  auto Ref = parseOrDie(LoopDiamond);
  RunResult RR = simulate(*Ref, rs6000());
  Function &F = *M->findFunction("main");
  // Reverse everything except the entry.
  std::vector<BasicBlock *> Order;
  Order.push_back(F.entry());
  for (size_t I = F.size(); I-- > 1;)
    Order.push_back(F.blocks()[I].get());
  layoutBlocks(F, Order);
  EXPECT_EQ(verifyFunction(F), "");
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(RR.fingerprint(), R.fingerprint());
  // And straightening afterwards keeps it correct too.
  straighten(F);
  EXPECT_EQ(verifyFunction(F), "");
  RunResult R2 = simulate(*M, rs6000());
  EXPECT_EQ(RR.fingerprint(), R2.fingerprint());
}

TEST(CfgEdit, StraightenMergesChains) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = 1
  B b1
b1:
  AI r32 = r32, 2
  B b2
b2:
  AI r32 = r32, 3
  LR r3 = r32
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  straighten(F);
  EXPECT_EQ(F.size(), 1u);
  EXPECT_EQ(countOps(F, Opcode::B), 0u);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "6\n");
}

TEST(CfgEdit, StraightenInvertsBranchToFallthrough) {
  auto M = parseOrDie(R"(
func main(1) {
entry:
  CI cr0 = r3, 0
  BT next, cr0.eq
  B other
next:
  LI r3 = 1
  CALL print_int, 1
  RET
other:
  LI r3 = 2
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  straighten(F);
  EXPECT_EQ(verifyFunction(F), "");
  // The BT-to-fallthrough + B pair becomes a single inverted branch.
  EXPECT_EQ(countOps(F, Opcode::B), 0u);
  EXPECT_EQ(countOps(F, Opcode::BF), 1u);
  RunOptions Opts;
  Opts.Args = {0};
  EXPECT_EQ(simulate(*M, rs6000(), Opts).Output, "1\n");
  Opts.Args = {5};
  EXPECT_EQ(simulate(*M, rs6000(), Opts).Output, "2\n");
}
