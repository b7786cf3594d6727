//===- tests/test_profiling.cpp - Low-overhead PDF -------------------------===//
///
/// Covers the paper's profiling machinery (experiments E5/E6/E12): counter
/// placement by constraint propagation, counting-code insertion with the
/// in-loop hoisting optimization, count inference validated against the
/// simulator's exact ground truth, and the PDF layout applications.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "pdf/PdfExperiment.h"
#include "profile/Counters.h"
#include "profile/PdfLayout.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// The eqntott-flavoured inner loop from the paper's profiling example:
/// five basic blocks inside the loop, two outside.
const char *EqnKernel = R"(
global a : 808
global b : 808
func main(0) {
entry:
  LTOC r20 = .a
  LTOC r21 = .b
  LI r22 = 100
  MTCTR r22
  LI r23 = 0
BB1:
  L r4 = 0(r20) !a
  AI r20 = r20, 4
  L r6 = 0(r21) !b
  AI r21 = r21, 4
  CI cr0 = r4, 2
  BT BB3, cr0.eq
BB2:
  AI r23 = r23, 1
BB3:
  CI cr1 = r6, 2
  BF BB5, cr1.eq
BB4:
  AI r23 = r23, 2
BB5:
  C cr0 = r4, r6
  BT BB7, cr0.eq
BB6:
  BCT BB1
BB7:
  LR r3 = r23
  CALL print_int, 1
  RET
}
)";

/// Fills a/b with patterned, never-equal values so the loop runs its full
/// trip count with branchy (but skewed) internal control flow.
std::unique_ptr<Module> buildEqn() {
  auto M = parseOrDie(EqnKernel);
  for (Global &G : M->globals()) {
    G.Init.resize(G.Size, 0);
    for (size_t I = 0; I * 4 < G.Size; ++I) {
      uint32_t V = (G.Name == "a") ? (I % 7) : (I % 7) + 1;
      for (unsigned B = 0; B != 4; ++B)
        G.Init[4 * I + B] = static_cast<uint8_t>(V >> (8 * B));
    }
  }
  return M;
}

} // namespace

TEST(CounterPlacement, CountsOnlyASubsetOfBlocks) {
  auto M = buildEqn();
  Function &F = *M->findFunction("main");
  size_t NumBlocks = F.size();
  CounterPlan Plan = planCounters(F);
  EXPECT_LT(Plan.CountedBlocks.size(), NumBlocks)
      << "a proper subset must suffice";
  EXPECT_GE(Plan.CountedBlocks.size(), 2u);
}

TEST(CounterPlacement, PlanIsDeterministic) {
  auto M1 = buildEqn();
  auto M2 = buildEqn();
  CounterPlan P1 = planCounters(*M1->findFunction("main"));
  CounterPlan P2 = planCounters(*M2->findFunction("main"));
  EXPECT_EQ(P1.CountedBlocks, P2.CountedBlocks);
  EXPECT_EQ(P1.NumDummies, P2.NumDummies);
}

TEST(CounterPlacement, PrefersBlocksOutsideLoops) {
  auto M = buildEqn();
  Function &F = *M->findFunction("main");
  CounterPlan Plan = planCounters(F);
  // The plan should count the cheap out-of-loop blocks (entry/BB7) before
  // resorting to in-loop ones; at least one out-of-loop block is chosen.
  bool HasOutOfLoop = false;
  for (const std::string &L : Plan.CountedBlocks)
    if (L == "entry" || L == "BB7")
      HasOutOfLoop = true;
  EXPECT_TRUE(HasOutOfLoop);
}

TEST(Instrumentation, CountsAreExact) {
  auto Train = buildEqn();
  auto Ground = buildEqn();
  RunResult GroundTruth = simulate(*Ground, rs6000());
  ASSERT_FALSE(GroundTruth.Trapped) << GroundTruth.TrapMsg;

  Instrumentation Info = instrumentModule(*Train, /*HoistCounters=*/true);
  ASSERT_EQ(verifyModule(*Train), "");
  RunOptions Opts;
  Opts.KeepMemory = true;
  RunResult R = simulate(*Train, rs6000(), Opts);
  ASSERT_FALSE(R.Trapped) << R.TrapMsg;
  // Program output unchanged by instrumentation.
  EXPECT_EQ(R.Output, GroundTruth.Output);

  auto Counts = readCounters(R, Info);
  ASSERT_FALSE(Counts.empty());
  for (const auto &[Key, Val] : Counts) {
    // Dummy blocks do not exist in the ground-truth module; check the rest.
    auto It = GroundTruth.BlockCounts.find(Key);
    if (It != GroundTruth.BlockCounts.end())
      EXPECT_EQ(Val, It->second) << Key;
  }
}

TEST(Instrumentation, InferenceReconstructsAllCounts) {
  auto Train = buildEqn();
  auto Target = buildEqn();
  Instrumentation Info = instrumentModule(*Train, true);
  RunOptions Opts;
  Opts.KeepMemory = true;
  RunResult R = simulate(*Train, rs6000(), Opts);
  auto Counts = readCounters(R, Info);

  Function &TF = *Target->findFunction("main");
  planCounters(TF); // identical surgery
  ProfileData P;
  std::string Err = inferCounts(TF, Counts, P);
  ASSERT_EQ(Err, "");

  // Every inferred block count must match a direct run of the target.
  RunResult Direct = simulate(*Target, rs6000());
  ASSERT_FALSE(Direct.Trapped) << Direct.TrapMsg;
  for (const auto &[Key, Val] : Direct.BlockCounts)
    EXPECT_EQ(P.BlockCount[Key], Val) << Key;
  for (const auto &[Key, Val] : Direct.EdgeCounts)
    EXPECT_EQ(P.EdgeCount[Key], Val) << Key;
}

TEST(Instrumentation, HoistingReducesOverhead) {
  auto Plain = buildEqn();
  auto Hoisted = buildEqn();
  instrumentModule(*Plain, /*HoistCounters=*/false);
  instrumentModule(*Hoisted, /*HoistCounters=*/true);
  RunResult RP = simulate(*Plain, rs6000());
  RunResult RH = simulate(*Hoisted, rs6000());
  ASSERT_FALSE(RP.Trapped) << RP.TrapMsg;
  ASSERT_FALSE(RH.Trapped) << RH.TrapMsg;
  EXPECT_EQ(RP.Output, RH.Output);
  EXPECT_LT(RH.DynInstrs, RP.DynInstrs)
      << "hoisted counters must execute fewer instructions";
}

TEST(Instrumentation, OverheadIsModest) {
  auto Base = buildEqn();
  auto Inst = buildEqn();
  RunResult RB = simulate(*Base, rs6000());
  instrumentModule(*Inst, true);
  RunResult RI = simulate(*Inst, rs6000());
  double Overhead =
      static_cast<double>(RI.DynInstrs) / static_cast<double>(RB.DynInstrs);
  EXPECT_LT(Overhead, 1.6) << "low-overhead profiling should stay modest";
}

TEST(CollectProfile, EndToEndMatchesGroundTruth) {
  auto Source = buildEqn();
  auto Target = buildEqn();
  PdfExperimentOptions Opts;
  Opts.Train = {RunOptions()};
  ProfileData P = collectPdfFeedback(*Source, Opts, Target.get()).Feedback;
  ASSERT_FALSE(P.BlockCount.empty());
  RunResult Direct = simulate(*Target, rs6000());
  for (const auto &[Key, Val] : Direct.BlockCounts)
    EXPECT_EQ(P.BlockCount[Key], Val) << Key;
}

//===----------------------------------------------------------------------===//
// PDF applications
//===----------------------------------------------------------------------===//

TEST(PdfLayout, ReorderPutsHotPathInFallthroughLine) {
  // A diamond whose hot side is the *taken* side: after reordering, the
  // hot block must directly follow the branch block.
  const char *Text = R"(
func main(0) {
entry:
  LI r30 = 1000
  MTCTR r30
  LI r31 = 0
loop:
  ANDI r32 = r31, 7
  AI r31 = r31, 1
  CI cr0 = r32, 7
  BF hot, cr0.eq
cold:
  AI r33 = r33, 100
  B next
hot:
  AI r33 = r33, 1
next:
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  auto M = parseOrDie(Text);
  RunResult Ground = simulate(*M, rs6000());
  ProfileData P = ProfileData::fromRun(Ground);

  auto M2 = parseOrDie(Text);
  pdfReorderBlocks(*M2->findFunction("main"), P);
  ASSERT_EQ(verifyModule(*M2), "");
  RunResult After = simulate(*M2, rs6000());
  EXPECT_EQ(Ground.fingerprint(), After.fingerprint());
  // hot should now be the fallthrough of loop.
  Function &F = *M2->findFunction("main");
  size_t LoopIdx = F.indexOf(F.findBlock("loop"));
  EXPECT_EQ(F.blocks()[LoopIdx + 1]->label(), "hot") << printFunction(F);
}

TEST(PdfLayout, BranchReversalRemovesTakenBranches) {
  // A conditional branch taken 7 of 8 iterations.
  const char *Text = R"(
func main(0) {
entry:
  LI r30 = 1000
  MTCTR r30
  LI r31 = 0
loop:
  ANDI r32 = r31, 7
  AI r31 = r31, 1
  CI cr0 = r32, 7
  BF hot, cr0.eq
cold:
  AI r33 = r33, 100
hot:
  AI r33 = r33, 1
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  auto M = parseOrDie(Text);
  RunResult Ground = simulate(*M, rs6000());
  ProfileData P = ProfileData::fromRun(Ground);

  auto M2 = parseOrDie(Text);
  Function &F = *M2->findFunction("main");
  pdfReverseBranches(F, P, rs6000());
  ASSERT_EQ(verifyModule(*M2), "");
  RunResult After = simulate(*M2, rs6000());
  EXPECT_EQ(Ground.fingerprint(), After.fingerprint());
  EXPECT_LE(After.Cycles, Ground.Cycles);
}

TEST(PdfPipeline, ProfileGuidedVliwAtLeastMatchesVliw) {
  auto Base = buildEqn();
  RunResult RBase = simulate(*Base, rs6000());

  auto Plain = buildEqn();
  optimize(*Plain, OptLevel::Vliw);
  RunResult RPlain = simulate(*Plain, rs6000());
  EXPECT_EQ(RBase.fingerprint(), RPlain.fingerprint());

  auto Guided = buildEqn();
  PdfExperimentOptions PO;
  PO.Train = {RunOptions()};
  ProfileData P = collectPdfFeedback(*Guided, PO, Guided.get()).Feedback;
  PipelineOptions Opts;
  Opts.Profile = &P;
  optimize(*Guided, OptLevel::Vliw, Opts);
  RunResult RGuided = simulate(*Guided, rs6000());
  EXPECT_EQ(RBase.fingerprint(), RGuided.fingerprint());
  EXPECT_LE(RGuided.Cycles, RPlain.Cycles + 5);
}
