//===- tests/test_superblock.cpp - Trace/superblock formation --------------===//

#include "TestUtil.h"
#include "pdf/PdfExperiment.h"
#include "profile/Superblock.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// Hot diamond inside a loop: the left arm runs 7 of 8 iterations, and the
/// join has two predecessors — prime superblock material.
const char *HotDiamond = R"(
func main(0) {
entry:
  LI r30 = 4000
  MTCTR r30
  LI r31 = 0
loop:
  ANDI r32 = r31, 7
  AI r31 = r31, 1
  CI cr0 = r32, 7
  BT cold, cr0.eq
hot:
  AI r33 = r33, 1
join:
  AI r34 = r34, 2
  BCT loop
exit:
  A r3 = r33, r34
  CALL print_int, 1
  RET
cold:
  AI r33 = r33, 100
  B join
}
)";

ProfileData profileOf(Module &M) {
  return ProfileData::fromRun(simulate(M, rs6000()));
}

} // namespace

TEST(Superblock, TailDuplicatesJoinOnHotTrace) {
  auto M = parseOrDie(HotDiamond);
  ProfileData P = profileOf(*M);
  auto M2 = parseOrDie(HotDiamond);
  RunResult Before = simulate(*M2, rs6000());

  Function &F = *M2->findFunction("main");
  unsigned N = formSuperblocks(F, P);
  EXPECT_GE(N, 1u) << printFunction(F);
  ASSERT_EQ(verifyModule(*M2), "");
  // The hot path's join must now have a single predecessor; the cold path
  // goes to a clone.
  Cfg G(F);
  BasicBlock *Join = F.findBlock("join");
  ASSERT_TRUE(Join);
  EXPECT_EQ(G.preds(Join).size(), 1u) << printFunction(F);
  RunResult After = simulate(*M2, rs6000());
  EXPECT_EQ(Before.fingerprint(), After.fingerprint());
}

TEST(Superblock, EnablesJoinFreeScheduling) {
  auto Seed = parseOrDie(HotDiamond);
  ProfileData P = profileOf(*Seed);

  auto Plain = parseOrDie(HotDiamond);
  PipelineOptions PO;
  PO.Profile = &P;
  optimize(*Plain, OptLevel::Vliw, PO);
  RunResult RPlain = simulate(*Plain, rs6000());

  auto Sb = parseOrDie(HotDiamond);
  PipelineOptions SO;
  SO.Profile = &P;
  SO.Superblocks = true;
  optimize(*Sb, OptLevel::Vliw, SO);
  RunResult RSb = simulate(*Sb, rs6000());

  EXPECT_EQ(RPlain.fingerprint(), RSb.fingerprint());
  EXPECT_LE(RSb.Cycles, RPlain.Cycles + 5)
      << "superblocks must not regress the trained path";
}

TEST(Superblock, RespectsGrowthBudget) {
  auto M = parseOrDie(HotDiamond);
  ProfileData P = profileOf(*M);
  auto M2 = parseOrDie(HotDiamond);
  size_t Before = M2->instrCount();
  SuperblockOptions Opts;
  Opts.MaxGrowth = 0;
  EXPECT_EQ(formSuperblocks(*M2->findFunction("main"), P, Opts), 0u);
  EXPECT_EQ(M2->instrCount(), Before);
}

TEST(Superblock, ColdCodeUntouched) {
  // With a high hot threshold nothing qualifies.
  auto M = parseOrDie(HotDiamond);
  ProfileData P = profileOf(*M);
  auto M2 = parseOrDie(HotDiamond);
  SuperblockOptions Opts;
  Opts.HotThreshold = 1u << 30;
  EXPECT_EQ(formSuperblocks(*M2->findFunction("main"), P, Opts), 0u);
}

TEST(Superblock, WorkloadsAgreeUnderSuperblockPipeline) {
  for (const Workload &W : specWorkloads()) {
    auto Base = buildWorkload(W);
    optimize(*Base, OptLevel::None);
    RunOptions In = workloadInput(W.TrainScale);
    RunResult RB = simulate(*Base, rs6000(), In);
    ASSERT_FALSE(RB.Trapped) << W.Name;

    auto M = buildWorkload(W);
    PdfExperimentOptions PO;
    PO.Train = {In};
    PdfFeedback F = collectPdfFeedback(*M, PO, M.get());
    ASSERT_TRUE(F.ok()) << W.Name << ": " << F.Error;
    const ProfileData &P = F.Feedback;
    PipelineOptions Opts;
    Opts.Profile = &P;
    Opts.Superblocks = true;
    optimize(*M, OptLevel::Vliw, Opts);
    ASSERT_EQ(verifyModule(*M), "") << W.Name;
    RunResult R = simulate(*M, rs6000(), In);
    EXPECT_EQ(RB.fingerprint(), R.fingerprint()) << W.Name;
  }
}
