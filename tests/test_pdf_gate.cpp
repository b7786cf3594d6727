//===- tests/test_pdf_gate.cpp - Measured PDF-layout gate ------------------===//

#include "TestUtil.h"
#include "pdf/PdfExperiment.h"
#include "profile/PdfLayout.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

const char *SkewedLoop = R"(
func main(0) {
entry:
  LI r30 = 2000
  MTCTR r30
  LI r31 = 0
loop:
  ANDI r32 = r31, 7
  AI r31 = r31, 1
  CI cr0 = r32, 7
  BT hot, cr0.lt
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

} // namespace

TEST(PdfGate, KeepsImprovingLayout) {
  auto Seed = parseOrDie(SkewedLoop);
  RunResult Ground = simulate(*Seed, rs6000());
  ProfileData P = ProfileData::fromRun(Ground);

  auto M = parseOrDie(SkewedLoop);
  RunOptions Train; // same input
  bool Kept = pdfLayoutMeasured(*M, P, rs6000(), {Train});
  EXPECT_TRUE(Kept);
  RunResult After = simulate(*M, rs6000());
  EXPECT_EQ(Ground.fingerprint(), After.fingerprint());
  EXPECT_LT(After.Cycles, Ground.Cycles);
}

TEST(PdfGate, RollsBackNonImprovingLayout) {
  // A layout that is already hot-path-straightened: reordering cannot
  // improve it, so the gate must leave the function byte-identical.
  const char *Straight = R"(
func main(0) {
entry:
  LI r30 = 2000
  MTCTR r30
  LI r31 = 0
loop:
  ANDI r32 = r31, 7
  AI r31 = r31, 1
  AI r33 = r33, 1
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  auto Seed = parseOrDie(Straight);
  RunResult Ground = simulate(*Seed, rs6000());
  ProfileData P = ProfileData::fromRun(Ground);

  auto M = parseOrDie(Straight);
  std::string Before = printModule(*M);
  RunOptions Train;
  bool Kept = pdfLayoutMeasured(*M, P, rs6000(), {Train});
  if (!Kept)
    EXPECT_EQ(printModule(*M), Before) << "rollback must be exact";
  RunResult After = simulate(*M, rs6000());
  EXPECT_EQ(Ground.fingerprint(), After.fingerprint());
  EXPECT_LE(After.Cycles, Ground.Cycles);
}

TEST(PdfGate, EmptyBatteryKeepsUnconditionally) {
  auto Seed = parseOrDie(SkewedLoop);
  ProfileData P = ProfileData::fromRun(simulate(*Seed, rs6000()));
  auto M = parseOrDie(SkewedLoop);
  EXPECT_TRUE(pdfLayoutMeasured(*M, P, rs6000(), /*TrainBattery=*/{}));
}

// Without a battery to measure, the layout is kept without a decision:
// the pipeline must report -1 ("unconditional"), not a kept gate.
TEST(PdfGate, NoBatteryReportsGateDidNotRun) {
  auto Seed = parseOrDie(SkewedLoop);
  ProfileData P = ProfileData::fromRun(simulate(*Seed, rs6000()));
  const std::vector<RunOptions> Empty;
  const std::vector<RunOptions> *Batteries[] = {nullptr, &Empty};
  for (const std::vector<RunOptions> *Battery : Batteries) {
    auto M = parseOrDie(SkewedLoop);
    PipelineStats Stats;
    PipelineOptions Opts;
    Opts.Profile = &P;
    Opts.TrainBattery = Battery;
    Opts.Stats = &Stats;
    optimize(*M, OptLevel::Vliw, Opts);
    EXPECT_EQ(Stats.PdfLayoutKept, -1) << (Battery ? "empty" : "null");
    EXPECT_STREQ(pdfLayoutName(Stats.PdfLayoutKept), "unconditional");
  }
}

TEST(PdfGate, GatedPipelineNeverRegressesTrainedInput) {
  for (const Workload &W : specWorkloads()) {
    RunOptions Train = workloadInput(W.TrainScale);

    auto Plain = buildWorkload(W);
    optimize(*Plain, OptLevel::Vliw);
    RunResult RPlain = simulate(*Plain, rs6000(), Train);

    auto Guided = buildWorkload(W);
    PdfExperimentOptions PO;
    PO.Train = {Train};
    PdfFeedback F = collectPdfFeedback(*Guided, PO, Guided.get());
    ASSERT_TRUE(F.ok()) << W.Name << ": " << F.Error;
    pdfGuidedCompile(*Guided, F.Feedback, PO);
    RunResult RGuided = simulate(*Guided, rs6000(), Train);

    EXPECT_EQ(RPlain.fingerprint(), RGuided.fingerprint()) << W.Name;
    // The measured gate guarantees the layout stage never hurt the
    // trained input; the residual scheduling-heuristic noise is small.
    EXPECT_LE(RGuided.Cycles, RPlain.Cycles * 21 / 20) << W.Name;
  }
}
