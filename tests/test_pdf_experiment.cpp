//===- tests/test_pdf_experiment.cpp - PDF experiment driver ---------------===//
///
/// The pdf/PdfExperiment.h contract: dense collection is bit-identical to
/// the simulator's string-keyed counts on every workload kernel, results
/// are byte-identical at every thread count, a persisted profile drives
/// the same pipeline decisions as the in-process one, and the counter
/// scheme reproduces the exact counts on every registry kernel.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "audit/PassAudit.h" // cloneModule
#include "pdf/PdfExperiment.h"
#include "profile/Counters.h"
#include "workloads/Registry.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace vsc;

namespace {

std::vector<RunOptions> batteryFor(const Workload &W) {
  return {workloadInput(W.TrainScale), workloadInput(W.TrainScale + 1)};
}

} // namespace

// Acceptance: the dense path reproduces the legacy string-keyed profile
// bit-for-bit on every kernel — same battery, summed RunResult maps.
// Both collections run the module collectPdfFeedback trains on: the kernel
// with its prologs (prepareForTraining), so each input runs at its scale.
TEST(PdfExperiment, DenseParityWithStringKeyedPathAllKernels) {
  for (const Workload &W : specWorkloads()) {
    auto M = prepareForTraining(*buildWorkload(W));
    std::vector<RunOptions> Battery = batteryFor(W);

    SimEngine Engine(*M, rs6000());
    std::string Err;
    DenseProfile P = collectDenseProfile(Engine, Battery, 1, &Err);
    ASSERT_EQ(Err, "") << W.Name;
    ProfileData Dense = P.toProfileData();

    ProfileData Legacy;
    for (const RunOptions &In : Battery) {
      RunResult R = simulate(*M, rs6000(), In);
      ASSERT_FALSE(R.Trapped) << W.Name;
      for (const auto &[K, V] : R.BlockCounts)
        Legacy.BlockCount[K] += V;
      for (const auto &[K, V] : R.EdgeCounts)
        Legacy.EdgeCount[K] += V;
    }
    EXPECT_EQ(Dense.BlockCount, Legacy.BlockCount) << W.Name;
    EXPECT_EQ(Dense.EdgeCount, Legacy.EdgeCount) << W.Name;
  }
}

TEST(PdfExperiment, CollectionIsThreadCountInvariant) {
  const Workload &W = specWorkloads()[2]; // eqntott
  auto M = prepareForTraining(*buildWorkload(W));
  std::vector<RunOptions> Battery;
  for (int64_t S = 1; S <= 4; ++S)
    Battery.push_back(workloadInput(S));

  SimEngine E1(*M, rs6000()), E4(*M, rs6000());
  std::string Err1, Err4;
  DenseProfile P1 = collectDenseProfile(E1, Battery, 1, &Err1);
  DenseProfile P4 = collectDenseProfile(E4, Battery, 4, &Err4);
  EXPECT_EQ(Err1, "");
  EXPECT_EQ(Err4, "");
  EXPECT_EQ(P1.serialize(), P4.serialize());
}

TEST(PdfExperiment, ExperimentIsThreadCountInvariant) {
  const Workload &W = specWorkloads()[2];
  auto M = buildWorkload(W);
  PdfExperimentOptions Opts;
  Opts.Train = batteryFor(W);
  Opts.Test = {workloadInput(W.RefScale)};
  Opts.ProfileSource = PdfExperimentOptions::Source::Exact;

  Opts.Threads = 1;
  PdfExperimentResult R1 = runPdfExperiment(*M, Opts);
  Opts.Threads = 4;
  PdfExperimentResult R4 = runPdfExperiment(*M, Opts);
  ASSERT_TRUE(R1.ok()) << R1.Error;
  ASSERT_TRUE(R4.ok()) << R4.Error;
  EXPECT_EQ(R1.Profile.serialize(), R4.Profile.serialize());
  EXPECT_EQ(R1.PdfLayoutKept, R4.PdfLayoutKept);
  EXPECT_EQ(R1.BaselineCycles, R4.BaselineCycles);
  EXPECT_EQ(R1.GuidedCycles, R4.GuidedCycles);
  EXPECT_EQ(printModule(*R1.Guided), printModule(*R4.Guided));
}

// Acceptance: a profile saved by one process and loaded by another drives
// identical pipeline decisions. Round-tripping through serialized bytes is
// the in-process equivalent of the vscc handoff ci.sh exercises.
TEST(PdfExperiment, PersistedProfileDrivesIdenticalDecisions) {
  const Workload &W = specWorkloads()[2];
  auto M = buildWorkload(W);
  PdfExperimentOptions Opts;
  Opts.Train = batteryFor(W);
  Opts.Test = {workloadInput(W.RefScale)};
  Opts.ProfileSource = PdfExperimentOptions::Source::Exact;
  Opts.Superblocks = true;
  PdfExperimentResult Collected = runPdfExperiment(*M, Opts);
  ASSERT_TRUE(Collected.ok()) << Collected.Error;

  std::vector<uint8_t> Bytes = Collected.Profile.serialize();
  DenseProfile Loaded;
  ASSERT_EQ(DenseProfile::deserialize(Bytes.data(), Bytes.size(), Loaded),
            "");
  Opts.LoadedProfile = &Loaded;
  PdfExperimentResult Replayed = runPdfExperiment(*M, Opts);
  ASSERT_TRUE(Replayed.ok()) << Replayed.Error;

  EXPECT_EQ(Replayed.PdfLayoutKept, Collected.PdfLayoutKept);
  EXPECT_EQ(Replayed.GuidedCycles, Collected.GuidedCycles);
  EXPECT_EQ(printModule(*Replayed.Guided), printModule(*Collected.Guided));
}

TEST(PdfExperiment, StaleLoadedProfileFailsTheExperiment) {
  auto A = buildWorkload(specWorkloads()[2]);
  auto B = buildWorkload(specWorkloads()[0]);
  SimEngine Engine(*B, rs6000());
  std::string Err;
  DenseProfile Wrong = collectDenseProfile(
      Engine, {workloadInput(1)}, 1, &Err);
  ASSERT_EQ(Err, "");

  PdfExperimentOptions Opts;
  Opts.Test = {workloadInput(2)};
  Opts.LoadedProfile = &Wrong;
  PdfExperimentResult R = runPdfExperiment(*A, Opts);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("stale"), std::string::npos) << R.Error;
}

TEST(PdfExperiment, GuidedCompileKeepsBehaviour) {
  for (const Workload &W : specWorkloads()) {
    auto M = buildWorkload(W);
    PdfExperimentOptions Opts;
    Opts.Train = {workloadInput(W.TrainScale)};
    Opts.Test = {workloadInput(W.RefScale)};
    Opts.ProfileSource = PdfExperimentOptions::Source::Counters;
    PdfExperimentResult R = runPdfExperiment(*M, Opts);
    ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
    ASSERT_EQ(R.BaselineRuns.size(), R.GuidedRuns.size());
    for (size_t I = 0; I != R.BaselineRuns.size(); ++I)
      EXPECT_EQ(R.BaselineRuns[I].fingerprint(),
                R.GuidedRuns[I].fingerprint())
          << W.Name;
    EXPECT_GT(R.BaselineCycles, 0u) << W.Name;
    EXPECT_GT(R.GuidedCycles, 0u) << W.Name;
  }
}

// Training must happen on a run-ready module: the raw frontend output
// has no prologs, so gcc's entry misreads its scale argument and the old
// path trained on a garbage input. The experiment's feedback profile
// must match ground truth from a prepared module at the TRUE scale.
TEST(PdfExperiment, TrainsOnRunReadyModules) {
  const Workload &W = specWorkloads()[5]; // gcc
  auto M = buildWorkload(W);
  PdfExperimentOptions Opts;
  Opts.Train = {workloadInput(W.TrainScale)};
  Opts.Test = {workloadInput(W.RefScale)};
  Opts.ProfileSource = PdfExperimentOptions::Source::Exact;
  PdfExperimentResult R = runPdfExperiment(*M, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;

  auto Prepared = buildWorkload(W);
  optimize(*Prepared, OptLevel::None);
  RunResult Ground =
      simulate(*Prepared, rs6000(), workloadInput(W.TrainScale));
  EXPECT_EQ(R.Feedback.BlockCount, Ground.BlockCounts);
  EXPECT_EQ(R.Feedback.EdgeCount, Ground.EdgeCounts);
  // The profile still validates against the raw source module.
  EXPECT_EQ(R.Profile.validateFor(*M), "");
}

// The counter scheme (count a subset of blocks on a prepared, instrumented
// clone; infer the rest) must reproduce the exact dense counts on every
// registry kernel: every executed block gets its exact count, and every
// executed edge carries its exact count — on the edge itself, or on both
// halves of the dummy block planCounters put on it.
TEST(PdfExperiment, CounterFeedbackMatchesExactCountsOnEveryKernel) {
  auto CountOf = [](const std::unordered_map<std::string, uint64_t> &Counts,
                    const std::string &Key) -> uint64_t {
    auto It = Counts.find(Key);
    return It == Counts.end() ? 0 : It->second;
  };
  for (const Workload &W : workloads::allKernels()) {
    auto Source = buildWorkload(W);
    PdfExperimentOptions Opts;
    Opts.Train = {workloadInput(W.TrainScale)};
    Opts.ProfileSource = PdfExperimentOptions::Source::Exact;
    PdfFeedback Exact = collectPdfFeedback(*Source, Opts, nullptr);
    ASSERT_TRUE(Exact.ok()) << W.Name << ": " << Exact.Error;
    ASSERT_FALSE(Exact.Feedback.BlockCount.empty()) << W.Name;

    auto Target = cloneModule(*Source);
    Opts.ProfileSource = PdfExperimentOptions::Source::Counters;
    PdfFeedback Counted = collectPdfFeedback(*Source, Opts, Target.get());
    ASSERT_TRUE(Counted.ok()) << W.Name << ": " << Counted.Error;
    const ProfileData &C = Counted.Feedback;

    for (const auto &[Key, N] : Exact.Feedback.BlockCount)
      EXPECT_EQ(CountOf(C.BlockCount, Key), N) << W.Name << " " << Key;

    std::set<std::string> Seen; // exact edge keys checked
    for (const auto &TF : Target->functions()) {
      const std::string &Fn = TF->name();
      Function &SF = *Source->findFunction(Fn);
      // The blocks planCounters added, by the (source, target) edge each
      // one splits.
      Cfg TG(*TF);
      std::map<std::pair<std::string, std::string>, std::vector<std::string>>
          Dummies;
      for (const auto &BB : TF->blocks()) {
        if (SF.findBlock(BB->label()))
          continue;
        ASSERT_EQ(TG.preds(BB.get()).size(), 1u) << W.Name << " " << Fn;
        ASSERT_EQ(TG.succs(BB.get()).size(), 1u) << W.Name << " " << Fn;
        Dummies[{TG.preds(BB.get()).front()->label(),
                 TG.succs(BB.get()).front().To->label()}]
            .push_back(BB->label());
      }
      Cfg SG(SF);
      for (const CfgEdge &E : SG.edges()) {
        const std::string &From = E.From->label(), &To = E.To->label();
        std::string Key = edgeCountKey(Fn, From, To);
        auto It = Exact.Feedback.EdgeCount.find(Key);
        if (It == Exact.Feedback.EdgeCount.end() || !Seen.insert(Key).second)
          continue;
        uint64_t Sum = CountOf(C.EdgeCount, Key);
        for (const std::string &D : Dummies[{From, To}]) {
          uint64_t In = CountOf(C.EdgeCount, edgeCountKey(Fn, From, D));
          EXPECT_EQ(CountOf(C.EdgeCount, edgeCountKey(Fn, D, To)), In)
              << W.Name << " " << Key << " via " << D;
          Sum += In;
        }
        EXPECT_EQ(Sum, It->second) << W.Name << " " << Key;
      }
    }
    EXPECT_EQ(Seen.size(), Exact.Feedback.EdgeCount.size()) << W.Name;
  }
}
