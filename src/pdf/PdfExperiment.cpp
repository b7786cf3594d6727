//===- pdf/PdfExperiment.cpp - PDF experiment driver ------------------------===//

#include "pdf/PdfExperiment.h"

#include "audit/PassAudit.h" // cloneModule
#include "profile/Counters.h"

using namespace vsc;

PdfFeedback vsc::collectPdfFeedback(const Module &Source,
                                    const PdfExperimentOptions &Opt,
                                    Module *CounterTarget) {
  PdfFeedback F;
  // Feedback profile: persisted, exact (dense ground truth), or the
  // paper's two-pass counter scheme.
  if (Opt.LoadedProfile) {
    std::string Stale = Opt.LoadedProfile->validateFor(Source);
    if (!Stale.empty()) {
      F.Error = Stale;
      return F;
    }
    F.Profile = *Opt.LoadedProfile;
    F.Feedback = F.Profile.toProfileData();
    return F;
  }
  if (Opt.ProfileSource == PdfExperimentOptions::Source::Exact) {
    auto Prepared = prepareForTraining(Source);
    SimEngine Engine(*Prepared, Opt.Machine);
    F.Profile = collectDenseProfile(Engine, Opt.Train, Opt.Threads, &F.Error);
    if (F.Error.empty())
      F.Feedback = F.Profile.toProfileData();
  } else {
    // Release the collector (its instrumented clone and 4 MB simulator
    // memory) before the expansion: what is allocated while that memory is
    // live can pin it in the heap once it is freed, and the expansion and
    // the guided compile after it allocate a lot.
    std::unordered_map<std::string, uint64_t> Counted =
        ProfileCollector(Source, Opt.Machine).counts(Opt.Train, Opt.Threads);
    F.Error = ProfileCollector::expand(*CounterTarget, Counted, F.Feedback);
  }
  return F;
}

void vsc::pdfBaselineCompile(Module &Target, const PdfExperimentOptions &Opt) {
  PipelineOptions Base;
  Base.Machine = Opt.Machine;
  Base.Threads = Opt.Threads;
  optimize(Target, OptLevel::Vliw, Base);
}

int vsc::pdfGuidedCompile(Module &Target, const ProfileData &Feedback,
                          const PdfExperimentOptions &Opt) {
  PipelineOptions Guided;
  Guided.Machine = Opt.Machine;
  Guided.Threads = Opt.Threads;
  Guided.Profile = &Feedback;
  Guided.Superblocks = Opt.Superblocks;
  Guided.TrainBattery = &Opt.Train;
  PipelineStats Stats;
  Guided.Stats = &Stats;
  optimize(Target, OptLevel::Vliw, Guided);
  return Stats.PdfLayoutKept;
}

void vsc::pdfMeasure(PdfExperimentResult &R, const PdfExperimentOptions &Opt) {
  // Measure both compiles on the test battery, one predecode each.
  SimEngine BaseEngine(*R.Baseline, Opt.Machine);
  SimEngine GuidedEngine(*R.Guided, Opt.Machine);
  R.BaselineRuns = BaseEngine.runBatch(Opt.Test, Opt.Threads);
  R.GuidedRuns = GuidedEngine.runBatch(Opt.Test, Opt.Threads);
  for (size_t I = 0; I != R.BaselineRuns.size(); ++I) {
    const RunResult &B = R.BaselineRuns[I];
    const RunResult &G = R.GuidedRuns[I];
    if (B.fingerprint() != G.fingerprint()) {
      R.Error = "behaviour diverged on test input " + std::to_string(I) +
                ":\n  baseline: " + B.fingerprint() +
                "\n  guided:   " + G.fingerprint();
      return;
    }
    R.BaselineCycles += B.Cycles;
    R.GuidedCycles += G.Cycles;
  }
}

PdfExperimentResult vsc::runPdfExperiment(const Module &Source,
                                          const PdfExperimentOptions &Opt) {
  PdfExperimentResult R;
  R.Baseline = cloneModule(Source);
  R.Guided = cloneModule(Source);

  PdfFeedback F = collectPdfFeedback(Source, Opt, R.Guided.get());
  R.Profile = std::move(F.Profile);
  R.Feedback = std::move(F.Feedback);
  if (!F.Error.empty()) {
    R.Error = std::move(F.Error);
    return R;
  }

  pdfBaselineCompile(*R.Baseline, Opt);
  R.PdfLayoutKept = pdfGuidedCompile(*R.Guided, R.Feedback, Opt);

  pdfMeasure(R, Opt);
  return R;
}
