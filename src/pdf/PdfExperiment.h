//===- pdf/PdfExperiment.h - PDF experiment driver ------------*- C++ -*-===//
///
/// \file
/// The paper's profile-directed-feedback experiment (train on one input,
/// compile with the profile, measure on another) as a reusable driver on
/// top of pdf/ProfileStore.h:
///
///  * the source module is built ONCE and cloned for the baseline and the
///    guided compile (audit/PassAudit.h cloneModule) — no per-experiment
///    rebuilds;
///  * training and measurement batteries run through predecoded SimEngines
///    and fan out across the work-stealing pool (support/ThreadPool.h),
///    with positional merging, so every number is byte-identical at every
///    thread count;
///  * the merged profile feeds back into vliw/Pipeline (scheduling
///    heuristic, superblock formation when asked, and the measured layout
///    gate over the whole training battery).
///
/// bench_pdf_gain, bench_superblock, examples/pdf_workflow.cpp and
/// examples/vscc.cpp are all built on this driver.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PDF_PDFEXPERIMENT_H
#define VSC_PDF_PDFEXPERIMENT_H

#include "pdf/ProfileStore.h"
#include "vliw/Pipeline.h"

namespace vsc {

struct PdfExperimentOptions {
  MachineModel Machine = rs6000();
  /// Training battery: profiled inputs, merged in battery order.
  std::vector<RunOptions> Train;
  /// Measurement battery (the paper's reference inputs).
  std::vector<RunOptions> Test;
  /// Worker threads for every battery and for the pipeline; 0 defers to
  /// VSC_THREADS.
  unsigned Threads = 0;
  /// Where the feedback profile comes from:
  ///  * Counters — the paper's low-overhead two-pass scheme: prepare and
  ///    instrument a clone once (profile/Counters.h ProfileCollector), run
  ///    the training battery, infer every count.
  ///  * Exact — the simulator's ground-truth dense counters, recorded
  ///    straight from SimEngine's interned slots (pdf/ProfileStore.h).
  enum class Source { Counters, Exact };
  Source ProfileSource = Source::Counters;
  /// A persisted profile to feed back instead of collecting one (takes
  /// precedence over ProfileSource). Validated against the source module's
  /// CFG fingerprint; a stale profile fails the experiment.
  const DenseProfile *LoadedProfile = nullptr;
  /// Trace-scheduling-style superblock formation in the guided compile.
  bool Superblocks = false;
};

struct PdfExperimentResult {
  /// Non-empty when the experiment failed (stale profile, trapping run,
  /// baseline/guided behaviour divergence).
  std::string Error;
  /// Merged ground-truth dense profile (Source::Exact or LoadedProfile;
  /// empty for Source::Counters).
  DenseProfile Profile;
  /// The profile the pipeline consumed.
  ProfileData Feedback;
  /// Measured layout-gate decision (PipelineStats::PdfLayoutKept).
  int PdfLayoutKept = -1;
  /// Cycle sums over the measurement battery.
  uint64_t BaselineCycles = 0;
  uint64_t GuidedCycles = 0;
  /// Per-input measurement runs, positionally matched to Options.Test.
  std::vector<RunResult> BaselineRuns;
  std::vector<RunResult> GuidedRuns;
  /// The optimized modules (for callers that want to keep measuring).
  std::unique_ptr<Module> Baseline;
  std::unique_ptr<Module> Guided;

  bool ok() const { return Error.empty(); }
  /// Baseline/guided speedup on the measurement battery (1.0 = no gain).
  double gain() const {
    return GuidedCycles ? static_cast<double>(BaselineCycles) /
                              static_cast<double>(GuidedCycles)
                        : 1.0;
  }
};

/// Runs one full experiment against \p Source (never modified).
PdfExperimentResult runPdfExperiment(const Module &Source,
                                     const PdfExperimentOptions &Options);

// --- the experiment as reusable stages --------------------------------------
//
// runPdfExperiment chains these serially; the compile service
// (src/service/CompileService.h) runs them as separately cache-keyed
// stage functions, so the train / baseline / guided phases of different
// requests overlap instead of marching through one monolithic driver, and
// a baseline compiled for one request serves every later request with the
// same (module, options, machine) key.

/// What the feedback stage produces.
struct PdfFeedback {
  /// Non-empty when collection failed (stale profile, trapping run).
  std::string Error;
  /// Dense ground truth (Source::Exact or a loaded profile; empty for
  /// the counter scheme).
  DenseProfile Profile;
  /// The profile the pipeline consumes.
  ProfileData Feedback;
  bool ok() const { return Error.empty(); }
};

/// Stage (train): collect or validate the feedback profile. \p Source is
/// the raw frontend module; every training run executes a run-ready clone
/// of it (profile/Counters.h prepareForTraining). The counter scheme
/// (Source::Counters) applies the pass-1-identical planCounters surgery to
/// \p CounterTarget — the module the guided compile will run on — so that
/// path mutates it; Exact and LoadedProfile leave it alone (it may then be
/// null). \p Source is cloned before \p CounterTarget is touched, so the
/// two may be the same module.
PdfFeedback collectPdfFeedback(const Module &Source,
                               const PdfExperimentOptions &Opt,
                               Module *CounterTarget);

/// Stage (baseline): plain optimize at OptLevel::Vliw with Opt.Machine and
/// Opt.Threads — byte-identical to a profile-less compile of the same
/// module, which is exactly why the service can satisfy it from the
/// compile-artifact cache.
void pdfBaselineCompile(Module &Target, const PdfExperimentOptions &Opt);

/// Stage (guided): optimize \p Target at OptLevel::Vliw with \p Feedback
/// attached, the layout gate measured over the whole training battery
/// Opt.Train. \returns the gate decision (PipelineStats::PdfLayoutKept).
int pdfGuidedCompile(Module &Target, const ProfileData &Feedback,
                     const PdfExperimentOptions &Opt);

/// Stage (measure): simulate R.Baseline and R.Guided over Opt.Test,
/// enforce behaviour equality per input, and fill the cycle sums
/// (R.Error names the first diverging input).
void pdfMeasure(PdfExperimentResult &R, const PdfExperimentOptions &Opt);

} // namespace vsc

#endif // VSC_PDF_PDFEXPERIMENT_H
