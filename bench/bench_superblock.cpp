//===- bench/bench_superblock.cpp - Trace-scheduling comparator --------------===//
///
/// The paper argues its techniques "do not depend on branch probabilities
/// ... as opposed to trace scheduling and its derivatives". This bench
/// puts numbers behind that positioning: the profile-independent VLIW
/// pipeline vs. profile-directed feedback vs. IMPACT-style superblock
/// formation (tail-duplicated hot traces) on top of PDF, all trained on
/// the short inputs and measured on the reference inputs.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "pdf/PdfExperiment.h"

using namespace vsc;

namespace {

/// The counter-scheme PDF experiment on \p W: train on the short input,
/// measure on the reference input.
PdfExperimentResult experiment(const Workload &W, const MachineModel &Machine,
                               bool Superblocks) {
  auto Source = buildWorkload(W);
  PdfExperimentOptions Opts;
  Opts.Machine = Machine;
  Opts.Train = {workloadInput(W.TrainScale)};
  Opts.Test = {workloadInput(W.RefScale)};
  Opts.Superblocks = Superblocks;
  PdfExperimentResult R = runPdfExperiment(*Source, Opts);
  if (!R.ok()) {
    std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), R.Error.c_str());
    std::abort();
  }
  return R;
}

} // namespace

static void BM_SuperblockCompile(benchmark::State &State) {
  const Workload &W = specWorkloads()[2];
  PdfExperimentOptions Opts;
  Opts.Train = {workloadInput(W.TrainScale)};
  for (auto _ : State) {
    auto M = buildWorkload(W);
    PdfFeedback F = collectPdfFeedback(*M, Opts, M.get());
    PipelineOptions PO;
    PO.Profile = &F.Feedback;
    PO.Superblocks = true;
    optimize(*M, OptLevel::Vliw, PO);
    benchmark::DoNotOptimize(M->instrCount());
  }
  State.SetLabel("eqntott");
}
BENCHMARK(BM_SuperblockCompile)->Unit(benchmark::kMillisecond);

int main(int Argc, char **Argv) {
  MachineModel Machine = rs6000();
  std::printf("Profile-independent vs profile-directed vs superblock "
              "pipelines (cycles, reference inputs)\n");
  std::printf("%-10s %12s %12s %12s %10s %10s\n", "Benchmark", "vliw",
              "vliw+pdf", "+superblock", "sb-gain", "sb-size");
  std::vector<double> Gains;
  for (const Workload &W : specWorkloads()) {
    PdfExperimentResult Pdf = experiment(W, Machine, false);
    PdfExperimentResult Sb = experiment(W, Machine, true);
    double Gain = static_cast<double>(Pdf.GuidedCycles) /
                  static_cast<double>(Sb.GuidedCycles);
    Gains.push_back(Gain);
    std::printf("%-10s %12llu %12llu %12llu %9.1f%% %10zu\n",
                W.Name.c_str(),
                static_cast<unsigned long long>(Pdf.BaselineCycles),
                static_cast<unsigned long long>(Pdf.GuidedCycles),
                static_cast<unsigned long long>(Sb.GuidedCycles),
                (Gain - 1.0) * 100.0, Sb.Guided->instrCount());
  }
  std::printf("%-10s %12s %12s %12s %9.1f%%\n", "geomean", "", "", "",
              (geomean(Gains) - 1.0) * 100.0);
  std::printf("(superblocks buy a little more on skewed traces and cost "
              "code growth — consistent\nwith the paper's choice to stay "
              "profile-independent by default)\n\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
