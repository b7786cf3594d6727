//===- bench/bench_pdf_gain.cpp - Experiment E5 --------------------------------===//
///
/// The paper: "The optimizations described below ... result in a 4-5%
/// additional improvement on SPECint92 (using the short SPEC inputs for
/// generating profiling data)". This bench trains each workload on its
/// short input, applies profile-directed feedback (scheduling heuristics,
/// block reordering, branch reversal), and measures on the reference
/// input — all through the pdf/PdfExperiment.h driver.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "pdf/PdfExperiment.h"
#include "profile/Counters.h"

using namespace vsc;

static void BM_PdfCollectDense(benchmark::State &State) {
  const Workload &W = specWorkloads()[2];
  auto M = prepareForTraining(*buildWorkload(W));
  SimEngine Engine(*M, rs6000());
  std::vector<RunOptions> Train = {workloadInput(W.TrainScale)};
  for (auto _ : State) {
    DenseProfile P = collectDenseProfile(Engine, Train);
    benchmark::DoNotOptimize(P.BlockCounts.size());
  }
  State.SetLabel("collect-dense(eqntott), cached predecode");
}
BENCHMARK(BM_PdfCollectDense)->Unit(benchmark::kMillisecond);

int main(int Argc, char **Argv) {
  MachineModel Machine = rs6000();
  std::printf("Profile-directed feedback gain (train on short input, "
              "measure on reference input)\n");
  std::printf("%-10s %12s %12s %9s\n", "Benchmark", "vliw", "vliw+pdf",
              "gain");
  std::vector<double> Gains;
  for (const Workload &W : workloads::allKernels()) {
    auto Source = buildWorkload(W);
    PdfExperimentOptions Opts;
    Opts.Machine = Machine;
    Opts.Train = {workloadInput(W.TrainScale)};
    Opts.Test = {workloadInput(W.RefScale)};
    Opts.ProfileSource = PdfExperimentOptions::Source::Counters;
    PdfExperimentResult R = runPdfExperiment(*Source, Opts);
    if (!R.ok()) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), R.Error.c_str());
      std::abort();
    }
    Gains.push_back(R.gain());
    std::printf("%-10s %12llu %12llu %8.1f%%\n", W.Name.c_str(),
                static_cast<unsigned long long>(R.BaselineCycles),
                static_cast<unsigned long long>(R.GuidedCycles),
                (R.gain() - 1.0) * 100.0);
  }
  std::printf("%-10s %12s %12s %8.1f%%   (paper: +4-5%% on the SPEC six; "
              "table includes the irregular kernels)\n\n",
              "geomean", "", "", (geomean(Gains) - 1.0) * 100.0);
  return runRegisteredBenchmarks(Argc, Argv);
}
