//===- examples/pdf_workflow.cpp - Profile-directed feedback, end to end ----===//
///
/// The paper's PDF workflow on the ProfileStore subsystem (src/pdf/):
/// train on the short input, feed the profile back into the pipeline,
/// measure on the reference input. Profiles are first-class artifacts —
/// they can be saved, merged across processes, and loaded again (by this
/// tool or by vscc):
///
///   example_pdf_workflow [options]
///     --workload=NAME        kernel to run (default eqntott)
///     --counters             use the paper's two-pass low-overhead
///                            counting scheme instead of exact dense
///                            counters (exact is the default)
///     --superblocks          superblock formation in the guided compile
///     --threads=N            battery/pipeline workers (default
///                            VSC_THREADS)
///     --save-profile=FILE    persist the merged dense profile
///     --load-profile=FILE    feed a persisted profile back instead of
///                            training (repeatable with --merge)
///     --merge                merge multiple --load-profile files; with
///                            --save-profile, also merge into an existing
///                            file instead of overwriting it
///     --emit-source=FILE     write the kernel's mini-C source (so vscc
///                            can compile the identical module and
///                            consume the saved profile)
///
//===----------------------------------------------------------------------===//

#include "pdf/PdfExperiment.h"
#include "workloads/Registry.h"

#include <cstdio>
#include <cstring>
#include <fstream>

using namespace vsc;

static int usage() {
  std::fprintf(stderr,
               "usage: example_pdf_workflow [--workload=NAME] [--counters] "
               "[--superblocks] [--threads=N] [--save-profile=FILE] "
               "[--load-profile=FILE]... [--merge] [--emit-source=FILE]\n");
  return 2;
}

int main(int Argc, char **Argv) {
  std::string WorkloadName = "eqntott";
  std::string SavePath, EmitSource;
  std::vector<std::string> LoadPaths;
  bool Counters = false, Merge = false, Superblocks = false;
  unsigned Threads = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--workload=", 0) == 0)
      WorkloadName = A.substr(11);
    else if (A == "--counters")
      Counters = true;
    else if (A == "--superblocks")
      Superblocks = true;
    else if (A == "--merge")
      Merge = true;
    else if (A.rfind("--threads=", 0) == 0)
      Threads = static_cast<unsigned>(std::atoi(A.c_str() + 10));
    else if (A.rfind("--save-profile=", 0) == 0)
      SavePath = A.substr(15);
    else if (A.rfind("--load-profile=", 0) == 0)
      LoadPaths.push_back(A.substr(15));
    else if (A.rfind("--emit-source=", 0) == 0)
      EmitSource = A.substr(14);
    else
      return usage();
  }
  if (LoadPaths.size() > 1 && !Merge) {
    std::fprintf(stderr,
                 "multiple --load-profile files need --merge\n");
    return 2;
  }
  if (Counters && (!SavePath.empty() || !LoadPaths.empty())) {
    std::fprintf(stderr, "--counters profiles are inferred, not dense; "
                         "save/load need the exact source\n");
    return 2;
  }

  const Workload *W = workloads::findKernel(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (kernels:",
                 WorkloadName.c_str());
    for (const Workload &Cand : workloads::allKernels())
      std::fprintf(stderr, " %s", Cand.Name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  std::printf("PDF workflow on the %s kernel\n\n", W->Name.c_str());

  if (!EmitSource.empty()) {
    std::ofstream Out(EmitSource);
    Out << W->Source;
    if (!Out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", EmitSource.c_str());
      return 1;
    }
    std::printf("wrote kernel source to %s\n", EmitSource.c_str());
  }

  auto Source = buildWorkload(*W);

  // A persisted profile replaces training when supplied.
  DenseProfile Loaded;
  PdfExperimentOptions Opts;
  Opts.Train = {workloadInput(W->TrainScale)};
  Opts.Test = {workloadInput(W->RefScale)};
  Opts.Threads = Threads;
  Opts.Superblocks = Superblocks;
  Opts.ProfileSource = Counters ? PdfExperimentOptions::Source::Counters
                                : PdfExperimentOptions::Source::Exact;
  if (!LoadPaths.empty()) {
    std::string Err = loadProfiles(LoadPaths, Loaded);
    if (!Err.empty()) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
    Opts.LoadedProfile = &Loaded;
    std::printf("pass 1: skipped — loaded profile from %zu file(s)\n",
                LoadPaths.size());
  } else if (Counters) {
    std::printf("pass 1: two-pass counting scheme on the short input "
                "(scale %lld)\n", static_cast<long long>(W->TrainScale));
  } else {
    std::printf("pass 1: exact dense counters on the short input "
                "(scale %lld)\n", static_cast<long long>(W->TrainScale));
  }

  PdfExperimentResult R = runPdfExperiment(*Source, Opts);
  if (!R.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("pass 2: profile carries %zu block counts and %zu edge "
              "counts\n",
              R.Feedback.BlockCount.size(), R.Feedback.EdgeCount.size());
  std::printf("pdf-layout: %s\n", pdfLayoutName(R.PdfLayoutKept));

  if (!SavePath.empty()) {
    std::string Err = saveProfile(R.Profile, SavePath, Merge);
    if (!Err.empty()) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
    // A merge requires equal slot tables, so these are the file's too.
    std::printf("saved profile to %s (%zu block slots, %zu edge slots)\n",
                SavePath.c_str(), R.Profile.BlockCounts.size(),
                R.Profile.EdgeCounts.size());
  }

  std::printf("\nreference input: vliw %llu cycles, vliw+pdf %llu cycles "
              "(%+.1f%%)\n",
              static_cast<unsigned long long>(R.BaselineCycles),
              static_cast<unsigned long long>(R.GuidedCycles),
              (R.gain() - 1.0) * 100.0);
  return 0;
}
