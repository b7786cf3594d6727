//===- examples/vscc.cpp - Command-line mini-C compiler driver --------------===//
///
/// The "real tool": compiles a mini-C file, optimizes it, and either dumps
/// the IR or runs it on a machine model.
///
///   example_vscc FILE.c [options] [-- args...]
///     -O0 | -O2 | -O3      optimization level (none/classical/vliw; -O3)
///     --machine=NAME       rs6000 (default), power2, ppc601
///     --pdf                profile on the same inputs first (the
///                          paper's two-pass counter scheme), then apply
///                          profile-directed feedback
///     --save-profile=FILE  record an exact dense profile of the program
///                          on the given args and persist it (pdf/
///                          ProfileStore.h binary format)
///     --load-profile=FILE  feed a persisted profile back (repeatable
///                          with --merge); stale profiles are rejected
///                          by CFG fingerprint
///     --merge              merge multiple --load-profile files; with
///                          --save-profile, merge into an existing file
///     --superblocks        profile-driven superblock formation
///     --exact-pipeline=M   off (default), grade, apply: run the exact
///                          modulo scheduler per innermost loop; grade
///                          reports achieved-II vs min-II vs exact-II,
///                          apply substitutes winning exact kernels
///     --inline             inline small leaf functions first
///     --regalloc           run linear-scan register allocation
///     --threads=N          compile functions on N worker threads (output
///                          is byte-identical for every N; default 1, or
///                          the VSC_THREADS environment variable)
///     --emit-ir            print the optimized IR instead of running
///     --stats              print cycles / pathlength / stall breakdown
///                          and the analysis builds by kind
///     -- A B C             integer arguments passed to main()
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "ir/Printer.h"
#include "pdf/PdfExperiment.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace vsc;

static int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s FILE.c [-O0|-O2|-O3] [--machine=NAME] [--pdf] "
               "[--save-profile=FILE] [--load-profile=FILE]... [--merge] "
               "[--superblocks] [--exact-pipeline=off|grade|apply] "
               "[--threads=N] [--emit-ir] [--stats] "
               "[-- args...]\n",
               Prog);
  return 2;
}

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);

  std::string Path;
  OptLevel Level = OptLevel::Vliw;
  MachineModel Machine = rs6000();
  bool EmitIr = false, Stats = false, Pdf = false;
  bool DoInline = false, DoRegalloc = false;
  bool Merge = false, Superblocks = false;
  ExactPipelineMode ExactMode = ExactPipelineMode::Off;
  std::string SaveProfile;
  std::vector<std::string> LoadProfiles;
  unsigned Threads = 0; // 0 = VSC_THREADS (default 1)
  std::vector<int64_t> Args;
  bool InArgs = false;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (InArgs) {
      Args.push_back(std::atoll(A.c_str()));
    } else if (A == "--") {
      InArgs = true;
    } else if (A == "-O0") {
      Level = OptLevel::None;
    } else if (A == "-O2") {
      Level = OptLevel::Classical;
    } else if (A == "-O3") {
      Level = OptLevel::Vliw;
    } else if (A.rfind("--machine=", 0) == 0) {
      std::string Name = A.substr(10);
      if (Name == "rs6000")
        Machine = rs6000();
      else if (Name == "power2")
        Machine = power2();
      else if (Name == "ppc601")
        Machine = ppc601();
      else {
        std::fprintf(stderr, "unknown machine '%s'\n", Name.c_str());
        return 2;
      }
    } else if (A == "--pdf") {
      Pdf = true;
    } else if (A.rfind("--save-profile=", 0) == 0) {
      SaveProfile = A.substr(15);
    } else if (A.rfind("--load-profile=", 0) == 0) {
      LoadProfiles.push_back(A.substr(15));
    } else if (A == "--merge") {
      Merge = true;
    } else if (A == "--superblocks") {
      Superblocks = true;
    } else if (A.rfind("--exact-pipeline=", 0) == 0) {
      std::string Mode = A.substr(17);
      if (Mode == "off")
        ExactMode = ExactPipelineMode::Off;
      else if (Mode == "grade")
        ExactMode = ExactPipelineMode::Grade;
      else if (Mode == "apply")
        ExactMode = ExactPipelineMode::Apply;
      else {
        std::fprintf(stderr, "unknown exact-pipeline mode '%s'\n",
                     Mode.c_str());
        return 2;
      }
    } else if (A == "--inline") {
      DoInline = true;
    } else if (A == "--regalloc") {
      DoRegalloc = true;
    } else if (A.rfind("--threads=", 0) == 0) {
      Threads = static_cast<unsigned>(std::atoi(A.c_str() + 10));
      if (!Threads) {
        std::fprintf(stderr, "--threads wants a positive count\n");
        return 2;
      }
    } else if (A == "--emit-ir") {
      EmitIr = true;
    } else if (A == "--stats") {
      Stats = true;
    } else if (!A.empty() && A[0] == '-') {
      return usage(Argv[0]);
    } else {
      Path = A;
    }
  }
  if (Path.empty())
    return usage(Argv[0]);

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot open %s\n", Path.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  FrontendOptions FeOpts;
  FeOpts.AssumeSafeLoads = true;
  CompileResult Compiled = compileMiniC(Source, FeOpts);
  if (!Compiled.ok()) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                 Compiled.Error.c_str());
    return 1;
  }

  if (Pdf && !LoadProfiles.empty()) {
    std::fprintf(stderr, "--pdf and --load-profile are exclusive\n");
    return 2;
  }
  if (LoadProfiles.size() > 1 && !Merge) {
    std::fprintf(stderr, "multiple --load-profile files need --merge\n");
    return 2;
  }

  PipelineOptions Opts;
  Opts.Machine = Machine;
  Opts.Inlining = DoInline;
  Opts.AllocateRegisters = DoRegalloc;
  Opts.Threads = Threads;
  Opts.Superblocks = Superblocks;
  Opts.ExactPipelining = ExactMode;
  PipelineStats PStats;
  Opts.Stats = &PStats;
  // Every profile mode trains on (and gates the layout with) the run args.
  PdfExperimentOptions PO;
  PO.Machine = Machine;
  PO.Threads = Threads;
  PO.Train.resize(1);
  PO.Train.front().Args = Args;

  // Exact dense profile of the program on the run args; with --merge an
  // existing file accumulates across processes.
  if (!SaveProfile.empty()) {
    PO.ProfileSource = PdfExperimentOptions::Source::Exact;
    PdfFeedback F = collectPdfFeedback(*Compiled.M, PO, nullptr);
    if (!F.ok()) {
      std::fprintf(stderr, "profile collection: %s\n", F.Error.c_str());
      return 1;
    }
    std::string Err = saveProfile(F.Profile, SaveProfile, Merge);
    if (!Err.empty()) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
  }

  DenseProfile Loaded;
  ProfileData Profile;
  if (Pdf || !LoadProfiles.empty()) {
    if (!LoadProfiles.empty()) {
      std::string Err = loadProfiles(LoadProfiles, Loaded);
      if (!Err.empty()) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        return 1;
      }
      PO.LoadedProfile = &Loaded;
    }
    PO.ProfileSource = PdfExperimentOptions::Source::Counters;
    PdfFeedback F = collectPdfFeedback(*Compiled.M, PO, Compiled.M.get());
    if (!F.ok()) {
      std::fprintf(stderr, "%s\n", F.Error.c_str());
      return 1;
    }
    Profile = std::move(F.Feedback);
    Opts.Profile = &Profile;
    Opts.TrainBattery = &PO.Train; // measured layout gate
  }
  optimize(*Compiled.M, Level, Opts);
  if (ExactMode != ExactPipelineMode::Off) {
    for (const LoopPipelineRecord &R : PStats.PipelineLoops)
      std::fprintf(stderr,
                   "exact-pipeline: %s/%s body=%u min-II=%u heuristic-II=%u "
                   "exact-II=%u verdict=%s%s\n",
                   R.Function.c_str(), R.Header.c_str(), R.BodyInstrs,
                   R.minII(), R.HeuristicII, R.ExactII,
                   exactVerdictName(R.Verdict),
                   R.Applied ? " applied" : "");
  }
  if (Opts.Profile)
    std::fprintf(stderr, "pdf-layout: %s\n",
                 pdfLayoutName(PStats.PdfLayoutKept));

  if (EmitIr) {
    std::fputs(printModule(*Compiled.M).c_str(), stdout);
    return 0;
  }

  RunOptions RunOpts;
  RunOpts.Args = Args;
  RunResult R = simulate(*Compiled.M, Machine, RunOpts);
  std::fputs(R.Output.c_str(), stdout);
  if (R.Trapped) {
    std::fprintf(stderr, "trap: %s\n", R.TrapMsg.c_str());
    return 1;
  }
  if (Stats) {
    std::fprintf(stderr,
                 "[%s, %s] cycles=%llu instrs=%llu ipc=%.2f "
                 "operand-stalls=%llu branch-stalls=%llu\n",
                 optLevelName(Level), Machine.Name.c_str(),
                 static_cast<unsigned long long>(R.Cycles),
                 static_cast<unsigned long long>(R.DynInstrs),
                 static_cast<double>(R.DynInstrs) /
                     static_cast<double>(R.Cycles ? R.Cycles : 1),
                 static_cast<unsigned long long>(R.OperandStallCycles),
                 static_cast<unsigned long long>(R.BranchStallCycles));
    std::fprintf(stderr, "analysis builds:");
    for (unsigned K = 0; K != NumAnalysisKinds; ++K)
      std::fprintf(stderr, " %s=%llu",
                   analysisKindName(static_cast<AnalysisKind>(K)),
                   static_cast<unsigned long long>(
                       PStats.AnalysisMissesByKind[K]));
    std::fprintf(stderr, " (total %llu, cache hits %llu)\n",
                 static_cast<unsigned long long>(PStats.AnalysisMisses),
                 static_cast<unsigned long long>(PStats.AnalysisHits));
  }
  return static_cast<int>(R.ExitCode & 0xff);
}
