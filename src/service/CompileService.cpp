//===- service/CompileService.cpp - Request-oriented compile service --------===//

#include "service/CompileService.h"

#include "audit/PassAudit.h" // cloneModule
#include "frontend/Frontend.h"
#include "ir/Printer.h"
#include "pdf/ProfileStore.h"
#include "profile/Counters.h"
#include "support/ThreadPool.h"
#include "workloads/Registry.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <unordered_map>

using namespace vsc;

namespace {

// --- rendering helpers (everything snprintf'd, so bytes are stable) ---------

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string dec64(uint64_t V) {
  return std::to_string(static_cast<unsigned long long>(V));
}

std::string oneLine(std::string S) {
  for (char &C : S)
    if (C == '\n' || C == '\r')
      C = ';';
  return S;
}

// --- live artifact bodies ---------------------------------------------------

/// Frontend / Prepared / Optimized artifacts carry the module plus the
/// derived values responses render from (recomputing them on every hit
/// would dwarf the lookup).
struct ModuleBody {
  std::shared_ptr<Module> M;
  uint64_t CfgFp = 0;
  uint64_t IrHash = 0; ///< FNV-1a of the printed module
  uint64_t Instrs = 0; ///< static instruction count
  int PdfLayoutKept = -1;
};

/// Image artifacts own a predecoded engine. SimEngine is not thread-safe
/// (pooled arena), so every use locks Mu; the module artifact rides along
/// so eviction of the module entry cannot dangle the engine.
struct EngineHolder {
  std::shared_ptr<const Artifact> ModuleArt;
  SimEngine Engine;
  std::mutex Mu;
  EngineHolder(std::shared_ptr<const Artifact> Art, const Module &M,
               const MachineModel &Machine)
      : ModuleArt(std::move(Art)), Engine(M, Machine) {}
};

uint64_t staticInstrCount(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += BB->instrs().size();
  return N;
}

std::shared_ptr<ModuleBody> makeModuleBody(std::unique_ptr<Module> M,
                                           int LayoutKept = -1) {
  auto B = std::make_shared<ModuleBody>();
  B->M = std::move(M);
  B->CfgFp = cfgFingerprint(*B->M);
  B->Instrs = staticInstrCount(*B->M);
  B->PdfLayoutKept = LayoutKept;
  return B;
}

const ModuleBody &moduleBody(const Artifact &A) {
  return *static_cast<const ModuleBody *>(A.Live.get());
}

uint64_t batteryHash(const std::vector<RunOptions> &Battery) {
  uint64_t H = 1469598103934665603ULL;
  for (const RunOptions &R : Battery)
    H = fnv1aWords({runOptionsFingerprint(R)}, H);
  return H;
}

std::string renderRunBody(const RunResult &R) {
  std::string S = "exit=" + std::to_string(R.ExitCode) +
                  " cycles=" + dec64(R.Cycles) +
                  " instrs=" + dec64(R.DynInstrs) +
                  " ostalls=" + dec64(R.OperandStallCycles) +
                  " bstalls=" + dec64(R.BranchStallCycles) +
                  " out=" + hex64(fnv1aBytes(R.Output.data(),
                                             R.Output.size())) +
                  " mem=" + hex64(R.MemDigest);
  if (R.Trapped)
    S += " trap=" + oneLine(R.TrapMsg);
  return S;
}

} // namespace

struct CompileService::Impl {
  Config Cfg;
  ArtifactCache Cache;
  std::atomic<uint64_t> Groups{0};

  explicit Impl(Config C) : Cfg(C), Cache(C.CacheBytes) {}

  // --- stage functions: each is (content key -> artifact), cache-backed ----

  /// source text -> verified module.
  std::shared_ptr<const Artifact> frontendArt(const std::string &Src,
                                              uint64_t SrcHash,
                                              std::string &Err) {
    ArtifactKey K{ArtifactClass::Frontend, fnv1aWords({SrcHash})};
    if (auto A = Cache.get(K, SrcHash))
      return A;
    FrontendOptions FeOpts;
    FeOpts.AssumeSafeLoads = true;
    CompileResult C = compileMiniC(Src, FeOpts);
    if (!C.ok()) {
      Err = C.Error; // compile failures are not cached
      return nullptr;
    }
    std::string Printed = printModule(*C.M);
    Artifact A = makeArtifact(ArtifactClass::Frontend, SrcHash, Printed);
    auto Body = makeModuleBody(std::move(C.M));
    Body->IrHash = fnv1aBytes(Printed.data(), Printed.size());
    A.Live = Body;
    A.LiveBytes = Printed.size();
    return Cache.put(K, std::move(A));
  }

  /// module -> run-ready training clone (profile/Counters.h
  /// prepareForTraining).
  /// Module-derived keys fold the printed module's hash next to its CFG
  /// fingerprint: two programs can share a CFG shape (block and edge
  /// labels) while their instructions differ.
  std::shared_ptr<const Artifact>
  preparedArt(const std::shared_ptr<const Artifact> &Frontend,
              uint64_t *KeyOut) {
    const ModuleBody &Src = moduleBody(*Frontend);
    uint64_t Key =
        fnv1aWords({Src.CfgFp, Src.IrHash,
                    optionsFingerprint(OptLevel::None, PipelineOptions())});
    if (KeyOut)
      *KeyOut = Key;
    ArtifactKey K{ArtifactClass::Prepared, Key};
    if (auto A = Cache.get(K, Src.CfgFp))
      return A;
    auto Prepared = prepareForTraining(*Src.M);
    std::string Printed = printModule(*Prepared);
    Artifact A = makeArtifact(ArtifactClass::Prepared, Src.CfgFp, Printed);
    auto Body = makeModuleBody(std::move(Prepared));
    Body->IrHash = fnv1aBytes(Printed.data(), Printed.size());
    A.Live = Body;
    A.LiveBytes = Printed.size();
    return Cache.put(K, std::move(A));
  }

  /// module × options (× profile/gate content folded into \p KeySalt by
  /// the caller) -> optimized module. \p Opts.Threads is forced to 1: the
  /// service parallelizes across request groups, never inside a stage.
  std::shared_ptr<const Artifact>
  optimizedArt(const std::shared_ptr<const Artifact> &Frontend, OptLevel L,
               PipelineOptions Opts, uint64_t KeySalt, uint64_t *KeyOut) {
    const ModuleBody &Src = moduleBody(*Frontend);
    Opts.Threads = 1;
    uint64_t Key = fnv1aWords(
        {Src.CfgFp, Src.IrHash, optionsFingerprint(L, Opts), KeySalt});
    if (KeyOut)
      *KeyOut = Key;
    ArtifactKey K{ArtifactClass::Optimized, Key};
    if (auto A = Cache.get(K, Src.CfgFp))
      return A;
    PipelineStats Stats;
    Opts.Stats = &Stats;
    auto Opt = optimizedClone(*Src.M, L, Opts);
    std::string Printed = printModule(*Opt);
    Artifact A = makeArtifact(ArtifactClass::Optimized, Src.CfgFp, Printed);
    auto Body = makeModuleBody(std::move(Opt), Stats.PdfLayoutKept);
    Body->IrHash = fnv1aBytes(Printed.data(), Printed.size());
    A.Live = Body;
    A.LiveBytes = Printed.size();
    return Cache.put(K, std::move(A));
  }

  /// module × machine -> predecoded engine. Keyed by the *module
  /// artifact's* key hash, not its CFG fingerprint: two optimization
  /// levels can share a CFG shape while the instructions differ.
  std::shared_ptr<const Artifact>
  imageArt(const std::shared_ptr<const Artifact> &ModArt, uint64_t ModKey,
           const MachineModel &Machine, uint64_t *KeyOut) {
    const ModuleBody &Body = moduleBody(*ModArt);
    uint64_t Key = fnv1aWords({ModKey, machineFingerprint(Machine)});
    if (KeyOut)
      *KeyOut = Key;
    ArtifactKey K{ArtifactClass::Image, Key};
    if (auto A = Cache.get(K, Body.CfgFp))
      return A;
    Artifact A = makeArtifact(ArtifactClass::Image, Body.CfgFp, "");
    A.Live = std::make_shared<EngineHolder>(ModArt, *Body.M, Machine);
    A.LiveBytes = 4 * ModArt->Sealed.size();
    return Cache.put(K, std::move(A));
  }

  /// image × run options -> one simulation's result (stripped of the
  /// per-run maps; responses only need the scalar fields and digests).
  std::shared_ptr<const Artifact>
  simResultArt(const std::shared_ptr<const Artifact> &ImgArt,
               uint64_t ImgKey, const RunOptions &Run) {
    uint64_t Key = fnv1aWords({ImgKey, runOptionsFingerprint(Run)});
    ArtifactKey K{ArtifactClass::SimResult, Key};
    if (auto A = Cache.get(K, ImgArt->Fingerprint))
      return A;
    auto Holder = std::static_pointer_cast<EngineHolder>(ImgArt->Live);
    RunResult R;
    {
      std::lock_guard<std::mutex> Lock(Holder->Mu);
      R = Holder->Engine.run(Run);
    }
    R.BlockCounts.clear();
    R.EdgeCounts.clear();
    R.Memory.clear();
    R.Memory.shrink_to_fit();
    Artifact A = makeArtifact(ArtifactClass::SimResult, ImgArt->Fingerprint,
                              renderRunBody(R));
    A.Live = std::make_shared<RunResult>(std::move(R));
    A.LiveBytes = 256;
    return Cache.put(K, std::move(A));
  }

  /// prepared image × training battery -> dense profile
  /// (collectDenseProfile against the cached engine).
  std::shared_ptr<const Artifact>
  profileArt(const std::shared_ptr<const Artifact> &PrepImg,
             uint64_t PrepImgKey, const std::vector<RunOptions> &Train,
             std::string &Err) {
    uint64_t Key = fnv1aWords({PrepImgKey, batteryHash(Train)});
    ArtifactKey K{ArtifactClass::Profile, Key};
    if (auto A = Cache.get(K, PrepImg->Fingerprint))
      return A;
    auto Holder = std::static_pointer_cast<EngineHolder>(PrepImg->Live);
    DenseProfile P;
    {
      std::lock_guard<std::mutex> Lock(Holder->Mu);
      P = collectDenseProfile(Holder->Engine, Train, /*Threads=*/1, &Err);
    }
    if (!Err.empty())
      return nullptr;
    std::vector<uint8_t> Bytes = P.serialize();
    std::string Payload(Bytes.begin(), Bytes.end());
    Artifact A = makeArtifact(ArtifactClass::Profile, P.CfgHash, Payload);
    A.Live = std::make_shared<DenseProfile>(std::move(P));
    A.LiveBytes = Payload.size();
    return Cache.put(K, std::move(A));
  }

  /// persisted profile file -> validated DenseProfile, keyed by the file
  /// bytes (so re-reads of an unchanged file hit).
  std::shared_ptr<const Artifact> loadedProfileArt(const std::string &Path,
                                                   std::string &Err) {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      Err = "cannot open " + Path;
      return nullptr;
    }
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    uint64_t Key = fnv1aWords({fnv1aBytes(Bytes.data(), Bytes.size())});
    ArtifactKey K{ArtifactClass::Profile, Key};
    if (auto A = Cache.get(K, /*ExpectFp=*/0))
      return A;
    DenseProfile P;
    Err = DenseProfile::deserialize(
        reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size(), P);
    if (!Err.empty()) {
      Err = Path + ": " + Err;
      return nullptr;
    }
    Artifact A = makeArtifact(ArtifactClass::Profile, P.CfgHash, Bytes);
    A.Live = std::make_shared<DenseProfile>(std::move(P));
    A.LiveBytes = Bytes.size();
    return Cache.put(K, std::move(A));
  }

  // --- request handling ----------------------------------------------------

  ServiceResponse handleOne(const ServiceRequest &R);
};

namespace {

ServiceResponse errorResponse(const std::string &Name,
                              const std::string &Msg) {
  ServiceResponse Resp;
  Resp.Name = Name;
  Resp.Ok = false;
  Resp.Text = oneLine(Msg);
  return Resp;
}

/// Resolves the request's program text: registry kernel or inline source.
/// \returns false with \p Err set on an unknown kernel / missing source.
bool resolveSource(const ServiceRequest &R, std::string &Src,
                   std::string &Target, const Workload **W,
                   std::string &Err) {
  *W = nullptr;
  if (!R.Kernel.empty()) {
    *W = workloads::findKernel(R.Kernel);
    if (!*W) {
      Err = "unknown kernel '" + R.Kernel + "'";
      return false;
    }
    Src = (*W)->Source;
    Target = R.Kernel;
    return true;
  }
  if (R.Source.empty()) {
    Err = "request has neither kernel= nor source text";
    return false;
  }
  Src = R.Source;
  Target = "src";
  return true;
}

std::vector<RunOptions> scaleBattery(const std::vector<int64_t> &Scales) {
  std::vector<RunOptions> B;
  B.reserve(Scales.size());
  for (int64_t S : Scales)
    B.push_back(workloadInput(S));
  return B;
}

} // namespace

ServiceResponse CompileService::Impl::handleOne(const ServiceRequest &R) {
  std::string Err;
  const MachineModel *Machine = findMachine(R.MachineName);
  if (!Machine)
    return errorResponse(R.Name, "unknown machine '" + R.MachineName + "'");

  std::string Src, Target;
  const Workload *W = nullptr;
  if (!resolveSource(R, Src, Target, &W, Err))
    return errorResponse(R.Name, Err);
  uint64_t SrcHash = fnv1aBytes(Src.data(), Src.size());

  auto Frontend = frontendArt(Src, SrcHash, Err);
  if (!Frontend)
    return errorResponse(R.Name, Err);

  std::string Head = "op=";
  switch (R.Kind) {
  case ServiceRequest::Op::Compile:
    Head += "compile";
    break;
  case ServiceRequest::Op::Simulate:
    Head += "simulate";
    break;
  case ServiceRequest::Op::Pdf:
    Head += "pdf";
    break;
  case ServiceRequest::Op::SaveProfile:
    Head += "save-profile";
    break;
  }
  Head += " target=" + Target + " level=" + optLevelName(R.Level) +
          " machine=" + Machine->Name;

  ServiceResponse Resp;
  Resp.Name = R.Name;
  Resp.Ok = true;

  switch (R.Kind) {
  case ServiceRequest::Op::Compile: {
    PipelineOptions Opts;
    Opts.Machine = *Machine;
    Opts.Superblocks = R.Superblocks;
    uint64_t Salt = 0;
    ProfileData Feedback;
    std::vector<RunOptions> Gate(1);
    std::shared_ptr<const Artifact> Prof;
    if (!R.ProfileIn.empty()) {
      Prof = loadedProfileArt(R.ProfileIn, Err);
      if (!Prof)
        return errorResponse(R.Name, Err);
      const auto &P = *std::static_pointer_cast<const DenseProfile>(
          Prof->Live);
      std::string Stale = P.validateFor(*moduleBody(*Frontend).M);
      if (!Stale.empty())
        return errorResponse(R.Name, Stale);
      Feedback = P.toProfileData();
      Gate.front().Args = R.Args;
      Opts.Profile = &Feedback;
      Opts.TrainBattery = &Gate; // measured layout gate, vscc parity
      Salt = fnv1aWords({fnv1aBytes(Prof->Sealed.data(),
                                    Prof->Sealed.size()),
                         batteryHash(Gate)});
    }
    auto Opt = optimizedArt(Frontend, R.Level, Opts, Salt, nullptr);
    const ModuleBody &B = moduleBody(*Opt);
    Resp.Text = Head + " fp=" + hex64(B.CfgFp) + " ir=" + hex64(B.IrHash) +
                " instrs=" + dec64(B.Instrs);
    if (!R.ProfileIn.empty())
      Resp.Text += std::string(" layout=") + pdfLayoutName(B.PdfLayoutKept);
    return Resp;
  }

  case ServiceRequest::Op::Simulate: {
    PipelineOptions Opts;
    Opts.Machine = *Machine;
    Opts.Superblocks = R.Superblocks;
    uint64_t OptKey = 0, ImgKey = 0;
    auto Opt = optimizedArt(Frontend, R.Level, Opts, 0, &OptKey);
    auto Img = imageArt(Opt, OptKey, *Machine, &ImgKey);
    RunOptions Run;
    Run.Args = R.Args;
    Run.Input = R.Input;
    auto Res = simResultArt(Img, ImgKey, Run);
    std::string Body;
    openArtifact(Res->Sealed, ArtifactClass::SimResult, Res->Fingerprint,
                 &Body);
    Resp.Text = Head + " " + Body;
    return Resp;
  }

  case ServiceRequest::Op::Pdf: {
    std::vector<int64_t> TrainScales = R.Train, TestScales = R.Test;
    if (TrainScales.empty() && W)
      TrainScales = {W->TrainScale};
    if (TestScales.empty() && W)
      TestScales = {W->RefScale};
    if (TrainScales.empty() || TestScales.empty())
      return errorResponse(R.Name, "pdf needs train= and test= batteries");
    std::vector<RunOptions> Train = scaleBattery(TrainScales);
    std::vector<RunOptions> Test = scaleBattery(TestScales);

    // Train: profile the prepared clone through the cached engine.
    uint64_t PrepKey = 0, PrepImgKey = 0;
    auto Prepared = preparedArt(Frontend, &PrepKey);
    auto PrepImg = imageArt(Prepared, PrepKey, *Machine, &PrepImgKey);
    auto Prof = profileArt(PrepImg, PrepImgKey, Train, Err);
    if (!Prof)
      return errorResponse(R.Name, Err);
    const auto &P =
        *std::static_pointer_cast<const DenseProfile>(Prof->Live);
    ProfileData Feedback = P.toProfileData();

    // Baseline: byte-identical to a plain compile, so the artifact is
    // shared with every Compile/Simulate request at this level.
    PipelineOptions BaseOpts;
    BaseOpts.Machine = *Machine;
    uint64_t BaseKey = 0;
    auto Base = optimizedArt(Frontend, R.Level, BaseOpts, 0, &BaseKey);

    // Guided: salt the key with the profile + gate-battery content.
    PipelineOptions GuidedOpts;
    GuidedOpts.Machine = *Machine;
    GuidedOpts.Superblocks = R.Superblocks;
    GuidedOpts.Profile = &Feedback;
    GuidedOpts.TrainBattery = &Train;
    uint64_t GuidedKey = 0;
    uint64_t Salt = fnv1aWords(
        {fnv1aBytes(Prof->Sealed.data(), Prof->Sealed.size()),
         batteryHash(Train)});
    auto Guided =
        optimizedArt(Frontend, R.Level, GuidedOpts, Salt, &GuidedKey);

    // Measure both over the test battery, per-input results cached.
    uint64_t BaseImgKey = 0, GuidedImgKey = 0;
    auto BaseImg = imageArt(Base, BaseKey, *Machine, &BaseImgKey);
    auto GuidedImg = imageArt(Guided, GuidedKey, *Machine, &GuidedImgKey);
    uint64_t BaseCycles = 0, GuidedCycles = 0;
    for (size_t I = 0; I != Test.size(); ++I) {
      auto BR = simResultArt(BaseImg, BaseImgKey, Test[I]);
      auto GR = simResultArt(GuidedImg, GuidedImgKey, Test[I]);
      const auto &BRun =
          *std::static_pointer_cast<const RunResult>(BR->Live);
      const auto &GRun =
          *std::static_pointer_cast<const RunResult>(GR->Live);
      if (BRun.fingerprint() != GRun.fingerprint())
        return errorResponse(
            R.Name, "behaviour diverged on test input " +
                        std::to_string(I) + ": baseline " +
                        BRun.fingerprint() + " vs guided " +
                        GRun.fingerprint());
      BaseCycles += BRun.Cycles;
      GuidedCycles += GRun.Cycles;
    }
    double Gain = GuidedCycles ? static_cast<double>(BaseCycles) /
                                     static_cast<double>(GuidedCycles)
                               : 1.0;
    char GainBuf[32];
    std::snprintf(GainBuf, sizeof(GainBuf), "%.4f", Gain);
    Resp.Text = Head + " base=" + dec64(BaseCycles) +
                " guided=" + dec64(GuidedCycles) + " gain=" + GainBuf +
                " layout=" + pdfLayoutName(moduleBody(*Guided).PdfLayoutKept) +
                " proffp=" + hex64(P.CfgHash);
    return Resp;
  }

  case ServiceRequest::Op::SaveProfile: {
    if (R.ProfileOut.empty())
      return errorResponse(R.Name, "save-profile needs out=FILE");
    std::vector<RunOptions> Train;
    if (!R.Train.empty()) {
      Train = scaleBattery(R.Train);
    } else {
      RunOptions Run;
      Run.Args = R.Args;
      Train = {Run};
    }
    uint64_t PrepKey = 0, PrepImgKey = 0;
    auto Prepared = preparedArt(Frontend, &PrepKey);
    auto PrepImg = imageArt(Prepared, PrepKey, *Machine, &PrepImgKey);
    auto Prof = profileArt(PrepImg, PrepImgKey, Train, Err);
    if (!Prof)
      return errorResponse(R.Name, Err);
    const auto &P =
        *std::static_pointer_cast<const DenseProfile>(Prof->Live);
    std::string SaveErr = P.saveFile(R.ProfileOut);
    if (!SaveErr.empty())
      return errorResponse(R.Name, SaveErr);
    Resp.Text = Head + " file=" + R.ProfileOut +
                " fp=" + hex64(P.CfgHash) +
                " blocks=" + dec64(P.BlockKeys.size()) +
                " edges=" + dec64(P.EdgeKeys.size());
    return Resp;
  }
  }
  return errorResponse(R.Name, "unhandled request kind");
}

// --- public surface ---------------------------------------------------------

CompileService::CompileService() : CompileService(Config()) {}

CompileService::CompileService(Config Cfg)
    : I(std::make_unique<Impl>(Cfg)) {}

CompileService::~CompileService() = default;

std::vector<ServiceResponse>
CompileService::handleBatch(const std::vector<ServiceRequest> &Requests) {
  std::vector<ServiceResponse> Out(Requests.size());

  // Group same-module requests (source × machine): one group walks one
  // artifact chain sequentially, so N same-module requests cost one cold
  // compile plus N-1 hits even inside a single batch.
  std::unordered_map<uint64_t, size_t> GroupOf;
  std::vector<std::vector<size_t>> Groups;
  for (size_t Idx = 0; Idx != Requests.size(); ++Idx) {
    const ServiceRequest &R = Requests[Idx];
    uint64_t SrcHash = 0;
    if (!R.Kernel.empty()) {
      if (const Workload *W = workloads::findKernel(R.Kernel))
        SrcHash = fnv1aBytes(W->Source.data(), W->Source.size());
    } else {
      SrcHash = fnv1aBytes(R.Source.data(), R.Source.size());
    }
    const MachineModel *M = findMachine(R.MachineName);
    uint64_t GKey =
        fnv1aWords({SrcHash, M ? machineFingerprint(*M) : 0});
    auto It = GroupOf.find(GKey);
    if (It == GroupOf.end()) {
      It = GroupOf.emplace(GKey, Groups.size()).first;
      Groups.emplace_back();
    }
    Groups[It->second].push_back(Idx);
  }
  I->Groups += Groups.size();

  unsigned Threads =
      I->Cfg.Threads ? I->Cfg.Threads : ThreadPool::defaultThreadCount();
  ThreadPool Pool(Threads);
  Pool.parallelFor(Groups.size(), [&](size_t G) {
    for (size_t Idx : Groups[G])
      Out[Idx] = I->handleOne(Requests[Idx]);
  });
  return Out;
}

ServiceResponse CompileService::handle(const ServiceRequest &R) {
  return handleBatch({R}).front();
}

ArtifactCache &CompileService::cache() { return I->Cache; }
const ArtifactCache &CompileService::cache() const { return I->Cache; }

uint64_t CompileService::groupsFormed() const { return I->Groups.load(); }
