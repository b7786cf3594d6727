//===- perfbench/ServiceMix.cpp - Compile-service request stream ----------===//
///
/// One operation is one CompileService::handle request (one service
/// thread). The only workload where the vscd layer does the work: cache
/// lookup, seal validation, LRU eviction and stage chaining. Its pdf
/// requests take the service's dense exact-profile path, not the counter
/// path. A change that makes compiles faster but artifacts bigger, or hits
/// slower, shows here.
///
/// The stream:
///  * corpus — the 11 registry kernels plus small generated programs;
///  * items — (program, compile/simulate/pdf, machine, level), ranked once
///    by a fixed shuffle;
///  * popularity — Zipf, truncated at one request a round: hot rank r is
///    requested about 30 / r times a round, the ColdItems ranks after the
///    hot set once a round each;
///  * order — a hot item's requests are spaced evenly over the round from
///    a seeded phase; the cold items keep their rank order. Every seed asks
///    for the same work, interleaved differently;
///  * cache — the byte budget holds the hot items' artifacts plus the
///    cold misses between two requests of one hot item, but not a round's
///    cold misses. So hot requests hit, cold requests miss again each
///    round (30 of the 33; the other three reuse hot items' artifacts),
///    and which artifacts are evicted does not depend on the seed: the
///    hit, miss and eviction counts repeat for every seed.
///
/// Set-up builds the references and serves the hot items once each (the
/// cold misses a fresh vscd pays once); the measured rounds follow.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Printer.h"
#include "service/CompileService.h"
#include "workloads/Registry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>

using namespace vsc;

namespace perfbench {
namespace {

/// One measured round (see passesFor).
constexpr double RoundSeconds = 2.9;
/// Requests a round of hot ranks 1, 2, ...: Zipf, 30 / rank, rounded.
constexpr unsigned HotCounts[] = {30, 15, 10, 8, 6, 5, 4, 4};
constexpr size_t HotItems = std::size(HotCounts);
/// A round is 115 requests, 85 of them hits (73.9%). op_p50_ms and
/// op_p90_ms must each take their weight from one latency cluster: all
/// but about 1e-4 of the Harrell-Davis weight of quantile p lies within
/// 4 sqrt(p (1-p) / N) of share p of the N sorted requests, which for any
/// whole number of rounds keeps p50 among the hits and p90 among the
/// misses.
constexpr size_t ColdItems = 33;
/// All 41 items' artifacts take 2.2 MB. Hit, miss and eviction counts
/// are the same for every seed from 1300 to 1900 KiB; at 1100 KiB hot
/// artifacts start to fall out between two of their requests.
constexpr size_t CacheBytes = size_t(1500) << 10;
/// Fixed, so that the ranking — and with it the work — is the same for
/// every run seed.
constexpr uint64_t RankingSeed = 0x5e41ce;

const OptLevel Levels[] = {OptLevel::Classical, OptLevel::Vliw};
const ServiceRequest::Op Ops[] = {ServiceRequest::Op::Compile,
                                  ServiceRequest::Op::Simulate,
                                  ServiceRequest::Op::Pdf};

/// FNV-1a, the digest the service prints as out= and ir=; the benchmark's
/// own copy, so the check does not lean on the code under test.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

/// The value of " key=" in a response line, or "" when absent.
std::string field(const std::string &Text, const std::string &Key) {
  std::string Needle = " " + Key + "=";
  size_t At = Text.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  return Text.substr(At, Text.find(' ', At) - At);
}

class ServiceMix : public Workload {
public:
  explicit ServiceMix(const Options &O) : Opt(O) {}

  void setup() override {
    buildCorpus();

    std::vector<Item> All;
    for (size_t P = 0; P != Corpus.size(); ++P)
      for (ServiceRequest::Op Op : Ops)
        for (size_t M = 0; M != std::size(MachineNames); ++M)
          for (OptLevel L : Levels)
            All.push_back({P, Op, M, L});
    std::vector<size_t> Ranking = seededOrder(All.size(), RankingSeed);
    for (size_t R = 0; R != HotItems + ColdItems; ++R) {
      Items.push_back(All[Ranking[R]]);
      buildReference(Items.back());
    }
    FirstText.assign(Items.size(), "");
    if (Opt.PlantWrongReference)
      for (const Item &It : Items)
        if (It.Op == ServiceRequest::Op::Simulate) {
          plantWrong(Corpus[It.Prog].Ref);
          break;
        }

    CompileService::Config Cfg;
    Cfg.CacheBytes = CacheBytes;
    Cfg.Threads = 1;
    Service = std::make_unique<CompileService>(Cfg);
    for (size_t I : seededOrder(HotItems, Opt.Seed * 1000003))
      serve(I);
    for (size_t C = 0; C != NumClasses; ++C)
      WarmStats[C] = Service->cache().stats(static_cast<ArtifactClass>(C));

    // One round: each request at a position in [0, 1), sorted.
    std::vector<std::pair<double, size_t>> Round;
    Rng Phases(Opt.Seed * 1000003 + 1);
    for (size_t R = 0; R != HotItems; ++R) {
      double Phase = Phases.unit();
      for (unsigned J = 0; J != HotCounts[R]; ++J)
        Round.push_back({(Phase + J) / HotCounts[R], R});
    }
    for (size_t K = 0; K != ColdItems; ++K)
      Round.push_back({(static_cast<double>(K) + 0.5) / ColdItems,
                       HotItems + K});
    std::sort(Round.begin(), Round.end());
    for (unsigned R = 0; R != passesFor(Opt, RoundSeconds); ++R)
      for (const auto &Slot : Round)
        Sequence.push_back(Slot.second);
  }

  bool runOp(size_t ItemIdx) override {
    uint64_t MissesBefore = Service->cache().totals().Misses;
    double Start = now();
    ServiceResponse R = serve(ItemIdx);
    double Ms = (now() - Start) * 1e3;
    bool Miss = Service->cache().totals().Misses != MissesBefore;
    (Miss ? MissMs : HitMs).push_back(Ms);
    return check(ItemIdx, R);
  }

  /// The stream's programs are compiled inside the service, where the
  /// benchmark cannot see cycles or sizes without adding requests; the
  /// code-quality ratios are measured on paper_matrix and big_loops.
  void reportQuality(Results &) const override {}

  void reportLayers(Results &R) const override {
    R.set("frontend.ir_instrs", static_cast<double>(FrontendInstrs));
    R.set("sim.dyn_instrs", static_cast<double>(RefDynInstrs));
    R.set("service.hit.p50_ms", percentile(HitMs, 0.5));
    R.set("service.hit.p90_ms", percentile(HitMs, 0.9));
    R.set("service.miss.p10_ms", percentile(MissMs, 0.1));
    R.set("service.miss.p50_ms", percentile(MissMs, 0.5));
    double MissSeconds = 0;
    for (double Ms : MissMs)
      MissSeconds += Ms / 1e3;
    R.set("service.miss.self_s", MissSeconds);
    R.set("service.hit_ratio",
          static_cast<double>(HitMs.size()) /
              static_cast<double>(HitMs.size() + MissMs.size()));
    const ArtifactCache &Cache = Service->cache();
    for (size_t C = 0; C != NumClasses; ++C) {
      ArtifactClass AC = static_cast<ArtifactClass>(C);
      ArtifactClassStats S = Cache.stats(AC);
      std::string P = std::string("service.cache.") + artifactClassName(AC);
      R.set(P + ".hits", static_cast<double>(S.Hits - WarmStats[C].Hits));
      R.set(P + ".misses",
            static_cast<double>(S.Misses - WarmStats[C].Misses));
      R.set(P + ".evictions",
            static_cast<double>(S.Evictions - WarmStats[C].Evictions));
    }
    R.set("service.cache.bytes_used", static_cast<double>(Cache.bytesUsed()));
    R.set("service.cache.entries", static_cast<double>(Cache.entryCount()));
  }

private:
  struct Program {
    std::string Kernel; ///< registry name, or empty for generated source
    std::string Source;
    std::unique_ptr<Module> M; ///< the front end's module, for references
    /// simulate runs main(SimArg); pdf measures on it too.
    int64_t SimArg = 0;
    std::vector<int64_t> Train, Test; ///< pdf scales; empty = kernel's own
    Expected Ref;
  };
  struct Item {
    size_t Prog;
    ServiceRequest::Op Op;
    size_t Machine;
    OptLevel Level;
    /// References computed outside the service: the FNV-1a digest of the
    /// printed optimized module, and its cycles on main(SimArg).
    uint64_t RefIr = 0;
    uint64_t RefCycles = 0;
  };
  static constexpr size_t NumClasses =
      static_cast<size_t>(ArtifactClass::NumClasses);

  void buildCorpus() {
    for (const vsc::Workload &W : workloads::allKernels()) {
      Program P;
      P.Kernel = W.Name;
      P.SimArg = W.RefScale;
      {
        ScopedSpan S("frontend");
        P.M = buildWorkload(W);
      }
      FrontendInstrs += P.M->instrCount();
      P.Ref = kernelReference(W, *P.M);
      Corpus.push_back(std::move(P));
    }
    for (const ProgramSpec &Spec : serviceCorpusPrograms()) {
      Generated G = compileGenerated(Spec);
      Program P;
      P.Source = std::move(G.Source);
      P.M = std::move(G.M);
      if (P.M)
        FrontendInstrs += P.M->instrCount();
      P.SimArg = LoopTripCount;
      // pdf trains on a shorter run than it measures, as the kernels do.
      P.Train = {LoopTripCount / 4};
      P.Test = {LoopTripCount};
      P.Ref = std::move(G.Ref);
      Corpus.push_back(std::move(P));
    }
  }

  /// The item's optimized module, built outside the service from the same
  /// front-end module, printed and run. A generated program the front end
  /// rejected keeps no reference, so every request for it fails the check.
  void buildReference(Item &It) {
    const Module *M = Corpus[It.Prog].M.get();
    if (!M)
      return;
    const MachineModel &Machine = *findMachine(MachineNames[It.Machine]);
    std::unique_ptr<Module> O = optimize(*M, It.Level, Machine);
    It.RefIr = fnv1a(printModule(*O));
    RunResult Run = predecodeAndRun(*O, Machine, Corpus[It.Prog].SimArg);
    It.RefCycles = Run.Cycles;
    RefDynInstrs += Run.DynInstrs;
  }

  ServiceResponse serve(size_t ItemIdx) {
    const Item &It = Items[ItemIdx];
    const Program &P = Corpus[It.Prog];
    ServiceRequest Req;
    Req.Kind = It.Op;
    Req.Kernel = P.Kernel;
    Req.Source = P.Source;
    Req.MachineName = MachineNames[It.Machine];
    Req.Level = It.Level;
    if (It.Op == ServiceRequest::Op::Simulate)
      Req.Args = {P.SimArg};
    Req.Train = P.Train;
    Req.Test = P.Test;
    ScopedSpan S("service");
    ServiceResponse R = Service->handle(Req);
    if (FirstText[ItemIdx].empty() && R.Ok)
      FirstText[ItemIdx] = R.Text;
    return R;
  }

  /// A response is right when it succeeded, repeats the bytes of the
  /// first response to the same request, and matches the references: a
  /// compile's IR digest; a simulate's cycles, exit code, output digest
  /// and memory digest; a pdf's baseline cycles.
  bool check(size_t ItemIdx, const ServiceResponse &R) const {
    if (!R.Ok || R.Text != FirstText[ItemIdx])
      return false;
    const Item &It = Items[ItemIdx];
    const Expected &E = Corpus[It.Prog].Ref;
    std::string Cycles = std::to_string(It.RefCycles);
    switch (It.Op) {
    case ServiceRequest::Op::Compile:
      return field(R.Text, "ir") == hex64(It.RefIr);
    case ServiceRequest::Op::Simulate:
      return field(R.Text, "trap").empty() &&
             field(R.Text, "cycles") == Cycles &&
             field(R.Text, "exit") == std::to_string(E.Exit) &&
             field(R.Text, "out") == hex64(fnv1a(E.Output)) &&
             (!E.HasMem || field(R.Text, "mem") == hex64(E.Mem));
    default:
      return field(R.Text, "base") == Cycles &&
             std::atof(field(R.Text, "gain").c_str()) > 0;
    }
  }

  Options Opt;
  std::vector<Program> Corpus;
  std::vector<Item> Items;
  std::vector<std::string> FirstText;
  std::unique_ptr<CompileService> Service;
  ArtifactClassStats WarmStats[NumClasses];
  std::vector<double> HitMs, MissMs;
  uint64_t FrontendInstrs = 0;
  /// Simulated by the references in set-up; the service's own runs are
  /// out of the benchmark's sight.
  uint64_t RefDynInstrs = 0;
};

} // namespace

std::unique_ptr<Workload> makeServiceMix(const Options &O) {
  return std::make_unique<ServiceMix>(O);
}

} // namespace perfbench
