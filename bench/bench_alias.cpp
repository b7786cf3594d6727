//===- bench/bench_alias.cpp - Flow-sensitive disambiguation gain -----------===//
///
/// Measures what the flow-sensitive analysis tier buys over the purely
/// syntactic one on the SPECint workload table, in two front-end regimes:
///
///  * annotated — the mini-C frontend stamps every global access with its
///    `!sym` annotation, so the syntactic tier already knows the symbol;
///  * opaque — the same modules with the global-symbol annotations
///    stripped (compiler-internal `$csave` spill tags are kept — the
///    prolog tailorer keys on them). This models separately-compiled or
///    pointer-laundered code where no per-access symbol info survives;
///    the flow tier must recover the bases from the TOC-load chains.
///
/// For each regime every pair of memory accesses in the
/// Classical-optimized module is queried under both tiers (SameExecution
/// for same-block pairs, CrossExecution otherwise) and the fraction
/// resolved NoAlias is reported. For the opaque regime the full VLIW
/// pipeline is then compiled with PipelineOptions::FlowSensitiveAlias off
/// vs on and simulated on the reference input — the cycle delta is what
/// the recovered disambiguation is worth end-to-end. All variants must
/// produce identical behaviour fingerprints. Each row also counts the
/// flow-sensitive analysis builds, and the block-entry state cells they
/// allocated, of one annotated Vliw compile on rs6000: deterministic
/// numbers for the analysis's compile-time cost.
///
/// Writes the table as BENCH_alias.json (override with --alias-out=FILE).
/// Every field is deterministic; scripts/ci.sh checks the committed file
/// against a fresh run byte for byte.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/MemAlias.h"
#include "analysis/ValueTrack.h"

#include <cstring>

using namespace vsc;

namespace {

/// A seventh, bench-local kernel with the shape of the paper's load/store
/// motion example: a hot loop that load-modify-stores several scalar
/// globals (one conditionally) while streaming an array. Register-caching
/// the scalars requires proving the stores disjoint — trivial with `!sym`
/// annotations, impossible for the syntactic tier once they are stripped,
/// and recovered by the flow tier from the TOC chains. The six SPEC
/// kernels cannot show this cycle delta: their hot stores are
/// variable-indexed accesses into one array, which no base-tracking
/// analysis can split.
const char *ScalarsSrc = R"(
int data[2048];
int total;
int count;
int maxv;

int main(int scale) {
  for (int i = 0; i < 2048; i++) {
    data[i] = (i * 37) & 255;
  }
  int checksum = 0;
  for (int pass = 0; pass < scale; pass++) {
    total = 0;
    count = 0;
    maxv = 0;
    for (int i = 0; i < 2048; i++) {
      int v = data[i];
      total = total + v;
      count = count + 1;
      if (v > maxv) {
        maxv = v;
      }
    }
    checksum = checksum + total + count + maxv;
  }
  print_int(checksum);
  return 0;
}
)";

/// Every registered kernel (SPEC six + irregular five) plus the scalars
/// kernel above. The irregular kernels matter here: the hash and chase
/// kernels issue variable-indexed accesses into several distinct global
/// arrays, which both tiers must split by base symbol, and the
/// interpreters mix dense vmem traffic with code-stream loads.
const std::vector<Workload> &aliasKernels() {
  static const std::vector<Workload> Ws = [] {
    std::vector<Workload> V = workloads::allKernels();
    V.push_back(Workload{"scalars", ScalarsSrc, 4, 16});
    return V;
  }();
  return Ws;
}

/// Clears the `!sym` annotation from every global memory access, leaving
/// LTOC symbols (the simulator relocates through them) and `$csave`
/// spill tags (PrologTailor identifies spill code by them) intact.
void stripGlobalAnnotations(Module &M) {
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (Instr &I : BB->instrs())
        if (I.isMemAccess() && !I.Sym.empty() && I.Sym != "$csave")
          I.Sym.clear();
}

struct RateCount {
  uint64_t Pairs = 0;
  uint64_t SynNoAlias = 0;
  uint64_t FlowNoAlias = 0;

  double synPct() const { return pct(SynNoAlias); }
  double flowPct() const { return pct(FlowNoAlias); }
  double pct(uint64_t N) const {
    return Pairs ? 100.0 * static_cast<double>(N) /
                       static_cast<double>(Pairs)
                 : 0.0;
  }
};

/// Queries every unordered pair of memory accesses in \p M under both
/// tiers. Same-block pairs use SameExecution (the scope the scheduler
/// asks in); cross-block pairs use CrossExecution (the code-motion
/// scope), so the rate reflects the query mix real passes issue.
RateCount disambiguationRates(const Module &M) {
  RateCount C;
  for (const auto &F : M.functions()) {
    if (F->blocks().empty())
      continue;
    AliasAnalysis AA(*F);
    std::vector<std::pair<const Instr *, const BasicBlock *>> Accs;
    for (const auto &BB : F->blocks())
      for (const Instr &I : BB->instrs())
        if (I.isMemAccess())
          Accs.push_back({&I, BB.get()});
    for (size_t I = 0; I != Accs.size(); ++I)
      for (size_t J = I + 1; J != Accs.size(); ++J) {
        AliasScope Scope = Accs[I].second == Accs[J].second
                               ? AliasScope::SameExecution
                               : AliasScope::CrossExecution;
        ++C.Pairs;
        if (alias(*Accs[I].first, *Accs[J].first, Scope) ==
            AliasResult::NoAlias)
          ++C.SynNoAlias;
        if (AA.alias(*Accs[I].first, *Accs[J].first, Scope) ==
            AliasResult::NoAlias)
          ++C.FlowNoAlias;
      }
  }
  return C;
}

RateCount ratesAt(const Workload &W, bool Opaque) {
  auto M = buildWorkload(W);
  if (Opaque)
    stripGlobalAnnotations(*M);
  optimize(*M, OptLevel::Classical, PipelineOptions());
  return disambiguationRates(*M);
}

uint64_t cyclesOpaque(const Workload &W, bool FlowAlias, RunResult *Out) {
  auto M = buildWorkload(W);
  stripGlobalAnnotations(*M);
  PipelineOptions Opts;
  Opts.FlowSensitiveAlias = FlowAlias;
  optimize(*M, OptLevel::Vliw, Opts);
  *Out = runRef(*M, W, rs6000());
  return Out->Cycles;
}

} // namespace

static void BM_AliasAnalysisBuild(benchmark::State &State) {
  const Workload &W = aliasKernels()[static_cast<size_t>(State.range(0))];
  auto M = buildAt(W, OptLevel::Classical, rs6000());
  for (auto _ : State)
    for (const auto &F : M->functions())
      if (!F->blocks().empty()) {
        AliasAnalysis AA(*F);
        benchmark::DoNotOptimize(AA.location(1));
      }
  State.SetLabel(W.Name);
}
BENCHMARK(BM_AliasAnalysisBuild)
    ->DenseRange(0, static_cast<int>(aliasKernels().size()) - 1)
    ->Unit(benchmark::kMillisecond);

int main(int Argc, char **Argv) {
  // Peel off --alias-out=FILE before google-benchmark sees the args.
  std::string OutPath = "BENCH_alias.json";
  std::vector<char *> Rest;
  for (int I = 0; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--alias-out=", 12) == 0)
      OutPath = Argv[I] + 12;
    else
      Rest.push_back(Argv[I]);
  }
  int RestArgc = static_cast<int>(Rest.size());

  std::printf("Memory disambiguation: syntactic vs flow-sensitive tier\n");
  std::printf("(NoAlias %% over all access pairs, Classical module; cycles "
              "from the opaque VLIW pipeline, ref inputs)\n");
  std::printf("%-10s %6s | %8s %8s | %8s %8s | %12s %12s %8s | %6s %8s\n",
              "Benchmark", "pairs", "ann-syn", "ann-flow", "opq-syn",
              "opq-flow", "cyc(syn)", "cyc(flow)", "speedup", "builds",
              "cells");

  std::vector<double> Speedups;
  std::string Json = "{\n  \"bench\": \"alias\",\n  \"kernels\": [\n";
  const auto &Ws = aliasKernels();
  for (size_t I = 0; I != Ws.size(); ++I) {
    const Workload &W = Ws[I];
    RateCount Ann = ratesAt(W, /*Opaque=*/false);
    RateCount Opq = ratesAt(W, /*Opaque=*/true);

    RunResult RSyn, RFlow;
    uint64_t Syn = cyclesOpaque(W, /*FlowAlias=*/false, &RSyn);
    uint64_t Flow = cyclesOpaque(W, /*FlowAlias=*/true, &RFlow);
    checkSame(RSyn, RFlow, W.Name.c_str());
    // The opaque build must also behave identically to the annotated one,
    // whose compile the build counts come from.
    AliasQueryCounters Before = aliasQueryCounters();
    auto MAnn = buildAt(W, OptLevel::Vliw, rs6000());
    AliasQueryCounters Built = aliasQueryCounters() - Before;
    RunResult RAnn = runRef(*MAnn, W, rs6000());
    checkSame(RAnn, RFlow, (W.Name + " (annotated)").c_str());

    double Speedup =
        static_cast<double>(Syn) / static_cast<double>(Flow);
    Speedups.push_back(Speedup);

    std::printf("%-10s %6llu | %7.1f%% %7.1f%% | %7.1f%% %7.1f%% | %12llu "
                "%12llu %7.3fx | %6llu %8llu\n",
                W.Name.c_str(),
                static_cast<unsigned long long>(Opq.Pairs), Ann.synPct(),
                Ann.flowPct(), Opq.synPct(), Opq.flowPct(),
                static_cast<unsigned long long>(Syn),
                static_cast<unsigned long long>(Flow), Speedup,
                static_cast<unsigned long long>(Built.Builds),
                static_cast<unsigned long long>(Built.StateCells));

    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "    {\"name\": \"%s\", \"pairs\": %llu, "
        "\"annotated_syntactic_noalias_pct\": %.2f, "
        "\"annotated_flow_noalias_pct\": %.2f, "
        "\"opaque_syntactic_noalias_pct\": %.2f, "
        "\"opaque_flow_noalias_pct\": %.2f, "
        "\"opaque_cycles_syntactic\": %llu, "
        "\"opaque_cycles_flow\": %llu, \"speedup\": %.4f, "
        "\"vliw_alias_builds\": %llu, "
        "\"vliw_alias_state_cells\": %llu}%s\n",
        W.Name.c_str(), static_cast<unsigned long long>(Opq.Pairs),
        Ann.synPct(), Ann.flowPct(), Opq.synPct(), Opq.flowPct(),
        static_cast<unsigned long long>(Syn),
        static_cast<unsigned long long>(Flow), Speedup,
        static_cast<unsigned long long>(Built.Builds),
        static_cast<unsigned long long>(Built.StateCells),
        I + 1 != Ws.size() ? "," : "");
    Json += Buf;
  }
  double Geomean = geomean(Speedups);
  std::printf("%-10s %6s | %8s %8s | %8s %8s | %12s %12s %7.3fx |\n\n",
              "geomean", "", "", "", "", "", "", "", Geomean);

  char Tail[96];
  std::snprintf(Tail, sizeof(Tail),
                "  ],\n  \"geomean_speedup\": %.4f\n}\n", Geomean);
  Json += Tail;
  if (FILE *F = std::fopen(OutPath.c_str(), "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
    std::printf("wrote %s\n", OutPath.c_str());
  }

  return runRegisteredBenchmarks(RestArgc, Rest.data());
}
