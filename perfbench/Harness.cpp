//===- perfbench/Harness.cpp - Shared benchmark plumbing ------------------===//

#include "Harness.h"

#include "frontend/Frontend.h"
#include "oracle/Interp.h"
#include "service/Artifact.h"
#include "vliw/Pipeline.h"
#include "workloads/Registry.h"

#include <algorithm>
#include <cmath>

using namespace vsc;

namespace perfbench {

const std::vector<MetricDecl> &declaredMetrics() {
  static const std::vector<MetricDecl> Table = [] {
    std::vector<MetricDecl> T;
    auto E2E = [&T](std::string N, std::string U, std::string B, bool X) {
      T.push_back({std::move(N), std::move(U), std::move(B), true, X});
    };
    auto Layer = [&T](std::string N, std::string U, bool X,
                      std::string B = "lower") {
      T.push_back({std::move(N), std::move(U), std::move(B), false, X});
    };
    E2E("setup_s", "s", "lower", false);
    E2E("ops_per_s", "op/s", "higher", false);
    E2E("op_p50_ms", "ms", "lower", false);
    E2E("op_p90_ms", "ms", "lower", false);
    E2E("peak_rss_mb", "MB", "lower", false);
    E2E("pass_ratio", "ratio", "higher", true);
    for (const char *M : MachineNames)
      E2E(std::string("speedup.") + M, "ratio", "higher", true);
    E2E("code_growth", "ratio", "lower", true);
    E2E("pdf_gain", "ratio", "higher", true);

    Layer("frontend.self_s", "s", false);
    Layer("frontend.ir_instrs", "count", true);
    Layer("oracle.self_s", "s", false);
    Layer("opt.classical.self_s", "s", false);
    Layer("opt.classical.ir_instrs", "count", true);
    Layer("vliw.self_s", "s", false);
    Layer("vliw.ir_instrs", "count", true);
    for (const Rung &R : bigLoopLadder())
      Layer("vliw.p50_ms." + rungName(R), "ms", false);
    for (const Rung &R : bigLoopLadder())
      Layer("region.ir_instrs." + rungName(R), "count", true);
    Layer("pm.analysis_hits", "count", true, "higher");
    Layer("pm.analysis_misses", "count", true);
    for (const vsc::Workload &W : workloads::allKernels())
      for (const char *M : MachineNames)
        Layer("cycles_ratio." + W.Name + "." + M, "ratio", true, "higher");
    Layer("sim.predecode.self_s", "s", false);
    Layer("sim.run.self_s", "s", false);
    Layer("sim.dyn_instrs", "count", true);
    Layer("sim.minstr_per_s", "Minstr/s", false, "higher");
    for (const char *S : {"feedback", "baseline", "guided", "measure"})
      Layer(std::string("pdf.") + S + ".self_s", "s", false);
    Layer("pdf.layout_kept", "count", true, "higher");
    for (const vsc::Workload &W : workloads::allKernels())
      Layer("pdf.gain." + W.Name, "ratio", true, "higher");
    Layer("service.hit.p50_ms", "ms", false);
    Layer("service.hit.p90_ms", "ms", false);
    Layer("service.miss.p10_ms", "ms", false);
    Layer("service.miss.p50_ms", "ms", false);
    Layer("service.miss.self_s", "s", false);
    Layer("service.hit_ratio", "ratio", true, "higher");
    for (size_t C = 0; C != static_cast<size_t>(ArtifactClass::NumClasses);
         ++C) {
      std::string P = std::string("service.cache.") +
                      artifactClassName(static_cast<ArtifactClass>(C));
      Layer(P + ".hits", "count", true, "higher");
      Layer(P + ".misses", "count", true);
      Layer(P + ".evictions", "count", true);
    }
    Layer("service.cache.bytes_used", "B", true);
    Layer("service.cache.entries", "count", true);
    Layer("bench.self_s", "s", false);
    Layer("trace.overhead", "ratio", false);
    Layer("trace.coverage", "ratio", false, "higher");
    return T;
  }();
  return Table;
}

namespace {

/// The reference interpreter's result on the unoptimized module
/// (oracle/Interp.h), under an "oracle" span.
Expected interpReference(const Module &M, int64_t Arg) {
  ScopedSpan S("oracle");
  InterpOptions IO;
  IO.Args = {Arg};
  // The simulator's budget and memory size, so the reference run can
  // never stop earlier than the runs it checks.
  IO.MaxSteps = RunOptions().MaxInstrs;
  IO.MemBytes = RunOptions().MemBytes;
  InterpResult R = interpret(M, IO);
  Expected E;
  E.Output = R.Output;
  E.Exit = R.ExitCode;
  E.HasMem = true;
  E.Mem = R.MemDigest;
  if (R.Trapped || R.BudgetExceeded)
    E.Output = "reference run failed: " + R.TrapMsg;
  return E;
}

} // namespace

std::unique_ptr<Module> optimize(const Module &M, OptLevel L,
                                 const MachineModel &Machine,
                                 PipelineStats *Stats) {
  PipelineOptions PO;
  PO.Machine = Machine;
  PO.Threads = 1;
  PO.Stats = Stats;
  ScopedSpan S(L == OptLevel::Vliw ? "vliw" : "opt");
  return optimizedClone(M, L, PO);
}

RunResult predecodeAndRun(const Module &M, const MachineModel &Machine,
                          int64_t Arg) {
  std::unique_ptr<SimEngine> E;
  {
    ScopedSpan S("sim.predecode");
    E = std::make_unique<SimEngine>(M, Machine);
  }
  RunOptions Run;
  Run.Args = {Arg};
  ScopedSpan S("sim.run");
  return E->run(Run);
}

Expected kernelReference(const vsc::Workload &W, const Module &M) {
  if (!workloads::isIrregular(W))
    return interpReference(M, W.RefScale);
  Expected E;
  E.Output = std::to_string(irregularReference(W, W.RefScale)) + "\n";
  return E;
}

Generated compileGenerated(const ProgramSpec &S) {
  Generated G;
  G.Source = generateLoopProgram(S);
  FrontendOptions FO;
  FO.AssumeSafeLoads = true;
  CompileResult C;
  {
    ScopedSpan Span("frontend");
    C = compileMiniC(G.Source, FO);
  }
  if (C.ok()) {
    G.M = std::move(C.M);
    G.Ref = interpReference(*G.M, LoopTripCount);
  } else {
    G.Ref.Output = "front end failed: " + C.Error;
  }
  return G;
}

bool matches(const RunResult &R, const Expected &E) {
  return !R.Trapped && R.Output == E.Output && R.ExitCode == E.Exit &&
         (!E.HasMem || R.MemDigest == E.Mem);
}

void plantWrong(Expected &E) { E.Output += "planted"; }

Cell runCell(const Module &M, const MachineModel &Machine, int64_t Arg,
             const Expected &Ref) {
  std::unique_ptr<Module> C = optimize(M, OptLevel::Classical, Machine);
  PipelineStats Stats;
  double Start = now();
  std::unique_ptr<Module> V = optimize(M, OptLevel::Vliw, Machine, &Stats);
  Cell Out;
  Out.VliwSeconds = now() - Start;
  RunResult RC = predecodeAndRun(*C, Machine, Arg);
  RunResult RV = predecodeAndRun(*V, Machine, Arg);
  Out.CyclesC = RC.Cycles;
  Out.CyclesV = RV.Cycles;
  Out.InstrsC = C->instrCount();
  Out.InstrsV = V->instrCount();
  Out.AnalysisHits = Stats.AnalysisHits;
  Out.AnalysisMisses = Stats.AnalysisMisses;
  Out.DynInstrs = RC.DynInstrs + RV.DynInstrs;
  Out.Ok = matches(RC, Ref) && matches(RV, Ref);
  return Out;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Order statistic I weighs the Beta(A, B) probability of
  // (I/N, (I+1)/N], integrated by the midpoint rule on Steps sub-intervals.
  // The density is taken in logs and scaled by its largest value, which
  // the normalization cancels, so no Beta function is needed.
  constexpr unsigned Steps = 16;
  double N = static_cast<double>(V.size());
  double A = P * (N + 1), B = (1 - P) * (N + 1);
  std::vector<double> LogDensity;
  LogDensity.reserve(V.size() * Steps);
  for (size_t I = 0; I != V.size(); ++I)
    for (unsigned S = 0; S != Steps; ++S) {
      double X = (static_cast<double>(I) + (S + 0.5) / Steps) / N;
      LogDensity.push_back((A - 1) * std::log(X) + (B - 1) * std::log1p(-X));
    }
  double Peak = *std::max_element(LogDensity.begin(), LogDensity.end());
  double Sum = 0, Weights = 0;
  for (size_t I = 0; I != V.size(); ++I) {
    double W = 0;
    for (unsigned S = 0; S != Steps; ++S)
      W += std::exp(LogDensity[I * Steps + S] - Peak);
    Sum += W * V[I];
    Weights += W;
  }
  return Sum / Weights;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 1.0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

unsigned passesFor(const Options &O, double PassSeconds) {
  if (O.Short)
    return 1;
  return std::max(1u, static_cast<unsigned>(
                          std::lround(O.Seconds / PassSeconds)));
}

std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.next() % I]);
  return Order;
}

} // namespace perfbench
