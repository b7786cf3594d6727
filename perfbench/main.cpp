//===- perfbench/main.cpp - Benchmark program -----------------------------===//
///
/// Runs one workload in this process and prints, as the last line of
/// standard output, one JSON object: {"correct", "attempted", "failed",
/// "metrics"}.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE] [--short] [--plant-wrong-reference]
///   perfbench --list-metrics
///   perfbench --check-programs
///
/// --trace 0 reports the end-to-end metrics, timed with tracing off:
/// set-up is repeated (at least MinSetupReps times and MinSetupSeconds
/// in all) and setup_s is the median, then the workload's operation
/// sequence runs once. op_p50_ms and op_p90_ms are Harrell-Davis
/// estimates over the operation latencies (see percentile).
///
/// --trace 1 reports the per-layer metrics: two copies of the workload,
/// one traced, run the sequence for half of --seconds each, interleaved
/// operation by operation, so trace.overhead compares identical work at
/// the same host speed. trace.coverage is the share of the traced
/// operations' time inside layer spans. Per-layer metrics of a layer the
/// workload never calls read 0.
///
/// --check-programs checks every program the benchmark generates: it
/// compiles, runs in the interpreter without a trap within the step
/// budget, and prints the same at Classical and at Vliw as there.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>

using namespace perfbench;

namespace {

/// Cheap set-ups repeat until a second has passed, so their median is
/// steady; dear ones (service_mix's warm-up) stop after three.
constexpr unsigned MinSetupReps = 3;
constexpr double MinSetupSeconds = 1.0;

/// Span names, as the per-layer metrics name their self time.
const std::pair<const char *, const char *> SelfTimeMetrics[] = {
    {"frontend", "frontend.self_s"},
    {"oracle", "oracle.self_s"},
    {"opt", "opt.classical.self_s"},
    {"vliw", "vliw.self_s"},
    {"sim.predecode", "sim.predecode.self_s"},
    {"sim.run", "sim.run.self_s"},
    {"pdf.feedback", "pdf.feedback.self_s"},
    {"pdf.baseline", "pdf.baseline.self_s"},
    {"pdf.guided", "pdf.guided.self_s"},
    {"pdf.measure", "pdf.measure.self_s"},
    {"op", "bench.self_s"},
};

struct Phase {
  double Seconds = 0;
  std::vector<double> OpSeconds;
  double opsPerSecond() const {
    return static_cast<double>(OpSeconds.size()) / Seconds;
  }
};

/// Runs operation \p I of \p W's sequence under an "op" span and records
/// it in \p P.
void timeOp(Workload &W, size_t I, Phase &P, Results &R) {
  Tracer::get().setOp(static_cast<uint32_t>(I + 1));
  double Start = now();
  bool Ok;
  {
    ScopedSpan S("op");
    Ok = W.runOp(W.sequence()[I]);
  }
  P.OpSeconds.push_back(now() - Start);
  P.Seconds += P.OpSeconds.back();
  R.count(Ok);
  Tracer::get().setOp(0);
}

/// The closed loop: one operation after another.
Phase runSequence(Workload &W, Results &R) {
  Phase P;
  for (size_t I = 0; I != W.sequence().size(); ++I)
    timeOp(W, I, P, R);
  return P;
}

/// The same sequence on an untraced and a traced copy of the workload,
/// one operation at a time, alternating which copy goes first, so the
/// host's speed drift falls on both alike.
std::pair<Phase, Phase> runPaired(Workload &Untraced, Workload &Traced,
                                  Results &R) {
  Phase U, T;
  for (size_t I = 0; I != Traced.sequence().size(); ++I)
    for (bool Tracing : {I % 2 == 0, I % 2 != 0}) {
      Tracer::get().setEnabled(Tracing);
      timeOp(Tracing ? Traced : Untraced, I, Tracing ? T : U, R);
    }
  Tracer::get().setEnabled(false);
  return {U, T};
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "paper_matrix")
    return makePaperMatrix(O);
  if (O.Workload == "big_loops")
    return makeBigLoops(O);
  if (O.Workload == "service_mix")
    return makeServiceMix(O);
  return nullptr;
}

void reportEndToEnd(const Options &O, Results &R) {
  std::vector<double> SetupSeconds;
  std::unique_ptr<Workload> W;
  double Spent = 0;
  while (SetupSeconds.size() < MinSetupReps || Spent < MinSetupSeconds) {
    W.reset();
    W = makeWorkload(O);
    double Start = now();
    W->setup();
    SetupSeconds.push_back(now() - Start);
    Spent += SetupSeconds.back();
  }
  Phase P = runSequence(*W, R);
  R.set("setup_s", median(SetupSeconds));
  R.set("ops_per_s", P.opsPerSecond());
  R.set("op_p50_ms", percentile(P.OpSeconds, 0.5) * 1e3);
  R.set("op_p90_ms", percentile(P.OpSeconds, 0.9) * 1e3);
  R.set("peak_rss_mb", peakRssMb());
  R.set("pass_ratio", 1.0 - static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted));
  // A workload that runs no programs of a kind reports the neutral ratio
  // for it, so that every run carries every declared metric.
  for (const char *Name : {"speedup.rs6000", "speedup.power2",
                           "speedup.ppc601", "code_growth", "pdf_gain"})
    R.set(Name, 1.0);
  W->reportQuality(R);
  std::printf("%s: set-up %.4f s (median of %zu), %zu operations in %.3f s\n",
              O.Workload.c_str(), median(SetupSeconds), SetupSeconds.size(),
              P.OpSeconds.size(), P.Seconds);
}

bool reportLayers(const Options &Full, Results &R) {
  // Each copy gets half the time, so a traced run takes about as long as
  // an untraced one.
  Options O = Full;
  O.Seconds /= 2;
  std::unique_ptr<Workload> U = makeWorkload(O), W = makeWorkload(O);
  U->setup();
  Tracer &T = Tracer::get();
  T.setEnabled(true);
  W->setup();
  T.setEnabled(false);
  auto [Untraced, Traced] = runPaired(*U, *W, R);

  std::map<std::string, double> Self = T.selfSeconds();
  for (const auto &[Span, Metric] : SelfTimeMetrics)
    R.set(Metric, Self.count(Span) ? Self[Span] : 0.0);
  double Covered = 1.0 - Self["op"] / Traced.Seconds;
  R.set("trace.coverage", Covered);
  double Overhead = Untraced.opsPerSecond() / Traced.opsPerSecond();
  R.set("trace.overhead", Overhead);
  W->reportLayers(R);
  if (Self["sim.run"] > 0)
    R.set("sim.minstr_per_s", R.values().at("sim.dyn_instrs") /
                                  Self["sim.run"] / 1e6);
  std::printf("%s: traced run, %zu operations in %.3f s untraced and "
              "%.3f s traced (tracing overhead %.4fx, layer spans cover "
              "%.2f%%)\n",
              O.Workload.c_str(), Traced.OpSeconds.size(), Untraced.Seconds,
              Traced.Seconds, Overhead, 100.0 * Covered);
  if (!O.TraceOut.empty()) {
    if (!T.writeChromeJson(O.TraceOut)) {
      std::fprintf(stderr, "cannot write %s\n", O.TraceOut.c_str());
      return false;
    }
    std::printf("trace written to %s\n", O.TraceOut.c_str());
  }
  return true;
}

/// Prints the result line. Metrics of the other kind are left out; a
/// declared metric of this kind that nothing set reads 0 (a layer this
/// workload never calls).
void printResult(const Options &O, const Results &R) {
  bool Finite = true;
  std::string Metrics;
  for (const MetricDecl &D : declaredMetrics()) {
    if (D.EndToEnd == O.Trace)
      continue;
    auto It = R.values().find(D.Name);
    double V = It == R.values().end() ? 0.0 : It->second;
    if (!std::isfinite(V)) {
      Finite = false;
      V = 0;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + D.Name +
               "\": {\"value\": " + Buf + ", \"unit\": \"" + D.Unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 && Finite ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
}

int checkPrograms() {
  std::vector<ProgramSpec> All;
  for (const Rung &R : bigLoopLadder())
    for (unsigned V = 0; V != ProgramsPerRung; ++V)
      All.push_back(bigLoopProgram(R, V));
  for (const ProgramSpec &S : serviceCorpusPrograms())
    All.push_back(S);
  unsigned Bad = 0;
  for (const ProgramSpec &S : All) {
    Generated G = compileGenerated(S);
    bool Ok = G.M && runCell(*G.M, vsc::rs6000(), LoopTripCount, G.Ref).Ok;
    Bad += !Ok;
    std::printf("%s.%u seed %llu: %zu IR instructions, %s\n", shapeName(S.S),
                S.Statements, static_cast<unsigned long long>(S.Seed),
                G.M ? G.M->instrCount() : 0,
                Ok ? "ok" : ("wrong; reference: " + G.Ref.Output).c_str());
  }
  return Bad ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_matrix|big_loops|"
               "service_mix --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out FILE] [--short] "
               "[--plant-wrong-reference]\n"
               "       perfbench --list-metrics\n"
               "       perfbench --check-programs\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool SawWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (A == "--list-metrics") {
      for (const MetricDecl &D : declaredMetrics())
        std::printf("%s %s %s %s %s\n", D.EndToEnd ? "end_to_end" : "per_layer",
                    D.Name.c_str(), D.Unit.c_str(), D.Better.c_str(),
                    D.Exact ? "exact" : "timed");
      return 0;
    } else if (A == "--check-programs") {
      return checkPrograms();
    } else if (A == "--short") {
      O.Short = true;
    } else if (A == "--plant-wrong-reference") {
      O.PlantWrongReference = true;
    } else if (A == "--workload" && HasValue) {
      O.Workload = Argv[++I];
      SawWorkload = true;
    } else if (A == "--seed" && HasValue) {
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (A == "--seconds" && HasValue) {
      O.Seconds = std::atof(Argv[++I]);
    } else if (A == "--trace" && HasValue) {
      O.Trace = std::strcmp(Argv[++I], "0") != 0;
    } else if (A == "--trace-out" && HasValue) {
      O.TraceOut = Argv[++I];
    } else {
      return usage();
    }
  }
  if (!SawWorkload || !makeWorkload(O) || O.Seconds <= 0)
    return usage();

  now(); // the time origin for spans
  Results R;
  if (O.Trace) {
    if (!reportLayers(O, R))
      return 1;
  } else {
    reportEndToEnd(O, R);
  }
  printResult(O, R);
  return 0;
}
