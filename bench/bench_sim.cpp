//===- bench/bench_sim.cpp - Predecoded simulator speedup --------------------===//
///
/// Measures the predecoded fast path (SimEngine, the engine behind
/// vsc::simulate) against the original walking interpreter
/// (vsc::simulateLegacy) on the six kernels at the VLIW level, reference
/// inputs. Reports per-kernel wall-clock, the one-time predecode cost, and
/// the geomean speedup; writes the table as BENCH_sim.json (override the
/// path with --sim-out=FILE). Every timed pair is fingerprint-checked — a
/// fast path that diverges aborts instead of reporting numbers.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <chrono>
#include <cstring>

using namespace vsc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double>(T1 - T0).count();
}

template <typename Fn> double bestOf(int Reps, Fn &&F) {
  double Best = 1e30;
  for (int R = 0; R != Reps; ++R) {
    auto T0 = Clock::now();
    F();
    auto T1 = Clock::now();
    Best = std::min(Best, seconds(T0, T1));
  }
  return Best;
}

} // namespace

static void BM_SimFast(benchmark::State &State) {
  const Workload &W = specWorkloads()[static_cast<size_t>(State.range(0))];
  auto M = buildAt(W, OptLevel::Vliw, rs6000());
  SimEngine E(*M, rs6000());
  RunOptions In = workloadInput(W.RefScale);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.run(In).Cycles);
  State.SetLabel(W.Name);
}
BENCHMARK(BM_SimFast)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

int main(int Argc, char **Argv) {
  // Peel off --sim-out=FILE before google-benchmark sees the args.
  std::string OutPath = "BENCH_sim.json";
  std::vector<char *> Rest;
  for (int I = 0; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--sim-out=", 10) == 0)
      OutPath = Argv[I] + 10;
    else
      Rest.push_back(Argv[I]);
  }
  int RestArgc = static_cast<int>(Rest.size());

  std::printf("Simulator: legacy walking interpreter vs predecoded fast "
              "path (VLIW level, ref inputs, best of 5)\n");
  std::printf("%-10s %14s %12s %12s %9s %12s\n", "Benchmark", "dyn.instrs",
              "legacy(ms)", "fast(ms)", "speedup", "predecode(ms)");

  std::vector<double> Speedups;
  JsonWriter Json;
  Json.beginObject().key("bench").str("sim").key("kernels").beginArray();
  const auto &Ws = specWorkloads();
  for (size_t I = 0; I != Ws.size(); ++I) {
    const Workload &W = Ws[I];
    auto M = buildAt(W, OptLevel::Vliw, rs6000());
    RunOptions In = workloadInput(W.RefScale);

    double Predecode = bestOf(3, [&] {
      SimEngine E(*M, rs6000());
      benchmark::DoNotOptimize(&E.image());
    });

    SimEngine E(*M, rs6000());
    RunResult RLegacy = simulateLegacy(*M, rs6000(), In);
    checkSame(RLegacy, E.run(In), W.Name.c_str());

    double Legacy =
        bestOf(5, [&] { benchmark::DoNotOptimize(
                            simulateLegacy(*M, rs6000(), In).Cycles); });
    double Fast =
        bestOf(5, [&] { benchmark::DoNotOptimize(E.run(In).Cycles); });
    double Speedup = Legacy / Fast;
    Speedups.push_back(Speedup);

    std::printf("%-10s %14llu %12.2f %12.2f %8.2fx %12.3f\n", W.Name.c_str(),
                static_cast<unsigned long long>(RLegacy.DynInstrs),
                Legacy * 1e3, Fast * 1e3, Speedup, Predecode * 1e3);

    Json.beginObject()
        .key("name")
        .str(W.Name)
        .key("dyn_instrs")
        .num(RLegacy.DynInstrs)
        .key("legacy_seconds")
        .num(Legacy, 6)
        .key("fast_seconds")
        .num(Fast, 6)
        .key("speedup")
        .num(Speedup, 3)
        .key("predecode_seconds")
        .num(Predecode, 6)
        .endObject();
  }
  double Geomean = geomean(Speedups);
  std::printf("%-10s %14s %12s %12s %8.2fx\n\n", "geomean", "", "", "",
              Geomean);

  Json.endArray().key("geomean_speedup").num(Geomean, 3).endObject();
  if (FILE *F = std::fopen(OutPath.c_str(), "w")) {
    std::fputs(Json.take().c_str(), F);
    std::fclose(F);
    std::printf("wrote %s\n\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
  }

  return runRegisteredBenchmarks(RestArgc, Rest.data());
}
