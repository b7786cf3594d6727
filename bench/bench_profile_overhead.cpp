//===- bench/bench_profile_overhead.cpp - Experiment E6 -----------------------===//
///
/// The paper's eqntott profiling example: counters on a subset of blocks
/// (BB1/BB2/BB4 inside the loop, BB7/BB8 outside), with counter loads and
/// stores moved out of the loop so in-loop overhead is one instruction per
/// counted block (vs three outside). This bench reports the counted-subset
/// size and the dynamic overhead of plain vs hoisted instrumentation on
/// every workload.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "profile/Counters.h"

using namespace vsc;

static void BM_InstrumentedRun(benchmark::State &State) {
  const Workload &W = specWorkloads()[2];
  auto M = prepareForTraining(*buildWorkload(W));
  instrumentModule(*M, /*HoistCounters=*/true);
  SimEngine Engine(*M, rs6000()); // predecode once, like ProfileCollector
  for (auto _ : State) {
    RunResult R = Engine.run(workloadInput(W.TrainScale));
    benchmark::DoNotOptimize(R.DynInstrs);
  }
  State.SetLabel("eqntott+counters");
}
BENCHMARK(BM_InstrumentedRun)->Unit(benchmark::kMillisecond);

static void BM_CachedCollect(benchmark::State &State) {
  const Workload &W = specWorkloads()[2];
  auto M = buildWorkload(W);
  ProfileCollector Collector(*M, rs6000());
  std::vector<RunOptions> Battery;
  for (int64_t S = 1; S <= 4; ++S)
    Battery.push_back(workloadInput(S));
  for (auto _ : State) {
    auto Counted = Collector.counts(Battery);
    benchmark::DoNotOptimize(Counted.size());
  }
  State.SetLabel("eqntott, cached instrumentation, 4-input battery");
}
BENCHMARK(BM_CachedCollect)->Unit(benchmark::kMillisecond);

int main(int Argc, char **Argv) {
  std::printf("Low-overhead profiling: counted subset and dynamic cost\n");
  std::printf("(all variants classically optimized, so overhead isolates "
              "the counting code)\n");
  std::printf("%-10s %8s %8s %12s %12s %12s\n", "Benchmark", "blocks",
              "counted", "base-dyn", "plain-dyn", "hoisted-dyn");
  for (const Workload &W : specWorkloads()) {
    auto Base = buildWorkload(W);
    size_t NumBlocks = 0;
    for (const auto &F : Base->functions())
      NumBlocks += F->size();
    optimize(*Base, OptLevel::Classical);
    RunResult RB = simulate(*Base, rs6000(), workloadInput(W.TrainScale));

    auto Plain = buildWorkload(W);
    Instrumentation IP = instrumentModule(*Plain, /*HoistCounters=*/false);
    optimize(*Plain, OptLevel::Classical);
    RunResult RP = simulate(*Plain, rs6000(), workloadInput(W.TrainScale));

    auto Hoist = buildWorkload(W);
    instrumentModule(*Hoist, /*HoistCounters=*/true);
    optimize(*Hoist, OptLevel::Classical);
    RunResult RH = simulate(*Hoist, rs6000(), workloadInput(W.TrainScale));

    if (RB.Output != RP.Output || RB.Output != RH.Output) {
      std::fprintf(stderr, "instrumentation broke %s\n", W.Name.c_str());
      std::abort();
    }
    std::printf("%-10s %8zu %8zu %12llu %12llu (+%3.0f%%) %8llu (+%3.0f%%)\n",
                W.Name.c_str(), NumBlocks, IP.SlotKeys.size(),
                static_cast<unsigned long long>(RB.DynInstrs),
                static_cast<unsigned long long>(RP.DynInstrs),
                (static_cast<double>(RP.DynInstrs) / RB.DynInstrs - 1) * 100,
                static_cast<unsigned long long>(RH.DynInstrs),
                (static_cast<double>(RH.DynInstrs) / RB.DynInstrs - 1) *
                    100);
  }
  std::printf("(paper: 1 instruction/counted block inside loops after "
              "hoisting, 3 outside)\n\n");
  return runRegisteredBenchmarks(Argc, Argv);
}
