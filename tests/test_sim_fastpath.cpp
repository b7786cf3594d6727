//===- tests/test_sim_fastpath.cpp - Fast path == legacy, bit for bit ------===//
///
/// The predecoded simulator (sim/Predecode.h + the SimEngine fast path
/// behind vsc::simulate) must be byte-identical to the original walking
/// interpreter (vsc::simulateLegacy) on every observable: behaviour
/// fingerprint, cycles, the stall breakdown, pathlength and the full
/// block/edge count maps. This suite enforces that on the six SPEC-
/// substitute kernels (compiled at the full VLIW level, so the fast path
/// sees post-pipeline code shapes too), on a 50-program fuzz corpus, on
/// trap paths, and through the batch API (which reuses one memory arena
/// across runs — a stale-state bug would show up as cross-run pollution).
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "ir/Parser.h"
#include "sim/Simulator.h"
#include "vliw/Pipeline.h"
#include "workloads/RandomProgram.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

#include <malloc.h>

using namespace vsc;

namespace {

/// Full-surface equality: everything RunResult records except the raw
/// memory image (covered by MemDigest inside the fingerprint).
void expectSame(const RunResult &Legacy, const RunResult &Fast,
                const std::string &What) {
  EXPECT_EQ(Legacy.fingerprint(), Fast.fingerprint()) << What;
  EXPECT_EQ(Legacy.Cycles, Fast.Cycles) << What;
  EXPECT_EQ(Legacy.OperandStallCycles, Fast.OperandStallCycles) << What;
  EXPECT_EQ(Legacy.BranchStallCycles, Fast.BranchStallCycles) << What;
  EXPECT_EQ(Legacy.DynInstrs, Fast.DynInstrs) << What;
  EXPECT_EQ(Legacy.BlockCounts, Fast.BlockCounts) << What;
  EXPECT_EQ(Legacy.EdgeCounts, Fast.EdgeCounts) << What;
}

void expectSameOnModule(const Module &M, const MachineModel &Machine,
                        const RunOptions &Opts, const std::string &What) {
  expectSame(simulateLegacy(M, Machine, Opts), simulate(M, Machine, Opts),
             What);
}

class FastpathKernelTest : public ::testing::TestWithParam<size_t> {
protected:
  const Workload &workload() const { return specWorkloads()[GetParam()]; }
};

} // namespace

TEST_P(FastpathKernelTest, MatchesLegacyAtVliwLevel) {
  const Workload &W = workload();
  auto M = buildWorkload(W);
  ASSERT_TRUE(M);
  optimize(*M, OptLevel::Vliw);
  expectSameOnModule(*M, rs6000(), workloadInput(W.TrainScale), W.Name);
}

TEST_P(FastpathKernelTest, MatchesLegacyUnoptimized) {
  const Workload &W = workload();
  auto M = buildWorkload(W);
  ASSERT_TRUE(M);
  expectSameOnModule(*M, rs6000(), workloadInput(W.TrainScale),
                     W.Name + " (O0)");
}

INSTANTIATE_TEST_SUITE_P(AllSix, FastpathKernelTest,
                         ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t> &I) {
                           return specWorkloads()[I.param].Name;
                         });

/// The li kernel on the other machine models: unit counts, latencies and
/// speculation budgets all differ, so any divergence in the timing loop
/// shows up here even if rs6000 happens to agree.
TEST(SimFastpath, MatchesLegacyAcrossMachines) {
  const Workload &W = specWorkloads()[1]; // li
  auto M = buildWorkload(W);
  ASSERT_TRUE(M);
  optimize(*M, OptLevel::Vliw);
  for (const MachineModel &Machine : {power2(), vliw8()})
    expectSameOnModule(*M, Machine, workloadInput(W.TrainScale),
                       W.Name + " on " + Machine.Name);
}

/// 50 random mini-C programs, compiled unoptimized (the fuzz pipeline suite
/// already covers optimized shapes): the functional semantics sweep.
TEST(SimFastpath, FuzzCorpusMatchesLegacy) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    FrontendOptions FOpts;
    FOpts.AssumeSafeLoads = true;
    CompileResult C = compileMiniC(generateRandomMiniC(Seed), FOpts);
    ASSERT_TRUE(C.ok()) << "seed " << Seed << ": " << C.Error;
    RunOptions Opts;
    Opts.Args = {5};
    Opts.MaxInstrs = 20'000'000;
    expectSameOnModule(*C.M, rs6000(), Opts,
                       "fuzz seed " + std::to_string(Seed));
  }
}

/// Trap paths must agree too — message text included, since the message is
/// part of the fingerprint.
TEST(SimFastpath, TrapParity) {
  struct Case {
    const char *Name;
    const char *Text;
    RunOptions Opts;
  };
  RunOptions Tiny;
  Tiny.MaxInstrs = 10;
  std::vector<Case> Cases = {
      {"div by zero", R"(
func main(0) {
entry:
  LI r32 = 7
  LI r33 = 0
  DIV r3 = r32, r33
  RET
}
)",
       RunOptions()},
      {"unknown callee", R"(
func main(0) {
entry:
  CALL nosuch, 0
  RET
}
)",
       RunOptions()},
      {"bad address", R"(
func main(0) {
entry:
  LI r32 = -8
  L r3 = 0(r32)
  RET
}
)",
       RunOptions()},
      {"budget exceeded", R"(
func main(0) {
entry:
  B loop
loop:
  B loop
}
)",
       Tiny},
      {"missing entry", R"(
func notmain(0) {
entry:
  RET
}
)",
       RunOptions()},
      // Accesses whose end wraps past 2^64 are unmapped; Addr + Size wraps
      // to a page-zero address, so a bounds check must not form it.
      {"store wrapping at -4 (size 8)", R"(
func main(0) {
entry:
  LI r32 = -4
  LI r33 = 7
  ST 0(r32):8 = r33
  RET
}
)",
       RunOptions()},
      {"load wrapping at -4 (size 8)", R"(
func main(0) {
entry:
  LI r32 = -4
  L r3 = 0(r32):8
  RET
}
)",
       RunOptions()},
      {"store wrapping at -2 (size 4)", R"(
func main(0) {
entry:
  LI r32 = -2
  LI r33 = 7
  ST 0(r32) = r33
  RET
}
)",
       RunOptions()},
      {"load wrapping at -2 (size 4)", R"(
func main(0) {
entry:
  LI r32 = -2
  L r3 = 0(r32)
  RET
}
)",
       RunOptions()},
  };
  for (const Case &C : Cases) {
    std::string Err;
    auto M = parseModule(C.Text, &Err);
    ASSERT_TRUE(M) << C.Name << ": " << Err;
    RunResult L = simulateLegacy(*M, rs6000(), C.Opts);
    RunResult F = simulate(*M, rs6000(), C.Opts);
    EXPECT_TRUE(L.Trapped) << C.Name;
    expectSame(L, F, C.Name);
  }
}

/// SimEngine::runBatch reuses one decoded image and one memory arena
/// across the whole batch. Interleave runs with different arguments, inputs
/// and memory sizes and check each against an independent legacy run — any
/// state leaking between runs (memory, counters, register files) breaks
/// the positional match.
TEST(SimFastpath, BatchMatchesIndependentLegacyRuns) {
  const Workload &W = specWorkloads()[3]; // compress
  auto M = buildWorkload(W);
  ASSERT_TRUE(M);
  optimize(*M, OptLevel::Classical);

  std::vector<RunOptions> Batch;
  for (int64_t Scale : {1, 4, 2, 4, 1}) {
    RunOptions O = workloadInput(Scale);
    Batch.push_back(O);
  }
  Batch[2].MemBytes = 1u << 21; // a smaller arena mid-batch
  Batch[3].KeepMemory = true;

  std::vector<RunResult> Fast =
      SimEngine(*M, rs6000()).runBatch(Batch, /*Threads=*/0);
  ASSERT_EQ(Fast.size(), Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I) {
    RunResult L = simulateLegacy(*M, rs6000(), Batch[I]);
    expectSame(L, Fast[I], "batch run " + std::to_string(I));
    EXPECT_EQ(L.Memory, Fast[I].Memory) << "batch run " << I;
  }
}

/// A SimEngine survives (and stays deterministic across) repeated runs.
TEST(SimFastpath, EngineRunsAreReproducible) {
  const Workload &W = specWorkloads()[2]; // eqntott
  auto M = buildWorkload(W);
  ASSERT_TRUE(M);
  SimEngine E(*M, rs6000());
  RunResult First = E.run(workloadInput(W.TrainScale));
  for (int I = 0; I < 3; ++I) {
    RunResult Again = E.run(workloadInput(W.TrainScale));
    expectSame(First, Again, "engine rerun " + std::to_string(I));
  }
}

/// The fast path maps each run's memory image on its own rather than
/// taking it from malloc, where a freed image could stay resident behind a
/// later small allocation. Constructing an engine and running it (twice,
/// so the image is reused) grows malloc's in-use bytes by far less than
/// the image.
TEST(SimFastpath, RunMemoryStaysOffTheMallocHeap) {
  const Workload &W = specWorkloads()[2]; // eqntott
  auto M = buildWorkload(W);
  ASSERT_TRUE(M);
  RunOptions Opts = workloadInput(W.TrainScale);
  auto InUse = [] {
    struct mallinfo2 I = mallinfo2();
    return static_cast<int64_t>(I.uordblks + I.hblkhd);
  };
  int64_t Before = InUse();
  SimEngine E(*M, rs6000());
  RunResult First = E.run(Opts);
  RunResult Again = E.run(Opts);
  int64_t Growth = InUse() - Before;
  expectSame(First, Again, "reused image");
  EXPECT_LT(Growth, static_cast<int64_t>(Opts.MemBytes) / 2);
}

/// The unresolved-branch trap ("branch to unknown label") fires *after*
/// the taken edge is counted, and everything executed up to the trap point
/// must be visible in the counter maps. A fast path that trapped before
/// counting (or flushed counters on the trap path) would drop the final
/// edge/block increments and silently skew profiling ground truth. The
/// fast path must agree with legacy on the full maps.
TEST(SimFastpath, UnresolvedBranchTrapCounterParity) {
  struct Case {
    const char *Name;
    const char *Text;
  };
  std::vector<Case> Cases = {
      {"unconditional B to unknown label", R"(
func main(0) {
entry:
  LI r32 = 3
  B work
work:
  AI r32 = r32, -1
  CI cr0 = r32, 0
  BF work, cr0.eq
  B nowhere
}
)"},
      {"taken BT to unknown label", R"(
func main(0) {
entry:
  LI r32 = 1
  CI cr0 = r32, 1
  B test
test:
  BT nowhere, cr0.eq
  RET
}
)"},
  };
  for (const Case &C : Cases) {
    std::string Err;
    auto M = parseModule(C.Text, &Err);
    ASSERT_TRUE(M) << C.Name << ": " << Err;

    RunResult L = simulateLegacy(*M, rs6000(), RunOptions());
    ASSERT_TRUE(L.Trapped) << C.Name;
    EXPECT_NE(L.TrapMsg.find("unknown label"), std::string::npos) << C.Name;
    // The loop body / taken edge up to the trap must be in the maps.
    EXPECT_FALSE(L.BlockCounts.empty()) << C.Name;
    EXPECT_FALSE(L.EdgeCounts.empty()) << C.Name;

    expectSame(L, simulate(*M, rs6000()), C.Name);
  }
}
