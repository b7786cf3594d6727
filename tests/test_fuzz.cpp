//===- tests/test_fuzz.cpp - Differential pipeline fuzzing -----------------===//
///
/// Property-based end-to-end testing: deterministic random mini-C
/// programs are compiled and optimized at every level, with and without
/// profiles, on every machine model — and every variant must produce the
/// identical behaviour fingerprint (output, exit code, final memory
/// digest). This is the repository's broadest miscompilation net.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "pdf/PdfExperiment.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// While a fuzz case runs, any pipeline abort (verifier, audit or oracle
/// finding) appends the reproduction context to its report: the absolute
/// seed, the command replaying it, and the generated source.
class FuzzContext {
public:
  explicit FuzzContext(uint64_t Seed) {
    setPipelineFailureHook([Seed] {
      return "fuzz seed " + std::to_string(Seed) +
             " (replay: VSC_FUZZ_SEED=" + std::to_string(Seed - 1) +
             " ctest -R Fuzz, first instance)\n--- generated source ---\n" +
             generateRandomMiniC(Seed);
    });
  }
  ~FuzzContext() { setPipelineFailureHook(nullptr); }
};

std::unique_ptr<Module> compileSeed(uint64_t Seed) {
  FrontendOptions Opts;
  Opts.AssumeSafeLoads = true;
  CompileResult R = compileMiniC(generateRandomMiniC(Seed), Opts);
  EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error << "\n"
                      << generateRandomMiniC(Seed);
  return std::move(R.M);
}

RunResult runIt(const Module &M, const MachineModel &Machine) {
  RunOptions Opts;
  Opts.Args = {6};
  Opts.MaxInstrs = 20'000'000;
  return simulate(M, Machine, Opts);
}

/// Every fuzzed pipeline run carries the semantic audits AND the
/// differential execution oracle at Boundaries level, so all 40 seeds
/// exercise both checkers across the whole pipeline (each aborts the
/// process on a finding, with the FuzzContext reproduction info). The
/// alias audit rides along: every NoAlias claim the pipeline issues on
/// these programs is validated against runtime addresses. The grading
/// records go to \p Stats, for expectBoundsHold.
PipelineOptions auditedOptions(PipelineStats *Stats = nullptr) {
  PipelineOptions Opts;
  Opts.Stats = Stats;
  Opts.Audit = AuditLevel::Boundaries;
  Opts.Oracle = OracleLevel::Boundaries;
  Opts.AliasAudit = true;
  // Grade (never Apply) the exact modulo scheduler on every fuzzed loop:
  // pure observation, but it runs the min-II analysis and the
  // branch-and-bound search over arbitrary generated loop shapes. The
  // budget is lowered so pathological seeds cut over to BudgetExceeded
  // instead of burning CI time.
  Opts.ExactPipelining = ExactPipelineMode::Grade;
  Opts.ExactPipeline.NodeBudget = 20000;
  return Opts;
}

/// min-II is a lower bound (DESIGN.md §16): no graded loop's bound may
/// exceed the II the heuristic reached or the one the exact search found.
void expectBoundsHold(const PipelineStats &S, const std::string &Context) {
  for (const LoopPipelineRecord &R : S.PipelineLoops) {
    EXPECT_LE(R.minII(), R.HeuristicII)
        << Context << ": loop " << R.Header << " in @" << R.Function;
    if (R.ExactII != 0) {
      EXPECT_LE(R.minII(), R.ExactII)
          << Context << ": loop " << R.Header << " in @" << R.Function;
    }
  }
}

} // namespace

TEST_P(FuzzTest, AllLevelsAgree) {
  uint64_t Seed = fuzzBaseSeed() + GetParam();
  FuzzContext Ctx(Seed);
  auto Base = compileSeed(Seed);
  ASSERT_TRUE(Base);
  optimize(*Base, OptLevel::None, auditedOptions());
  RunResult RB = runIt(*Base, rs6000());
  ASSERT_FALSE(RB.Trapped) << "seed " << Seed << ": " << RB.TrapMsg << "\n"
                           << generateRandomMiniC(Seed);

  for (OptLevel L : {OptLevel::Classical, OptLevel::Vliw}) {
    auto M = compileSeed(Seed);
    ASSERT_TRUE(M);
    PipelineStats Stats;
    optimize(*M, L, auditedOptions(&Stats));
    expectBoundsHold(Stats, "seed " + std::to_string(Seed));
    ASSERT_EQ(verifyModule(*M), "") << "seed " << Seed;
    RunResult R = runIt(*M, rs6000());
    EXPECT_EQ(RB.fingerprint(), R.fingerprint())
        << "seed " << Seed << " at " << optLevelName(L) << "\n"
        << generateRandomMiniC(Seed);
  }
}

TEST_P(FuzzTest, MachinesAgreeFunctionally) {
  uint64_t Seed = fuzzBaseSeed() + GetParam();
  FuzzContext Ctx(Seed);
  auto M = compileSeed(Seed);
  ASSERT_TRUE(M);
  PipelineStats Stats;
  PipelineOptions Opts = auditedOptions(&Stats);
  Opts.Machine = power2();
  optimize(*M, OptLevel::Vliw, Opts);
  expectBoundsHold(Stats, "seed " + std::to_string(Seed) + " on power2");
  RunResult R1 = runIt(*M, rs6000());
  RunResult R2 = runIt(*M, power2());
  RunResult R3 = runIt(*M, ppc601());
  ASSERT_FALSE(R1.Trapped) << R1.TrapMsg;
  EXPECT_EQ(R1.fingerprint(), R2.fingerprint()) << "seed " << Seed;
  EXPECT_EQ(R1.fingerprint(), R3.fingerprint()) << "seed " << Seed;
}

TEST_P(FuzzTest, PdfAgrees) {
  uint64_t Seed = fuzzBaseSeed() + GetParam();
  FuzzContext Ctx(Seed);
  auto Base = compileSeed(Seed);
  ASSERT_TRUE(Base);
  optimize(*Base, OptLevel::None);
  RunResult RB = runIt(*Base, rs6000());
  ASSERT_FALSE(RB.Trapped) << RB.TrapMsg;

  auto Target = compileSeed(Seed);
  ASSERT_TRUE(Target);
  PdfExperimentOptions PO;
  PO.Train.resize(1);
  PO.Train.front().Args = {2};
  PO.Train.front().MaxInstrs = 20'000'000;
  PdfFeedback F = collectPdfFeedback(*Target, PO, Target.get());
  ASSERT_TRUE(F.ok()) << "seed " << Seed << ": " << F.Error;
  PipelineStats Stats;
  PipelineOptions Opts = auditedOptions(&Stats);
  Opts.Profile = &F.Feedback;
  optimize(*Target, OptLevel::Vliw, Opts);
  expectBoundsHold(Stats, "seed " + std::to_string(Seed) + " with profile");
  ASSERT_EQ(verifyModule(*Target), "") << "seed " << Seed;
  RunResult R = runIt(*Target, rs6000());
  EXPECT_EQ(RB.fingerprint(), R.fingerprint())
      << "seed " << Seed << "\n" << generateRandomMiniC(Seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

namespace {

const char *shapeName(ProgramShape S) {
  switch (S) {
  case ProgramShape::Generic:
    return "Generic";
  case ProgramShape::Interp:
    return "Interp";
  case ProgramShape::HashProbe:
    return "HashProbe";
  }
  return "?";
}

/// Reproduction context for a shaped case: names the shape alongside the
/// seed, since shaped programs are requested explicitly rather than
/// drawn from the seed-derived shape mix.
class ShapedFuzzContext {
public:
  ShapedFuzzContext(uint64_t Seed, ProgramShape Shape) {
    setPipelineFailureHook([Seed, Shape] {
      return std::string("fuzz seed ") + std::to_string(Seed) + " shape " +
             shapeName(Shape) +
             " (replay: VSC_FUZZ_SEED=" + std::to_string(Seed - 1) +
             " ctest -R ShapedFuzz, first instance)\n"
             "--- generated source ---\n" +
             generateRandomMiniC(Seed, Shape);
    });
  }
  ~ShapedFuzzContext() { setPipelineFailureHook(nullptr); }
};

std::unique_ptr<Module> compileShaped(uint64_t Seed, ProgramShape Shape) {
  FrontendOptions Opts;
  Opts.AssumeSafeLoads = true;
  CompileResult R = compileMiniC(generateRandomMiniC(Seed, Shape), Opts);
  EXPECT_TRUE(R.ok()) << "seed " << Seed << " shape " << shapeName(Shape)
                      << ": " << R.Error << "\n"
                      << generateRandomMiniC(Seed, Shape);
  return std::move(R.M);
}

/// The dispatch- and probe-shaped generators, run through the same
/// audited differential pipeline as the generic corpus. These shapes
/// exist precisely because the irregular kernels showed that ladder
/// dispatch and probe loops stress paths statement-soup rarely reaches
/// (branch reversal on skewed ladders, speculation past data-dependent
/// trip counts), so the fuzzer hammers those paths with fresh programs
/// every CI day.
class ShapedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ShapedFuzzTest, AllLevelsAgree) {
  for (ProgramShape Shape : {ProgramShape::Interp, ProgramShape::HashProbe}) {
    uint64_t Seed = fuzzBaseSeed() + GetParam();
    ShapedFuzzContext Ctx(Seed, Shape);
    auto Base = compileShaped(Seed, Shape);
    ASSERT_TRUE(Base);
    optimize(*Base, OptLevel::None, auditedOptions());
    RunResult RB = runIt(*Base, rs6000());
    ASSERT_FALSE(RB.Trapped)
        << "seed " << Seed << " shape " << shapeName(Shape) << ": "
        << RB.TrapMsg << "\n" << generateRandomMiniC(Seed, Shape);
    EXPECT_LT(RB.DynInstrs, 3'000'000u) << "seed " << Seed;

    for (OptLevel L : {OptLevel::Classical, OptLevel::Vliw}) {
      auto M = compileShaped(Seed, Shape);
      ASSERT_TRUE(M);
      PipelineStats Stats;
      optimize(*M, L, auditedOptions(&Stats));
      expectBoundsHold(Stats, "seed " + std::to_string(Seed) + " shape " +
                                  shapeName(Shape));
      ASSERT_EQ(verifyModule(*M), "")
          << "seed " << Seed << " shape " << shapeName(Shape);
      RunResult R = runIt(*M, rs6000());
      EXPECT_EQ(RB.fingerprint(), R.fingerprint())
          << "seed " << Seed << " shape " << shapeName(Shape) << " at "
          << optLevelName(L) << "\n" << generateRandomMiniC(Seed, Shape);
    }
  }
}

TEST_P(ShapedFuzzTest, PdfAgreesAcrossMachines) {
  for (ProgramShape Shape : {ProgramShape::Interp, ProgramShape::HashProbe}) {
    uint64_t Seed = fuzzBaseSeed() + GetParam();
    ShapedFuzzContext Ctx(Seed, Shape);
    auto Base = compileShaped(Seed, Shape);
    ASSERT_TRUE(Base);
    optimize(*Base, OptLevel::None);
    RunResult RB = runIt(*Base, rs6000());
    ASSERT_FALSE(RB.Trapped) << RB.TrapMsg;

    auto Target = compileShaped(Seed, Shape);
    ASSERT_TRUE(Target);
    PdfExperimentOptions PO;
    PO.Train.resize(1);
    PO.Train.front().Args = {2};
    PO.Train.front().MaxInstrs = 20'000'000;
    PdfFeedback F = collectPdfFeedback(*Target, PO, Target.get());
    ASSERT_TRUE(F.ok()) << "seed " << Seed << " shape " << shapeName(Shape)
                        << ": " << F.Error;
    PipelineStats Stats;
    PipelineOptions Opts = auditedOptions(&Stats);
    Opts.Profile = &F.Feedback;
    optimize(*Target, OptLevel::Vliw, Opts);
    expectBoundsHold(Stats, "seed " + std::to_string(Seed) + " shape " +
                                shapeName(Shape) + " with profile");
    ASSERT_EQ(verifyModule(*Target), "")
        << "seed " << Seed << " shape " << shapeName(Shape);
    for (const MachineModel &MM : {rs6000(), power2(), ppc601()}) {
      RunResult R = runIt(*Target, MM);
      EXPECT_EQ(RB.fingerprint(), R.fingerprint())
          << "seed " << Seed << " shape " << shapeName(Shape) << " on "
          << MM.Name << "\n" << generateRandomMiniC(Seed, Shape);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapedFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(FuzzGenerator, IsDeterministic) {
  EXPECT_EQ(generateRandomMiniC(7), generateRandomMiniC(7));
  EXPECT_NE(generateRandomMiniC(7), generateRandomMiniC(8));
}

TEST(FuzzGenerator, ShapedGenerationIsDeterministic) {
  for (ProgramShape S : {ProgramShape::Generic, ProgramShape::Interp,
                         ProgramShape::HashProbe}) {
    EXPECT_EQ(generateRandomMiniC(7, S), generateRandomMiniC(7, S))
        << shapeName(S);
    EXPECT_NE(generateRandomMiniC(7, S), generateRandomMiniC(8, S))
        << shapeName(S);
  }
  // Distinct shapes yield distinct programs for the same seed.
  EXPECT_NE(generateRandomMiniC(7, ProgramShape::Generic),
            generateRandomMiniC(7, ProgramShape::Interp));
  EXPECT_NE(generateRandomMiniC(7, ProgramShape::Interp),
            generateRandomMiniC(7, ProgramShape::HashProbe));
}

// The seed-derived dispatcher must keep all three families in the
// corpus: over a window of seeds each shape appears, and the one-arg
// form is exactly the two-arg form at the derived shape.
TEST(FuzzGenerator, SeedDerivedShapeMixCoversAllFamilies) {
  int Seen[3] = {0, 0, 0};
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    std::string P = generateRandomMiniC(Seed);
    for (ProgramShape S : {ProgramShape::Generic, ProgramShape::Interp,
                           ProgramShape::HashProbe})
      if (P == generateRandomMiniC(Seed, S))
        ++Seen[static_cast<int>(S)];
  }
  EXPECT_GT(Seen[0], 0) << "no Generic programs in seed window";
  EXPECT_GT(Seen[1], 0) << "no Interp programs in seed window";
  EXPECT_GT(Seen[2], 0) << "no HashProbe programs in seed window";
  EXPECT_EQ(Seen[0] + Seen[1] + Seen[2], 60);
}

TEST(FuzzGenerator, ProgramsTerminateQuickly) {
  for (uint64_t Seed = 100; Seed != 110; ++Seed) {
    auto M = compileSeed(Seed);
    ASSERT_TRUE(M);
    optimize(*M, OptLevel::None);
    RunResult R = runIt(*M, rs6000());
    EXPECT_FALSE(R.Trapped) << "seed " << Seed << ": " << R.TrapMsg;
    EXPECT_LT(R.DynInstrs, 3'000'000u) << "seed " << Seed;
  }
}
