//===- tests/test_passmanager.cpp - Pass manager and analysis cache --------===//
///
/// Coverage for the pm/ layer: analysis caching and hit accounting, the
/// CFG-epoch self-invalidation, PreservedAnalyses dependency closure, the
/// recompute-and-compare checker catching a pass that lies about
/// preservation (and staying silent for honest ones), equivalence of the
/// pass-manager pipeline with direct calls of the passes, and the options
/// fingerprint the compile service keys on.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "opt/Classical.h"
#include "pm/PassManager.h"
#include "pm/Passes.h"
#include "profile/ProfileData.h"
#include "vliw/Pipeline.h"

#include <gtest/gtest.h>

#include <map>

using namespace vsc;

namespace {

const char *LoopIR = R"(
func main(1) {
entry:
  AI r32 = r3, 1
  MTCTR r32
  LI r34 = 0
  LI r35 = 1
loop:
  A r34 = r34, r35
  AI r35 = r35, 2
  BCT loop
exit:
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";

const char *StraightIR = R"(
func main(0) {
entry:
  LI r3 = 0
  CALL print_int, 1
  RET
}
)";

/// Reads a few analyses so the cache is warm; honestly preserves all.
class WarmupPass : public FunctionPass {
public:
  const char *name() const override { return "warmup"; }
  PreservedAnalyses run(Function &, Module &, FunctionAnalyses &FA) override {
    (void)FA.cfg();
    (void)FA.dominators();
    (void)FA.liveness();
    return PreservedAnalyses::all();
  }
};

/// Splices a copy instruction into the entry block behind the cache's
/// back (no epoch bump, no invalidation) and then CLAIMS it preserved
/// everything. The new instruction makes r41 live into the entry, so the
/// cached Liveness is provably stale — exactly what the checker exists to
/// catch. Also shifts the terminator index, staling cached CfgEdges.
class LyingPass : public FunctionPass {
public:
  const char *name() const override { return "liar"; }
  PreservedAnalyses run(Function &F, Module &, FunctionAnalyses &) override {
    Instr I;
    I.Op = Opcode::LR;
    I.Dst = Reg::gpr(40);
    I.Src1 = Reg::gpr(41);
    F.assignId(I);
    F.entry()->instrs().insert(F.entry()->instrs().begin(), I);
    return PreservedAnalyses::all();
  }
};

/// Same mutation as LyingPass, but honestly reports it preserved nothing.
class HonestMutatorPass : public FunctionPass {
public:
  const char *name() const override { return "honest-mutator"; }
  PreservedAnalyses run(Function &F, Module &, FunctionAnalyses &) override {
    Instr I;
    I.Op = Opcode::LR;
    I.Dst = Reg::gpr(40);
    I.Src1 = Reg::gpr(41);
    F.assignId(I);
    F.entry()->instrs().insert(F.entry()->instrs().begin(), I);
    return PreservedAnalyses::none();
  }
};

/// Rewrites an immediate in place: register liveness, the CFG and every
/// structural analysis are genuinely untouched, so claiming all() is the
/// truth and the checker must stay silent.
class ImmediateRewritePass : public FunctionPass {
public:
  const char *name() const override { return "imm-rewrite"; }
  PreservedAnalyses run(Function &F, Module &, FunctionAnalyses &) override {
    for (auto &BB : F.blocks())
      for (Instr &I : BB->instrs())
        if (I.Op == Opcode::LI)
          I.Imm += 0; // touch without changing semantics
    return PreservedAnalyses::all();
  }
};

const char *AliasIR = R"(
func main(0) {
entry:
  LTOC r32 = .g
  AI r33 = r32, 8
  L r40 = 0(r33)
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";

/// Warms the flow-sensitive alias analysis (and its Cfg/Loops inputs).
class AliasWarmupPass : public FunctionPass {
public:
  const char *name() const override { return "alias-warmup"; }
  PreservedAnalyses run(Function &, Module &, FunctionAnalyses &FA) override {
    (void)FA.aliasAnalysis();
    return PreservedAnalyses::all();
  }
};

/// Rewrites the add-immediate feeding a load's base register in place (no
/// epoch bump, no invalidation) and claims everything preserved. The
/// cached AliasAnalysis still resolves the load to the old global offset,
/// so any consumer trusting the cache would disambiguate against an
/// address the code no longer computes.
class BaseRewritingLiarPass : public FunctionPass {
public:
  const char *name() const override { return "base-liar"; }
  PreservedAnalyses run(Function &F, Module &, FunctionAnalyses &) override {
    for (auto &BB : F.blocks())
      for (Instr &I : BB->instrs())
        if (I.Op == Opcode::AI)
          I.Imm += 8;
    return PreservedAnalyses::all();
  }
};

/// Grows the CFG through the proper Function mutators (which bump the
/// epoch) while still claiming all() — the epoch guard must make this
/// safe regardless of the optimistic claim.
class EpochBumpingPass : public FunctionPass {
public:
  const char *name() const override { return "epoch-bumper"; }
  PreservedAnalyses run(Function &F, Module &, FunctionAnalyses &) override {
    // Split the fallthrough: new block between entry and its successor.
    BasicBlock *BB = F.addBlock(F.freshLabel("dead"));
    Instr Ret;
    Ret.Op = Opcode::RET;
    F.assignId(Ret);
    BB->instrs().push_back(Ret);
    return PreservedAnalyses::all();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Analysis cache
//===----------------------------------------------------------------------===//

TEST(AnalysisCache, SecondQueryHits) {
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Cfg));
  (void)FA.cfg();
  EXPECT_TRUE(FA.hasCached(AnalysisKind::Cfg));
  (void)FA.cfg();
  (void)FA.cfg();
  FunctionAnalyses::Stats S = FA.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
}

TEST(AnalysisCache, DerivedAnalysesShareTheBase) {
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  // loops() pulls cfg() and dominators() internally; querying them
  // afterwards must all be hits.
  (void)FA.loops();
  EXPECT_TRUE(FA.hasCached(AnalysisKind::Cfg));
  EXPECT_TRUE(FA.hasCached(AnalysisKind::Dominators));
  uint64_t MissesBefore = FA.stats().Misses;
  (void)FA.cfg();
  (void)FA.dominators();
  EXPECT_EQ(FA.stats().Misses, MissesBefore);
}

TEST(AnalysisCache, EpochEditDropsEverything) {
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  (void)FA.loops();
  (void)FA.liveness();
  ASSERT_TRUE(FA.hasCached(AnalysisKind::Loops));
  ASSERT_TRUE(FA.hasCached(AnalysisKind::Liveness));

  F.noteCfgEdit(); // structural edit made behind the cache's back
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Cfg));
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Loops));
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Liveness));
  // And the next query recomputes instead of serving the stale object.
  uint64_t MissesBefore = FA.stats().Misses;
  (void)FA.cfg();
  EXPECT_GT(FA.stats().Misses, MissesBefore);
}

TEST(AnalysisCache, StructurePreservesCfgButNotLiveness) {
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  (void)FA.loops();
  (void)FA.liveness();
  FA.invalidate(PreservedAnalyses::structure());
  EXPECT_TRUE(FA.hasCached(AnalysisKind::Cfg));
  EXPECT_TRUE(FA.hasCached(AnalysisKind::Dominators));
  EXPECT_TRUE(FA.hasCached(AnalysisKind::Loops));
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Liveness));
}

TEST(AnalysisCache, DroppingCfgDropsDependentsDespiteClaims) {
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  (void)FA.loops();
  (void)FA.liveness();
  // A PA that abandons Cfg but claims to keep everything derived from it:
  // the closure must drop the dependents anyway, since they hold pointers
  // into the dropped graph.
  PreservedAnalyses PA = PreservedAnalyses::all();
  PA.abandon(AnalysisKind::Cfg);
  FA.invalidate(PA);
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Cfg));
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Dominators));
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Loops));
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Liveness));
}

TEST(AnalysisCache, NonePreservedDropsAll) {
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  (void)FA.dominators();
  FA.invalidate(PreservedAnalyses::none());
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Cfg));
  EXPECT_FALSE(FA.hasCached(AnalysisKind::Dominators));
}

//===----------------------------------------------------------------------===//
// The recompute-and-compare checker
//===----------------------------------------------------------------------===//

TEST(AnalysisChecker, CatchesLyingPass) {
  auto M = parseOrDie(StraightIR);
  Function &F = *M->findFunction("main");
  FunctionPassManager FPM;
  FPM.setCheckAnalyses(true);
  FPM.add(std::make_unique<WarmupPass>());
  FPM.add(std::make_unique<LyingPass>());
  FunctionAnalyses FA(F);
  std::string Err = FPM.run(F, *M, FA);
  ASSERT_NE(Err, "");
  EXPECT_NE(Err.find("liar"), std::string::npos) << Err;
  EXPECT_NE(Err.find("stale"), std::string::npos) << Err;
}

TEST(AnalysisChecker, CatchesBaseRegisterRewriter) {
  // VSC_CHECK_ANALYSES semantics: the recompute-and-compare checker must
  // extend to the alias analysis — a pass silently changing where a base
  // register points leaves the cached access locations stale.
  auto M = parseOrDie(AliasIR);
  Function &F = *M->findFunction("main");
  FunctionPassManager FPM;
  FPM.setCheckAnalyses(true);
  FPM.add(std::make_unique<AliasWarmupPass>());
  FPM.add(std::make_unique<BaseRewritingLiarPass>());
  FunctionAnalyses FA(F);
  std::string Err = FPM.run(F, *M, FA);
  ASSERT_NE(Err, "");
  EXPECT_NE(Err.find("base-liar"), std::string::npos) << Err;
  EXPECT_NE(Err.find("stale AliasAnalysis"), std::string::npos) << Err;
}

class SelfCheckFailingPass : public FunctionPass {
public:
  const char *name() const override { return "self-check"; }
  PreservedAnalyses run(Function &, Module &, FunctionAnalyses &FA) override {
    if (FA.checking())
      FA.reportCheckFailure("kept state disagrees");
    return PreservedAnalyses::all();
  }
};

TEST(AnalysisChecker, ReportsAPassSelfCheckFailure) {
  // A pass that keeps analyses across its own edits checks them as it
  // goes when checking is on, and reports through the cache checker.
  auto M = parseOrDie(StraightIR);
  Function &F = *M->findFunction("main");
  FunctionPassManager FPM;
  FPM.add(std::make_unique<SelfCheckFailingPass>());
  FPM.setCheckAnalyses(false);
  {
    FunctionAnalyses FA(F);
    EXPECT_EQ(FPM.run(F, *M, FA), "");
  }
  FPM.setCheckAnalyses(true);
  FunctionAnalyses FA(F);
  std::string Err = FPM.run(F, *M, FA);
  EXPECT_NE(Err.find("self-check"), std::string::npos) << Err;
  EXPECT_NE(Err.find("kept state disagrees"), std::string::npos) << Err;
}

TEST(AnalysisChecker, HonestMutatorIsClean) {
  auto M = parseOrDie(StraightIR);
  Function &F = *M->findFunction("main");
  FunctionPassManager FPM;
  FPM.setCheckAnalyses(true);
  FPM.add(std::make_unique<WarmupPass>());
  FPM.add(std::make_unique<HonestMutatorPass>());
  FunctionAnalyses FA(F);
  EXPECT_EQ(FPM.run(F, *M, FA), "");
}

TEST(AnalysisChecker, TruthfulAllClaimIsClean) {
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  FunctionPassManager FPM;
  FPM.setCheckAnalyses(true);
  FPM.add(std::make_unique<WarmupPass>());
  FPM.add(std::make_unique<ImmediateRewritePass>());
  FunctionAnalyses FA(F);
  EXPECT_EQ(FPM.run(F, *M, FA), "");
}

TEST(AnalysisChecker, EpochedEditIsSafeEvenWithOptimisticClaim) {
  auto M = parseOrDie(StraightIR);
  Function &F = *M->findFunction("main");
  FunctionPassManager FPM;
  FPM.setCheckAnalyses(true);
  FPM.add(std::make_unique<WarmupPass>());
  FPM.add(std::make_unique<EpochBumpingPass>());
  FunctionAnalyses FA(F);
  // addBlock bumps the CFG epoch, which empties the cache logically — the
  // stale claim is harmless and the checker must not fire.
  EXPECT_EQ(FPM.run(F, *M, FA), "");
}

TEST(AnalysisChecker, RealPipelinePassesAreHonest) {
  // The production VLIW chain under forced checking: every wrapper's
  // preservation claim is recomputed and compared after every pass on a
  // control-flow-heavy function.
  auto M = parseOrDie(LoopIR);
  Function &F = *M->findFunction("main");
  MachineModel Machine = rs6000(); // passes keep a reference
  FunctionPassManager FPM;
  FPM.setCheckAnalyses(true);
  FPM.add(std::make_unique<ClassicalPass>());
  FPM.add(std::make_unique<LoadStoreMotionPass>());
  FPM.add(std::make_unique<UnspeculationPass>());
  FPM.add(std::make_unique<UnrollRenamePass>(2));
  FPM.add(std::make_unique<PipeliningPass>(Machine));
  FPM.add(std::make_unique<GlobalSchedulePass>(Machine,
                                               GlobalScheduleOptions()));
  FPM.add(std::make_unique<CombiningPass>());
  FPM.add(std::make_unique<StraightenPass>());
  FPM.add(std::make_unique<BlockExpansionPass>(Machine));
  FunctionAnalyses FA(F);
  EXPECT_EQ(FPM.run(F, *M, FA), "");
  EXPECT_EQ(verifyFunction(F), "");
}

//===----------------------------------------------------------------------===//
// Pipeline equivalence
//===----------------------------------------------------------------------===//

TEST(PassManager, MatchesLegacyFreeFunctions) {
  auto A = parseOrDie(LoopIR);
  auto B = parseOrDie(LoopIR);
  // Pass-manager route.
  {
    Function &F = *A->findFunction("main");
    FunctionPassManager FPM;
    FPM.add(std::make_unique<ClassicalPass>());
    FunctionAnalyses FA(F);
    ASSERT_EQ(FPM.run(F, *A, FA), "");
  }
  // Direct call.
  {
    Function &F = *B->findFunction("main");
    FunctionAnalyses FA(F);
    runClassicalPipeline(F, FA);
  }
  EXPECT_EQ(printModule(*A), printModule(*B));
}

// The compile service keys its cached compiles on optionsFingerprint, so
// every option that can change the optimized bytes must move it, each to a
// value of its own.
TEST(PipelineOptions, FingerprintSeesEveryByteChangingOption) {
  ProfileData Profile;
  std::vector<RunOptions> Battery;
  std::vector<std::pair<std::string, PipelineOptions>> Variants = {
      {"defaults", PipelineOptions()}};
  auto Vary = [&Variants](std::string Name, auto Edit) {
    PipelineOptions O;
    Edit(O);
    Variants.emplace_back(std::move(Name), O);
  };
  const std::pair<const char *, bool PipelineOptions::*> Toggles[] = {
      {"Inlining", &PipelineOptions::Inlining},
      {"LoadStoreMotion", &PipelineOptions::LoadStoreMotion},
      {"Unspeculation", &PipelineOptions::Unspeculation},
      {"UnrollAndRename", &PipelineOptions::UnrollAndRename},
      {"Pipelining", &PipelineOptions::Pipelining},
      {"GlobalScheduling", &PipelineOptions::GlobalScheduling},
      {"Combining", &PipelineOptions::Combining},
      {"BlockExpansion", &PipelineOptions::BlockExpansion},
      {"TailorProlog", &PipelineOptions::TailorProlog},
      {"InsertPrologs", &PipelineOptions::InsertPrologs},
      {"AllocateRegisters", &PipelineOptions::AllocateRegisters},
      {"Superblocks", &PipelineOptions::Superblocks},
      {"FlowSensitiveAlias", &PipelineOptions::FlowSensitiveAlias}};
  for (const auto &[Name, Toggle] : Toggles)
    Vary(Name, [Toggle = Toggle](PipelineOptions &O) {
      O.*Toggle = !(O.*Toggle);
    });
  Vary("power2", [](PipelineOptions &O) { O.Machine = power2(); });
  Vary("ppc601", [](PipelineOptions &O) { O.Machine = ppc601(); });
  Vary("PageZeroReadable", [](PipelineOptions &O) {
    O.Machine.PageZeroReadable = !O.Machine.PageZeroReadable;
  });
  Vary("Grade", [](PipelineOptions &O) {
    O.ExactPipelining = ExactPipelineMode::Grade;
  });
  Vary("Apply", [](PipelineOptions &O) {
    O.ExactPipelining = ExactPipelineMode::Apply;
  });
  Vary("NodeBudget",
       [](PipelineOptions &O) { ++O.ExactPipeline.NodeBudget; });
  Vary("MaxStages", [](PipelineOptions &O) { ++O.ExactPipeline.MaxStages; });
  Vary("MaxBodyInstrs",
       [](PipelineOptions &O) { ++O.ExactPipeline.MaxBodyInstrs; });
  Vary("MaxII", [](PipelineOptions &O) { ++O.ExactPipeline.MaxII; });
  Vary("Profile", [&Profile](PipelineOptions &O) { O.Profile = &Profile; });
  Vary("TrainBattery",
       [&Battery](PipelineOptions &O) { O.TrainBattery = &Battery; });

  std::map<uint64_t, std::string> Seen;
  for (const auto &[Name, O] : Variants)
    for (OptLevel L : {OptLevel::None, OptLevel::Classical, OptLevel::Vliw}) {
      std::string Key = Name + " at " + optLevelName(L);
      auto [It, Fresh] = Seen.emplace(optionsFingerprint(L, O), Key);
      EXPECT_TRUE(Fresh) << Key << " collides with " << It->second;
    }
}

// Options that only observe or schedule the work leave the bytes alone, so
// they must not split the service's cache.
TEST(PipelineOptions, FingerprintIgnoresObservers) {
  const uint64_t Base = optionsFingerprint(OptLevel::Vliw, PipelineOptions());
  PipelineStats Stats;
  PipelineOptions O;
  O.Threads = 4;
  O.Stats = &Stats;
  O.Verify = false;
  O.Audit = AuditLevel::Full;
  O.Oracle = OracleLevel::Full;
  O.AliasAudit = true;
  EXPECT_EQ(optionsFingerprint(OptLevel::Vliw, O), Base);
}

TEST(PassManager, OptimizeIsByteIdenticalAcrossThreadCounts) {
  PipelineOptions One;
  One.Threads = 1;
  PipelineOptions Four;
  Four.Threads = 4;
  auto A = parseOrDie(LoopIR);
  auto B = parseOrDie(LoopIR);
  optimize(*A, OptLevel::Vliw, One);
  optimize(*B, OptLevel::Vliw, Four);
  EXPECT_EQ(printModule(*A), printModule(*B));
}

TEST(PassManager, StatsReportCacheHits) {
  auto M = parseOrDie(LoopIR);
  PipelineStats Stats;
  PipelineOptions Opts;
  Opts.Stats = &Stats;
  optimize(*M, OptLevel::Vliw, Opts);
  // The shared cache must be earning its keep: repeated CFG/dominator/
  // liveness queries inside one stage hit instead of recomputing.
  EXPECT_GT(Stats.AnalysisHits, 0u);
  EXPECT_GT(Stats.AnalysisMisses, 0u);
  // The builds by kind add up to the total.
  uint64_t Sum = 0;
  for (uint64_t N : Stats.AnalysisMissesByKind)
    Sum += N;
  EXPECT_EQ(Sum, Stats.AnalysisMisses);
  EXPECT_GT(Stats.AnalysisMissesByKind[static_cast<unsigned>(
                AnalysisKind::Cfg)],
            0u);
}

TEST(PassManager, BehaviourUnchangedUnderChecking) {
  // End-to-end: full pipeline with VSC_CHECK_ANALYSES semantics forced on
  // (via a checked FPM inside optimize there is no knob, so go through the
  // behaviour oracle instead: checked per-function chain == observable
  // behaviour of the normal pipeline).
  RunOptions Run;
  Run.Args = {6};
  transformPreservesBehaviour(
      LoopIR,
      [](Module &Mod) {
        Function &F = *Mod.findFunction("main");
        MachineModel Machine = rs6000(); // passes keep a reference
        FunctionPassManager FPM;
        FPM.setCheckAnalyses(true);
        FPM.add(std::make_unique<ClassicalPass>());
        FPM.add(std::make_unique<UnrollRenamePass>(3));
        FPM.add(std::make_unique<GlobalSchedulePass>(
            Machine, GlobalScheduleOptions()));
        FPM.add(std::make_unique<StraightenPass>());
        FunctionAnalyses FA(F);
        ASSERT_EQ(FPM.run(F, Mod, FA), "");
      },
      Run);
}
