//===- tests/test_exact_pipeline.cpp - Exact software pipelining -----------===//
///
/// Covers the pipelining/ subsystem: the min-II analysis (resource and
/// recurrence lower bounds per innermost loop), the branch-and-bound
/// modulo scheduler's verdicts on hand-built loops with known optimal II,
/// the FunctionAnalyses cache keying, and the Grade/Apply wiring through
/// the full audited pipeline — including byte-identical output across
/// thread counts and the untouched-code guarantee when the budget cuts
/// the search.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "pipelining/ExactPipeliner.h"
#include "pipelining/MinII.h"
#include "pm/Analysis.h"
#include "vliw/Pipeline.h"
#include "vliw/Schedule.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// Builds the min-II analysis directly (syntactic alias tier) over \p F.
MinIIAnalysis analyzeMinII(Function &F, const MachineModel &MM) {
  Cfg G(F);
  Dominators D(G);
  LoopInfo LI(G, D);
  return MinIIAnalysis(F, G, LI, /*AA=*/nullptr, MM);
}

/// Flattens the single-block loop \p Label of \p F (body + terminators),
/// the shape the dependence graph and exact scheduler index by.
std::vector<Instr> loopBody(Function &F, const std::string &Label) {
  for (auto &BB : F.blocks())
    if (BB->label() == Label)
      return BB->instrs();
  ADD_FAILURE() << "no block " << Label;
  return {};
}

/// Three independent adds + the count branch: min II on a 1-wide FXU is 3
/// (purely resource bound).
const char *IndependentAddsText = R"(
func main(0) {
entry:
  LI r32 = 50
  MTCTR r32
  LI r34 = 0
  LI r35 = 0
  LI r36 = 0
loop:
  AI r34 = r34, 1
  AI r35 = r35, 2
  AI r36 = r36, 3
  BCT loop
exit:
  A r3 = r34, r35
  A r3 = r3, r36
  CALL print_int, 1
  RET
}
)";

/// A pointer chase: the load feeds its own address next iteration, so the
/// recurrence bound (load latency 2) dominates the resource bound (1).
/// tab[0] is seeded with tab's own address, so the chase is a stable
/// self-cycle whatever the loader's layout.
const char *PointerChaseText = R"(
global tab : 64
func main(0) {
entry:
  LI r32 = 9
  MTCTR r32
  LTOC r33 = .tab
  ST 0(r33) !tab = r33
loop:
  L r33 = 0(r33) !tab
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";

/// A load whose result is overwritten before anything reads it: the add
/// reads the LI's r40, so no edge runs from the load to the add, and the
/// only recurrence through the load is its base, updated by the add.
const char *DeadLoadText = R"(
global tab : 64
func main(0) {
entry:
  LI r32 = 9
  MTCTR r32
  LTOC r33 = .tab
loop:
  L r40 = 0(r33) !tab
  LI r40 = 0
  A r33 = r33, r40
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";

PipelineOptions exactOptions(ExactPipelineMode Mode, PipelineStats *Stats) {
  PipelineOptions Opts;
  Opts.ExactPipelining = Mode;
  Opts.Stats = Stats;
  // Keep the hand-built loop bodies pristine (no 2x unrolling) so the
  // min-II expectations below stay exact.
  Opts.UnrollAndRename = false;
  return Opts;
}

const LoopPipelineRecord *findLoop(const PipelineStats &S,
                                   const std::string &Fn) {
  for (const LoopPipelineRecord &R : S.PipelineLoops)
    if (R.Function == Fn)
      return &R;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Min-II analysis
//===----------------------------------------------------------------------===//

TEST(MinII, ResourceBoundTracksMachineWidth) {
  auto M = parseOrDie(IndependentAddsText);
  Function &F = *M->findFunction("main");
  // 3 FXU ops on a 1-wide FXU: resMII 3. power2 doubles the width: 2.
  MinIIAnalysis Narrow = analyzeMinII(F, rs6000());
  ASSERT_EQ(Narrow.loops().size(), 1u);
  const LoopMinII &L1 = Narrow.loops()[0];
  EXPECT_TRUE(L1.Modeled);
  EXPECT_EQ(L1.Body.size(), 4u);
  EXPECT_EQ(L1.ResMII, 3u);
  EXPECT_EQ(L1.minII(), 3u);

  MinIIAnalysis Wide = analyzeMinII(F, power2());
  EXPECT_EQ(Wide.loops()[0].ResMII, 2u);
}

TEST(MinII, PointerChaseRecurrenceDominates) {
  auto M = parseOrDie(PointerChaseText);
  Function &F = *M->findFunction("main");
  MinIIAnalysis A = analyzeMinII(F, rs6000());
  ASSERT_EQ(A.loops().size(), 1u);
  const LoopMinII &L = A.loops()[0];
  EXPECT_TRUE(L.Modeled);
  // The self-flow edge L->L (latency 2, distance 1) forces II >= 2; the
  // resource bound alone is 1.
  EXPECT_EQ(L.ResMII, 1u);
  EXPECT_EQ(L.RecMII, 2u);
  EXPECT_EQ(L.minII(), 2u);
}

TEST(MinII, BoundNeverExceedsTheEngine) {
  // min-II is a lower bound only if every edge of its graph is one the
  // issue engine imposes. A flow edge from the load to the add, across the
  // LI that redefines r40, would put recMII at 3 on power2, above the 2
  // cycles per iteration the engine reaches on this very block.
  auto M = parseOrDie(DeadLoadText);
  Function &F = *M->findFunction("main");
  BasicBlock *Loop = nullptr;
  for (auto &BB : F.blocks())
    if (BB->label() == "loop")
      Loop = BB.get();
  ASSERT_NE(Loop, nullptr);
  for (const MachineModel &MM : {rs6000(), power2(), ppc601()}) {
    MinIIAnalysis A = analyzeMinII(F, MM);
    ASSERT_EQ(A.loops().size(), 1u);
    EXPECT_LE(A.loops()[0].minII(), estimateSteadyStateCycles({Loop}, MM))
        << MM.Name;
  }

  MinIIAnalysis A = analyzeMinII(F, power2());
  const LoopMinII &L = A.loops()[0];
  EXPECT_EQ(L.RecMII, 2u);
  ExactSchedule S = exactScheduleLoop(L.Body, L.Graph, power2(), L.minII(), 8,
                                      ExactPipelinerOptions());
  EXPECT_EQ(S.Verdict, ExactVerdict::Optimal);
  EXPECT_EQ(S.II, 2u);
}

TEST(MinII, CachedByMachineFingerprint) {
  auto M = parseOrDie(IndependentAddsText);
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  EXPECT_FALSE(FA.hasCached(AnalysisKind::MinII));

  const MinIIAnalysis &A = FA.minII(rs6000(), /*FlowAlias=*/false);
  uint64_t MissesAfterFirst = FA.stats().Misses;
  EXPECT_TRUE(FA.hasCached(AnalysisKind::MinII));

  // Same machine + tier: a hit returning the same object.
  const MinIIAnalysis &B = FA.minII(rs6000(), /*FlowAlias=*/false);
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(FA.stats().Misses, MissesAfterFirst);

  // Different machine: recompute under the new key.
  const MinIIAnalysis &C = FA.minII(power2(), /*FlowAlias=*/false);
  EXPECT_GT(FA.stats().Misses, MissesAfterFirst);
  EXPECT_EQ(C.loops()[0].ResMII, 2u);

  // Declared invalidation drops it like any other analysis.
  FA.invalidateAll();
  EXPECT_FALSE(FA.hasCached(AnalysisKind::MinII));
}

//===----------------------------------------------------------------------===//
// Exact scheduler verdicts
//===----------------------------------------------------------------------===//

TEST(ExactPipeliner, ProvesOptimalityAtTheResourceBound) {
  auto M = parseOrDie(IndependentAddsText);
  Function &F = *M->findFunction("main");
  std::vector<Instr> Body = loopBody(F, "loop");
  ASSERT_EQ(Body.size(), 4u);
  DepGraph G;
  DepGraphBuilder().build(Body, Body.size(), rs6000(), nullptr,
                          /*LoopCarried=*/true, G);
  EXPECT_EQ(computeResMII(Body, rs6000()), 3u);

  ExactPipelinerOptions Opts;
  ExactSchedule S =
      exactScheduleLoop(Body, G, rs6000(), computeRecMII(G), 8, Opts);
  // Nothing below the resource bound is feasible; II=3 is found with the
  // lower searches complete, so the verdict is a proof.
  EXPECT_EQ(S.Verdict, ExactVerdict::Optimal);
  EXPECT_EQ(S.II, 3u);
  ASSERT_EQ(S.Cycle.size(), Body.size());
  // The three adds must land in distinct residue classes of the 1-wide FXU.
  EXPECT_NE(S.Cycle[0] % 3, S.Cycle[1] % 3);
  EXPECT_NE(S.Cycle[0] % 3, S.Cycle[2] % 3);
  EXPECT_NE(S.Cycle[1] % 3, S.Cycle[2] % 3);
}

TEST(ExactPipeliner, RecurrenceMakesLowIIProvablyInfeasible) {
  auto M = parseOrDie(PointerChaseText);
  Function &F = *M->findFunction("main");
  std::vector<Instr> Body = loopBody(F, "loop");
  DepGraph G;
  DepGraphBuilder().build(Body, Body.size(), rs6000(), nullptr,
                          /*LoopCarried=*/true, G);

  ExactPipelinerOptions Opts;
  // Capped below recMII: the self edge is refuted without search, so the
  // verdict is Infeasible (a proof), not BudgetExceeded.
  ExactSchedule Low = exactScheduleLoop(Body, G, rs6000(), 1, 1, Opts);
  EXPECT_EQ(Low.Verdict, ExactVerdict::Infeasible);
  EXPECT_EQ(Low.II, 0u);

  ExactSchedule Ok = exactScheduleLoop(Body, G, rs6000(), 1, 4, Opts);
  EXPECT_EQ(Ok.Verdict, ExactVerdict::Optimal);
  EXPECT_EQ(Ok.II, 2u);
}

TEST(ExactPipeliner, BudgetCutReportsBudgetExceeded) {
  auto M = parseOrDie(IndependentAddsText);
  Function &F = *M->findFunction("main");
  std::vector<Instr> Body = loopBody(F, "loop");
  DepGraph G;
  DepGraphBuilder().build(Body, Body.size(), rs6000(), nullptr,
                          /*LoopCarried=*/true, G);

  ExactPipelinerOptions Opts;
  Opts.NodeBudget = 0;
  ExactSchedule S = exactScheduleLoop(Body, G, rs6000(), 1, 8, Opts);
  EXPECT_EQ(S.Verdict, ExactVerdict::BudgetExceeded);
  EXPECT_EQ(S.II, 0u);
}

TEST(ExactPipeliner, OversizedBodyIsOutsideTheModel) {
  auto M = parseOrDie(IndependentAddsText);
  Function &F = *M->findFunction("main");
  std::vector<Instr> Body = loopBody(F, "loop");
  DepGraph G;
  DepGraphBuilder().build(Body, Body.size(), rs6000(), nullptr,
                          /*LoopCarried=*/true, G);
  ExactPipelinerOptions Opts;
  Opts.MaxBodyInstrs = 2;
  ExactSchedule S = exactScheduleLoop(Body, G, rs6000(), 1, 8, Opts);
  EXPECT_EQ(S.Verdict, ExactVerdict::Infeasible);
  EXPECT_EQ(S.NodesExplored, 0u);
}

//===----------------------------------------------------------------------===//
// Pipeline wiring: Grade
//===----------------------------------------------------------------------===//

TEST(ExactGrade, RecordsGapWithoutTouchingCode) {
  PipelineStats Off, Grade;
  auto MOff = parseOrDie(PointerChaseText);
  auto MGrade = parseOrDie(PointerChaseText);
  optimize(*MOff, OptLevel::Vliw, exactOptions(ExactPipelineMode::Off, &Off));
  optimize(*MGrade, OptLevel::Vliw,
           exactOptions(ExactPipelineMode::Grade, &Grade));

  // Grade is a pure oracle: byte-identical output to Off.
  EXPECT_EQ(printModule(*MOff), printModule(*MGrade));
  EXPECT_TRUE(Off.PipelineLoops.empty());

  const LoopPipelineRecord *R = findLoop(Grade, "main");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->minII(), 2u);
  EXPECT_GE(R->HeuristicII, R->minII());
  EXPECT_EQ(R->AchievedII, R->HeuristicII);
  EXPECT_FALSE(R->Applied);
  if (R->ExactII) {
    EXPECT_GE(R->ExactII, R->minII());
    EXPECT_LE(R->ExactII, R->HeuristicII);
  }
}

TEST(ExactGrade, ProvesHeuristicOptimalWhenGapIsZero) {
  // The chase loop's heuristic steady state hits the recurrence bound, so
  // the exact search (capped at the heuristic's II) must find II equal to
  // it with every lower II refuted: verdict Optimal, gap zero.
  PipelineStats S;
  auto M = parseOrDie(PointerChaseText);
  optimize(*M, OptLevel::Vliw, exactOptions(ExactPipelineMode::Grade, &S));
  const LoopPipelineRecord *R = findLoop(S, "main");
  ASSERT_NE(R, nullptr);
  ASSERT_EQ(R->Verdict, ExactVerdict::Optimal);
  EXPECT_EQ(R->ExactII, R->HeuristicII);
}

//===----------------------------------------------------------------------===//
// Pipeline wiring: Apply
//===----------------------------------------------------------------------===//

TEST(ExactApply, BudgetExceededLeavesCodeUntouched) {
  PipelineStats Off, Apply;
  PipelineOptions ApplyOpts = exactOptions(ExactPipelineMode::Apply, &Apply);
  ApplyOpts.ExactPipeline.NodeBudget = 0; // every search cuts immediately
  auto MOff = parseOrDie(IndependentAddsText);
  auto MApply = parseOrDie(IndependentAddsText);
  optimize(*MOff, OptLevel::Vliw, exactOptions(ExactPipelineMode::Off, &Off));
  optimize(*MApply, OptLevel::Vliw, ApplyOpts);

  EXPECT_EQ(printModule(*MOff), printModule(*MApply));
  for (const LoopPipelineRecord &R : Apply.PipelineLoops) {
    EXPECT_FALSE(R.Applied);
    EXPECT_TRUE(R.Verdict == ExactVerdict::BudgetExceeded ||
                R.Verdict == ExactVerdict::Infeasible)
        << exactVerdictName(R.Verdict);
  }
}

TEST(ExactApply, FullyAuditedAndThreadInvariant) {
  // Apply mode through the complete safety net — semantic pass audit,
  // differential execution oracle and the dynamic alias audit — and
  // byte-identical output at every thread count.
  auto Build = [](unsigned Threads) {
    auto M = parseOrDie(PointerChaseText);
    PipelineStats S;
    PipelineOptions Opts = exactOptions(ExactPipelineMode::Apply, &S);
    Opts.Audit = AuditLevel::Boundaries;
    Opts.Oracle = OracleLevel::Boundaries;
    Opts.AliasAudit = true;
    Opts.Threads = Threads;
    optimize(*M, OptLevel::Vliw, Opts);
    return printModule(*M);
  };
  std::string One = Build(1);
  std::string Four = Build(4);
  EXPECT_EQ(One, Four);
}

TEST(ExactApply, PreservesBehaviourOnTheChaseLoop) {
  auto M = transformPreservesBehaviour(PointerChaseText, [](Module &Mod) {
    PipelineOptions Opts;
    Opts.ExactPipelining = ExactPipelineMode::Apply;
    optimize(Mod, OptLevel::Vliw, Opts);
  });
  ASSERT_TRUE(M);
}

//===----------------------------------------------------------------------===//
// Edge shapes through pipelineInnermostLoops
//===----------------------------------------------------------------------===//

TEST(ExactEdge, ZeroTripLoopStaysCorrect) {
  // The guard branches around the loop entirely: the preheader (and any
  // rotated copy in it) never executes, and grading still records the
  // static loop.
  const char *Text = R"(
global tab : 64
func main(0) {
entry:
  LI r32 = 0
  CI cr0 = r32, 0
  BT exit, cr0.eq
pre:
  MTCTR r32
  LTOC r33 = .tab
loop:
  L r34 = 0(r33) !tab
  AI r33 = r33, 4
  A r32 = r32, r34
  BCT loop
exit:
  LR r3 = r32
  CALL print_int, 1
  RET
}
)";
  std::vector<LoopPipelineRecord> Records;
  auto M = transformPreservesBehaviour(Text, [&Records](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    PipelineLoopOptions PO;
    PO.Exact = ExactPipelineMode::Apply;
    PO.Records = &Records;
    pipelineInnermostLoops(F, rs6000(), Mod, FA, PO);
    straighten(F);
  });
  ASSERT_TRUE(M);
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_GE(Records[0].HeuristicII, Records[0].minII());
}

TEST(ExactEdge, SingleInstructionBodyIsGradedNotRotated) {
  // The body is just the count branch: nothing can rotate
  // (firstTerminatorIdx == 0) but the loop still grades — one BU op, so
  // min II is 1.
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 5
  MTCTR r32
loop:
  BCT loop
exit:
  LI r3 = 42
  CALL print_int, 1
  RET
}
)";
  std::vector<LoopPipelineRecord> Records;
  auto M = transformPreservesBehaviour(Text, [&Records](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    PipelineLoopOptions PO;
    PO.Exact = ExactPipelineMode::Grade;
    PO.Records = &Records;
    unsigned Kept = pipelineInnermostLoops(F, rs6000(), Mod, FA, PO);
    EXPECT_EQ(Kept, 0u);
  });
  ASSERT_TRUE(M);
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].BodyInstrs, 1u);
  EXPECT_EQ(Records[0].minII(), 1u);
  EXPECT_EQ(Records[0].Rotations, 0u);
}

TEST(ExactEdge, RecurrenceBoundLoopGradesAboveResourceBound) {
  std::vector<LoopPipelineRecord> Records;
  auto M = transformPreservesBehaviour(PointerChaseText, [&Records](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    PipelineLoopOptions PO;
    PO.Exact = ExactPipelineMode::Grade;
    PO.Records = &Records;
    pipelineInnermostLoops(F, rs6000(), Mod, FA, PO);
    straighten(F);
  });
  ASSERT_TRUE(M);
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_GT(Records[0].RecMII, Records[0].ResMII);
  EXPECT_GE(Records[0].HeuristicII, Records[0].RecMII);
}
