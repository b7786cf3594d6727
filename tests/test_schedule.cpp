//===- tests/test_schedule.cpp - Scheduling core ---------------------------===//
///
/// Covers local list scheduling, cross-block speculative hoisting (global
/// scheduling), unrolling, live-range renaming, and enhanced pipeline
/// scheduling — including the paper's li worked example (experiment E2):
/// 11 cycles/iteration originally, ~7 after global scheduling (paper: 14
/// cycles / 2 iterations), ~6 with software pipelining (paper: 10 / 2).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "audit/PassAudit.h"
#include "cfg/CfgEdit.h"
#include "frontend/Frontend.h"
#include "pm/PassManager.h"
#include "pm/Passes.h"
#include "vliw/Rename.h"
#include "vliw/Schedule.h"
#include "vliw/Unroll.h"
#include "workloads/LiKernel.h"
#include "workloads/Registry.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

double liCyclesPerIter(void (*Apply)(Module &)) {
  auto M1 = buildLiSearch(64);
  auto M2 = buildLiSearch(128);
  Apply(*M1);
  Apply(*M2);
  EXPECT_EQ(verifyModule(*M1), "");
  RunResult R1 = simulate(*M1, rs6000());
  RunResult R2 = simulate(*M2, rs6000());
  EXPECT_FALSE(R1.Trapped) << R1.TrapMsg;
  EXPECT_FALSE(R2.Trapped) << R2.TrapMsg;
  EXPECT_EQ(R1.Output, "1\n");
  EXPECT_EQ(R2.Output, "1\n");
  return static_cast<double>(R2.Cycles - R1.Cycles) / 64.0;
}

void applyGlobalSched(Module &M) {
  Function &F = *M.findFunction("xlygetvalue");
  FunctionAnalyses FA(F);
  globalSchedule(F, rs6000(), M, FA);
  straighten(F);
}

void applyUnrollRenameSched(Module &M) {
  Function &F = *M.findFunction("xlygetvalue");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  renameInnermostLoops(F, FA);
  globalSchedule(F, rs6000(), M, FA);
  straighten(F);
}

void applyFullPipelineSched(Module &M) {
  Function &F = *M.findFunction("xlygetvalue");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  renameInnermostLoops(F, FA);
  pipelineInnermostLoops(F, rs6000(), M, FA);
  globalSchedule(F, rs6000(), M, FA);
  straighten(F);
}

} // namespace

//===----------------------------------------------------------------------===//
// E2: the worked example's staged speedups
//===----------------------------------------------------------------------===//

TEST(LiPipeline, GlobalSchedulingReaches7CyclesPerIteration) {
  // Paper: code motion within the loop body yields 14 cycles per 2
  // iterations (7 per iteration).
  EXPECT_LE(liCyclesPerIter(applyGlobalSched), 7.0);
  EXPECT_GE(liCyclesPerIter(applyGlobalSched), 5.0);
}

TEST(LiPipeline, UnrollRenameScheduleMatchesPaperMiddleStage) {
  EXPECT_LE(liCyclesPerIter(applyUnrollRenameSched), 7.0);
}

TEST(LiPipeline, SoftwarePipeliningBeatsGlobalScheduling) {
  double Gs = liCyclesPerIter(applyUnrollRenameSched);
  double Eps = liCyclesPerIter(applyFullPipelineSched);
  EXPECT_LT(Eps, Gs) << "pipelining must beat global scheduling alone";
  // Paper reaches 5 cycles/iteration; we require at most 6.
  EXPECT_LE(Eps, 6.0);
}

TEST(LiPipeline, NotFoundPathStaysCorrect) {
  // Search for an item that is NOT in the list: the loop exits through
  // endofchain, exercising the other exit (and the exit copies).
  auto M = buildLiSearch(32);
  // Overwrite the target so nothing matches.
  Function *Main = M->findFunction("main");
  for (auto &BB : Main->blocks())
    for (Instr &I : BB->instrs())
      if (I.Op == Opcode::LI && I.Dst == Reg::gpr(3))
        I.Imm = -12345;
  RunResult Before = simulate(*M, rs6000());
  ASSERT_FALSE(Before.Trapped) << Before.TrapMsg;
  ASSERT_EQ(Before.Output, "0\n");

  applyFullPipelineSched(*M);
  ASSERT_EQ(verifyModule(*M), "");
  RunResult After = simulate(*M, rs6000());
  EXPECT_EQ(Before.fingerprint(), After.fingerprint());
}

//===----------------------------------------------------------------------===//
// Local scheduling
//===----------------------------------------------------------------------===//

TEST(LocalSchedule, HidesLoadUseStall) {
  const char *Text = R"(
global g : 16 = [5 0 0 0 7 0 0 0]
func main(0) {
entry:
  LTOC r32 = .g
  LI r40 = 1
  LI r41 = 2
  LI r42 = 3
  L r33 = 0(r32) !g
  A r34 = r33, r40
  A r35 = r34, r41
  A r3 = r35, r42
  CALL print_int, 1
  RET
}
)";
  auto Before = parseOrDie(Text);
  RunResult RB = simulate(*Before, rs6000());
  auto After = transformPreservesBehaviour(Text, [](Module &Mod) {
    for (auto &BB : Mod.findFunction("main")->blocks())
      scheduleBlock(*BB, rs6000());
  });
  ASSERT_TRUE(After);
  RunResult RA = simulate(*After, rs6000());
  EXPECT_LE(RA.Cycles, RB.Cycles);
}

TEST(LocalSchedule, SeparatesCompareFromBranch) {
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 1000
  LI r33 = 0
  LI r34 = 0
loop:
  AI r33 = r33, 1
  C cr0 = r33, r32
  AI r34 = r34, 3
  AI r34 = r34, 5
  AI r34 = r34, 7
  AI r34 = r34, 9
  BF loop, cr0.eq
exit:
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";
  // Worst schedule: compare directly before the branch.
  std::string Worst(Text);
  auto Before = parseOrDie(Worst);
  // Move the compare to just before the branch to create the stall.
  BasicBlock *Loop = Before->findFunction("main")->findBlock("loop");
  Instr Cmp = Loop->instrs()[1];
  Loop->instrs().erase(Loop->instrs().begin() + 1);
  Loop->instrs().insert(Loop->instrs().begin() + 5, Cmp);
  RunResult RB = simulate(*Before, rs6000());
  EXPECT_GT(RB.BranchStallCycles, 2000u);

  // The scheduler should recover the good order: the loop becomes
  // FXU-bound (6 ops -> ~6 cycles/iteration instead of ~9).
  for (auto &BB : Before->findFunction("main")->blocks())
    scheduleBlock(*BB, rs6000());
  RunResult RA = simulate(*Before, rs6000());
  EXPECT_EQ(RB.fingerprint(), RA.fingerprint());
  EXPECT_LT(RA.BranchStallCycles, RB.BranchStallCycles / 2);
  EXPECT_LT(RA.Cycles, RB.Cycles);
  EXPECT_NEAR(static_cast<double>(RA.Cycles) / 1000, 6.0, 0.1);
}

TEST(LocalSchedule, RespectsMemoryDependences) {
  // Store then aliasing load: order must hold.
  const char *Text = R"(
global g : 8
func main(0) {
entry:
  LTOC r32 = .g
  LI r33 = 42
  ST 0(r32) !g = r33
  L r34 = 0(r32) !g
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    for (auto &BB : Mod.findFunction("main")->blocks())
      scheduleBlock(*BB, rs6000());
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "42\n");
}

TEST(LocalSchedule, PreservesCallOrder) {
  const char *Text = R"(
func main(0) {
entry:
  LI r3 = 1
  CALL print_int, 1
  LI r3 = 2
  CALL print_int, 1
  LI r3 = 3
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    for (auto &BB : Mod.findFunction("main")->blocks())
      scheduleBlock(*BB, rs6000());
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "1\n2\n3\n");
}

//===----------------------------------------------------------------------===//
// Unrolling
//===----------------------------------------------------------------------===//

TEST(Unroll, PreservesBehaviourFactor2And4) {
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 37
  MTCTR r32
  LI r33 = 0
  LI r34 = 0
loop:
  AI r33 = r33, 1
  A r34 = r34, r33
  BCT loop
exit:
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";
  for (unsigned Factor : {2u, 4u}) {
    auto M = transformPreservesBehaviour(Text, [Factor](Module &Mod) {
      Function &F = *Mod.findFunction("main");
      FunctionAnalyses FA(F);
      unrollInnermostLoops(F, FA, Factor);
      straighten(F);
    });
    ASSERT_TRUE(M);
  }
}

TEST(Unroll, TripCountNotMultipleOfFactor) {
  // 37 iterations with factor 2 and a conditional (non-BCT) loop.
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 37
  LI r33 = 0
  LI r34 = 0
loop:
  AI r33 = r33, 1
  A r34 = r34, r33
  C cr0 = r33, r32
  BF loop, cr0.eq
exit:
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    unrollInnermostLoops(F, FA, 2);
    straighten(F);
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, std::to_string(37 * 38 / 2) + "\n");
}

TEST(Unroll, SideExitKeepsTarget) {
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 100
  MTCTR r32
  LI r33 = 0
loop:
  AI r33 = r33, 1
  CI cr0 = r33, 13
  BT breakout, cr0.eq
body:
  BCT loop
exit:
  LI r3 = 0
  CALL print_int, 1
  RET
breakout:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    unrollInnermostLoops(F, FA, 3);
    straighten(F);
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "13\n");
}

//===----------------------------------------------------------------------===//
// Renaming
//===----------------------------------------------------------------------===//

TEST(Rename, BreaksFalseDependences) {
  const char *Text = R"(
global g : 408
func main(0) {
entry:
  LI r32 = 100
  MTCTR r32
  LTOC r33 = .g
  LI r36 = 0
loop:
  L r40 = 0(r33) !g
  A r36 = r36, r40
  L r40 = 4(r33) !g
  A r36 = r36, r40
  BCT loop
exit:
  LR r3 = r36
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    renameInnermostLoops(F, FA);
  });
  ASSERT_TRUE(M);
  // The two defs of r40 must now use distinct registers.
  const BasicBlock *Loop = M->findFunction("main")->findBlock("loop");
  ASSERT_TRUE(Loop);
  std::vector<Reg> LoadDsts;
  for (const Instr &I : Loop->instrs())
    if (I.isLoad())
      LoadDsts.push_back(I.Dst);
  ASSERT_EQ(LoadDsts.size(), 2u);
  EXPECT_NE(LoadDsts[0], LoadDsts[1]);
}

TEST(Rename, InsertsExitCopiesForLiveRegisters) {
  // r40's intermediate value is live at the side exit: the renamer must
  // patch the exit with an LR copy (the paper's `found: LR r4=r4`).
  const char *Text = R"(
global g : 408 = [9 0 0 0]
func main(0) {
entry:
  LI r32 = 50
  MTCTR r32
  LTOC r33 = .g
  LI r36 = 0
loop:
  L r40 = 0(r33) !g
  CI cr0 = r40, 9
  BT hit, cr0.eq
cont:
  LI r40 = 0
  A r36 = r36, r40
  BCT loop
exit:
  LR r3 = r36
  CALL print_int, 1
  RET
hit:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    renameInnermostLoops(F, FA);
    straighten(F);
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "9\n");
}

TEST(Rename, RefusesLoopsWithMidChainLatch) {
  // Regression: a hash-probe-style loop with TWO latches (a conditional
  // back edge in the middle of the chain and the real latch at the end).
  // Renaming the mid-chain definition of r27 once destroyed the value the
  // early back edge carries into the next iteration.
  const char *Text = R"(
global htab : 64 = [1 0 0 0 1 0 0 0 1 0 0 0 0 0 0 0]
func main(0) {
entry:
  LTOC r30 = .htab
  LI r27 = 0
  LI r28 = 0
head:
  SLI r31 = r27, 2
  A r32 = r30, r31
  L r33 = 0(r32) !htab !safe
  CI cr0 = r33, 0
  BT done, cr0.eq
body:
  AI r34 = r27, 1
  LR r27 = r34
  CI cr1 = r27, 16
  BF head, cr1.eq
wrap:
  LI r27 = 0
  AI r28 = r28, 1
  CI cr2 = r28, 2
  BT done, cr2.eq
back:
  B head
done:
  LR r3 = r27
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    renameInnermostLoops(F, FA);
    straighten(F);
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "3\n");
}

//===----------------------------------------------------------------------===//
// Global scheduling (cross-block)
//===----------------------------------------------------------------------===//

TEST(GlobalSchedule, HoistsAcrossConditionalBranch) {
  // The successor's independent load can fill the predecessor's load-use
  // stall hole, speculatively (it is safe and its dest is dead on the
  // other path).
  const char *Text = R"(
global g : 16 = [5 0 0 0 7 0 0 0]
func main(1) {
entry:
  LTOC r32 = .g
  L r33 = 0(r32) !g
  CI cr0 = r33, 5
  BT yes, cr0.eq
no:
  LI r3 = 0
  CALL print_int, 1
  RET
yes:
  L r34 = 4(r32) !g
  LR r3 = r34
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    globalSchedule(F, rs6000(), Mod, FA);
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "7\n");
  // The load should have been hoisted into the entry block.
  const BasicBlock *Entry = M->findFunction("main")->entry();
  size_t Loads = 0;
  for (const Instr &I : Entry->instrs())
    if (I.isLoad())
      ++Loads;
  EXPECT_EQ(Loads, 2u) << printFunction(*M->findFunction("main"));
}

TEST(GlobalSchedule, RefusesUnsafeSpeculativeLoad) {
  // The load has no safety annotation and dereferences an argument: it
  // must not be hoisted above the null check.
  const char *Text = R"(
func main(1) {
entry:
  CI cr0 = r3, 0
  BT isnull, cr0.eq
deref:
  L r34 = 0(r3)
  LR r3 = r34
  CALL print_int, 1
  RET
isnull:
  LI r3 = -1
  CALL print_int, 1
  RET
}
)";
  MachineModel Strict = rs6000();
  Strict.PageZeroReadable = false;
  RunOptions Opts;
  Opts.Args = {0}; // null pointer: the deref path is never taken
  std::string Err;
  auto M = parseModule(Text, &Err);
  ASSERT_TRUE(M) << Err;
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  globalSchedule(F, Strict, *M, FA);
  RunResult R = simulate(*M, Strict, Opts);
  EXPECT_FALSE(R.Trapped) << "speculated unsafe load trapped: " << R.TrapMsg;
  EXPECT_EQ(R.Output, "-1\n");
}

TEST(GlobalSchedule, RefusesWhenDestLiveOnOtherPath) {
  const char *Text = R"(
func main(1) {
entry:
  LI r40 = 5
  CI cr0 = r3, 0
  BT other, cr0.eq
taken:
  AI r40 = r3, 9
  LR r3 = r40
  CALL print_int, 1
  RET
other:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";
  for (int64_t A : {0, 2}) {
    RunOptions Opts;
    Opts.Args = {A};
    auto M = transformPreservesBehaviour(
        Text,
        [](Module &Mod) {
          Function &F = *Mod.findFunction("main");
          FunctionAnalyses FA(F);
          globalSchedule(F, rs6000(), Mod, FA);
        },
        Opts);
    ASSERT_TRUE(M);
  }
}

//===----------------------------------------------------------------------===//
// Enhanced pipeline scheduling
//===----------------------------------------------------------------------===//

/// Global scheduling sweeps once: a hoist keeps the graph, the loops and
/// (updated in place) liveness, and a block whose probe failed is probed
/// again only when a hoist changed what that probe reads. With checking
/// forced on, the pass verifies the cache after every hoist (so the kept
/// liveness must equal a fresh Liveness) and re-runs every probe it
/// skipped (so none may turn out able to hoist). Both stay silent on every
/// kernel and on the 40-statement generated loops, on every machine, at
/// the point of the Vliw pipeline where global scheduling runs.
TEST(GlobalSchedule, SweepKeepsAnalysesAndSkipsOnlyFailingProbes) {
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> Sources;
  for (const Workload &W : workloads::allKernels())
    Sources.emplace_back(W.Name, buildWorkload(W));
  for (bool Branchy : {false, true}) {
    FrontendOptions FO;
    FO.AssumeSafeLoads = true;
    CompileResult C = compileMiniC(largeLoopProgram(40, Branchy, 11), FO);
    ASSERT_TRUE(C.ok()) << C.Error;
    Sources.emplace_back(Branchy ? "branchy.40" : "straight.40",
                         std::move(C.M));
  }
  unsigned Moved = 0;
  for (const char *Name : {"rs6000", "power2", "ppc601"}) {
    MachineModel MM = *findMachine(Name);
    FunctionPassManager Before;
    Before.add(std::make_unique<ClassicalPass>());
    Before.add(std::make_unique<LoadStoreMotionPass>());
    Before.add(std::make_unique<UnspeculationPass>());
    Before.add(std::make_unique<UnrollRenamePass>(2));
    Before.add(std::make_unique<PipeliningPass>(MM));
    FunctionPassManager Sweep;
    Sweep.setCheckAnalyses(true);
    Sweep.add(std::make_unique<GlobalSchedulePass>(MM, GlobalScheduleOptions()));
    for (const auto &[Program, Source] : Sources) {
      ASSERT_TRUE(Source) << Program;
      auto M = cloneModule(*Source);
      for (const auto &F : M->functions()) {
        if (F->blocks().empty())
          continue;
        FunctionAnalyses FA(*F);
        ASSERT_EQ(Before.run(*F, *M, FA), "") << Program;
        size_t Blocks = F->blocks().size();
        std::vector<size_t> Sizes;
        for (const auto &BB : F->blocks())
          Sizes.push_back(BB->size());
        EXPECT_EQ(Sweep.run(*F, *M, FA), "")
            << Program << " @" << F->name() << " on " << Name;
        ASSERT_EQ(F->blocks().size(), Blocks);
        for (size_t I = 0; I != Blocks; ++I)
          Moved += F->blocks()[I]->size() != Sizes[I];
      }
    }
  }
  // Hoists change block sizes: the sweep had real work to check.
  EXPECT_GT(Moved, 100u);
}

TEST(Eps, PipelinesDependentLoadChainLoop) {
  // A pointer-chase-free loop with a load feeding an add: rotation should
  // overlap the next iteration's load with this iteration's add.
  const char *Text = R"(
global tab : 4096
func main(0) {
entry:
  LI r32 = 500
  MTCTR r32
  LTOC r33 = .tab
  LI r36 = 0
  LI r37 = 0
loop:
  L r40 = 0(r33) !tab
  A r36 = r36, r40
  AI r37 = r37, 4
  BCT loop
exit:
  LR r3 = r36
  CALL print_int, 1
  RET
}
)";
  auto Before = parseOrDie(Text);
  RunResult RB = simulate(*Before, rs6000());
  auto After = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    renameInnermostLoops(F, FA);
    pipelineInnermostLoops(F, rs6000(), Mod, FA);
    globalSchedule(F, rs6000(), Mod, FA);
    straighten(F);
  });
  ASSERT_TRUE(After);
  RunResult RA = simulate(*After, rs6000());
  EXPECT_LT(RA.Cycles, RB.Cycles);
}

TEST(Eps, RotationNeverAppliedToStores) {
  const char *Text = R"(
global tab : 4096
func main(0) {
entry:
  LI r32 = 100
  MTCTR r32
  LTOC r33 = .tab
  LI r36 = 7
loop:
  ST 0(r33) !tab = r36
  AI r36 = r36, 1
  BCT loop
exit:
  L r3 = 0(r33) !tab
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    pipelineInnermostLoops(F, rs6000(), Mod, FA);
    straighten(F);
  });
  ASSERT_TRUE(M);
  // The store must still be inside the loop and execute 100 times.
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "106\n");
}
