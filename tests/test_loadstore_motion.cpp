//===- tests/test_loadstore_motion.cpp - Speculative load/store motion -----===//
///
/// Tests for the paper's first pathlength technique, including its worked
/// example: a conditionally-executed load/increment/store of a TOC-anchored
/// global inside a loop becomes a register-cached copy with stores pushed
/// to the loop exits.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "opt/Classical.h"
#include "vliw/LoadStoreMotion.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// The paper's example: the load/store of a(r4,12) happens only when the
/// conditional inside the loop is not taken.
const char *PaperExample = R"(
global a : 16
func main(0) {
entry:
  LTOC r4 = .a
  LI r32 = 100
  MTCTR r32
  LI r33 = 0
CL.0:
  AI r33 = r33, 1
  ANDI r34 = r33, 3
  CI cr0 = r34, 0
  BT CL.1, cr0.eq
body:
  L r3 = 12(r4) !a
  AI r3 = r3, 1
  ST 12(r4) !a = r3
CL.1:
  BCT CL.0
exit:
  L r3 = 12(r4) !a
  CALL print_int, 1
  RET
}
)";

bool loopTouchesMemory(const Function &F,
                       std::initializer_list<const char *> Labels) {
  for (const char *L : Labels) {
    const BasicBlock *BB = F.findBlock(L);
    if (!BB)
      continue;
    for (const Instr &I : BB->instrs())
      if (I.isMemAccess())
        return true;
  }
  return false;
}

} // namespace

TEST(LoadStoreMotion, PaperExampleCachesTheGlobal) {
  auto M = transformPreservesBehaviour(PaperExample, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    speculativeLoadStoreMotion(F, Mod, FA);
  });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  EXPECT_FALSE(loopTouchesMemory(*F, {"CL.0", "body", "CL.1"}))
      << printFunction(*F);
}

TEST(LoadStoreMotion, ExitStoreWritesFinalValue) {
  // Behaviour preservation (checked by the oracle) plus: the printed value
  // is the number of loop iterations where the store executed.
  auto M = transformPreservesBehaviour(PaperExample, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    speculativeLoadStoreMotion(F, Mod, FA);
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "75\n"); // body skipped every 4th of 100 iterations
}

TEST(LoadStoreMotion, CleanupShrinksLoopBody) {
  // After motion + classical cleanup the paper expects a lone AI on the
  // register-cached copy inside the loop.
  auto M = transformPreservesBehaviour(PaperExample, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    speculativeLoadStoreMotion(F, Mod, FA);
    runClassicalPipeline(F, FA);
  });
  ASSERT_TRUE(M);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "75\n");
}

TEST(LoadStoreMotion, RefusesVolatileAccess) {
  const char *Text = R"(
global v : 8 volatile
func main(0) {
entry:
  LTOC r4 = .v
  LI r32 = 10
  MTCTR r32
loop:
  L r33 = 0(r4) !v !volatile
  AI r33 = r33, 1
  ST 0(r4) !v !volatile = r33
  BCT loop
exit:
  L r3 = 0(r4) !v !volatile
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    speculativeLoadStoreMotion(F, Mod, FA);
  });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  const BasicBlock *Loop = F->findBlock("loop");
  ASSERT_TRUE(Loop);
  EXPECT_TRUE(loopTouchesMemory(*F, {"loop"})) << printFunction(*F);
}

TEST(LoadStoreMotion, RefusesWhenBaseWrittenInLoop) {
  const char *Text = R"(
global a : 408
func main(0) {
entry:
  LTOC r4 = .a
  LI r32 = 100
  MTCTR r32
  LI r33 = 0
loop:
  L r34 = 0(r4) !a
  A r33 = r33, r34
  AI r4 = r4, 4
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    speculativeLoadStoreMotion(F, Mod, FA);
  });
  ASSERT_TRUE(M);
  EXPECT_TRUE(loopTouchesMemory(*M->findFunction("main"), {"loop"}));
}

TEST(LoadStoreMotion, RefusesWhenAliasedByUnknownStore) {
  // A store through an unannotated pointer may hit the global.
  const char *Text = R"(
global a : 16
func main(2) {
entry:
  LTOC r5 = .a
  LI r32 = 10
  MTCTR r32
  LI r33 = 0
loop:
  L r34 = 12(r5) !a
  A r33 = r33, r34
  ST 0(r4) = r33
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  std::string Err;
  auto M = parseModule(Text, &Err);
  ASSERT_TRUE(M) << Err;
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  speculativeLoadStoreMotion(F, *M, FA);
  EXPECT_TRUE(loopTouchesMemory(F, {"loop"}));
}

TEST(LoadStoreMotion, AllowsDisjointAnnotatedStores) {
  // A store to a *different* displacement of the same global does not block
  // caching of the first location.
  const char *Text = R"(
global a : 16
func main(0) {
entry:
  LTOC r4 = .a
  LI r32 = 50
  MTCTR r32
  LI r33 = 0
loop:
  L r34 = 12(r4) !a
  A r33 = r33, r34
  ST 0(r4) !a = r33
  BCT loop
exit:
  L r3 = 12(r4) !a
  A r3 = r3, r33
  CALL print_int, 1
  RET
}
)";
  auto M = transformPreservesBehaviour(Text, [](Module &Mod) {
    Function &F = *Mod.findFunction("main");
    FunctionAnalyses FA(F);
    speculativeLoadStoreMotion(F, Mod, FA);
  });
  ASSERT_TRUE(M);
  const Function *F = M->findFunction("main");
  const BasicBlock *Loop = F->findBlock("loop");
  ASSERT_TRUE(Loop);
  // The load of 12(r4) is register-cached; only the store to 0(r4)
  // remains... and then the store itself is also a cacheable group, so
  // after the pass converges the loop may touch no memory at all. Either
  // way the *load* must be gone.
  for (const Instr &I : Loop->instrs())
    EXPECT_FALSE(I.isLoad()) << printFunction(*F);
}

TEST(LoadStoreMotion, RefusesInsufficientGlobalSize) {
  // Displacement 12 with size 4 needs 16 bytes; global has only 8 — the
  // "sufficient size" safety condition fails.
  const char *Text = R"(
global a : 8
func main(0) {
entry:
  LTOC r4 = .a
  LI r32 = 10
  MTCTR r32
  LI r33 = 1
loop:
  CI cr0 = r33, 99
  BT skip, cr0.eq
body:
  L r34 = 12(r4) !a
  A r33 = r33, r34
skip:
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)";
  // Note: the access itself would trap at runtime if executed — it is
  // guarded by a branch that never takes it... the guard *always* branches
  // around? No: cr0 is never eq, so body executes; give the global enough
  // memory by construction? The point here is only the static refusal.
  std::string Err;
  auto M = parseModule(Text, &Err);
  ASSERT_TRUE(M) << Err;
  Function &F = *M->findFunction("main");
  FunctionAnalyses FA(F);
  speculativeLoadStoreMotion(F, *M, FA);
  EXPECT_TRUE(loopTouchesMemory(F, {"body"}));
}

TEST(LoadStoreMotion, PathlengthAndCyclesImprove) {
  auto Before = parseOrDie(PaperExample);
  RunResult RB = simulate(*Before, rs6000());
  auto After = parseOrDie(PaperExample);
  Function &F = *After->findFunction("main");
  FunctionAnalyses FA(F);
  speculativeLoadStoreMotion(F, *After, FA);
  runClassicalPipeline(F, FA);
  RunResult RA = simulate(*After, rs6000());
  EXPECT_EQ(RB.fingerprint(), RA.fingerprint());
  EXPECT_LT(RA.DynInstrs, RB.DynInstrs) << "pathlength must drop";
  EXPECT_LT(RA.Cycles, RB.Cycles) << "cycles must drop";
}
