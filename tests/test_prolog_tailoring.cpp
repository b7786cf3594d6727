//===- tests/test_prolog_tailoring.cpp - Prolog tailoring ------------------===//
///
/// Tests the paper's prolog tailoring (experiment E11), including the
/// worked example: a procedure where r29/r31 are killed only on one side
/// of a branch and r28/r30 on the other — the tailored prolog saves each
/// register only on the paths that kill it, and the unwind invariant
/// ("all paths to a point have the same saved set") holds throughout.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "vliw/PrologTailor.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// The paper's example shape: "BT L1" splits the procedure; the fall side
/// kills r29/r31, the L1 side kills r28 (and conditionally r30).
const char *PaperProc = R"(
func sub(2) {
entry:
  CI cr0 = r3, 0
  BT L1, cr0.eq
fall:
  LI r29 = 100
  LI r31 = 200
  A r3 = r29, r31
  RET
L1:
  LI r28 = 7
  CI cr1 = r4, 0
  BT L2, cr1.eq
killr30:
  LI r30 = 50
  A r28 = r28, r30
L2:
  LR r3 = r28
  RET
}

func main(2) {
entry:
  LI r28 = 1
  LI r29 = 2
  LI r30 = 3
  LI r31 = 4
  CALL sub, 2
  CALL print_int, 1
  A r3 = r28, r29
  A r3 = r3, r30
  A r3 = r3, r31
  CALL print_int, 1
  RET
}
)";

size_t countSaves(const Function &F, const char *Label) {
  const BasicBlock *BB = F.findBlock(Label);
  if (!BB)
    return 0;
  size_t N = 0;
  for (const Instr &I : BB->instrs())
    if (I.Op == Opcode::ST && I.Sym == "$csave")
      ++N;
  return N;
}

size_t totalSaves(const Function &F) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    for (const Instr &I : BB->instrs())
      if (I.Op == Opcode::ST && I.Sym == "$csave")
        ++N;
  return N;
}

} // namespace

TEST(PrologTailor, CalleeMustPreserveCalleeSavedRegs) {
  // Without prologs, sub clobbers main's r28..r31 — the final sum is wrong.
  std::string Err;
  auto M = parseModule(PaperProc, &Err);
  ASSERT_TRUE(M) << Err;
  RunOptions Opts;
  Opts.Args = {1, 1};
  RunResult R = simulate(*M, rs6000(), Opts);
  EXPECT_NE(R.Output, "300\n10\n") << "clobbering should be observable";

  // With classic prologs the caller's registers survive.
  Function &Sub = *M->findFunction("sub");
  FunctionAnalyses FA(Sub);
  insertPrologEpilog(Sub, FA, /*Tailored=*/false);
  ASSERT_EQ(verifyModule(*M), "");
  RunResult R2 = simulate(*M, rs6000(), Opts);
  EXPECT_FALSE(R2.Trapped) << R2.TrapMsg;
  EXPECT_EQ(R2.Output, "300\n10\n");
}

TEST(PrologTailor, UntailoredSavesEverythingAtEntry) {
  std::string Err;
  auto M = parseModule(PaperProc, &Err);
  ASSERT_TRUE(M) << Err;
  Function &Sub = *M->findFunction("sub");
  FunctionAnalyses FA(Sub);
  unsigned N = insertPrologEpilog(Sub, FA, /*Tailored=*/false);
  EXPECT_EQ(N, 4u); // r28, r29, r30, r31
  EXPECT_EQ(countSaves(Sub, "entry"), 4u) << printFunction(Sub);
  EXPECT_EQ(verifyUnwindInvariant(Sub), "");
}

TEST(PrologTailor, TailoredSavesPerPath) {
  std::string Err;
  auto M = parseModule(PaperProc, &Err);
  ASSERT_TRUE(M) << Err;
  Function &Sub = *M->findFunction("sub");
  FunctionAnalyses FA(Sub);
  unsigned N = insertPrologEpilog(Sub, FA, /*Tailored=*/true);
  EXPECT_EQ(N, 4u);
  // Nothing is saved at the entry any more; saves sit on the branch sides.
  EXPECT_EQ(countSaves(Sub, "entry"), 0u) << printFunction(Sub);
  EXPECT_EQ(countSaves(Sub, "fall"), 2u) << printFunction(Sub);   // r29,r31
  EXPECT_GE(countSaves(Sub, "L1"), 1u) << printFunction(Sub);     // r28
  EXPECT_EQ(verifyUnwindInvariant(Sub), "") << printFunction(Sub);
}

TEST(PrologTailor, TailoredBehaviourMatchesUntailored) {
  for (int64_t A : {0, 1}) {
    for (int64_t B : {0, 1}) {
      RunOptions Opts;
      Opts.Args = {A, B};
      auto Untailored = parseOrDie(PaperProc);
      for (auto &F : Untailored->functions()) {
        FunctionAnalyses FA(*F);
        insertPrologEpilog(*F, FA, false);
      }
      auto Tailored = parseOrDie(PaperProc);
      for (auto &F : Tailored->functions()) {
        FunctionAnalyses FA(*F);
        insertPrologEpilog(*F, FA, true);
      }
      ASSERT_EQ(verifyModule(*Tailored), "");
      RunResult RU = simulate(*Untailored, rs6000(), Opts);
      RunResult RT = simulate(*Tailored, rs6000(), Opts);
      EXPECT_FALSE(RU.Trapped) << RU.TrapMsg;
      EXPECT_EQ(RU.fingerprint(), RT.fingerprint());
    }
  }
}

TEST(PrologTailor, TailoredReducesDynamicSaves) {
  // On the L1 path only r28 (+r30) is saved: pathlength drops.
  RunOptions Opts;
  Opts.Args = {0, 0}; // takes L1, skips killr30
  auto Untailored = parseOrDie(PaperProc);
  for (auto &F : Untailored->functions()) {
    FunctionAnalyses FA(*F);
    insertPrologEpilog(*F, FA, false);
  }
  auto Tailored = parseOrDie(PaperProc);
  for (auto &F : Tailored->functions()) {
    FunctionAnalyses FA(*F);
    insertPrologEpilog(*F, FA, true);
  }
  RunResult RU = simulate(*Untailored, rs6000(), Opts);
  RunResult RT = simulate(*Tailored, rs6000(), Opts);
  EXPECT_EQ(RU.fingerprint(), RT.fingerprint());
  EXPECT_LT(RT.DynInstrs, RU.DynInstrs);
}

TEST(PrologTailor, NeverSavesInsideLoops) {
  const char *LoopKill = R"(
func f(1) {
entry:
  LI r32 = 10
  MTCTR r32
  LI r20 = 0
loop:
  AI r20 = r20, 1
  BCT loop
exit:
  LR r3 = r20
  RET
}
func main(0) {
entry:
  LI r20 = 77
  LI r3 = 0
  CALL f, 1
  CALL print_int, 1
  LR r3 = r20
  CALL print_int, 1
  RET
}
)";
  std::string Err;
  auto M = parseModule(LoopKill, &Err);
  ASSERT_TRUE(M) << Err;
  Function &F = *M->findFunction("f");
  FunctionAnalyses FA(F);
  insertPrologEpilog(F, FA, /*Tailored=*/true);
  EXPECT_EQ(verifyUnwindInvariant(F), "") << printFunction(F);
  EXPECT_EQ(countSaves(F, "loop"), 0u) << printFunction(F);
  EXPECT_EQ(totalSaves(F), 1u);
  RunResult R = simulate(*M, rs6000());
  EXPECT_EQ(R.Output, "10\n77\n");
}

TEST(PrologTailor, GrowsExistingFrame) {
  // The function already adjusts r1; the pass must grow the frame and keep
  // local slots working.
  const char *Framed = R"(
func f(1) {
entry:
  SI r1 = r1, 16
  ST 0(r1) = r3
  LI r25 = 9
  L r32 = 0(r1)
  A r3 = r32, r25
  AI r1 = r1, 16
  RET
}
func main(0) {
entry:
  LI r25 = 1000
  LI r3 = 5
  CALL f, 1
  CALL print_int, 1
  LR r3 = r25
  CALL print_int, 1
  RET
}
)";
  std::string Err;
  auto M = parseModule(Framed, &Err);
  ASSERT_TRUE(M) << Err;
  Function &F = *M->findFunction("f");
  FunctionAnalyses FA(F);
  insertPrologEpilog(F, FA, /*Tailored=*/true);
  ASSERT_EQ(verifyModule(*M), "");
  EXPECT_EQ(verifyUnwindInvariant(F), "");
  RunResult R = simulate(*M, rs6000());
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "14\n1000\n");
}

TEST(PrologTailor, RecursionSafe) {
  // Stack-based slots make saves reentrant: recursive kills still restore.
  const char *Rec = R"(
func fact(1) {
entry:
  CI cr0 = r3, 2
  BT base, cr0.lt
rec:
  LR r20 = r3
  SI r3 = r3, 1
  CALL fact, 1
  MUL r3 = r3, r20
  RET
base:
  LI r3 = 1
  RET
}
func main(0) {
entry:
  LI r20 = 123
  LI r3 = 6
  CALL fact, 1
  CALL print_int, 1
  LR r3 = r20
  CALL print_int, 1
  RET
}
)";
  std::string Err;
  auto M = parseModule(Rec, &Err);
  ASSERT_TRUE(M) << Err;
  Function &Fact = *M->findFunction("fact");
  FunctionAnalyses FA(Fact);
  insertPrologEpilog(Fact, FA, /*Tailored=*/true);
  ASSERT_EQ(verifyModule(*M), "");
  RunResult R = simulate(*M, rs6000());
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "720\n123\n");
}
