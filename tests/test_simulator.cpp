//===- tests/test_simulator.cpp - Functional simulator behaviour -----------===//

#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "sim/Simulator.h"
#include "workloads/LiKernel.h"

#include <gtest/gtest.h>

using namespace vsc;

static RunResult runText(const std::string &Text,
                         RunOptions Opts = RunOptions()) {
  std::string Err;
  auto M = parseModule(Text, &Err);
  EXPECT_TRUE(M) << Err;
  if (!M)
    return RunResult{};
  return simulate(*M, rs6000(), Opts);
}

TEST(Simulator, ArithmeticAndPrint) {
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r32 = 6
  LI r33 = 7
  MUL r3 = r32, r33
  CALL print_int, 1
  LI r32 = 100
  SI r32 = r32, 58
  LR r3 = r32
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "42\n42\n");
}

TEST(Simulator, MemoryAndGlobals) {
  RunResult R = runText(R"(
global a : 16 = [5 0 0 0]
func main(0) {
entry:
  LTOC r32 = .a
  L r33 = 0(r32) !a
  AI r33 = r33, 10
  ST 4(r32) !a = r33
  L r3 = 4(r32) !a
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "15\n");
}

TEST(Simulator, SignExtensionBySize) {
  RunResult R = runText(R"(
global a : 8 = [255 255 255 255 255 0 0 0]
func main(0) {
entry:
  LTOC r32 = .a
  L r3 = 0(r32):1 !a
  CALL print_int, 1
  L r3 = 0(r32):2 !a
  CALL print_int, 1
  L r3 = 0(r32):4 !a
  CALL print_int, 1
  L r3 = 0(r32):8 !a
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "-1\n-1\n-1\n1099511627775\n");
}

TEST(Simulator, LoadWithUpdate) {
  RunResult R = runText(R"(
global a : 12 = [1 0 0 0 2 0 0 0 3 0 0 0]
func main(0) {
entry:
  LTOC r32 = .a
  SI r32 = r32, 4
  LU r3 = 4(r32)
  CALL print_int, 1
  LU r3 = 4(r32)
  CALL print_int, 1
  LU r3 = 4(r32)
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "1\n2\n3\n");
}

TEST(Simulator, ConditionsAndBranches) {
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r32 = 3
  LI r33 = 5
  C cr0 = r32, r33
  BT less, cr0.lt
  LI r3 = 0
  CALL print_int, 1
  RET
less:
  LI r3 = 1
  CALL print_int, 1
  CI cr1 = r32, 3
  BT eq3, cr1.eq
  RET
eq3:
  LI r3 = 2
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "1\n2\n");
}

TEST(Simulator, BctLoop) {
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r32 = 5
  MTCTR r32
  LI r33 = 0
loop:
  AI r33 = r33, 1
  BCT loop
exit:
  LR r3 = r33
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "5\n");
}

TEST(Simulator, CallsPreserveVirtualRegisters) {
  // Caller's virtual r40 must survive a call to a callee that also uses
  // r40 (function-private virtual register files = post-allocation
  // semantics).
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r40 = 11
  LI r3 = 0
  CALL clobber, 1
  LR r3 = r40
  CALL print_int, 1
  RET
}
func clobber(1) {
entry:
  LI r40 = 999
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "11\n");
}

TEST(Simulator, RecursionWorks) {
  // fib(10) = 55 with values saved on the stack across calls.
  RunResult R = runText(R"(
func fib(1) {
entry:
  CI cr0 = r3, 2
  BT base, cr0.lt
  SI r1 = r1, 16
  ST 0(r1) = r3
  SI r3 = r3, 1
  CALL fib, 1
  ST 4(r1) = r3
  L r3 = 0(r1)
  SI r3 = r3, 2
  CALL fib, 1
  L r32 = 4(r1)
  A r3 = r3, r32
  AI r1 = r1, 16
  RET
base:
  RET
}
func main(0) {
entry:
  LI r3 = 10
  CALL fib, 1
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "55\n");
}

TEST(Simulator, PageZeroReadsZeroOnRs6000) {
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r32 = 0
  L r3 = 8(r32)
  CALL print_int, 1
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "0\n");
}

TEST(Simulator, PageZeroTrapsWhenDisallowed) {
  std::string Err;
  auto M = parseModule(R"(
func main(0) {
entry:
  LI r32 = 0
  L r3 = 8(r32)
  RET
}
)",
                       &Err);
  ASSERT_TRUE(M) << Err;
  MachineModel Model = rs6000();
  Model.PageZeroReadable = false;
  RunResult R = simulate(*M, Model);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMsg.find("page zero"), std::string::npos);
}

TEST(Simulator, DivideByZeroTraps) {
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r32 = 1
  LI r33 = 0
  DIV r3 = r32, r33
  RET
}
)");
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMsg.find("divide by zero"), std::string::npos);
}

TEST(Simulator, UnmappedStoreTraps) {
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r32 = 64
  LI r33 = 1
  ST 0(r32) = r33
  RET
}
)");
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMsg.find("store to unmapped"), std::string::npos);
}

TEST(Simulator, InstructionBudget) {
  RunOptions Opts;
  Opts.MaxInstrs = 1000;
  RunResult R = runText(R"(
func main(0) {
entry:
loop:
  B loop
}
)",
                        Opts);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMsg.find("budget"), std::string::npos);
}

TEST(Simulator, ExitBuiltinAndArgs) {
  RunOptions Opts;
  Opts.Args = {7, 3};
  RunResult R = runText(R"(
func main(2) {
entry:
  A r3 = r3, r4
  CALL exit, 1
}
)",
                        Opts);
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.ExitCode, 10);
}

TEST(Simulator, ReadIntBuiltin) {
  RunOptions Opts;
  Opts.Input = {5, 9};
  RunResult R = runText(R"(
func main(0) {
entry:
  CALL read_int, 0
  LR r32 = r3
  CALL read_int, 0
  A r3 = r3, r32
  CALL print_int, 1
  RET
}
)",
                        Opts);
  EXPECT_EQ(R.Output, "14\n");
}

TEST(Simulator, BlockCountsAreExact) {
  RunResult R = runText(R"(
func main(0) {
entry:
  LI r32 = 4
  MTCTR r32
loop:
  BCT loop
exit:
  RET
}
)");
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.BlockCounts.at("main:entry"), 1u);
  EXPECT_EQ(R.BlockCounts.at("main:loop"), 4u);
  EXPECT_EQ(R.BlockCounts.at("main:exit"), 1u);
}

TEST(Simulator, FingerprintDetectsDifferences) {
  RunResult A = runText("func main(0) {\nentry:\n  LI r3 = 1\n  CALL print_int, 1\n  RET\n}\n");
  RunResult B = runText("func main(0) {\nentry:\n  LI r3 = 2\n  CALL print_int, 1\n  RET\n}\n");
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

TEST(Simulator, KeepMemoryExposesGlobals) {
  std::string Err;
  auto M = parseModule(R"(
global counter : 8
func main(0) {
entry:
  LTOC r32 = .counter
  LI r33 = 123
  ST 0(r32) !counter = r33
  RET
}
)",
                       &Err);
  ASSERT_TRUE(M) << Err;
  RunOptions Opts;
  Opts.KeepMemory = true;
  RunResult R = simulate(*M, rs6000(), Opts);
  ASSERT_FALSE(R.Trapped) << R.TrapMsg;
  ASSERT_FALSE(R.Memory.empty());
  EXPECT_EQ(readMemoryWord(R, computeGlobalLayout(*M).at("counter"), 4), 123);
}

TEST(Simulator, LiKernelFindsItem) {
  auto M = buildLiSearch(10);
  RunResult R = simulate(*M, rs6000());
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.Output, "1\n");
  EXPECT_EQ(R.BlockCounts.at("xlygetvalue:loop"), 10u);
}

//===----------------------------------------------------------------------===//
// Profiling-key collisions (PR 4 regression tests)
//
// Labels are arbitrary strings, so "func:label" concatenation used to be
// ambiguous: a ':' or "->" inside a name made two distinct blocks (or
// edges) share one counter key and silently merge their counts. Keys now
// escape metacharacters (profileKeyEscape) and predecode asserts name
// uniqueness up front.
//===----------------------------------------------------------------------===//

TEST(SimulatorProfileKeys, EscapingIsInjective) {
  // Ordinary names are untouched — the historical key spelling survives.
  EXPECT_EQ(blockCountKey("main", "entry"), "main:entry");
  EXPECT_EQ(edgeCountKey("main", "loop", "exit"), "main:loop->exit");
  // Metacharacters are escaped, so these formerly-colliding pairs differ.
  EXPECT_EQ(blockCountKey("f", "g:h"), "f:g\\:h");
  EXPECT_EQ(blockCountKey("f:g", "h"), "f\\:g:h");
  EXPECT_NE(blockCountKey("f", "g:h"), blockCountKey("f:g", "h"));
  EXPECT_NE(edgeCountKey("e", "a->b", "c"), edgeCountKey("e", "a", "b->c"));
  EXPECT_NE(profileKeyEscape("a\\:b"), profileKeyEscape("a\\\\:b"));
}

TEST(SimulatorProfileKeys, ColonInLabelNoLongerMergesBlockCounts) {
  // Function "f" with block "g:h" and function "f:g" with block "h" used
  // to share the key "f:g:h" — one merged counter for two distinct blocks.
  Module M;
  {
    Function *F = M.addFunction("f", 0);
    IRBuilder B(*F);
    B.startBlock("g:h");
    B.ret();
  }
  {
    Function *F = M.addFunction("f:g", 0);
    IRBuilder B(*F);
    B.startBlock("h");
    B.ret();
  }
  {
    Function *F = M.addFunction("main", 0);
    IRBuilder B(*F);
    B.startBlock("entry");
    B.call("f", 0);
    B.call("f", 0);
    B.call("f:g", 0);
    B.ret();
  }
  for (auto Sim : {simulate, simulateLegacy}) {
    RunResult R = Sim(M, rs6000(), RunOptions());
    ASSERT_FALSE(R.Trapped) << R.TrapMsg;
    EXPECT_EQ(R.BlockCounts.at(blockCountKey("f", "g:h")), 2u);
    EXPECT_EQ(R.BlockCounts.at(blockCountKey("f:g", "h")), 1u);
    EXPECT_EQ(R.BlockCounts.count("f:g:h"), 0u); // the old merged key
  }
}

TEST(SimulatorProfileKeys, ArrowInLabelNoLongerMergesEdgeCounts) {
  // Edges ("a->b" -> "c") and ("a" -> "b->c") used to share the key
  // "e:a->b->c". Control runs a->b, c, a, b->c in order, once each.
  Module M;
  {
    Function *F = M.addFunction("e", 0);
    IRBuilder B(*F);
    B.startBlock("a->b");
    B.b("c");
    B.startBlock("c");
    B.b("a");
    B.startBlock("a");
    B.b("b->c");
    B.startBlock("b->c");
    B.ret();
  }
  {
    Function *F = M.addFunction("main", 0);
    IRBuilder B(*F);
    B.startBlock("entry");
    B.call("e", 0);
    B.ret();
  }
  for (auto Sim : {simulate, simulateLegacy}) {
    RunResult R = Sim(M, rs6000(), RunOptions());
    ASSERT_FALSE(R.Trapped) << R.TrapMsg;
    EXPECT_EQ(R.EdgeCounts.at(edgeCountKey("e", "a->b", "c")), 1u);
    EXPECT_EQ(R.EdgeCounts.at(edgeCountKey("e", "a", "b->c")), 1u);
    EXPECT_EQ(R.EdgeCounts.count("e:a->b->c"), 0u); // the old merged key
  }
}

#if GTEST_HAS_DEATH_TEST
TEST(SimulatorProfileKeysDeathTest, PredecodeRejectsDuplicateLabels) {
  // Two blocks with one label would share a counter slot; predecode
  // refuses up front instead of silently merging.
  Module M;
  Function *F = M.addFunction("main", 0);
  IRBuilder B(*F);
  B.startBlock("dup");
  B.b("dup2");
  B.startBlock("dup2");
  B.ret();
  F->blocks()[1]->setLabel("dup");
  EXPECT_DEATH(simulate(M, rs6000(), RunOptions()),
               "duplicate block label");
}
#endif

//===----------------------------------------------------------------------===//
// Stack overflow into the data area (PR 4 regression test)
//
// The stack grows down from the top of memory; the global data area grows
// up from 4096. Before PR 4 a runaway stack silently clobbered globals
// (stores kept succeeding all the way down). Now any instruction that
// drops r1 below the end of the data area traps.
//===----------------------------------------------------------------------===//

static const char *RecursiveProgram = R"(
global buf : 65536 = [7 0 0 0]
func main(1) {
entry:
  CALL rec, 1
  LI r3 = 0
  RET
}
func rec(1) {
entry:
  SI r1 = r1, 4096
  ST 0(r1) = r3
  CI cr0 = r3, 0
  BT done, cr0.eq
  SI r3 = r3, 1
  CALL rec, 1
done:
  AI r1 = r1, 4096
  RET
}
)";

TEST(Simulator, StackOverflowIntoDataTraps) {
  std::string Err;
  auto M = parseModule(RecursiveProgram, &Err);
  ASSERT_TRUE(M) << Err;
  RunOptions Opts;
  Opts.Args = {1000}; // needs ~1000 frames; ~230 fit above the data area
  Opts.MemBytes = 1u << 20;
  for (auto Sim : {simulate, simulateLegacy}) {
    RunResult R = Sim(*M, rs6000(), Opts);
    EXPECT_TRUE(R.Trapped);
    EXPECT_EQ(R.TrapMsg, "stack overflow into data");
  }
}

TEST(Simulator, BoundedRecursionDoesNotTrap) {
  std::string Err;
  auto M = parseModule(RecursiveProgram, &Err);
  ASSERT_TRUE(M) << Err;
  RunOptions Opts;
  Opts.Args = {50}; // well within the ~230 frames that fit
  Opts.MemBytes = 1u << 20;
  for (auto Sim : {simulate, simulateLegacy}) {
    RunResult R = Sim(*M, rs6000(), Opts);
    EXPECT_FALSE(R.Trapped) << R.TrapMsg;
    EXPECT_EQ(R.ExitCode, 0);
  }
}
