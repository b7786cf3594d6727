//===- tests/test_sim_dispatch.cpp - Dispatch-table completeness -----------===//
///
/// The fast path's execution loop (sim/FastSimBody.inc) is one switch
/// that must handle every SimOp. This suite locks down two things:
///
///  * Completeness — a program containing every Opcode (statically
///    verified against NumOpcodes) matches the legacy interpreter on the
///    full observable surface. A missing or mis-wired handler would
///    diverge or trap here.
///  * Fusion — each superinstruction rule (compare+branch, LTOC+load,
///    load+ALU) actually fires on its canonical shape, and the fused image
///    still agrees with legacy.
///
/// The same every-opcode program also holds the oracle's reference
/// interpreter to the legacy engine.
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "oracle/Interp.h"
#include "sim/Predecode.h"
#include "sim/Simulator.h"

#include <set>

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// Full-surface equality, mirroring test_sim_fastpath.cpp.
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

void expectSameAsLegacy(const Module &M, const std::string &What) {
  expectSame(simulateLegacy(M, rs6000()), simulate(M, rs6000()), What);
}

/// One program that executes every opcode in the instruction set. The
/// canonical fusion shapes (C/CI + BT/BF, LTOC + L, L + reg-imm ALU) are
/// present deliberately, so the fused records are on the executed path.
const char *AllOpcodesText = R"(
global g : 16 = [7 0 0 0 0 0 0 0 11 0 0 0 0 0 0 0]

func helper(1) {
entry:
  AI r3 = r3, 1
  RET
}

func main(0) {
entry:
  LI r32 = 6
  LR r33 = r32
  A r34 = r32, r33
  S r34 = r34, r32
  MUL r34 = r34, r33
  LI r35 = 3
  DIV r34 = r34, r35
  AND r36 = r34, r33
  OR r36 = r36, r32
  XOR r36 = r36, r33
  LI r37 = 2
  SL r38 = r36, r37
  SR r38 = r38, r37
  SRA r38 = r38, r37
  AI r38 = r38, 5
  SI r38 = r38, 1
  MULI r38 = r38, 3
  ANDI r38 = r38, 255
  ORI r38 = r38, 4
  XORI r38 = r38, 9
  SLI r38 = r38, 2
  SRI r38 = r38, 1
  SRAI r38 = r38, 1
  NEG r39 = r38
  LTOC r40 = .g
  L r41 = 0(r40)
  LU r42 = 8(r40)
  ST 0(r40) = r41
  LA r43 = r40, -8
  L r44 = 0(r43)
  AI r44 = r44, 3
  C cr0 = r32, r33
  BT skip1, cr0.eq
  LI r44 = 0
skip1:
  CI cr1 = r35, 4
  BF skip2, cr1.eq
  LI r44 = 1
skip2:
  LI r45 = 3
  MTCTR r45
loop:
  AI r41 = r41, 2
  BCT loop
  A r3 = r41, r44
  CALL helper, 1
  LR r46 = r3
  B join
join:
  LR r3 = r46
  CALL print_int, 1
  RET
}
)";

} // namespace

TEST(SimDispatch, EveryOpcodeRunsIdenticallyInBothModes) {
  std::string Err;
  auto M = parseModule(AllOpcodesText, &Err);
  ASSERT_TRUE(M) << Err;

  // The program really does contain the whole instruction set — if an
  // opcode is ever added, this count forces the test (and any dispatch
  // table) to grow with it.
  std::set<Opcode> Seen;
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instrs())
        Seen.insert(I.Op);
  EXPECT_EQ(Seen.size(), static_cast<size_t>(Opcode::NumOpcodes));

  RunResult L = simulateLegacy(*M, rs6000(), RunOptions());
  ASSERT_FALSE(L.Trapped) << L.TrapMsg;
  expectSameAsLegacy(*M, "all-opcodes program");
}

/// The oracle's interpreter executes through the value core it shares
/// with the fast path (sim/ValueCore.h), so the fast-path comparisons
/// cannot catch a bug the two share; the legacy engine keeps its own copy.
TEST(Interp, EveryOpcodeMatchesLegacy) {
  std::string Err;
  auto M = parseModule(AllOpcodesText, &Err);
  ASSERT_TRUE(M) << Err;

  RunResult L = simulateLegacy(*M, rs6000(), RunOptions());
  InterpOptions IO;
  IO.MemBytes = RunOptions().MemBytes;
  InterpResult I = interpret(*M, IO);
  ASSERT_FALSE(L.Trapped) << L.TrapMsg;
  ASSERT_FALSE(I.Trapped) << I.TrapMsg;
  EXPECT_EQ(L.Output, "24\n");
  EXPECT_EQ(I.Output, L.Output);
  EXPECT_EQ(I.ExitCode, L.ExitCode);
  EXPECT_EQ(I.MemDigest, L.MemDigest);
}

TEST(SimDispatch, FusionRulesFireAndStayBitIdentical) {
  std::string Err;
  auto M = parseModule(AllOpcodesText, &Err);
  ASSERT_TRUE(M) << Err;

  // The canonical shapes must actually fuse: two compare+branch pairs,
  // one LTOC+L, one L+ALU.
  SimImage Fused = predecode(*M, rs6000());
  EXPECT_GE(Fused.FusedPairs, 4u);

  // And fusion must be purely a speed knob: the unfused image exists too,
  // and the engine (which fuses) agrees with legacy either way.
  SimImage Plain = predecode(*M, rs6000(), /*Fuse=*/false);
  EXPECT_EQ(Plain.FusedPairs, 0u);
  expectSameAsLegacy(*M, "fused program");
}
