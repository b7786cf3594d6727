//===- tests/test_timing_differential.cpp - Cost model vs simulators ------===//
///
/// The scheduler's cycle model (estimateBlockCycles, packIntoVliwWords)
/// and the predecoded simulator issue through one set of machine rules
/// (machine/IssueCore.h); the legacy interpreter states the rules a second
/// time as the reference. On a single basic block ending in RET all four
/// counts must agree exactly:
///
///  * LuBaseReadyAfterAluLatency — an LU's updated base is an ALU result,
///    so a reader of the base waits AluLatency, not LoadLatency. The cost
///    model, the hazard audit and the min-II recurrence read that rule
///    through MachineModel::defLatency.
///  * RandomSingleBlocksAgree — 200 seeded random blocks per machine
///    covering every non-branch opcode and the builtin calls. Seeds are
///    VSC_FUZZ_SEED + 0..199, so a failure names the value that replays it
///    as the first program.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "audit/Checkers.h"
#include "pipelining/MinII.h"
#include "vliw/Schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace vsc;

namespace {

/// Simulated, legacy-simulated, estimated and packed cycles of \p M's
/// single-block main, or a description of why they could not be taken.
struct Counts {
  uint64_t Fast = 0, Legacy = 0, Estimate = 0, Packed = 0;
  std::string Error;
};

Counts countCycles(const Module &M, const MachineModel &MM) {
  Counts C;
  RunResult Fast = simulate(M, MM);
  RunResult Legacy = simulateLegacy(M, MM);
  if (Fast.Trapped || Legacy.Trapped) {
    C.Error = "trapped: " + Fast.TrapMsg + " / " + Legacy.TrapMsg;
    return C;
  }
  const BasicBlock &BB = *M.findFunction("main")->blocks().front();
  C.Fast = Fast.Cycles;
  C.Legacy = Legacy.Cycles;
  C.Estimate = estimateBlockCycles(BB, MM);
  C.Packed = packIntoVliwWords(BB, MM).back().Cycle;
  return C;
}

const char *LuBlockText = R"(
global g : 16
func main(0) {
entry:
  LTOC r40 = .g
  LU r42 = 8(r40)
  AI r43 = r40, 1
  AI r44 = r43, 1
  RET
}
)";

} // namespace

TEST(TimingDifferential, LuBaseReadyAfterAluLatency) {
  auto M = parseOrDie(LuBlockText);
  ASSERT_TRUE(M);
  for (const MachineModel &MM : {rs6000(), power2(), ppc601()}) {
    Counts C = countCycles(*M, MM);
    ASSERT_TRUE(C.Error.empty()) << MM.Name << ": " << C.Error;
    EXPECT_EQ(C.Legacy, 4u) << MM.Name;
    EXPECT_EQ(C.Fast, C.Legacy) << MM.Name;
    EXPECT_EQ(C.Estimate, C.Legacy) << MM.Name;
    EXPECT_EQ(C.Packed, C.Legacy) << MM.Name;

    // The hazard audit accepts the packing: `AI r43 = r40, 1` issues one
    // cycle after the LU, when the updated base is ready.
    const Function &F = *M->findFunction("main");
    const BasicBlock &BB = *F.blocks().front();
    AuditResult R;
    auditPacking(F, BB, packIntoVliwWords(BB, MM), MM, R);
    EXPECT_TRUE(R.ok()) << MM.Name << ":\n" << R.str();
  }

  // A loop whose only recurrence is the base update iterates every
  // AluLatency cycles, not every LoadLatency.
  auto Loop = parseOrDie(R"(
func main(0) {
entry:
  LU r33 = 8(r32)
  RET
}
)");
  ASSERT_TRUE(Loop);
  const BasicBlock &Body = *Loop->findFunction("main")->blocks().front();
  std::vector<Instr> Lu = {Body.instrs().front()};
  DepGraph G;
  DepGraphBuilder().build(Lu, Lu.size(), rs6000(), nullptr,
                          /*LoopCarried=*/true, G);
  EXPECT_EQ(computeRecMII(G), rs6000().AluLatency);
}

TEST(TimingDifferential, RandomSingleBlocksAgree) {
  const uint64_t Base = fuzzBaseSeed();
  std::set<Opcode> Covered;
  for (const MachineModel &MM : {rs6000(), power2(), ppc601()}) {
    for (uint64_t K = 0; K != 200; ++K) {
      uint64_t Seed = Base + K;
      std::string Text = RandomBlockGen(Seed).generate();
      SCOPED_TRACE(MM.Name + ", seed " + std::to_string(Seed) +
                   " (replay: VSC_FUZZ_SEED=" + std::to_string(Seed) +
                   " ctest -R TimingDifferential, first program)\n" + Text);
      auto M = parseOrDie(Text);
      ASSERT_TRUE(M);
      for (const Instr &I : M->findFunction("main")->blocks()[0]->instrs())
        Covered.insert(I.Op);

      Counts C = countCycles(*M, MM);
      ASSERT_TRUE(C.Error.empty()) << C.Error;
      ASSERT_EQ(C.Fast, C.Legacy);
      ASSERT_EQ(C.Estimate, C.Legacy);
      ASSERT_EQ(C.Packed, C.Legacy);
    }
  }
  // Every non-branch opcode occurs, RET and CALL included.
  for (unsigned K = 0; K != static_cast<unsigned>(Opcode::NumOpcodes); ++K) {
    Opcode Op = static_cast<Opcode>(K);
    if (!opcodeInfo(Op).IsBranch) {
      EXPECT_TRUE(Covered.count(Op)) << opcodeName(Op) << " never generated";
    }
  }
}
