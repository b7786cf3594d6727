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

/// splitmix64, so a seed gives the same program on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  unsigned below(unsigned N) {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<unsigned>((Z ^ (Z >> 31)) % N);
  }
  int range(int Lo, int Hi) {
    return Lo + static_cast<int>(below(static_cast<unsigned>(Hi - Lo + 1)));
  }

private:
  uint64_t State;
};

constexpr int GlobalBytes = 512;

/// A random single-block main over a 512-byte global, ending in RET.
/// Values live in r32..r39, pointers into the global in r48..r51, compare
/// results in cr8..cr11; r3 carries builtin arguments and results. Every
/// access stays inside the global, every divisor is provably nonzero, and
/// no register a call clobbers is read before it is redefined (the ABI
/// poisons them), so the program runs to RET on every machine.
class BlockGen {
public:
  explicit BlockGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    Out = "global g : " + std::to_string(GlobalBytes) +
          "\nfunc main(0) {\nentry:\n";
    unsigned N = R.range(6, 40);
    for (unsigned K = 0; K != N; ++K)
      emitOne();
    Out += "  RET\n}\n";
    return Out;
  }

private:
  static std::string gpr(unsigned Id) { return "r" + std::to_string(Id); }
  std::string value() { return gpr(32 + R.below(8)); }
  /// Any readable integer register: values, pointers (as values), r3.
  std::string source() {
    unsigned K = R.below(13);
    return K < 8 ? gpr(32 + K) : K < 12 ? gpr(48 + K - 8) : "r3";
  }
  void line(const std::string &S) { Out += "  " + S + "\n"; }

  /// Defines value register \p Dst, which then holds no known nonzero
  /// value.
  void clobber(const std::string &Dst) { NonZero.erase(Dst); }

  /// A pointer register holding g + offset, made with LTOC if none does.
  unsigned pointer() {
    std::vector<unsigned> Live;
    for (unsigned P = 0; P != 4; ++P)
      if (PtrOff[P] >= 0)
        Live.push_back(P);
    if (!Live.empty())
      return Live[R.below(static_cast<unsigned>(Live.size()))];
    unsigned P = R.below(4);
    ltoc(P);
    return P;
  }
  void ltoc(unsigned P) {
    line("LTOC " + gpr(48 + P) + " = .g");
    PtrOff[P] = 0;
    NonZero.insert(gpr(48 + P));
  }
  /// A doubleword displacement from pointer \p P that stays in the global.
  int displacement(unsigned P) {
    int Lo = std::max(-32, -PtrOff[P]);
    int Hi = std::min(32, GlobalBytes - 8 - PtrOff[P]);
    return 8 * R.range(Lo / 8, Hi / 8);
  }

  void alu2(const char *Op) {
    std::string Dst = value(), A = source(), B = source();
    clobber(Dst);
    line(std::string(Op) + " " + Dst + " = " + A + ", " + B);
  }
  void alui(const char *Op, int Imm) {
    std::string Dst = value(), A = source();
    clobber(Dst);
    line(std::string(Op) + " " + Dst + " = " + A + ", " + std::to_string(Imm));
    if (std::string(Op) == "ORI" && (Imm & 1))
      NonZero.insert(Dst);
  }

  void emitOne() {
    static const char *const Alu2[] = {"A",  "S",  "MUL", "AND", "OR",
                                       "XOR", "SL", "SR",  "SRA"};
    static const char *const AluI[] = {"AI",   "SI",  "MULI", "ANDI", "ORI",
                                       "XORI", "SLI", "SRI",  "SRAI"};
    switch (R.below(16)) {
    case 0:
      alu2(Alu2[R.below(9)]);
      break;
    case 1:
      alui(AluI[R.below(9)], R.range(-40, 40));
      break;
    case 2: {
      std::string Dst = value();
      int Imm = R.range(-9, 9);
      clobber(Dst);
      line("LI " + Dst + " = " + std::to_string(Imm));
      if (Imm)
        NonZero.insert(Dst);
      break;
    }
    case 3: {
      std::string Dst = value(), A = source();
      clobber(Dst);
      line((R.below(2) ? "LR " : "NEG ") + Dst + " = " + A);
      break;
    }
    case 4: {
      std::vector<std::string> Divisors(NonZero.begin(), NonZero.end());
      std::string Div;
      if (Divisors.empty()) {
        Div = value();
        clobber(Div);
        line("ORI " + Div + " = " + source() + ", 1");
        NonZero.insert(Div);
      } else {
        Div = Divisors[R.below(static_cast<unsigned>(Divisors.size()))];
      }
      std::string Dst = value(), A = source();
      clobber(Dst);
      line("DIV " + Dst + " = " + A + ", " + Div);
      break;
    }
    case 5:
    case 6: { // LU, weighted: its base-update rule is what differs
      unsigned P = pointer();
      int D = displacement(P);
      std::string Dst = value();
      clobber(Dst);
      line("LU " + Dst + " = " + std::to_string(D) + "(" + gpr(48 + P) + ")");
      PtrOff[P] += D;
      break;
    }
    case 7: {
      unsigned P = pointer();
      int D = displacement(P);
      std::string Dst = value();
      clobber(Dst);
      line("L " + Dst + " = " + std::to_string(D) + "(" + gpr(48 + P) + ")");
      break;
    }
    case 8: {
      unsigned P = pointer();
      int D = displacement(P);
      line("ST " + std::to_string(D) + "(" + gpr(48 + P) + ") = " + source());
      break;
    }
    case 9:
      ltoc(R.below(4));
      break;
    case 10: {
      unsigned P = pointer(), Q = R.below(4);
      int D = displacement(P);
      line("LA " + gpr(48 + Q) + " = " + gpr(48 + P) + ", " +
           std::to_string(D));
      PtrOff[Q] = PtrOff[P] + D;
      NonZero.insert(gpr(48 + Q));
      break;
    }
    case 11: {
      std::string Cr = "cr" + std::to_string(8 + R.below(4));
      if (R.below(2))
        line("C " + Cr + " = " + source() + ", " + source());
      else
        line("CI " + Cr + " = " + source() + ", " +
             std::to_string(R.range(-5, 5)));
      break;
    }
    case 12:
      line("MTCTR " + source());
      break;
    case 13:
    case 14: { // a builtin call; print_* return their argument in r3
      static const char *const Builtins[] = {"print_int", "print_char",
                                             "read_int"};
      unsigned B = R.below(3);
      if (B != 2) {
        clobber("r3");
        line("LR r3 = " + value());
      }
      line(std::string("CALL ") + Builtins[B] + (B == 2 ? ", 0" : ", 1"));
      NonZero.erase("r3");
      break;
    }
    default:
      alui(AluI[R.below(9)], R.range(0, 7));
      break;
    }
  }

  Rng R;
  std::string Out;
  int PtrOff[4] = {-1, -1, -1, -1}; ///< offset into g, or -1: no pointer
  std::set<std::string> NonZero;
};

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
  EXPECT_EQ(computeRecMII(buildLoopDepGraph(Lu, rs6000(), nullptr)),
            rs6000().AluLatency);
}

TEST(TimingDifferential, RandomSingleBlocksAgree) {
  const uint64_t Base = fuzzBaseSeed();
  std::set<Opcode> Covered;
  for (const MachineModel &MM : {rs6000(), power2(), ppc601()}) {
    for (uint64_t K = 0; K != 200; ++K) {
      uint64_t Seed = Base + K;
      std::string Text = BlockGen(Seed).generate();
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
