//===- tests/TestUtil.h - Shared test helpers -----------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the pass tests: parse-or-fail, the behavioural
/// oracle (simulate before and after a transformation and compare the
/// observable-behaviour fingerprint), and seeded program generators.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_TESTS_TESTUTIL_H
#define VSC_TESTS_TESTUTIL_H

#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

namespace vsc {

inline std::unique_ptr<Module> parseOrDie(const std::string &Text) {
  std::string Err;
  auto M = parseModule(Text, &Err);
  EXPECT_TRUE(M) << Err;
  if (M) {
    std::string V = verifyModule(*M);
    EXPECT_EQ(V, "") << printModule(*M);
  }
  return M;
}

/// Applies \p Transform to a parsed copy of \p Text and checks that
/// observable behaviour (output, exit code, memory digest) is unchanged and
/// the result still verifies. \returns the transformed module for further
/// structural assertions.
template <typename Fn>
std::unique_ptr<Module>
transformPreservesBehaviour(const std::string &Text, Fn &&Transform,
                            const RunOptions &Opts = RunOptions(),
                            const MachineModel &Machine = rs6000()) {
  auto Before = parseOrDie(Text);
  auto After = parseOrDie(Text);
  if (!Before || !After)
    return nullptr;
  RunResult RBefore = simulate(*Before, Machine, Opts);
  EXPECT_FALSE(RBefore.Trapped) << RBefore.TrapMsg;

  Transform(*After);
  std::string V = verifyModule(*After);
  EXPECT_EQ(V, "") << printModule(*After);

  RunResult RAfter = simulate(*After, Machine, Opts);
  EXPECT_EQ(RBefore.fingerprint(), RAfter.fingerprint())
      << "--- before ---\n"
      << printModule(*Before) << "--- after ---\n"
      << printModule(*After);
  return After;
}

/// Base added to every generator seed of the fuzz suites, from
/// VSC_FUZZ_SEED (default 0) — CI shifts them onto fresh programs without
/// a recompile, and a failure is replayed exactly by exporting the value a
/// report names.
inline uint64_t fuzzBaseSeed() {
  if (const char *E = std::getenv("VSC_FUZZ_SEED"))
    return std::strtoull(E, nullptr, 10);
  return 0;
}

/// Counts instructions with opcode \p Op in \p F.
inline size_t countOps(const Function &F, Opcode Op) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    for (const Instr &I : BB->instrs())
      if (I.Op == Op)
        ++N;
  return N;
}

/// splitmix64, so a seed gives the same program on every platform.
class LoopProgramRng {
public:
  explicit LoopProgramRng(uint64_t Seed) : State(Seed) {}
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

/// One counted loop over global arrays whose body is \p Statements masked
/// load/compute/store statements (about one in four wrapped in an if/else
/// when \p Branchy). Every value is masked and every index is in range, so
/// the program is well defined whatever the seed.
inline std::string largeLoopProgram(unsigned Statements, bool Branchy,
                                    uint64_t Seed) {
  LoopProgramRng R(Seed);
  auto Num = [&](unsigned N) { return std::to_string(R.below(N)); };
  auto Element = [&] {
    static const char *const Arrays[] = {"ga", "gb", "gc"};
    static const char *const Strides[] = {"t", "t * 3", "t * 5", "t + t"};
    std::string A = Arrays[R.below(3)];
    std::string S = Strides[R.below(4)];
    return A + "[(" + S + " + " + Num(32) + ") & 31]";
  };
  auto Op = [&] {
    static const char *const Ops[] = {"+", "-", "^", "|", "&"};
    return std::string(Ops[R.below(5)]);
  };
  auto Scalar = [&] { return "x" + Num(4); };
  auto Statement = [&]() -> std::string {
    switch (R.below(4)) {
    case 0: {
      std::string Dst = Element(), A = Element(), O = Op();
      return Dst + " = (" + A + " " + O + " " + Element() + ") & 0xffff;";
    }
    case 1: {
      std::string X = Scalar(), O = Op();
      return X + " = (" + X + " " + O + " " + Element() + ") & 0xffff;";
    }
    case 2: {
      std::string Dst = Num(8), Src = Num(8), O = Op();
      return "gs[" + Dst + "] = (gs[" + Src + "] " + O + " " + Scalar() +
             ") & 0xffff;";
    }
    default: {
      std::string X = Scalar(), K = std::to_string(1 + R.below(7));
      return X + " = (" + X + " * " + K + " + " + Num(1000) + ") & 0xffff;";
    }
    }
  };
  std::string Body;
  for (unsigned I = 0; I != Statements; ++I) {
    if (Branchy && R.below(4) == 0) {
      // One draw per statement: operands of + are unsequenced.
      std::string E = Element(), Mask = std::to_string(1 + R.below(255));
      std::string Cond = "(" + E + " & " + Mask + ") > " + Num(128);
      std::string Then = Statement();
      Body += "    if (" + Cond + ") {\n      " + Then + "\n    } else {\n      " +
              Statement() + "\n    }\n";
      continue;
    }
    Body += "    " + Statement() + "\n";
  }
  return "int ga[32];\nint gb[32];\nint gc[32];\nint gs[8];\n"
         "int main(int n) {\n"
         "  int x0 = 1;\n  int x1 = 3;\n  int x2 = 5;\n  int x3 = 7;\n"
         "  for (int i = 0; i < 32; i++) {\n"
         "    ga[i] = (i * 7 + 3) & 255;\n"
         "    gb[i] = (i * 13 + 5) & 255;\n"
         "    gc[i] = (i * 29 + 11) & 255;\n"
         "    gs[i & 7] = i;\n"
         "  }\n"
         "  for (int t = 0; t < n; t++) {\n" +
         Body +
         "  }\n"
         "  int h = 0;\n"
         "  for (int i = 0; i < 32; i++)\n"
         "    h = (h * 31 + ga[i] + gb[i] * 3 + gc[i] * 5 + gs[i & 7]) & "
         "0xffffff;\n"
         "  print_int(h);\n"
         "  print_int((x0 + x1 * 3 + x2 * 5 + x3 * 7) & 0xffffff);\n"
         "  return 0;\n"
         "}\n";
}

/// A random single-block main over a 512-byte global, ending in RET.
/// Values live in r32..r39, pointers into the global in r48..r51, compare
/// results in cr8..cr11; r3 carries builtin arguments and results. Every
/// access stays inside the global, every divisor is provably nonzero, and
/// no register a call clobbers is read before it is redefined (the ABI
/// poisons them), so the program runs to RET on every machine.
class RandomBlockGen {
public:
  explicit RandomBlockGen(uint64_t Seed) : R(Seed) {}

  static constexpr int GlobalBytes = 512;

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

  LoopProgramRng R;
  std::string Out;
  int PtrOff[4] = {-1, -1, -1, -1}; ///< offset into g, or -1: no pointer
  std::set<std::string> NonZero;
};

} // namespace vsc

#endif // VSC_TESTS_TESTUTIL_H
