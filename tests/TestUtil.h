//===- tests/TestUtil.h - Shared test helpers -----------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the pass tests: parse-or-fail, and the behavioural
/// oracle (simulate before and after a transformation and compare the
/// observable-behaviour fingerprint).
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

#include <cstdlib>
#include <string>

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

} // namespace vsc

#endif // VSC_TESTS_TESTUTIL_H
