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

} // namespace vsc

#endif // VSC_TESTS_TESTUTIL_H
