//===- tests/test_frontend.cpp - mini-C front end --------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "vliw/Pipeline.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// Compiles, inserts prologs, runs, and returns the output.
std::string runC(const std::string &Src, std::vector<int64_t> Args = {},
                 int64_t *ExitCode = nullptr) {
  CompileResult R = compileMiniC(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  if (!R.ok())
    return "<compile error>";
  optimize(*R.M, OptLevel::None);
  RunOptions Opts;
  Opts.Args = std::move(Args);
  RunResult Run = simulate(*R.M, rs6000(), Opts);
  EXPECT_FALSE(Run.Trapped) << Run.TrapMsg;
  if (ExitCode)
    *ExitCode = Run.ExitCode;
  return Run.Output;
}

} // namespace

TEST(MiniC, NestingPastTheDepthLimitIsAnError) {
  // Each of these overflows the stack of a recursive-descent parser that
  // has no depth limit.
  const size_t Deep = 200000;
  std::string Negations;
  for (size_t I = 0; I != Deep; ++I)
    Negations += "- "; // spaced: "--" lexes as a decrement
  for (const std::string &Src :
       {"int main(int n) { return " + std::string(Deep, '(') + "1" +
            std::string(Deep, ')') + "; }",
        "int main(int n) { " + std::string(Deep, '{') +
            std::string(Deep, '}') + " return 0; }",
        "int main(int n) { return " + Negations + "1; }"}) {
    CompileResult R = compileMiniC(Src);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("nesting deeper than"), std::string::npos)
        << R.Error;
  }
  // Ordinary depths are untouched.
  EXPECT_EQ(runC("int main(int n) { print_int(" + std::string(200, '(') +
                     "n + 1" + std::string(200, ')') + "); return 0; }",
                 {41}),
            "42\n");
}

TEST(MiniC, ArithmeticAndPrecedence) {
  EXPECT_EQ(runC("int main() { print_int(2 + 3 * 4); return 0; }"), "14\n");
  EXPECT_EQ(runC("int main() { print_int((2 + 3) * 4); return 0; }"),
            "20\n");
  EXPECT_EQ(runC("int main() { print_int(7 / 2); print_int(7 % 3); "
                 "return 0; }"),
            "3\n1\n");
  EXPECT_EQ(runC("int main() { print_int(1 << 10); print_int(-16 >> 2); "
                 "return 0; }"),
            "1024\n-4\n");
  EXPECT_EQ(runC("int main() { print_int(0xff & 0x0f); print_int(1 | 6); "
                 "print_int(5 ^ 3); print_int(~0); return 0; }"),
            "15\n7\n6\n-1\n");
}

TEST(MiniC, ComparisonsAndLogic) {
  EXPECT_EQ(runC("int main() { print_int(3 < 4); print_int(4 <= 4); "
                 "print_int(5 > 6); print_int(5 >= 6); print_int(2 == 2); "
                 "print_int(2 != 2); return 0; }"),
            "1\n1\n0\n0\n1\n0\n");
  EXPECT_EQ(runC("int main() { print_int(1 && 0); print_int(1 || 0); "
                 "print_int(!5); print_int(!0); return 0; }"),
            "0\n1\n0\n1\n");
}

TEST(MiniC, ShortCircuitSkipsSideEffects) {
  EXPECT_EQ(runC(R"(
int g;
int bump() { g = g + 1; return 1; }
int main() {
  g = 0;
  int x = 0 && bump();
  int y = 1 || bump();
  print_int(g);
  print_int(x + y);
  return 0;
}
)"),
            "0\n1\n");
}

TEST(MiniC, ControlFlow) {
  EXPECT_EQ(runC(R"(
int main() {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    if (i == 3) continue;
    if (i == 8) break;
    s += i;
  }
  print_int(s);
  int n = 0;
  do { n++; } while (n < 5);
  print_int(n);
  return 0;
}
)"),
            "25\n5\n");
}

TEST(MiniC, GlobalsArraysAndInitializers) {
  EXPECT_EQ(runC(R"(
int a[4] = {10, 20, 30, 40};
int total;
int main() {
  total = 0;
  for (int i = 0; i < 4; i++) total += a[i];
  a[2] = 99;
  print_int(total);
  print_int(a[2]);
  return 0;
}
)"),
            "100\n99\n");
}

TEST(MiniC, PointersAndAddressOf) {
  EXPECT_EQ(runC(R"(
int a[8];
int main() {
  for (int i = 0; i < 8; i++) a[i] = i * i;
  int *p = &a[2];
  print_int(*p);
  print_int(p[3]);
  p = p + 1;
  print_int(*p);
  *p = 1000;
  print_int(a[3]);
  return 0;
}
)"),
            "4\n25\n9\n1000\n");
}

TEST(MiniC, LocalArraysLiveInTheFrame) {
  EXPECT_EQ(runC(R"(
int helper(int k) {
  int buf[8];
  for (int i = 0; i < 8; i++) buf[i] = i + k;
  int s = 0;
  for (int i = 0; i < 8; i++) s += buf[i];
  return s;
}
int main() {
  print_int(helper(0));
  print_int(helper(10));
  return 0;
}
)"),
            "28\n108\n");
}

TEST(MiniC, RecursionAndCalleeSavedLocals) {
  int64_t Exit = 0;
  EXPECT_EQ(runC(R"(
int ack(int m, int n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
int main() {
  print_int(ack(2, 3));
  return ack(1, 1);
}
)",
                 {}, &Exit),
            "9\n");
  EXPECT_EQ(Exit, 3);
}

TEST(MiniC, MainReceivesArguments) {
  EXPECT_EQ(runC("int main(int n) { print_int(n * 2); return 0; }", {21}),
            "42\n");
}

TEST(MiniC, ReadIntBuiltin) {
  CompileResult R = compileMiniC(
      "int main() { print_int(read_int() + read_int()); return 0; }");
  ASSERT_TRUE(R.ok()) << R.Error;
  optimize(*R.M, OptLevel::None);
  RunOptions Opts;
  Opts.Input = {30, 12};
  EXPECT_EQ(simulate(*R.M, rs6000(), Opts).Output, "42\n");
}

TEST(MiniC, VolatileGlobalSurvivesOptimization) {
  const char *Src = R"(
volatile int flag;
int main() {
  flag = 1;
  flag = 2;
  int a = flag;
  int b = flag;
  print_int(a + b);
  return 0;
}
)";
  CompileResult R = compileMiniC(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  optimize(*R.M, OptLevel::Vliw);
  // Both stores and both loads must survive.
  size_t Stores = 0, Loads = 0;
  for (const auto &BB : R.M->findFunction("main")->blocks())
    for (const Instr &I : BB->instrs()) {
      if (I.isStore() && I.IsVolatile)
        ++Stores;
      if (I.isLoad() && I.IsVolatile)
        ++Loads;
    }
  EXPECT_EQ(Stores, 2u);
  EXPECT_EQ(Loads, 2u);
  EXPECT_EQ(simulate(*R.M, rs6000()).Output, "4\n");
}

TEST(MiniC, CompileErrorsAreReported) {
  EXPECT_FALSE(compileMiniC("int main() { return x; }").ok());
  EXPECT_FALSE(compileMiniC("int main() { 1 +; }").ok());
  EXPECT_FALSE(compileMiniC("int main() { break; }").ok());
  EXPECT_FALSE(compileMiniC("int f(") .ok());
  CompileResult R = compileMiniC("int main() { return y; }");
  EXPECT_NE(R.Error.find("unknown variable"), std::string::npos) << R.Error;
}

TEST(MiniC, OptimizedProgramsBehaveIdentically) {
  // A program touching every feature, compared across all levels.
  const char *Src = R"(
int grid[64];
int row(int r) {
  int s = 0;
  for (int c = 0; c < 8; c++) s += grid[r * 8 + c];
  return s;
}
int main(int n) {
  for (int i = 0; i < 64; i++) grid[i] = (i * 37) & 63;
  int total = 0;
  for (int pass = 0; pass < n; pass++) {
    for (int r = 0; r < 8; r++) {
      int v = row(r);
      if (v & 1) total += v; else total -= v;
    }
  }
  print_int(total);
  return total & 0xff;
}
)";
  CompileResult Base = compileMiniC(Src);
  ASSERT_TRUE(Base.ok()) << Base.Error;
  optimize(*Base.M, OptLevel::None);
  RunOptions Opts;
  Opts.Args = {5};
  RunResult RB = simulate(*Base.M, rs6000(), Opts);
  ASSERT_FALSE(RB.Trapped) << RB.TrapMsg;

  for (OptLevel L : {OptLevel::Classical, OptLevel::Vliw}) {
    CompileResult R = compileMiniC(Src);
    ASSERT_TRUE(R.ok());
    optimize(*R.M, L);
    RunResult RR = simulate(*R.M, rs6000(), Opts);
    EXPECT_EQ(RB.fingerprint(), RR.fingerprint())
        << "level " << optLevelName(L);
    EXPECT_LE(RR.Cycles, RB.Cycles);
  }
}
