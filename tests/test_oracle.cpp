//===- tests/test_oracle.cpp - Reference interpreter + execution oracle ----===//
///
/// Three layers are covered here: the reference interpreter itself
/// (including its trap-on-!safe-fault model and its agreement with the
/// timing simulator on whole programs and on the ABI clobber contract),
/// the diffFunctions entry point (it must catch a deliberately
/// miscompiled rename, naming the pass and a reproducing input), and the
/// ExecOracle pipeline harness (change detection, stage naming, and full
/// pipelines running divergence-free at OracleLevel::Full).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "audit/PassAudit.h"
#include "cfg/CfgEdit.h"
#include "frontend/Frontend.h"
#include "ir/Abi.h"
#include "oracle/ExecOracle.h"
#include "vliw/Pipeline.h"
#include "vliw/Rename.h"
#include "vliw/Unroll.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// Trip count depends on the argument so that, once unrolled, both the
/// odd-trip and even-trip exit edges are reachable — the input battery
/// must exercise every copy's exit.
const char *SumLoop = R"(
func main(1) {
entry:
  AI r32 = r3, 1
  MTCTR r32
  LI r34 = 0
  LI r35 = 1
loop:
  A r34 = r34, r35
  AI r35 = r35, 2
  BCT loop
exit:
  LR r3 = r34
  CALL print_int, 1
  LR r3 = r35
  CALL print_int, 1
  RET
}
)";

std::unique_ptr<Module> compileSeed(uint64_t Seed) {
  FrontendOptions Opts;
  Opts.AssumeSafeLoads = true;
  CompileResult R = compileMiniC(generateRandomMiniC(Seed), Opts);
  EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error;
  return std::move(R.M);
}

/// Runs unroll + straighten + rename on main, exactly as the pipeline's
/// unroll+rename stage does.
void unrollAndRename(Module &M) {
  Function &F = *M.findFunction("main");
  FunctionAnalyses FA(F);
  unrollInnermostLoops(F, FA, 2);
  straighten(F);
  EXPECT_GE(renameInnermostLoops(F, FA), 1u);
}

/// The deliberate miscompilation of the acceptance criterion: drop the
/// exit-edge bookkeeping copy renaming inserted for \p Dst (the "LR r=r"
/// the paper's listings show at the loop exit). \returns true if found.
bool dropBookkeepingCopy(Function &F, Reg Dst) {
  for (auto &BB : F.blocks())
    for (size_t I = 0; I != BB->instrs().size(); ++I) {
      const Instr &In = BB->instrs()[I];
      if (In.Op == Opcode::LR && In.Dst == Dst && In.Src1 != Dst) {
        BB->instrs().erase(BB->instrs().begin() + static_cast<long>(I));
        return true;
      }
    }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Reference interpreter
//===----------------------------------------------------------------------===//

TEST(Interp, RunsSimpleLoop) {
  auto M = parseOrDie(SumLoop);
  ASSERT_TRUE(M);
  InterpOptions IO;
  IO.Args = {7}; // 8 iterations
  InterpResult R = interpret(*M, IO);
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  // sum of 1,3,..,15 = 64; r35 ends at 17.
  EXPECT_EQ(R.Output, "64\n17\n");
  EXPECT_EQ(R.ObsTrace.size(), 2u);
  EXPECT_GT(R.Coverage.size(), 2u);
}

TEST(Interp, SafeFaultingLoadReadsZero) {
  // A !safe load of an unmapped address is the paper's guaranteed
  // non-trapping speculative load: it reads 0 and counts a SpecFault.
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = 99999999
  L r3 = 0(r32) !safe
  RET
}
)");
  ASSERT_TRUE(M);
  InterpResult R = interpret(*M);
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.SpecFaults, 1u);
}

TEST(Interp, UnsafeFaultingLoadTraps) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = 99999999
  L r3 = 0(r32)
  RET
}
)");
  ASSERT_TRUE(M);
  InterpResult R = interpret(*M);
  EXPECT_TRUE(R.Trapped);
  EXPECT_EQ(R.SpecFaults, 0u);
}

TEST(Interp, PageZeroHonoursMachineFlag) {
  const char *Text = R"(
func main(0) {
entry:
  LI r32 = 16
  L r3 = 0(r32) !safe
  RET
}
)";
  auto M = parseOrDie(Text);
  ASSERT_TRUE(M);
  InterpResult Readable = interpret(*M);
  EXPECT_FALSE(Readable.Trapped);
  EXPECT_EQ(Readable.ExitCode, 0);
  EXPECT_EQ(Readable.SpecFaults, 0u); // a mapped page-zero read, no fault
  InterpOptions IO;
  IO.PageZeroReadable = false;
  InterpResult Unreadable = interpret(*M, IO);
  EXPECT_FALSE(Unreadable.Trapped);
  EXPECT_EQ(Unreadable.SpecFaults, 1u);
}

TEST(Interp, BudgetExceededIsNotATrap) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  B entry
}
)");
  ASSERT_TRUE(M);
  InterpOptions IO;
  IO.MaxSteps = 100;
  InterpResult R = interpret(*M, IO);
  EXPECT_TRUE(R.BudgetExceeded);
  EXPECT_FALSE(R.Trapped);
}

/// The cross-check pinning the shared ABI contract (ir/Abi.h): both
/// engines must observe the same POWER clobber set and the same
/// deterministic poison value after a call.
TEST(Interp, CallClobberContractMatchesSimulator) {
  const char *Text = R"(
func helper(0) {
entry:
  LI r3 = 1
  RET
}
func main(0) {
entry:
  LI r5 = 77
  LI r13 = 55
  LI r40 = 88
  CALL helper, 0
  LR r3 = r5
  CALL print_int, 1
  LR r3 = r13
  CALL print_int, 1
  LR r3 = r40
  CALL print_int, 1
  RET
}
)";
  auto M = parseOrDie(Text);
  ASSERT_TRUE(M);
  RunResult Sim = simulate(*M, rs6000());
  InterpResult Ref = interpret(*M);
  ASSERT_FALSE(Sim.Trapped) << Sim.TrapMsg;
  ASSERT_FALSE(Ref.Trapped) << Ref.TrapMsg;
  EXPECT_EQ(Sim.Output, Ref.Output);
  // r5 is in the clobber set: both engines must report the shared poison.
  std::string Expected = std::to_string(vsc::abi::ClobberPoison) + "\n55\n88\n";
  EXPECT_EQ(Sim.Output, Expected);
  EXPECT_TRUE(vsc::abi::isCallClobberedGpr(5));
  EXPECT_TRUE(vsc::abi::isCallPreservedGpr(13));
}

TEST(Interp, AgreesWithSimulatorOnFuzzSeeds) {
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    for (OptLevel L : {OptLevel::None, OptLevel::Vliw}) {
      auto M = compileSeed(Seed);
      ASSERT_TRUE(M);
      optimize(*M, L);
      RunOptions SO;
      SO.Args = {6};
      SO.MaxInstrs = 20'000'000;
      RunResult Sim = simulate(*M, rs6000(), SO);
      InterpOptions IO;
      IO.Args = {6};
      IO.MaxSteps = 20'000'000;
      IO.MemBytes = SO.MemBytes;
      InterpResult Ref = interpret(*M, IO);
      ASSERT_FALSE(Sim.Trapped) << "seed " << Seed << ": " << Sim.TrapMsg;
      ASSERT_FALSE(Ref.Trapped) << "seed " << Seed << ": " << Ref.TrapMsg;
      EXPECT_EQ(Sim.Output, Ref.Output) << "seed " << Seed;
      EXPECT_EQ(Sim.ExitCode, Ref.ExitCode) << "seed " << Seed;
      EXPECT_EQ(Sim.MemDigest, Ref.MemDigest) << "seed " << Seed;
      // The fast path and the interpreter share their value core
      // (sim/ValueCore.h); the legacy engine keeps its own copy, so it
      // catches a bug the two share.
      RunResult Legacy = simulateLegacy(*M, rs6000(), SO);
      ASSERT_FALSE(Legacy.Trapped) << "seed " << Seed << ": "
                                   << Legacy.TrapMsg;
      EXPECT_EQ(Legacy.Output, Ref.Output) << "seed " << Seed;
      EXPECT_EQ(Legacy.ExitCode, Ref.ExitCode) << "seed " << Seed;
      EXPECT_EQ(Legacy.MemDigest, Ref.MemDigest) << "seed " << Seed;
    }
  }
}

/// Every trap the interpreter shares with the simulators prints the
/// independent legacy engine's text. (A blown step budget is not a trap
/// in the interpreter, so it is not compared.)
TEST(Interp, TrapTextsMatchLegacy) {
  struct Case {
    const char *Name;
    const char *Text;
  };
  std::vector<Case> Cases = {
      {"divide by zero", R"(
func main(0) {
entry:
  LI r32 = 7
  LI r33 = 0
  DIV r3 = r32, r33
  RET
}
)"},
      {"unknown callee", R"(
func main(0) {
entry:
  CALL nosuch, 0
  RET
}
)"},
      {"unmapped load", R"(
func main(0) {
entry:
  LI r32 = 99999999
  L r3 = 0(r32)
  RET
}
)"},
      {"missing entry", R"(
func notmain(0) {
entry:
  RET
}
)"},
      {"unknown label", R"(
func main(0) {
entry:
  B nowhere
}
)"},
      {"unknown global", R"(
func main(0) {
entry:
  LTOC r32 = .nosuch
  RET
}
)"},
      {"falls off the end", R"(
func main(0) {
entry:
  LI r3 = 0
}
)"},
      {"unmapped store", R"(
func main(0) {
entry:
  LI r32 = 99999999
  LI r33 = 1
  ST 0(r32) = r33
  RET
}
)"},
  };
  for (const Case &C : Cases) {
    std::string Err;
    auto M = parseModule(C.Text, &Err);
    ASSERT_TRUE(M) << C.Name << ": " << Err;
    RunResult Legacy = simulateLegacy(*M, rs6000());
    InterpResult Ref = interpret(*M);
    ASSERT_TRUE(Legacy.Trapped) << C.Name;
    EXPECT_TRUE(Ref.Trapped) << C.Name;
    EXPECT_EQ(Ref.TrapMsg, Legacy.TrapMsg) << C.Name;
  }
}

/// An access whose end wraps past 2^64 is unmapped: it traps with the
/// legacy engine's text, and a !safe load reads zero and counts a
/// SpecFault. Addr + Size wraps to a page-zero address, so a bounds check
/// must not form it.
TEST(Interp, WrappedAddressesAreUnmapped) {
  struct Case {
    const char *Name;
    const char *Text;
  };
  std::vector<Case> Cases = {
      {"store at -4 (size 8)", R"(
func main(0) {
entry:
  LI r32 = -4
  LI r33 = 7
  ST 0(r32):8 = r33
  RET
}
)"},
      {"load at -4 (size 8)", R"(
func main(0) {
entry:
  LI r32 = -4
  L r3 = 0(r32):8
  RET
}
)"},
      {"store at -2 (size 4)", R"(
func main(0) {
entry:
  LI r32 = -2
  LI r33 = 7
  ST 0(r32) = r33
  RET
}
)"},
      {"load at -2 (size 4)", R"(
func main(0) {
entry:
  LI r32 = -2
  L r3 = 0(r32)
  RET
}
)"},
  };
  for (const Case &C : Cases) {
    auto M = parseOrDie(C.Text);
    ASSERT_TRUE(M) << C.Name;
    InterpResult Ref = interpret(*M);
    EXPECT_TRUE(Ref.Trapped) << C.Name;
    EXPECT_NE(Ref.TrapMsg.find("unmapped address"), std::string::npos)
        << C.Name << ": " << Ref.TrapMsg;
    EXPECT_EQ(Ref.TrapMsg, simulateLegacy(*M, rs6000()).TrapMsg) << C.Name;
  }

  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = -4
  L r3 = 0(r32):8 !safe
  RET
}
)");
  ASSERT_TRUE(M);
  InterpResult R = interpret(*M);
  EXPECT_FALSE(R.Trapped) << R.TrapMsg;
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.SpecFaults, 1u);
}

//===----------------------------------------------------------------------===//
// diffFunctions
//===----------------------------------------------------------------------===//

TEST(DiffFunctions, CorrectUnrollRenameIsClean) {
  auto M = parseOrDie(SumLoop);
  ASSERT_TRUE(M);
  auto Before = cloneFunction(*M->findFunction("main"));
  unrollAndRename(*M);
  ASSERT_EQ(verifyModule(*M), "") << printModule(*M);
  OracleOptions Opts;
  Opts.CompareStoreTrace = true;
  Opts.CompareCallTrace = true;
  OracleResult R = diffFunctions(*Before, *M->findFunction("main"), *M,
                                 "unroll+rename", Opts);
  EXPECT_TRUE(R.ok()) << R.Report;
}

/// Acceptance criterion: a deliberately-miscompiled rename (the exit-edge
/// LR bookkeeping copy dropped) must be caught, naming the pass and a
/// reproducing input.
TEST(DiffFunctions, CatchesDroppedBookkeepingCopy) {
  auto M = parseOrDie(SumLoop);
  ASSERT_TRUE(M);
  auto Before = cloneFunction(*M->findFunction("main"));
  unrollAndRename(*M);
  Function &F = *M->findFunction("main");
  // The loop's sum lives in r34 past the exit; dropping its exit copy
  // leaves the stale pre-rename register feeding print_int.
  ASSERT_TRUE(dropBookkeepingCopy(F, Reg::gpr(34))) << printFunction(F);
  ASSERT_EQ(verifyModule(*M), "") << printModule(*M);

  OracleResult R = diffFunctions(*Before, F, *M, "unroll+rename");
  ASSERT_FALSE(R.ok()) << "miscompilation not detected:\n" << printFunction(F);
  EXPECT_EQ(R.Divergences.front().Pass, "unroll+rename");
  EXPECT_EQ(R.Divergences.front().Fn, "main");
  EXPECT_NE(R.Report.find("unroll+rename"), std::string::npos);
  EXPECT_NE(R.Report.find("reproducing input"), std::string::npos);
  EXPECT_NE(R.Report.find("fingerprint mismatch"), std::string::npos);
  // The interleaved trace and both IR versions are part of the diagnosis.
  EXPECT_NE(R.Report.find("interleaved execution trace"), std::string::npos);
  EXPECT_NE(R.Report.find("before 'unroll+rename'"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ExecOracle harness
//===----------------------------------------------------------------------===//

TEST(ExecOracle, CleanAndChangedCheckpoints) {
  auto M = parseOrDie(SumLoop);
  ASSERT_TRUE(M);
  ExecOracle Oracle(OracleLevel::Boundaries);
  Oracle.begin(*M);
  // Nothing changed: trivially clean.
  EXPECT_TRUE(Oracle.checkpoint(*M, "noop").ok());
  // A behaviour-preserving change: clean, and the snapshot advances.
  unrollAndRename(*M);
  EXPECT_TRUE(Oracle.checkpoint(*M, "unroll+rename").ok());
  // A behaviour-breaking change against the *advanced* snapshot.
  Function &F = *M->findFunction("main");
  ASSERT_TRUE(dropBookkeepingCopy(F, Reg::gpr(34)));
  OracleResult R = Oracle.checkpoint(*M, "mutation");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Divergences.front().Pass, "mutation");
  EXPECT_EQ(R.Divergences.front().Fn, "main");
}

TEST(ExecOracle, LevelNamesAndPredicates) {
  EXPECT_STREQ(oracleLevelName(OracleLevel::Off), "off");
  EXPECT_STREQ(oracleLevelName(OracleLevel::Boundaries), "boundaries");
  EXPECT_STREQ(oracleLevelName(OracleLevel::Full), "full");
  EXPECT_FALSE(ExecOracle(OracleLevel::Off).enabled());
  EXPECT_TRUE(ExecOracle(OracleLevel::Boundaries).enabled());
  EXPECT_FALSE(ExecOracle(OracleLevel::Boundaries).full());
  EXPECT_TRUE(ExecOracle(OracleLevel::Full).full());
}

/// Acceptance criterion: seed workloads run the whole VLIW pipeline at
/// OracleLevel::Full with zero divergences (the pipeline aborts on any).
TEST(ExecOracle, FullPipelineOnSeedsIsDivergenceFree) {
  for (uint64_t Seed = 1; Seed != 7; ++Seed) {
    auto Base = compileSeed(Seed);
    ASSERT_TRUE(Base);
    optimize(*Base, OptLevel::None);
    RunOptions SO;
    SO.Args = {6};
    SO.MaxInstrs = 20'000'000;
    RunResult RB = simulate(*Base, rs6000(), SO);
    ASSERT_FALSE(RB.Trapped) << "seed " << Seed << ": " << RB.TrapMsg;

    auto M = compileSeed(Seed);
    ASSERT_TRUE(M);
    PipelineOptions Opts;
    Opts.Oracle = OracleLevel::Full;
    optimize(*M, OptLevel::Vliw, Opts);
    RunResult R = simulate(*M, rs6000(), SO);
    EXPECT_EQ(RB.fingerprint(), R.fingerprint()) << "seed " << Seed;
  }
}
