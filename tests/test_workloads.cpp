//===- tests/test_workloads.cpp - Workload kernels (spec + irregular) ------===//
///
/// Behaviour equivalence of every registered kernel — the six SPECint92
/// substitutes and the five irregular kernels — across every pipeline
/// level, machine model and thread count (the repository-wide correctness
/// net for experiment E1 and the irregular suite W1), plus shape checks
/// on the speedups, host-reference checksum validation for the irregular
/// kernels, and a full audited pipeline run (PassAudit + ExecOracle +
/// AliasAudit) per kernel — the dispatch kernels are the first real
/// indirect-branch stress for the alias audit's replay battery.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "pdf/PdfExperiment.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

class WorkloadTest : public ::testing::TestWithParam<size_t> {
protected:
  const Workload &workload() const {
    return workloads::allKernels()[GetParam()];
  }
};

} // namespace

TEST_P(WorkloadTest, CompilesAndVerifies) {
  auto M = buildWorkload(workload());
  ASSERT_TRUE(M);
  EXPECT_EQ(verifyModule(*M), "");
}

TEST_P(WorkloadTest, AllOptLevelsAgree) {
  const Workload &W = workload();
  RunOptions In = workloadInput(W.TrainScale);

  auto Base = buildWorkload(W);
  optimize(*Base, OptLevel::None);
  RunResult RB = simulate(*Base, rs6000(), In);
  ASSERT_FALSE(RB.Trapped) << RB.TrapMsg;
  ASSERT_FALSE(RB.Output.empty());

  for (OptLevel L : {OptLevel::Classical, OptLevel::Vliw}) {
    auto M = buildWorkload(W);
    optimize(*M, L);
    EXPECT_EQ(verifyModule(*M), "");
    RunResult R = simulate(*M, rs6000(), In);
    EXPECT_EQ(RB.fingerprint(), R.fingerprint())
        << W.Name << " at " << optLevelName(L);
  }
}

// The full matrix the irregular-suite issue asks for: every OptLevel x
// machine x VSC_THREADS={1,4} cell must print the same checksum, and the
// compiled IR must be byte-identical across thread counts in every cell.
TEST_P(WorkloadTest, ChecksumStableAcrossLevelsMachinesAndThreads) {
  const Workload &W = workload();
  RunOptions In = workloadInput(W.TrainScale);

  auto Base = buildWorkload(W);
  optimize(*Base, OptLevel::None);
  RunResult RB = simulate(*Base, rs6000(), In);
  ASSERT_FALSE(RB.Trapped) << W.Name << ": " << RB.TrapMsg;

  for (OptLevel L : {OptLevel::None, OptLevel::Classical, OptLevel::Vliw}) {
    for (const MachineModel &MM : {rs6000(), power2(), ppc601()}) {
      std::string Ir[2];
      for (unsigned T : {1u, 4u}) {
        auto M = buildWorkload(W);
        PipelineOptions Opts;
        Opts.Machine = MM;
        Opts.Threads = T;
        optimize(*M, L, Opts);
        Ir[T == 4] = printModule(*M);
        RunResult R = simulate(*M, MM, In);
        EXPECT_EQ(RB.fingerprint(), R.fingerprint())
            << W.Name << " at " << optLevelName(L) << " on " << MM.Name
            << " threads=" << T;
      }
      EXPECT_EQ(Ir[0], Ir[1]) << W.Name << " at " << optLevelName(L)
                              << " on " << MM.Name
                              << ": IR differs across thread counts";
    }
  }
}

// Every kernel must survive the audited pipeline: semantic pass audits
// and the differential execution oracle at Boundaries, plus the dynamic
// alias audit replaying every NoAlias claim against simulated addresses.
// (Each of these aborts the process on a finding.)
TEST_P(WorkloadTest, AuditedOracleAliasPipelineClean) {
  const Workload &W = workload();
  auto Base = buildWorkload(W);
  optimize(*Base, OptLevel::None);
  RunOptions In = workloadInput(W.TrainScale);
  RunResult RB = simulate(*Base, rs6000(), In);
  ASSERT_FALSE(RB.Trapped) << RB.TrapMsg;

  auto M = buildWorkload(W);
  PipelineOptions Opts;
  Opts.Audit = AuditLevel::Boundaries;
  Opts.Oracle = OracleLevel::Boundaries;
  Opts.AliasAudit = true;
  optimize(*M, OptLevel::Vliw, Opts);
  EXPECT_EQ(verifyModule(*M), "");
  RunResult R = simulate(*M, rs6000(), In);
  EXPECT_EQ(RB.fingerprint(), R.fingerprint()) << W.Name;
}

TEST_P(WorkloadTest, VliwBeatsClassicalOnCycles) {
  const Workload &W = workload();
  RunOptions In = workloadInput(W.TrainScale);
  auto MC = buildWorkload(W);
  optimize(*MC, OptLevel::Classical);
  auto MV = buildWorkload(W);
  optimize(*MV, OptLevel::Vliw);
  RunResult RC = simulate(*MC, rs6000(), In);
  RunResult RV = simulate(*MV, rs6000(), In);
  ASSERT_FALSE(RC.Trapped) << RC.TrapMsg;
  ASSERT_FALSE(RV.Trapped) << RV.TrapMsg;
  EXPECT_LT(RV.Cycles, RC.Cycles) << W.Name;
}

TEST_P(WorkloadTest, AllMachineModelsAgreeFunctionally) {
  const Workload &W = workload();
  RunOptions In = workloadInput(W.TrainScale);
  auto M = buildWorkload(W);
  optimize(*M, OptLevel::Vliw);
  RunResult R1 = simulate(*M, rs6000(), In);
  RunResult R2 = simulate(*M, power2(), In);
  RunResult R3 = simulate(*M, ppc601(), In);
  EXPECT_EQ(R1.fingerprint(), R2.fingerprint()) << W.Name;
  EXPECT_EQ(R1.fingerprint(), R3.fingerprint()) << W.Name;
  // Power2's second FXU should never hurt.
  EXPECT_LE(R2.Cycles, R1.Cycles) << W.Name;
}

TEST_P(WorkloadTest, PdfPipelinePreservesBehaviour) {
  const Workload &W = workload();
  auto Base = buildWorkload(W);
  optimize(*Base, OptLevel::None);
  RunOptions Ref = workloadInput(W.RefScale);
  RunResult RB = simulate(*Base, rs6000(), Ref);

  auto Guided = buildWorkload(W);
  PdfExperimentOptions PO;
  PO.Train = {workloadInput(W.TrainScale)};
  PdfFeedback F = collectPdfFeedback(*Guided, PO, Guided.get());
  ASSERT_TRUE(F.ok()) << W.Name << ": " << F.Error;
  const ProfileData &P = F.Feedback;
  ASSERT_FALSE(P.BlockCount.empty()) << W.Name;
  PipelineOptions Opts;
  Opts.Profile = &P;
  optimize(*Guided, OptLevel::Vliw, Opts);
  EXPECT_EQ(verifyModule(*Guided), "");
  RunResult RG = simulate(*Guided, rs6000(), Ref);
  EXPECT_EQ(RB.fingerprint(), RG.fingerprint()) << W.Name;
}

TEST_P(WorkloadTest, ScalesLinearly) {
  // Tripling the scale parameter roughly triples work (sanity of the
  // benchmark harness's per-iteration math); allow slack for the
  // constant setup phase.
  const Workload &W = workload();
  auto M = buildWorkload(W);
  optimize(*M, OptLevel::Classical);
  RunResult R1 = simulate(*M, rs6000(), workloadInput(4));
  RunResult R2 = simulate(*M, rs6000(), workloadInput(12));
  ASSERT_FALSE(R1.Trapped) << R1.TrapMsg;
  double Ratio = static_cast<double>(R2.Cycles) / R1.Cycles;
  EXPECT_GT(Ratio, 1.8) << W.Name;
  EXPECT_LT(Ratio, 3.2) << W.Name;
}

// The irregular kernels are additionally self-checking against an
// independent host-side C++ implementation of the same algorithm: the
// printed checksum must equal irregularReference at both scales.
TEST_P(WorkloadTest, IrregularChecksumMatchesHostReference) {
  const Workload &W = workload();
  if (!workloads::isIrregular(W))
    GTEST_SKIP() << "spec kernels have no host mirror";
  for (int64_t Scale : {W.TrainScale, W.RefScale}) {
    auto M = buildWorkload(W);
    optimize(*M, OptLevel::Vliw);
    RunResult R = simulate(*M, rs6000(), workloadInput(Scale));
    ASSERT_FALSE(R.Trapped) << W.Name << ": " << R.TrapMsg;
    EXPECT_EQ(R.Output,
              std::to_string(irregularReference(W, Scale)) + "\n")
        << W.Name << " at scale " << Scale;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, WorkloadTest,
                         ::testing::Range<size_t>(
                             0, workloads::allKernels().size()),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return workloads::allKernels()[Info.param].Name;
                         });

TEST(Workloads, SpecSixStayInPaperOrder) {
  const auto &W = specWorkloads();
  ASSERT_EQ(W.size(), 6u);
  EXPECT_EQ(W[0].Name, "espresso");
  EXPECT_EQ(W[1].Name, "li");
  EXPECT_EQ(W[2].Name, "eqntott");
  EXPECT_EQ(W[3].Name, "compress");
  EXPECT_EQ(W[4].Name, "sc");
  EXPECT_EQ(W[5].Name, "gcc");
}

TEST(Workloads, RegistryIsSpecThenIrregular) {
  const auto &All = workloads::allKernels();
  ASSERT_EQ(All.size(), specWorkloads().size() + irregularWorkloads().size());
  for (size_t I = 0; I != specWorkloads().size(); ++I)
    EXPECT_EQ(All[I].Name, specWorkloads()[I].Name);
  for (size_t I = 0; I != irregularWorkloads().size(); ++I)
    EXPECT_EQ(All[specWorkloads().size() + I].Name,
              irregularWorkloads()[I].Name);
  for (const Workload &W : All)
    EXPECT_EQ(workloads::findKernel(W.Name), &All[&W - All.data()]);
  EXPECT_EQ(workloads::findKernel("no-such-kernel"), nullptr);
}

// The threaded-dispatch interpreter is the same virtual machine as the
// ladder-dispatch one: identical opcode stream, identical handler
// effects — so the two kernels must print identical checksums at every
// scale. This pins the "dispatch reorganization only" contract the PDF
// comparison between them relies on.
TEST(Workloads, ThreadedInterpreterMatchesLadderInterpreter) {
  const Workload *A = workloads::findKernel("interp");
  const Workload *B = workloads::findKernel("interp_tc");
  ASSERT_TRUE(A && B);
  for (int64_t Scale : {1, 3, 8}) {
    auto MA = buildWorkload(*A);
    auto MB = buildWorkload(*B);
    optimize(*MA, OptLevel::Vliw);
    optimize(*MB, OptLevel::Vliw);
    RunResult RA = simulate(*MA, rs6000(), workloadInput(Scale));
    RunResult RB = simulate(*MB, rs6000(), workloadInput(Scale));
    ASSERT_FALSE(RA.Trapped) << RA.TrapMsg;
    ASSERT_FALSE(RB.Trapped) << RB.TrapMsg;
    EXPECT_EQ(RA.Output, RB.Output) << "scale " << Scale;
  }
}
