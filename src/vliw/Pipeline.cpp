//===- vliw/Pipeline.cpp - Optimization pipelines ----------------------------===//
//
// The driver is built on the pass manager (pm/PassManager.h): the
// per-function pipeline is a FunctionPassManager run by a (possibly
// parallel) FunctionToModulePassAdaptor, module-level stages are
// ModulePasses acting as serial barriers, and the Verifier / PassAudit /
// ExecOracle checkpoints are pass-instrumentation callbacks instead of
// hand-spliced calls:
//
//  - AfterFunctionPass (registered only at Audit/Oracle Full): per-pass
//    checkpoints with the old "pass(function)" stage names. Registering
//    it forces the adaptor serial — the oracle executes code and may read
//    callee bodies, which must not race with other workers.
//
//  - AfterFunctionChain: fires serially in module layout order after the
//    parallel region's barrier; per-function verify plus Boundaries-level
//    audit/oracle under the old "optimize(function)" stage names.
//
//  - AfterModulePass: whole-module verify/audit/oracle at the stage
//    boundaries ("inline", "regalloc", "prolog", "pdf-layout").
//
//===----------------------------------------------------------------------===//

#include "vliw/Pipeline.h"

#include "audit/AliasAudit.h"
#include "audit/PassAudit.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pm/Passes.h"
#include "profile/ProfileData.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace vsc;

PipelineOptions::PipelineOptions() : Machine(rs6000()) {}

const char *vsc::optLevelName(OptLevel L) {
  switch (L) {
  case OptLevel::None:
    return "none";
  case OptLevel::Classical:
    return "classical";
  case OptLevel::Vliw:
    return "vliw";
  }
  return "?";
}

const char *vsc::pdfLayoutName(int Kept) {
  return Kept < 0 ? "unconditional" : Kept ? "kept" : "rolled-back";
}

namespace {

/// Innermost loops are unrolled by two before renaming, as in the paper's
/// li example (two iterations per loop body).
constexpr unsigned UnrollFactor = 2;

std::function<std::string()> &failureHook() {
  static std::function<std::string()> Hook;
  return Hook;
}

/// Prints the harness-supplied reproduction context, if any, and aborts.
[[noreturn]] void failPipeline() {
  if (const auto &Hook = failureHook()) {
    std::string Ctx = Hook();
    if (!Ctx.empty())
      std::fputs(Ctx.c_str(), stderr);
  }
  std::abort();
}

void checkStage(const Module &M, const PipelineOptions &Opts,
                const char *Stage) {
  if (!Opts.Verify)
    return;
  std::string E = verifyModule(M);
  if (E.empty())
    return;
  std::fprintf(stderr,
               "pipeline verification failed after stage '%s': %s\n%s\n",
               Stage, E.c_str(), printModule(M).c_str());
  failPipeline();
}

void failAudit(const AuditResult &R) {
  std::fputs(R.Report.c_str(), stderr);
  failPipeline();
}

void auditStage(PassAudit &Audit, const Module &M, const std::string &Stage) {
  if (!Audit.enabled())
    return;
  AuditResult R = Audit.checkpoint(M, Stage);
  if (!R.ok())
    failAudit(R);
}

void failOracle(const OracleResult &R) {
  std::fputs(R.Report.c_str(), stderr);
  failPipeline();
}

void oracleStage(ExecOracle &Oracle, const Module &M,
                 const std::string &Stage) {
  if (!Oracle.enabled())
    return;
  OracleResult R = Oracle.checkpoint(M, Stage);
  if (!R.ok())
    failOracle(R);
}

/// Runs the dynamic NoAlias-claim audit as a serial module barrier. It
/// must run before RenumberPass: claims are keyed by instruction id, which
/// renumbering rewrites.
class AliasAuditPass : public ModulePass {
public:
  AliasAuditPass(const MachineModel &MM, const AliasClaimLog &Log)
      : MM(MM), Log(Log) {}
  const char *name() const override { return "alias-audit"; }
  std::string run(Module &M, FunctionAnalysisManager &) override {
    AuditResult R =
        runAliasAudit(M, MM, defaultAliasAuditBattery(), Log.claims());
    if (!R.ok())
      failAudit(R);
    return "";
  }

private:
  const MachineModel &MM;
  const AliasClaimLog &Log;
};

/// The per-function chain for level \p L (empty at OptLevel::None — the
/// adaptor still runs so the per-function checkpoints fire).
FunctionPassManager buildFunctionPipeline(OptLevel L,
                                          const PipelineOptions &Opts,
                                          PipelineLoopLog *PipeLog) {
  FunctionPassManager FPM;
  if (L == OptLevel::None)
    return FPM;

  bool FA = Opts.FlowSensitiveAlias;
  FPM.add(std::make_unique<ClassicalPass>(FA));
  if (L == OptLevel::Classical)
    return FPM;

  // --- the VLIW prototype pipeline ---
  if (Opts.Superblocks && Opts.Profile)
    FPM.add(std::make_unique<SuperblockPass>(*Opts.Profile, FA));
  if (Opts.LoadStoreMotion)
    FPM.add(std::make_unique<LoadStoreMotionPass>(FA));
  if (Opts.Unspeculation)
    FPM.add(std::make_unique<UnspeculationPass>(FA));
  if (Opts.UnrollAndRename)
    FPM.add(std::make_unique<UnrollRenamePass>(UnrollFactor));
  if (Opts.Pipelining)
    FPM.add(std::make_unique<PipeliningPass>(Opts.Machine, FA,
                                             Opts.ExactPipelining,
                                             Opts.ExactPipeline, PipeLog));
  if (Opts.GlobalScheduling) {
    GlobalScheduleOptions GS;
    GS.Profile = Opts.Profile;
    GS.FlowAlias = FA;
    FPM.add(std::make_unique<GlobalSchedulePass>(Opts.Machine, GS));
  }
  if (Opts.Combining)
    FPM.add(std::make_unique<CombiningPass>(FA));
  FPM.add(std::make_unique<StraightenPass>());
  // PDF layout runs at module level after prologs, so the measured gate
  // can simulate real code.
  if (Opts.BlockExpansion)
    FPM.add(std::make_unique<BlockExpansionPass>(Opts.Machine));
  FPM.add(std::make_unique<StraightenPass>());
  return FPM;
}

} // namespace

void vsc::setPipelineFailureHook(std::function<std::string()> Hook) {
  failureHook() = std::move(Hook);
}

uint64_t vsc::optionsFingerprint(OptLevel L, const PipelineOptions &Opts) {
  uint64_t H = 1469598103934665603ULL;
  auto Word = [&H](uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ULL;
    }
  };
  Word(static_cast<uint64_t>(L));
  Word(machineFingerprint(Opts.Machine));
  // One bit per pass toggle, in declaration order; adding a toggle here is
  // part of adding it to PipelineOptions (the service's cached compiles key
  // on this value).
  uint64_t Bits = 0;
  for (bool B : {Opts.Inlining, Opts.LoadStoreMotion, Opts.Unspeculation,
                 Opts.UnrollAndRename, Opts.Pipelining,
                 Opts.GlobalScheduling, Opts.Combining, Opts.BlockExpansion,
                 Opts.TailorProlog, Opts.InsertPrologs,
                 Opts.AllocateRegisters, Opts.Superblocks,
                 Opts.FlowSensitiveAlias, Opts.Profile != nullptr,
                 Opts.TrainBattery != nullptr})
    Bits = (Bits << 1) | (B ? 1 : 0);
  Word(Bits);
  // Exact pipelining changes bytes in Apply mode, and the budget knobs
  // decide what Apply can find — fold them all in.
  Word(static_cast<uint64_t>(Opts.ExactPipelining));
  Word(Opts.ExactPipeline.NodeBudget);
  Word(Opts.ExactPipeline.MaxStages);
  Word(Opts.ExactPipeline.MaxBodyInstrs);
  Word(Opts.ExactPipeline.MaxII);
  return H;
}

std::unique_ptr<Module> vsc::optimizedClone(const Module &Source, OptLevel L,
                                            const PipelineOptions &Opts) {
  auto M = cloneModule(Source);
  optimize(*M, L, Opts);
  return M;
}

void vsc::optimize(Module &M, OptLevel L, const PipelineOptions &Opts) {
  PassAudit Audit(Opts.Audit, Opts.Machine);
  OracleOptions OracleCfg = Opts.OracleCfg;
  OracleCfg.PageZeroReadable = Opts.Machine.PageZeroReadable;
  ExecOracle Oracle(Opts.Oracle, OracleCfg);
  checkStage(M, Opts, "input");
  if (Audit.enabled()) {
    AuditResult R = Audit.begin(M);
    if (!R.ok())
      failAudit(R);
  }
  if (Oracle.enabled())
    Oracle.begin(M);

  unsigned Threads = Opts.Threads ? std::min(Opts.Threads, 64u)
                                  : ThreadPool::defaultThreadCount();

  PassInstrumentation PI;
  if (Audit.full() || Oracle.full()) {
    // Per-pass checkpoints; registering this callback forces the function
    // adaptors serial (see pm/PassManager.h).
    PI.AfterFunctionPass = [&Audit, &Oracle, &M](const FunctionPass &P,
                                                 Function &F) {
      std::string Stage = std::string(P.name()) + "(" + F.name() + ")";
      if (Audit.full()) {
        AuditResult R = Audit.checkpointFunction(F, M, Stage);
        if (!R.ok())
          failAudit(R);
      }
      if (Oracle.full()) {
        OracleResult R = Oracle.checkpointFunction(F, M, Stage);
        if (!R.ok())
          failOracle(R);
      }
    };
  }
  PI.AfterFunctionChain = [&Audit, &Oracle, &M, &Opts](
                              Function &F, const std::string &StageName) {
    // Per-function boundary checks belong to the main optimize stage; the
    // regalloc/prolog stages keep their whole-module checkpoints below.
    if (StageName != "optimize")
      return;
    std::string Stage = "optimize(" + F.name() + ")";
    if (Opts.Verify) {
      std::string E = verifyFunction(F);
      if (!E.empty()) {
        std::fprintf(stderr,
                     "pipeline verification failed after stage '%s': %s\n%s\n",
                     Stage.c_str(), E.c_str(), printFunction(F).c_str());
        failPipeline();
      }
    }
    if (Audit.enabled()) {
      AuditResult R = Audit.checkpointFunction(F, M, Stage);
      if (!R.ok())
        failAudit(R);
    }
    if (Oracle.enabled()) {
      OracleResult R = Oracle.checkpointFunction(F, M, Stage);
      if (!R.ok())
        failOracle(R);
    }
  };
  PI.AfterModulePass = [&Audit, &Oracle, &Opts](const ModulePass &P,
                                                Module &Mod) {
    std::string Stage = P.name();
    if (Stage == "renumber")
      return; // last pass; audit matches instructions by id
    if (Stage == "optimize") {
      // Function-level checks already ran; add the whole-module verify
      // (call-target resolution etc.) the old per-function loop provided.
      checkStage(Mod, Opts, Stage.c_str());
      return;
    }
    checkStage(Mod, Opts, Stage.c_str());
    auditStage(Audit, Mod, Stage);
    oracleStage(Oracle, Mod, Stage);
  };

  ModulePassManager MPM(std::move(PI));
  if (L == OptLevel::Vliw && Opts.Inlining)
    MPM.add(std::make_unique<InlinePass>());
  PipelineLoopLog PipeLog;
  PipelineLoopLog *PipeLogPtr =
      Opts.ExactPipelining != ExactPipelineMode::Off ? &PipeLog : nullptr;
  MPM.addFunctionPasses("optimize", buildFunctionPipeline(L, Opts, PipeLogPtr),
                        Threads);
  if (Opts.AllocateRegisters) {
    FunctionPassManager RA;
    RA.add(std::make_unique<RegAllocPass>());
    MPM.addFunctionPasses("regalloc", std::move(RA), Threads);
  }
  // Prologs last: the spill code must not be rescheduled away from the
  // frame adjustment.
  if (Opts.InsertPrologs) {
    FunctionPassManager PL;
    PL.add(std::make_unique<PrologPass>(L == OptLevel::Vliw &&
                                        Opts.TailorProlog));
    MPM.addFunctionPasses("prolog", std::move(PL), Threads);
  }
  // Profile-directed layout, gated by re-simulating the training battery
  // when supplied.
  int PdfKept = -1;
  if (L == OptLevel::Vliw && Opts.Profile)
    MPM.add(std::make_unique<PdfLayoutPass>(*Opts.Profile, Opts.Machine,
                                            Opts.TrainBattery, Threads,
                                            &PdfKept));
  // Claim collection + validation: the sink records every NoAlias verdict
  // the passes above issue; the audit pass replays them against runtime
  // addresses on the final (pre-renumbering) module.
  AliasClaimLog ClaimLog;
  AliasClaimSink *PrevSink = nullptr;
  if (Opts.AliasAudit) {
    PrevSink = setAliasClaimSink(&ClaimLog);
    MPM.add(std::make_unique<AliasAuditPass>(Opts.Machine, ClaimLog));
  }
  MPM.add(std::make_unique<RenumberPass>());

  FunctionAnalysisManager FAM(M);
  std::string Err = MPM.run(M, FAM);
  if (Opts.AliasAudit)
    setAliasClaimSink(PrevSink);
  if (!Err.empty()) {
    std::fprintf(stderr, "pipeline failed: %s\n", Err.c_str());
    failPipeline();
  }
  if (Opts.Stats) {
    FunctionAnalyses::Stats S = FAM.totalStats();
    Opts.Stats->AnalysisHits += S.Hits;
    Opts.Stats->AnalysisMisses += S.Misses;
    for (unsigned K = 0; K != NumAnalysisKinds; ++K)
      Opts.Stats->AnalysisMissesByKind[K] += S.MissesByKind[K];
    Opts.Stats->PdfLayoutKept = PdfKept;
    if (PipeLogPtr) {
      std::vector<LoopPipelineRecord> Loops = PipeLog.sorted();
      for (LoopPipelineRecord &R : Loops)
        Opts.Stats->PipelineLoops.push_back(std::move(R));
    }
    for (const auto &E : Audit.aliasQueryLog()) {
      auto It = std::find_if(
          Opts.Stats->AliasQueriesByStage.begin(),
          Opts.Stats->AliasQueriesByStage.end(),
          [&E](const auto &S2) { return S2.first == E.first; });
      if (It == Opts.Stats->AliasQueriesByStage.end()) {
        Opts.Stats->AliasQueriesByStage.push_back(E);
        continue;
      }
      It->second += E.second;
    }
  }
}
