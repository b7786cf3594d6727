//===- pm/Passes.h - Pass-interface wrappers ------------------*- C++ -*-===//
///
/// \file
/// FunctionPass / ModulePass wrappers around the transforms in src/opt,
/// src/vliw and src/profile, in the order the VLIW pipeline runs them.
/// Each wrapper's name() matches the stage label the old hand-rolled
/// pipeline used, so audit/oracle reports and snapshots keep their
/// familiar names.
///
/// Preservation discipline: every wrapped transform that takes a
/// FunctionAnalyses parameter maintains the cache itself (invalidating
/// exactly when it mutates), so its wrapper returns
/// PreservedAnalyses::all() — "the cache is already consistent". Wrappers
/// around transforms that do NOT thread the cache (superblock formation,
/// register allocation, prolog insertion) return none().
///
/// All wrappers are stateless apart from immutable configuration captured
/// at construction, which makes them safe to share across the parallel
/// driver's worker threads.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PM_PASSES_H
#define VSC_PM_PASSES_H

#include "machine/MachineModel.h"
#include "pm/PassManager.h"
#include "vliw/Schedule.h"

namespace vsc {

class ProfileData;
struct RunOptions;

/// opt/Classical.h: copy propagation, LVN, DCE, LICM, straightening to a
/// fixed point. \p FlowAlias selects the flow-sensitive disambiguation
/// tier for LVN's load epochs and LICM's clobber test (here and in every
/// wrapper below that takes it).
class ClassicalPass : public FunctionPass {
public:
  explicit ClassicalPass(bool FlowAlias = true) : FlowAlias(FlowAlias) {}
  const char *name() const override { return "classical"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  bool FlowAlias;
};

/// profile/Superblock.h: trace-driven tail duplication, followed by a
/// classical cleanup round.
class SuperblockPass : public FunctionPass {
public:
  explicit SuperblockPass(const ProfileData &Profile, bool FlowAlias = true)
      : Profile(Profile), FlowAlias(FlowAlias) {}
  const char *name() const override { return "superblocks"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  const ProfileData &Profile;
  bool FlowAlias;
};

/// vliw/LoadStoreMotion.h plus a classical cleanup round.
class LoadStoreMotionPass : public FunctionPass {
public:
  explicit LoadStoreMotionPass(bool FlowAlias = true) : FlowAlias(FlowAlias) {}
  const char *name() const override { return "loadstore-motion"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  bool FlowAlias;
};

/// vliw/Unspeculation.h.
class UnspeculationPass : public FunctionPass {
public:
  explicit UnspeculationPass(bool FlowAlias = true) : FlowAlias(FlowAlias) {}
  const char *name() const override { return "unspeculation"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  bool FlowAlias;
};

/// vliw/Unroll.h + cfg straightening + vliw/Rename.h, as one stage (the
/// paper applies renaming to the freshly unrolled bodies).
class UnrollRenamePass : public FunctionPass {
public:
  explicit UnrollRenamePass(unsigned Factor) : Factor(Factor) {}
  const char *name() const override { return "unroll+rename"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  unsigned Factor;
};

/// Enhanced pipeline scheduling (vliw/Schedule.h). With \p Exact != Off
/// every attempted loop is additionally graded by the branch-and-bound
/// modulo scheduler (pipelining/ExactPipeliner.h); records land in \p Log
/// when one is supplied.
class PipeliningPass : public FunctionPass {
public:
  explicit PipeliningPass(const MachineModel &MM, bool FlowAlias = true,
                          ExactPipelineMode Exact = ExactPipelineMode::Off,
                          ExactPipelinerOptions ExactOpts = {},
                          PipelineLoopLog *Log = nullptr)
      : MM(MM), FlowAlias(FlowAlias), Exact(Exact), ExactOpts(ExactOpts),
        Log(Log) {}
  const char *name() const override { return "pipelining"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  const MachineModel &MM;
  bool FlowAlias;
  ExactPipelineMode Exact;
  ExactPipelinerOptions ExactOpts;
  PipelineLoopLog *Log;
};

/// Global scheduling (vliw/Schedule.h).
class GlobalSchedulePass : public FunctionPass {
public:
  GlobalSchedulePass(const MachineModel &MM, GlobalScheduleOptions Opts)
      : MM(MM), Opts(Opts) {}
  const char *name() const override { return "global-schedule"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  const MachineModel &MM;
  GlobalScheduleOptions Opts;
};

/// vliw/LimitedCombine.h followed by copy propagation and DCE (the
/// combining stage of the old pipeline).
class CombiningPass : public FunctionPass {
public:
  explicit CombiningPass(bool FlowAlias = true) : FlowAlias(FlowAlias) {}
  const char *name() const override { return "combining"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  bool FlowAlias;
};

/// cfg/CfgEdit.h straightening as a standalone stage.
class StraightenPass : public FunctionPass {
public:
  const char *name() const override { return "straighten"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;
};

/// vliw/BlockExpansion.h.
class BlockExpansionPass : public FunctionPass {
public:
  explicit BlockExpansionPass(const MachineModel &MM) : MM(MM) {}
  const char *name() const override { return "block-expansion"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  const MachineModel &MM;
};

/// opt/RegAlloc.h linear scan, per function.
class RegAllocPass : public FunctionPass {
public:
  const char *name() const override { return "regalloc"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;
};

/// vliw/PrologTailor.h callee-save prolog/epilog insertion.
class PrologPass : public FunctionPass {
public:
  explicit PrologPass(bool Tailored) : Tailored(Tailored) {}
  const char *name() const override { return "prolog"; }
  PreservedAnalyses run(Function &F, Module &M, FunctionAnalyses &FA) override;

private:
  bool Tailored;
};

/// opt/Inline.h leaf inlining — a true module pass (rewrites callers,
/// reads callee bodies), so it runs as a serial barrier.
class InlinePass : public ModulePass {
public:
  const char *name() const override { return "inline"; }
  std::string run(Module &M, FunctionAnalysisManager &FAM) override;
};

/// profile/PdfLayout.h measured layout gate — module-level (re-simulates
/// the whole module on the training battery, cycles summed through one
/// predecoded engine). \p KeptOut (when non-null) receives the gate
/// decision: 1 kept, 0 rolled back, -1 when \p TrainBattery is null or
/// empty and the layout is kept without a measurement.
class PdfLayoutPass : public ModulePass {
public:
  PdfLayoutPass(const ProfileData &Profile, const MachineModel &MM,
                const std::vector<RunOptions> *TrainBattery,
                unsigned Threads = 1, int *KeptOut = nullptr)
      : Profile(Profile), MM(MM), TrainBattery(TrainBattery),
        Threads(Threads), KeptOut(KeptOut) {}
  const char *name() const override { return "pdf-layout"; }
  std::string run(Module &M, FunctionAnalysisManager &FAM) override;

private:
  const ProfileData &Profile;
  const MachineModel &MM;
  const std::vector<RunOptions> *TrainBattery;
  unsigned Threads;
  int *KeptOut;
};

/// Final instruction-id renumbering across the module.
class RenumberPass : public ModulePass {
public:
  const char *name() const override { return "renumber"; }
  std::string run(Module &M, FunctionAnalysisManager &FAM) override;
};

} // namespace vsc

#endif // VSC_PM_PASSES_H
