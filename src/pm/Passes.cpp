//===- pm/Passes.cpp - Pass-interface wrappers ------------------------------===//

#include "pm/Passes.h"

#include "cfg/CfgEdit.h"
#include "opt/Classical.h"
#include "opt/Inline.h"
#include "opt/RegAlloc.h"
#include "profile/PdfLayout.h"
#include "profile/Superblock.h"
#include "vliw/BlockExpansion.h"
#include "vliw/LimitedCombine.h"
#include "vliw/LoadStoreMotion.h"
#include "vliw/PrologTailor.h"
#include "vliw/Rename.h"
#include "vliw/Unroll.h"
#include "vliw/Unspeculation.h"

using namespace vsc;

PreservedAnalyses ClassicalPass::run(Function &F, Module &,
                                     FunctionAnalyses &FA) {
  runClassicalPipeline(F, FA, FlowAlias);
  return PreservedAnalyses::all(); // cache maintained inside
}

PreservedAnalyses SuperblockPass::run(Function &F, Module &,
                                      FunctionAnalyses &FA) {
  formSuperblocks(F, Profile);
  // Tail duplication edits instructions and blocks without threading the
  // cache; reset before the cleanup round repopulates it.
  FA.invalidateAll();
  runClassicalPipeline(F, FA, FlowAlias);
  return PreservedAnalyses::all();
}

PreservedAnalyses LoadStoreMotionPass::run(Function &F, Module &M,
                                           FunctionAnalyses &FA) {
  speculativeLoadStoreMotion(F, M, FA, FlowAlias);
  runClassicalPipeline(F, FA, FlowAlias);
  return PreservedAnalyses::all();
}

PreservedAnalyses UnspeculationPass::run(Function &F, Module &,
                                         FunctionAnalyses &FA) {
  unspeculate(F, FA, FlowAlias);
  return PreservedAnalyses::all();
}

PreservedAnalyses UnrollRenamePass::run(Function &F, Module &,
                                        FunctionAnalyses &FA) {
  unrollInnermostLoops(F, FA, Factor);
  straighten(F);
  renameInnermostLoops(F, FA);
  return PreservedAnalyses::all();
}

PreservedAnalyses PipeliningPass::run(Function &F, Module &M,
                                      FunctionAnalyses &FA) {
  PipelineLoopOptions PO;
  PO.FlowAlias = FlowAlias;
  PO.Exact = Exact;
  PO.ExactOpts = ExactOpts;
  std::vector<LoopPipelineRecord> Records;
  if (Log && Exact != ExactPipelineMode::Off)
    PO.Records = &Records;
  pipelineInnermostLoops(F, MM, M, FA, PO);
  if (PO.Records)
    Log->append(std::move(Records));
  return PreservedAnalyses::all();
}

PreservedAnalyses GlobalSchedulePass::run(Function &F, Module &M,
                                          FunctionAnalyses &FA) {
  globalSchedule(F, MM, M, FA, Opts);
  return PreservedAnalyses::all();
}

PreservedAnalyses CombiningPass::run(Function &F, Module &,
                                     FunctionAnalyses &FA) {
  limitedCombine(F, FA, FlowAlias);
  if (copyPropagate(F))
    FA.invalidate(PreservedAnalyses::structure());
  deadCodeElim(F, FA);
  return PreservedAnalyses::all();
}

PreservedAnalyses StraightenPass::run(Function &F, Module &,
                                      FunctionAnalyses &) {
  // straighten() bumps the CFG epoch on every edit, so the cache refreshes
  // itself.
  straighten(F);
  return PreservedAnalyses::all();
}

PreservedAnalyses BlockExpansionPass::run(Function &F, Module &,
                                          FunctionAnalyses &FA) {
  expandBasicBlocks(F, MM, FA);
  return PreservedAnalyses::all();
}

PreservedAnalyses RegAllocPass::run(Function &F, Module &,
                                    FunctionAnalyses &) {
  // Rewrites virtual registers to physical ones and inserts spill code.
  allocateRegisters(F);
  return PreservedAnalyses::none();
}

PreservedAnalyses PrologPass::run(Function &F, Module &,
                                  FunctionAnalyses &FA) {
  // insertPrologEpilog reads the cache for tailored placement but the
  // spill insertions leave it stale.
  insertPrologEpilog(F, FA, Tailored);
  return PreservedAnalyses::none();
}

std::string InlinePass::run(Module &M, FunctionAnalysisManager &FAM) {
  inlineLeafFunctions(M);
  FAM.invalidateAll();
  FAM.refresh();
  return "";
}

std::string PdfLayoutPass::run(Module &M, FunctionAnalysisManager &FAM) {
  static const std::vector<RunOptions> NoBattery;
  const std::vector<RunOptions> &Battery =
      TrainBattery ? *TrainBattery : NoBattery;
  bool Kept = pdfLayoutMeasured(M, Profile, MM, Battery, Threads);
  if (KeptOut)
    *KeptOut = Battery.empty() ? -1 : Kept ? 1 : 0;
  FAM.invalidateAll();
  return "";
}

std::string RenumberPass::run(Module &M, FunctionAnalysisManager &FAM) {
  for (auto &F : M.functions())
    F->renumber();
  // Instruction ids are not part of any cached analysis, but this is the
  // last pass — a clean slate costs nothing.
  FAM.invalidateAll();
  return "";
}
