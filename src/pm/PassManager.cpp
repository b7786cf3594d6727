//===- pm/PassManager.cpp - Function/module pass managers ------------------===//

#include "pm/PassManager.h"

#include <cstdlib>

using namespace vsc;

FunctionPassManager::FunctionPassManager() {
  const char *E = std::getenv("VSC_CHECK_ANALYSES");
  CheckAnalyses = E && *E && *E != '0';
}

std::string FunctionPassManager::run(Function &F, Module &M,
                                     FunctionAnalyses &FA,
                                     const PassInstrumentation *PI) const {
  FA.setChecking(CheckAnalyses);
  for (const auto &P : Passes) {
    PreservedAnalyses PA = P->run(F, M, FA);
    FA.invalidate(PA);
    if (CheckAnalyses) {
      std::string Err = FA.verifyCache();
      if (!Err.empty())
        return std::string("analysis check after pass '") + P->name() +
               "': " + Err;
    }
    if (PI && PI->AfterFunctionPass)
      PI->AfterFunctionPass(*P, F);
  }
  return "";
}

std::string FunctionToModulePassAdaptor::run(Module &M,
                                             FunctionAnalysisManager &FAM) {
  // Snapshot the function list: function passes never add or remove
  // functions (that is a module pass's job), so the snapshot stays valid
  // across the whole region.
  std::vector<Function *> Fns;
  Fns.reserve(M.functions().size());
  for (const auto &F : M.functions())
    Fns.push_back(F.get());

  const PassInstrumentation *PI = Instr;
  bool PerPassHooks = PI && PI->AfterFunctionPass;
  std::vector<std::string> Errors(Fns.size());

  if (!PerPassHooks && Threads > 1) {
    // Parallel region: one task per function; each worker owns its
    // function's cache entry exclusively. Per-pass hooks are absent by
    // the check above, so nothing observes cross-function state until
    // the barrier below.
    ThreadPool Pool(Threads);
    Pool.parallelFor(Fns.size(), [&](size_t I) {
      Errors[I] = FPM.run(*Fns[I], M, FAM.on(*Fns[I]));
    });
  } else {
    for (size_t I = 0; I != Fns.size(); ++I) {
      Errors[I] = FPM.run(*Fns[I], M, FAM.on(*Fns[I]), PI);
      if (!Errors[I].empty())
        break;
    }
  }

  // Deterministic failure selection + serial post-barrier checkpoints in
  // module layout order (checks may execute code and read callee bodies).
  for (size_t I = 0; I != Fns.size(); ++I) {
    if (!Errors[I].empty())
      return Errors[I];
    if (PI && PI->AfterFunctionChain)
      PI->AfterFunctionChain(*Fns[I], StageName);
  }
  return "";
}

void ModulePassManager::addFunctionPasses(std::string StageName,
                                          FunctionPassManager FPM,
                                          unsigned Threads) {
  add(std::make_unique<FunctionToModulePassAdaptor>(
      std::move(StageName), std::move(FPM), Threads));
}

std::string ModulePassManager::run(Module &M,
                                   FunctionAnalysisManager &FAM) const {
  for (const auto &P : Passes) {
    if (auto *A = dynamic_cast<FunctionToModulePassAdaptor *>(P.get()))
      A->setInstrumentation(&Instr);
    std::string Err = P->run(M, FAM);
    if (!Err.empty())
      return std::string(P->name()) + ": " + Err;
    if (Instr.AfterModulePass)
      Instr.AfterModulePass(*P, M);
  }
  return "";
}
