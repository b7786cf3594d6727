//===- vliw/Unroll.cpp - Loop unrolling -------------------------------------===//

#include "vliw/Unroll.h"

#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace vsc;

bool vsc::unrollLoop(Function &F, const Loop &L, unsigned Factor) {
  if (Factor < 2)
    return false;

  // The loop blocks must be laid out contiguously so clones can replicate
  // the layout.
  size_t FirstIdx = F.indexOf(L.Header);
  for (size_t K = 0; K != L.Blocks.size(); ++K) {
    if (FirstIdx + K >= F.blocks().size())
      return false;
    if (!L.contains(F.blocks()[FirstIdx + K].get()))
      return false;
  }
  size_t EndIdx = FirstIdx + L.Blocks.size();

  // Make every control transfer out of a loop block explicit, so clones can
  // be placed anywhere without breaking fallthrough.
  for (size_t BI = FirstIdx; BI != EndIdx; ++BI) {
    BasicBlock *BB = F.blocks()[BI].get();
    if (!BB->canFallThrough())
      continue;
    assert(BI + 1 < F.blocks().size() && "verified functions cannot fall off");
    Instr Br;
    Br.Op = Opcode::B;
    Br.Target = F.blocks()[BI + 1]->label();
    F.assignId(Br);
    BB->instrs().push_back(std::move(Br));
  }

  std::unordered_set<std::string> LoopLabels;
  for (BasicBlock *BB : L.Blocks)
    LoopLabels.insert(BB->label());

  // Pre-assign header labels for each copy so back edges can be retargeted
  // forward.
  std::vector<std::string> CopyHeaderLabel(Factor);
  CopyHeaderLabel[0] = L.Header->label();

  // Clone copies 1..Factor-1, appended contiguously after the original span
  // in the same relative block order.
  size_t InsertAt = EndIdx;
  std::vector<std::unordered_map<std::string, std::string>> CopyLabels(
      Factor);
  for (unsigned K = 1; K != Factor; ++K) {
    // Labels for this copy.
    for (size_t BI = FirstIdx; BI != EndIdx; ++BI) {
      const std::string &Orig = F.blocks()[BI]->label();
      CopyLabels[K][Orig] = F.freshLabel(Orig + ".u" + std::to_string(K));
    }
    CopyHeaderLabel[K] = CopyLabels[K][L.Header->label()];
  }

  for (unsigned K = 1; K != Factor; ++K) {
    for (size_t BI = FirstIdx; BI != EndIdx; ++BI) {
      BasicBlock *Orig = F.blocks()[BI].get();
      BasicBlock *Clone = F.insertBlock(InsertAt++, "tmp");
      Clone->setLabel(CopyLabels[K].at(Orig->label()));
      for (const Instr &I : Orig->instrs()) {
        Instr C = I;
        F.assignId(C);
        if (C.isBranch()) {
          if (C.Target == L.Header->label()) {
            // Back edge: chain to the next copy (or wrap to the original).
            C.Target = K + 1 < Factor ? CopyHeaderLabel[K + 1]
                                      : L.Header->label();
          } else if (LoopLabels.count(C.Target)) {
            C.Target = CopyLabels[K].at(C.Target);
          }
          // Exits keep their targets.
        }
        Clone->instrs().push_back(std::move(C));
      }
    }
  }

  // Original back edges now feed copy 1.
  if (Factor > 1) {
    for (size_t BI = FirstIdx; BI != EndIdx; ++BI) {
      BasicBlock *BB = F.blocks()[BI].get();
      for (size_t Idx = BB->firstTerminatorIdx(); Idx != BB->size(); ++Idx) {
        Instr &I = BB->instrs()[Idx];
        if (I.isBranch() && I.Target == L.Header->label())
          I.Target = CopyHeaderLabel[1];
      }
    }
  }
  return true;
}

unsigned vsc::unrollInnermostLoops(Function &F, FunctionAnalyses &FA,
                                   unsigned Factor, size_t MaxBodyInstrs) {
  unsigned NumUnrolled = 0;
  // Loops are re-discovered after each unroll (the CFG changed); headers
  // already processed are remembered so a freshly unrolled loop is not
  // unrolled again.
  std::unordered_set<std::string> Done;
  for (unsigned Guard = 0; Guard < 32; ++Guard) {
    bool Changed = false;
    for (Loop *L : FA.loops().innermostLoops()) {
      if (Done.count(L->Header->label()))
        continue;
      size_t Body = 0;
      for (BasicBlock *BB : L->Blocks)
        Body += BB->size();
      if (Body == 0 || Body > MaxBodyInstrs)
        continue;
      Done.insert(L->Header->label());
      if (unrollLoop(F, *L, Factor)) {
        FA.invalidateAll();
        ++NumUnrolled;
        Changed = true;
        break;
      }
    }
    if (!Changed)
      break;
  }
  return NumUnrolled;
}
