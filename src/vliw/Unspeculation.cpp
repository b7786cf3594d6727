//===- vliw/Unspeculation.cpp - Push speculative code below branches -------===//

#include "vliw/Unspeculation.h"

#include "analysis/Liveness.h"
#include "analysis/MemAlias.h"
#include "analysis/ValueTrack.h"
#include "cfg/CfgEdit.h"

#include <algorithm>
#include <cassert>

using namespace vsc;

void vsc::reorderReversePostorder(Function &F) {
  Cfg G(F);
  layoutBlocks(F, G.rpo());
}

namespace {

/// \returns true if \p I may be pushed below a conditional branch at all.
bool isPushable(const Instr &I) {
  if (I.isTerminator() || I.isCall() || I.isStore())
    return false;
  if (I.isMemAccess() && I.IsVolatile)
    return false;
  if (I.Op == Opcode::MTCTR)
    return false; // CTR is loop state read by a branch
  if (!opcodeInfo(I.Op).HasDst)
    return false;
  return true;
}

/// The paper's rule 2: no instruction between the candidate and the branch
/// (inclusive of the terminator suffix) may set the candidate's sources or
/// destinations, use its destinations, or store over a loaded location.
/// \p AA fetches the flow tier, or returns null for the syntactic one.
template <typename AliasFn>
bool betweenInstrsAllowMove(const BasicBlock &BB, size_t CandIdx,
                            const Instr &Cand, AliasFn &&AA) {
  std::vector<Reg> CandUses, CandDefs, Tmp;
  Cand.collectUses(CandUses);
  Cand.collectDefs(CandDefs);
  auto Contains = [](const std::vector<Reg> &V, Reg R) {
    return std::find(V.begin(), V.end(), R) != V.end();
  };

  for (size_t J = CandIdx + 1; J != BB.size(); ++J) {
    const Instr &Between = BB.instrs()[J];
    Tmp.clear();
    Between.collectDefs(Tmp);
    for (Reg D : Tmp)
      if (Contains(CandUses, D) || Contains(CandDefs, D))
        return false; // 2a: sets a source or destination
    Tmp.clear();
    Between.collectUses(Tmp);
    for (Reg Use : Tmp)
      if (Contains(CandDefs, Use))
        return false; // 2b: uses a destination
    // 2c: may clobber the loaded location. SameExecution is sound here
    // even for the syntactic tier: rule 2a has already rejected any
    // in-between def of the candidate's sources (its base register
    // included), so no shared base is redefined between the two accesses.
    if (!Cand.isLoad())
      continue;
    if (Between.isCall())
      return false;
    if (Between.isStore()) {
      const AliasAnalysis *Flow = AA();
      if ((Flow ? Flow->alias(Cand, Between, AliasScope::SameExecution)
                : alias(Cand, Between, AliasScope::SameExecution)) !=
          AliasResult::NoAlias)
        return false;
    }
  }
  return true;
}

/// One unspeculation step: finds the first legal move and performs it.
/// \returns true if something moved. Every move ends in splitEdge, whose
/// block insertion bumps the CFG epoch, so the cache refreshes itself on
/// the next fetch; a fruitless scan leaves the cache warm. The flow tier
/// is fetched at the first alias query: nothing moves before the step's
/// single move.
bool unspeculateOnce(Function &F, FunctionAnalyses &FA, bool FlowAlias) {
  const Cfg &G = FA.cfg();
  const Liveness &L = FA.liveness();
  const AliasAnalysis *Flow = nullptr;
  auto AA = [&]() -> const AliasAnalysis * {
    if (FlowAlias && !Flow)
      Flow = &FA.aliasAnalysis();
    return Flow;
  };

  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    if (!G.isReachable(BB))
      continue;
    size_t FirstTerm = BB->firstTerminatorIdx();
    if (FirstTerm == BB->size())
      continue;
    const Instr &Br = BB->instrs()[FirstTerm];
    if (!Br.isCondBranch())
      continue;

    // The two candidate edges.
    const std::vector<CfgEdge> &Succs = G.succs(BB);
    const CfgEdge *TakenEdge = nullptr, *OtherEdge = nullptr;
    for (const CfgEdge &E : Succs) {
      if (E.IsTaken && E.TermPos == 0)
        TakenEdge = &E;
      else
        OtherEdge = &E;
    }
    if (!TakenEdge || !OtherEdge)
      continue;
    // BCT's taken edge is the loop back edge; only the exit (fallthrough)
    // side receives pushed code ("pushed out of exits").
    bool AllowTaken = Br.Op != Opcode::BCT;

    std::vector<Reg> Defs;
    for (size_t I = FirstTerm; I-- > 0;) {
      const Instr &Cand = BB->instrs()[I];
      if (!isPushable(Cand))
        continue;
      if (!betweenInstrsAllowMove(*BB, I, Cand, AA))
        continue;

      Defs.clear();
      Cand.collectDefs(Defs);
      auto DeadAt = [&](const CfgEdge &E) {
        for (Reg D : Defs)
          if (L.isLiveIn(E.To, D))
            return false;
        return true;
      };
      bool DeadTaken = DeadAt(*TakenEdge);
      bool DeadOther = DeadAt(*OtherEdge);
      // Dead on exactly one side: push to the live side.
      const CfgEdge *Dest = nullptr;
      if (DeadTaken && !DeadOther)
        Dest = OtherEdge;
      else if (DeadOther && !DeadTaken && AllowTaken)
        Dest = TakenEdge;
      if (!Dest)
        continue;

      Instr Moved = Cand;
      BasicBlock *S = splitEdge(F, *Dest);
      BB->instrs().erase(BB->instrs().begin() + static_cast<long>(I));
      S->instrs().insert(S->instrs().begin(), std::move(Moved));
      return true;
    }
  }
  return false;
}

} // namespace

bool vsc::unspeculate(Function &F, FunctionAnalyses &FA, bool FlowAlias) {
  reorderReversePostorder(F);
  straighten(F);
  bool Any = false;
  // Each step performs one move and invalidates analyses; bound the loop
  // generously (every instruction can move only a bounded number of times
  // since moves go strictly downward in the dominator order, but cap it
  // against surprises).
  size_t Cap = F.instrCount() * 8 + 64;
  while (Cap-- > 0 && unspeculateOnce(F, FA, FlowAlias))
    Any = true;
  straighten(F);
  return Any;
}
