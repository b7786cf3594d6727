//===- analysis/Liveness.cpp - Live-register analysis ----------------------===//

#include "analysis/Liveness.h"

#include <algorithm>

using namespace vsc;

RegUniverse::RegUniverse(const Function &F) {
  std::vector<Reg> Tmp;
  for (const auto &BB : F.blocks()) {
    for (const Instr &I : BB->instrs()) {
      Tmp.clear();
      I.collectUses(Tmp);
      I.collectDefs(Tmp);
      for (Reg R : Tmp)
        note(R);
    }
  }
}

Liveness::Liveness(const Cfg &G, const RegUniverse &U) : U(U) {
  const Function &F = G.function();
  size_t N = U.size();

  // Per-block UEVar (upward-exposed uses) and kill sets.
  std::unordered_map<const BasicBlock *, BitVector> Use, Def;
  std::vector<Reg> Tmp;
  for (const auto &BBPtr : F.blocks()) {
    const BasicBlock *BB = BBPtr.get();
    BitVector U_(N), D_(N);
    for (const Instr &I : BB->instrs()) {
      Tmp.clear();
      I.collectUses(Tmp);
      for (Reg R : Tmp) {
        int Idx = U.indexOf(R);
        if (Idx >= 0 && !D_.test(static_cast<size_t>(Idx)))
          U_.set(static_cast<size_t>(Idx));
      }
      Tmp.clear();
      I.collectDefs(Tmp);
      for (Reg R : Tmp) {
        int Idx = U.indexOf(R);
        if (Idx >= 0)
          D_.set(static_cast<size_t>(Idx));
      }
    }
    Use[BB] = std::move(U_);
    Def[BB] = std::move(D_);
    In[BB] = BitVector(N);
    Out[BB] = BitVector(N);
  }

  // Iterate to a fixed point, visiting blocks in reverse RPO (fast for
  // backward problems).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    const auto &Rpo = G.rpo();
    for (auto It = Rpo.rbegin(), E = Rpo.rend(); It != E; ++It) {
      const BasicBlock *BB = *It;
      BitVector NewOut(N);
      for (const CfgEdge &Edge : G.succs(BB))
        NewOut |= In.at(Edge.To);
      BitVector NewIn = NewOut;
      NewIn.resetBitsIn(Def.at(BB));
      NewIn |= Use.at(BB);
      if (NewOut != Out.at(BB) || NewIn != In.at(BB)) {
        Out[BB] = std::move(NewOut);
        In[BB] = std::move(NewIn);
        Changed = true;
      }
    }
  }
}

void Liveness::stepBack(const Instr &Ins, BitVector &Live,
                        std::vector<Reg> &Tmp) const {
  Tmp.clear();
  Ins.collectDefs(Tmp);
  for (Reg R : Tmp)
    if (int Idx = U.indexOf(R); Idx >= 0)
      Live.reset(static_cast<size_t>(Idx));
  Tmp.clear();
  Ins.collectUses(Tmp);
  for (Reg R : Tmp)
    if (int Idx = U.indexOf(R); Idx >= 0)
      Live.set(static_cast<size_t>(Idx));
}

bool Liveness::updateAfterHoist(const Cfg &G, const BasicBlock *Source) {
  BitVector NewIn = Out.at(Source);
  std::vector<Reg> Tmp;
  for (size_t I = Source->size(); I-- > 0;)
    stepBack(Source->instrs()[I], NewIn, Tmp);
  if (NewIn == In.at(Source))
    return false;
  In[Source] = std::move(NewIn);
  for (const BasicBlock *Q : G.preds(Source)) {
    BitVector NewOut(U.size());
    for (const CfgEdge &E : G.succs(Q))
      NewOut |= In.at(E.To);
    Out[Q] = std::move(NewOut);
  }
  return true;
}

bool Liveness::isLiveAfter(const BasicBlock *BB, size_t Idx, Reg R) const {
  std::vector<Reg> Tmp;
  for (size_t I = Idx + 1; I < BB->size(); ++I) {
    const Instr &Ins = BB->instrs()[I];
    Tmp.clear();
    Ins.collectUses(Tmp);
    if (std::find(Tmp.begin(), Tmp.end(), R) != Tmp.end())
      return true;
    Tmp.clear();
    Ins.collectDefs(Tmp);
    if (std::find(Tmp.begin(), Tmp.end(), R) != Tmp.end())
      return false;
  }
  return isLiveOut(BB, R);
}

std::vector<BitVector> Liveness::liveAtEachInstr(const BasicBlock *BB) const {
  size_t N = U.size();
  std::vector<BitVector> Live(BB->size() + 1, BitVector(N));
  Live[BB->size()] = liveOut(BB);
  std::vector<Reg> Tmp;
  for (size_t I = BB->size(); I-- > 0;) {
    Live[I] = Live[I + 1];
    stepBack(BB->instrs()[I], Live[I], Tmp);
  }
  return Live;
}
