//===- cfg/Cfg.cpp - Control-flow graph view -------------------------------===//

#include "cfg/Cfg.h"

#include <cassert>

using namespace vsc;

BasicBlock *Cfg::fallthroughOf(const BasicBlock *BB) const {
  if (!BB->canFallThrough())
    return nullptr;
  size_t Idx = F.indexOf(BB);
  if (Idx + 1 >= F.blocks().size())
    return nullptr;
  return F.blocks()[Idx + 1].get();
}

Cfg::Cfg(Function &F) : F(F) {
  // Successors.
  for (size_t BI = 0, BE = F.blocks().size(); BI != BE; ++BI) {
    BasicBlock *BB = F.blocks()[BI].get();
    std::vector<CfgEdge> &Succs = SuccMap[BB];
    PredMap[BB]; // ensure entry exists

    // Taken edges from the terminator suffix, in instruction order.
    size_t FirstTerm = BB->firstTerminatorIdx();
    for (size_t II = FirstTerm; II != BB->size(); ++II) {
      const Instr &I = BB->instrs()[II];
      if (I.isBranch()) {
        BasicBlock *To = F.findBlock(I.Target);
        assert(To && "unresolved branch target (run the verifier)");
        Succs.push_back(CfgEdge{BB, To, true, static_cast<int>(II - FirstTerm)});
      }
    }
    // Fallthrough edge.
    if (BB->canFallThrough() && BI + 1 < BE)
      Succs.push_back(CfgEdge{BB, F.blocks()[BI + 1].get(), false, -1});
  }

  // Predecessors and the global edge list, in deterministic layout order.
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    for (const CfgEdge &E : SuccMap[BB]) {
      Edges.push_back(E);
      PredMap[E.To].push_back(BB);
    }
  }

  // Reverse postorder via iterative DFS from the entry.
  if (F.blocks().empty())
    return;
  std::unordered_map<const BasicBlock *, unsigned> State; // 0 new, 1 open
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  std::vector<BasicBlock *> PostOrder;
  Stack.push_back({F.entry(), 0});
  State[F.entry()] = 1;
  while (!Stack.empty()) {
    auto &[BB, NextSucc] = Stack.back();
    const std::vector<CfgEdge> &Succs = SuccMap[BB];
    if (NextSucc < Succs.size()) {
      BasicBlock *To = Succs[NextSucc++].To;
      if (!State.count(To)) {
        State[To] = 1;
        Stack.push_back({To, 0});
      }
      continue;
    }
    PostOrder.push_back(BB);
    Stack.pop_back();
  }
  Rpo.assign(PostOrder.rbegin(), PostOrder.rend());
  for (size_t I = 0; I != Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = static_cast<int>(I);
}
