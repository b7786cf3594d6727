//===- pipelining/MinII.cpp - Initiation-interval lower bounds -------------===//

#include "pipelining/MinII.h"

#include "vliw/Rename.h"

#include <algorithm>
#include <sstream>

using namespace vsc;

namespace {

/// True if \p G has a cycle of positive total weight under
/// w(e) = Lat - II*Dist (Bellman-Ford: still relaxing after NumOps full
/// passes means a positive cycle exists).
bool hasPositiveCycle(const DepGraph &G, long long II) {
  std::vector<long long> D(G.NumOps, 0);
  for (unsigned Pass = 0; Pass <= G.NumOps; ++Pass) {
    bool Changed = false;
    for (const DepEdge &E : G.Edges) {
      long long W =
          static_cast<long long>(E.Lat) - II * static_cast<long long>(E.Dist);
      if (D[E.From] + W > D[E.To]) {
        D[E.To] = D[E.From] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

} // namespace

unsigned vsc::computeRecMII(const DepGraph &G) {
  if (G.Edges.empty() || G.NumOps == 0)
    return 1;
  // No positive cycle survives II = 1 + sum(Lat): any cycle has
  // sum(Dist) >= 1 (intra edges only run forward), so its weight is at
  // most sum(Lat) - II < 0. Binary search the smallest feasible II.
  long long Lo = 1, Hi = 1;
  for (const DepEdge &E : G.Edges)
    Hi += E.Lat;
  while (Lo < Hi) {
    long long Mid = Lo + (Hi - Lo) / 2;
    if (hasPositiveCycle(G, Mid))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return static_cast<unsigned>(Lo);
}

unsigned vsc::computeResMII(const std::vector<Instr> &Body,
                            const MachineModel &MM) {
  unsigned Fxu = 0, Bu = 0;
  for (const Instr &I : Body) {
    if (MM.unitOf(I) == UnitKind::Fxu)
      ++Fxu;
    else if (MM.unitOf(I) == UnitKind::Bu)
      ++Bu;
  }
  unsigned R = 1;
  R = std::max(R, (Fxu + MM.FxuWidth - 1) / MM.FxuWidth);
  R = std::max(R, (Bu + MM.BuWidth - 1) / MM.BuWidth);
  return R;
}

MinIIAnalysis::MinIIAnalysis(const Function &F, const Cfg &G,
                             const LoopInfo &LI, const AliasAnalysis *AA,
                             const MachineModel &M)
    : MM(M), MachineKey(machineFingerprint(M)), Flow(AA != nullptr) {
  (void)F;
  DepGraphBuilder Builder;
  for (const Loop *L : LI.innermostLoops()) {
    LoopMinII R;
    R.Header = L->Header->label();
    std::vector<BasicBlock *> Chain = loopChain(G, *L);
    bool ChainOk = !Chain.empty();
    for (BasicBlock *Latch : L->Latches)
      if (Chain.empty() || Latch != Chain.back())
        ChainOk = false;
    if (ChainOk) {
      for (BasicBlock *BB : Chain)
        for (const Instr &I : BB->instrs())
          R.Body.push_back(I);
      R.ResMII = computeResMII(R.Body, MM);
      Builder.build(R.Body, R.Body.size(), MM, AA, /*LoopCarried=*/true,
                    R.Graph);
      R.RecMII = computeRecMII(R.Graph);
      R.Modeled = true;
    }
    Loops.push_back(std::move(R));
  }
}

const LoopMinII *
MinIIAnalysis::forHeader(const std::string &HeaderLabel) const {
  for (const LoopMinII &R : Loops)
    if (R.Header == HeaderLabel)
      return &R;
  return nullptr;
}

std::string MinIIAnalysis::summarize() const {
  std::ostringstream OS;
  for (const LoopMinII &R : Loops)
    OS << R.Header << "(body=" << R.Body.size() << ",res=" << R.ResMII
       << ",rec=" << R.RecMII << ",mod=" << (R.Modeled ? 1 : 0) << ");";
  return OS.str();
}
