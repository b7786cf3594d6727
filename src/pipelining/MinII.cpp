//===- pipelining/MinII.cpp - Initiation-interval lower bounds -------------===//

#include "pipelining/MinII.h"

#include "analysis/MemAlias.h"
#include "analysis/ValueTrack.h"
#include "vliw/Rename.h"

#include <algorithm>
#include <sstream>

using namespace vsc;

namespace {

/// Scope for an intra-iteration alias query between Body[I] and Body[J]
/// (I < J), by the same-base rule every straight-line builder shares.
AliasScope intraScope(const std::vector<Instr> &Body, size_t I, size_t J) {
  std::vector<Reg> Defs;
  return straightLineScope(Body[I], Body[J], [&](Reg B) {
    for (size_t K = I + 1; K < J; ++K) {
      Defs.clear();
      Body[K].collectDefs(Defs);
      if (std::find(Defs.begin(), Defs.end(), B) != Defs.end())
        return true;
    }
    return false;
  });
}

bool intersects(const std::vector<Reg> &A, const std::vector<Reg> &B) {
  for (Reg R : A)
    if (std::find(B.begin(), B.end(), R) != B.end())
      return true;
  return false;
}

/// Appends the dependence edge (if any) from Body[I] of iteration k to
/// Body[J] of iteration k + Dist. Branches contribute no edges: the issue
/// engine does not wait on branch operands, so including them would make
/// the bound exceed what the engine can actually be held to.
void addDepEdge(std::vector<LoopDepEdge> &Edges,
                const std::vector<Instr> &Body, unsigned I, unsigned J,
                unsigned Dist, AliasScope Scope, const MachineModel &MM,
                const AliasAnalysis *AA) {
  const Instr &E = Body[I];
  const Instr &L = Body[J];
  if (E.isBranch() || L.isBranch())
    return;
  std::vector<Reg> EDefs, EUses, LDefs, LUses;
  E.collectDefs(EDefs);
  E.collectUses(EUses);
  L.collectDefs(LDefs);
  L.collectUses(LUses);

  // Flow: the latest ready time among the defs L reads applies.
  unsigned FlowLat = 0;
  bool Flow = false;
  for (Reg D : EDefs)
    if (std::find(LUses.begin(), LUses.end(), D) != LUses.end()) {
      FlowLat = std::max(FlowLat, MM.defLatency(E, D));
      Flow = true;
    }
  if (Flow) {
    Edges.push_back({I, J, FlowLat, Dist});
    return;
  }
  // Anti/output/ordering edges carry latency 0: the engine issues in
  // program order with no cross-operation memory delay, so order (not
  // time) is the only constraint they impose.
  if (intersects(EUses, LDefs) || intersects(EDefs, LDefs) ||
      memoryOrdered(E, L, Scope, AA))
    Edges.push_back({I, J, 0, Dist});
}

/// True if \p G has a cycle of positive total weight under
/// w(e) = Lat - II*Dist (Bellman-Ford: still relaxing after NumOps full
/// passes means a positive cycle exists).
bool hasPositiveCycle(const LoopDepGraph &G, long long II) {
  std::vector<long long> D(G.NumOps, 0);
  for (unsigned Pass = 0; Pass <= G.NumOps; ++Pass) {
    bool Changed = false;
    for (const LoopDepEdge &E : G.Edges) {
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

LoopDepGraph vsc::buildLoopDepGraph(const std::vector<Instr> &Body,
                                    const MachineModel &MM,
                                    const AliasAnalysis *AA) {
  LoopDepGraph G;
  G.NumOps = static_cast<unsigned>(Body.size());
  for (unsigned J = 0; J != G.NumOps; ++J)
    for (unsigned I = 0; I != J; ++I)
      addDepEdge(G.Edges, Body, I, J, /*Dist=*/0, intraScope(Body, I, J),
                 MM, AA);
  // Loop-carried: every operation of iteration k+1 is a potential
  // dependent of every operation of iteration k (distance exactly 1 — the
  // body is one chain). Cross-iteration memory queries never get the
  // same-base displacement promise.
  for (unsigned I = 0; I != G.NumOps; ++I)
    for (unsigned J = 0; J != G.NumOps; ++J)
      addDepEdge(G.Edges, Body, I, J, /*Dist=*/1,
                 AliasScope::CrossExecution, MM, AA);
  return G;
}

unsigned vsc::computeRecMII(const LoopDepGraph &G) {
  if (G.Edges.empty() || G.NumOps == 0)
    return 1;
  // No positive cycle survives II = 1 + sum(Lat): any cycle has
  // sum(Dist) >= 1 (intra edges only run forward), so its weight is at
  // most sum(Lat) - II < 0. Binary search the smallest feasible II.
  long long Lo = 1, Hi = 1;
  for (const LoopDepEdge &E : G.Edges)
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
  for (const Loop *L : LI.innermostLoops()) {
    LoopMinII R;
    R.Header = L->Header->label();
    std::vector<BasicBlock *> Chain = loopChain(G, *L);
    bool ChainOk = !Chain.empty();
    for (BasicBlock *Latch : L->Latches)
      if (Chain.empty() || Latch != Chain.back())
        ChainOk = false;
    if (ChainOk) {
      std::vector<Instr> Body;
      for (BasicBlock *BB : Chain)
        for (const Instr &I : BB->instrs())
          Body.push_back(I);
      R.BodyInstrs = static_cast<unsigned>(Body.size());
      R.ResMII = computeResMII(Body, MM);
      R.RecMII = computeRecMII(buildLoopDepGraph(Body, MM, AA));
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
    OS << R.Header << "(body=" << R.BodyInstrs << ",res=" << R.ResMII
       << ",rec=" << R.RecMII << ",mod=" << (R.Modeled ? 1 : 0) << ");";
  return OS.str();
}
