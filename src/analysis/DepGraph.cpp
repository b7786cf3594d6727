//===- analysis/DepGraph.cpp - Dependence graphs with distances -----------===//

#include "analysis/DepGraph.h"

#include <tuple>

using namespace vsc;

namespace {

/// \returns true if \p Later must stay after \p Earlier for a register:
/// Earlier defines one Later uses (flow), uses one Later defines (anti), or
/// both define one (output).
bool registersOrdered(const DefUseTable &T, size_t Earlier, size_t Later) {
  auto Meet = [](std::span<const uint32_t> A, std::span<const uint32_t> B) {
    return std::find_first_of(A.begin(), A.end(), B.begin(), B.end()) !=
           A.end();
  };
  return Meet(T.defSlots(Earlier), T.useSlots(Later)) ||
         Meet(T.useSlots(Earlier), T.defSlots(Later)) ||
         Meet(T.defSlots(Earlier), T.defSlots(Later));
}

} // namespace

void DepGraphBuilder::build(const std::vector<Instr> &Ins, size_t N,
                            const MachineModel &MM, const AliasAnalysis *AA,
                            bool LoopCarried, DepGraph &G) {
  T.reset(Ins, N);
  FirstDef.assign(T.numSlots(), -1);
  LastDef.assign(T.numSlots(), -1);
  FirstUse.assign(T.numSlots(), -1);
  UsesBeforeDef.assign(T.numSlots(), -1);
  UseCells.clear();
  MemOps.clear();
  LatestOut.assign(N, ~0u);
  G.NumOps = static_cast<uint32_t>(N);
  G.Edges.clear();
  // Every edge into J is added while the walk is at J, so a duplicate is
  // its source's latest edge.
  auto AddEdge = [&](uint32_t From, uint32_t To, uint32_t Lat) {
    if (From == To)
      return;
    uint32_t &Latest = LatestOut[From];
    if (Latest != ~0u && G.Edges[Latest].To == To) {
      G.Edges[Latest].Lat = std::max(G.Edges[Latest].Lat, Lat);
      return;
    }
    Latest = static_cast<uint32_t>(G.Edges.size());
    G.Edges.push_back({From, To, Lat, 0});
  };

  // Distance 0: one forward walk. A memory or call instruction is tested
  // against each earlier one before its own registers enter the chains,
  // so LastDef holds the defs strictly before it, as scopeBefore needs.
  for (uint32_t J = 0; J != N; ++J) {
    if (Ins[J].isBranch())
      continue;
    if (touchesMemory(Ins[J])) {
      for (uint32_t I : MemOps)
        if (registersOrdered(T, I, J) ||
            memoryOrdered(Ins[I], Ins[J], scopeBefore(T, I, J, LastDef), AA))
          AddEdge(I, J, 0);
      MemOps.push_back(J);
    }
    for (uint32_t U : T.useSlots(J)) {
      if (LastDef[U] >= 0)
        AddEdge(static_cast<uint32_t>(LastDef[U]), J,
                MM.defLatency(Ins[LastDef[U]], T.regOf(U)));
      UseCells.push_back({J, FirstUse[U]});
      FirstUse[U] = static_cast<int32_t>(UseCells.size() - 1);
    }
    for (uint32_t D : T.defSlots(J)) {
      for (int32_t C = FirstUse[D]; C >= 0; C = UseCells[C].second)
        AddEdge(UseCells[C].first, J, 0);
      if (LastDef[D] >= 0) {
        AddEdge(static_cast<uint32_t>(LastDef[D]), J, 0);
      } else {
        FirstDef[D] = static_cast<int32_t>(J);
        UsesBeforeDef[D] = FirstUse[D];
      }
      LastDef[D] = static_cast<int32_t>(J);
      FirstUse[D] = -1;
    }
  }
  if (!LoopCarried)
    return;

  // Distance 1: each register's chain closes across the back edge, and
  // every ordered pair of memory or call instructions is tested again,
  // without the same-base promise.
  size_t Carried = G.Edges.size();
  for (uint32_t D = 0; D != T.numSlots(); ++D) {
    if (LastDef[D] < 0)
      continue;
    uint32_t First = static_cast<uint32_t>(FirstDef[D]);
    uint32_t Last = static_cast<uint32_t>(LastDef[D]);
    uint32_t Lat = MM.defLatency(Ins[Last], T.regOf(D));
    for (int32_t C = UsesBeforeDef[D]; C >= 0; C = UseCells[C].second)
      G.Edges.push_back({Last, UseCells[C].first, Lat, 1});
    for (int32_t C = FirstUse[D]; C >= 0; C = UseCells[C].second)
      G.Edges.push_back({UseCells[C].first, First, 0, 1});
    G.Edges.push_back({Last, First, 0, 1});
  }
  for (uint32_t I : MemOps)
    for (uint32_t J : MemOps)
      if (registersOrdered(T, I, J) ||
          memoryOrdered(Ins[I], Ins[J], AliasScope::CrossExecution, AA))
        G.Edges.push_back({I, J, 0, 1});
  auto Begin = G.Edges.begin() + static_cast<long>(Carried);
  std::sort(Begin, G.Edges.end(), [](const DepEdge &A, const DepEdge &B) {
    return std::tie(A.From, A.To, B.Lat) < std::tie(B.From, B.To, A.Lat);
  });
  G.Edges.erase(std::unique(Begin, G.Edges.end(),
                            [](const DepEdge &A, const DepEdge &B) {
                              return A.From == B.From && A.To == B.To;
                            }),
                G.Edges.end());
}
