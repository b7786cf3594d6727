//===- pipelining/ExactPipeliner.cpp - B&B modulo scheduler ----------------===//

#include "pipelining/ExactPipeliner.h"

#include <algorithm>

using namespace vsc;

const char *vsc::exactVerdictName(ExactVerdict V) {
  switch (V) {
  case ExactVerdict::Optimal:
    return "optimal";
  case ExactVerdict::Feasible:
    return "feasible";
  case ExactVerdict::BudgetExceeded:
    return "budget-exceeded";
  case ExactVerdict::Infeasible:
    return "infeasible";
  }
  return "?";
}

const char *vsc::exactPipelineModeName(ExactPipelineMode M) {
  switch (M) {
  case ExactPipelineMode::Off:
    return "off";
  case ExactPipelineMode::Grade:
    return "grade";
  case ExactPipelineMode::Apply:
    return "apply";
  }
  return "?";
}

namespace {

/// One fixed-II search: depth-first placement in priority order with
/// window propagation from already-placed neighbours and the modulo
/// reservation table as the resource filter.
class ModuloSearch {
public:
  ModuloSearch(const std::vector<Instr> &Body, const DepGraph &G,
               const MachineModel &MM, unsigned II, unsigned Span,
               uint64_t Budget, uint64_t &Nodes)
      : Body(Body), MM(MM), II(II), Span(Span), Budget(Budget),
        Nodes(Nodes) {
    unsigned N = G.NumOps;
    Cycle.assign(N, ~0u);
    Placed.assign(N, false);
    Out.assign(N, {});
    In.assign(N, {});
    for (const DepEdge &E : G.Edges) {
      if (E.From == E.To) {
        SelfEdges.push_back(E);
        continue;
      }
      Out[E.From].push_back(E);
      In[E.To].push_back(E);
    }
    // Priority: decreasing latency-weighted height over intra-iteration
    // edges (critical producers first), index as the deterministic tie.
    std::vector<unsigned> Height(N, 0);
    for (unsigned I = N; I-- > 0;)
      for (const DepEdge &E : Out[I])
        if (E.Dist == 0)
          Height[I] = std::max(Height[I], E.Lat + Height[E.To]);
    Order.resize(N);
    for (unsigned I = 0; I != N; ++I)
      Order[I] = I;
    std::stable_sort(Order.begin(), Order.end(),
                     [&Height](unsigned A, unsigned B) {
                       return Height[A] > Height[B];
                     });
    FxuSlots.assign(II, 0);
    BuSlots.assign(II, 0);
  }

  /// \returns true when a full placement was found (Cycle[] is valid).
  /// \p Complete is false when the node budget cut the search.
  bool run(bool &Complete) {
    Complete = true;
    // A self edge (dist >= 1) with Lat > II*Dist can never be satisfied;
    // proving that costs nothing, so the search stays complete.
    for (const DepEdge &E : SelfEdges)
      if (static_cast<long long>(E.Lat) >
          static_cast<long long>(II) * E.Dist)
        return false;
    return place(0, Complete);
  }

  const std::vector<unsigned> &cycles() const { return Cycle; }

private:
  bool place(size_t K, bool &Complete) {
    if (K == Order.size())
      return true;
    unsigned Op = Order[K];
    long long Lb = 0, Ub = static_cast<long long>(Span) - 1;
    for (const DepEdge &E : In[Op])
      if (Placed[E.From])
        Lb = std::max(Lb, static_cast<long long>(Cycle[E.From]) + E.Lat -
                              static_cast<long long>(II) * E.Dist);
    for (const DepEdge &E : Out[Op])
      if (Placed[E.To])
        Ub = std::min(Ub, static_cast<long long>(Cycle[E.To]) - E.Lat +
                              static_cast<long long>(II) * E.Dist);
    if (K == 0)
      Ub = std::min(Ub, static_cast<long long>(II) - 1);
    UnitKind U = MM.unitOf(Body[Op]);
    for (long long C = Lb; C <= Ub; ++C) {
      if (Nodes >= Budget) {
        Complete = false;
        return false;
      }
      ++Nodes;
      unsigned Residue = static_cast<unsigned>(C % II);
      std::vector<unsigned> *Slots = nullptr;
      unsigned Width = 0;
      if (U == UnitKind::Fxu) {
        Slots = &FxuSlots;
        Width = MM.FxuWidth;
      } else if (U == UnitKind::Bu) {
        Slots = &BuSlots;
        Width = MM.BuWidth;
      }
      if (Slots && (*Slots)[Residue] >= Width)
        continue;
      if (Slots)
        ++(*Slots)[Residue];
      Cycle[Op] = static_cast<unsigned>(C);
      Placed[Op] = true;
      if (place(K + 1, Complete))
        return true;
      Placed[Op] = false;
      if (Slots)
        --(*Slots)[Residue];
      if (!Complete)
        return false;
    }
    return false;
  }

  const std::vector<Instr> &Body;
  const MachineModel &MM;
  unsigned II, Span;
  uint64_t Budget;
  uint64_t &Nodes;
  std::vector<unsigned> Cycle;
  std::vector<bool> Placed;
  std::vector<std::vector<DepEdge>> Out, In;
  std::vector<DepEdge> SelfEdges;
  std::vector<unsigned> Order;
  std::vector<unsigned> FxuSlots, BuSlots;
};

} // namespace

ExactSchedule vsc::exactScheduleLoop(const std::vector<Instr> &Body,
                                     const DepGraph &G,
                                     const MachineModel &MM, unsigned MinII,
                                     unsigned MaxII,
                                     const ExactPipelinerOptions &Opts) {
  ExactSchedule Out;
  if (Body.size() != G.NumOps || Body.empty() ||
      Body.size() > Opts.MaxBodyInstrs) {
    Out.Verdict = ExactVerdict::Infeasible;
    return Out;
  }
  bool AnyIncomplete = false;
  unsigned Lo = std::max(1u, MinII);
  unsigned Hi = std::min(MaxII, Opts.MaxII);
  for (unsigned II = Lo; II <= Hi; ++II) {
    ModuloSearch S(Body, G, MM, II, Opts.MaxStages * II, Opts.NodeBudget,
                   Out.NodesExplored);
    bool Complete = true;
    if (S.run(Complete)) {
      Out.II = II;
      Out.Cycle = S.cycles();
      Out.Verdict =
          AnyIncomplete ? ExactVerdict::Feasible : ExactVerdict::Optimal;
      return Out;
    }
    if (!Complete) {
      AnyIncomplete = true;
      break; // budget is shared across IIs; nothing left to spend
    }
  }
  Out.Verdict = AnyIncomplete ? ExactVerdict::BudgetExceeded
                              : ExactVerdict::Infeasible;
  return Out;
}

void PipelineLoopLog::append(std::vector<LoopPipelineRecord> Records) {
  if (Records.empty())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  for (LoopPipelineRecord &R : Records)
    All.push_back(std::move(R));
}

std::vector<LoopPipelineRecord> PipelineLoopLog::sorted() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<LoopPipelineRecord> Out = All;
  std::sort(Out.begin(), Out.end(),
            [](const LoopPipelineRecord &A, const LoopPipelineRecord &B) {
              if (A.Function != B.Function)
                return A.Function < B.Function;
              return A.Header < B.Header;
            });
  return Out;
}
