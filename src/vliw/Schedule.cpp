//===- vliw/Schedule.cpp - Global scheduling + pipelining -------------------===//

#include "vliw/Schedule.h"

#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"
#include "machine/IssueCore.h"
#include "profile/ProfileData.h"
#include "vliw/Rename.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace vsc;

namespace {

//===----------------------------------------------------------------------===//
// Issue-cost engine: the machine's issue rules (machine/IssueCore.h) over
// a register-to-ready-time map
//===----------------------------------------------------------------------===//

class IssueEngine {
public:
  explicit IssueEngine(const MachineModel &MM) : MM(MM), Core(MM) {}

  /// Issue cycle \p I would get right now, without committing.
  uint64_t tryIssue(const Instr &I) const { return Core.peek(I, *this); }

  /// Issues \p I (with branch direction \p Taken) and returns its cycle.
  uint64_t issue(const Instr &I, bool Taken) {
    uint64_t C = Core.issue(I, Taken, *this);
    Defs.clear();
    I.collectDefs(Defs);
    for (Reg D : Defs)
      Ready[D] = C + MM.defLatency(I, D);
    return C;
  }

  uint64_t lastIssue() const { return Core.lastIssue(); }

  // The ready-time lookups IssueCore::issue reads.
  uint64_t readyOf(Reg R) const {
    auto It = Ready.find(R);
    return It == Ready.end() ? 0 : It->second;
  }

  uint64_t operandFloor(const Instr &I) const {
    Uses.clear();
    I.collectUses(Uses);
    uint64_t T = 0;
    for (Reg U : Uses)
      T = std::max(T, readyOf(U));
    return T;
  }

private:
  const MachineModel &MM;
  IssueCore Core;
  std::unordered_map<Reg, uint64_t, RegHash> Ready;
  mutable std::vector<Reg> Uses;
  std::vector<Reg> Defs;
};

//===----------------------------------------------------------------------===//
// Local list scheduling
//===----------------------------------------------------------------------===//

/// A block prefix's dependence DAG (analysis/DepGraph.h). Its edges are a
/// subset of the pairwise relation "Later must not move above Earlier"
/// whose transitive closure is that whole relation (DESIGN.md §12), so it
/// yields the same ready sets and heights. Successors are stored
/// compressed, with each node's count of unplaced predecessors.
struct Dag {
  /// Successors of I: Succs[SuccBegin[I] .. SuccBegin[I + 1]).
  std::vector<uint32_t> SuccBegin;
  std::vector<uint32_t> Succs;
  std::vector<uint32_t> Pending; ///< per node: predecessors not yet placed
  std::vector<unsigned> Height;
};

/// The buffers one list schedule needs, reused from block to block.
struct Scratch {
  DepGraphBuilder Builder;
  DepGraph G;
  Dag D;
  std::vector<uint32_t> Fill; ///< per node: its next free successor cell
  std::vector<uint32_t> Ready;
  std::vector<unsigned> Order;
};

/// Builds \p S.D for Ins[0..N): the distance-0 graph, with successors
/// compressed and node-latency heights.
void buildDag(Scratch &S, const std::vector<Instr> &Ins, size_t N,
              const MachineModel &MM, const AliasAnalysis *AA) {
  S.Builder.build(Ins, N, MM, AA, /*LoopCarried=*/false, S.G);
  Dag &D = S.D;
  D.SuccBegin.assign(N + 1, 0);
  D.Pending.assign(N, 0);
  for (const DepEdge &E : S.G.Edges) {
    ++D.SuccBegin[E.From + 1];
    ++D.Pending[E.To];
  }
  for (size_t I = 0; I != N; ++I)
    D.SuccBegin[I + 1] += D.SuccBegin[I];
  D.Succs.resize(S.G.Edges.size());
  S.Fill.assign(D.SuccBegin.begin(), D.SuccBegin.end() - 1);
  for (const DepEdge &E : S.G.Edges)
    D.Succs[S.Fill[E.From]++] = E.To;

  // Heights: latency-weighted longest path to the end of the block, plus a
  // bonus for compares feeding any terminator of the block (they want to
  // run early so the dependent branch resolves in time).
  D.Height.assign(N, 0);
  for (size_t J = N; J-- > 0;) {
    unsigned Lat = MM.latencyOf(Ins[J]), H = Lat;
    if (Ins[J].Op == Opcode::C || Ins[J].Op == Opcode::CI)
      for (size_t K = N; K != Ins.size(); ++K)
        if (Ins[K].isCondBranch() && Ins[K].Src1 == Ins[J].Dst)
          H += MM.TakenBranchRedirect;
    for (uint32_t E = D.SuccBegin[J]; E != D.SuccBegin[J + 1]; ++E)
      H = std::max(H, D.Height[D.Succs[E]] + Lat);
    D.Height[J] = H;
  }
}

/// Greedy cycle-directed list schedule of Ins[0..N); \returns the new
/// order of indices (a view of \p S.Order).
const std::vector<unsigned> &listSchedule(Scratch &S,
                                          const std::vector<Instr> &Ins,
                                          size_t N, const MachineModel &MM,
                                          const AliasAnalysis *AA) {
  buildDag(S, Ins, N, MM, AA);
  Dag &D = S.D;
  S.Ready.clear();
  for (uint32_t J = 0; J != N; ++J)
    if (D.Pending[J] == 0)
      S.Ready.push_back(J);
  S.Order.clear();
  IssueEngine Engine(MM);
  for (size_t Step = 0; Step != N; ++Step) {
    // (cycle, -height, index) totally orders the ready nodes, so the pick
    // does not depend on the ready list's order.
    assert(!S.Ready.empty() && "dependence cycle in a basic block?");
    size_t BestAt = 0;
    uint32_t Best = 0;
    uint64_t BestCycle = ~0ULL;
    for (size_t K = 0; K != S.Ready.size(); ++K) {
      uint32_t J = S.Ready[K];
      uint64_t C = Engine.tryIssue(Ins[J]);
      if (K == 0 || C < BestCycle ||
          (C == BestCycle && D.Height[J] > D.Height[Best]) ||
          (C == BestCycle && D.Height[J] == D.Height[Best] && J < Best)) {
        BestAt = K;
        Best = J;
        BestCycle = C;
      }
    }
    S.Ready[BestAt] = S.Ready.back();
    S.Ready.pop_back();
    Engine.issue(Ins[Best], /*Taken=*/false);
    S.Order.push_back(Best);
    for (uint32_t E = D.SuccBegin[Best]; E != D.SuccBegin[Best + 1]; ++E)
      if (--D.Pending[D.Succs[E]] == 0)
        S.Ready.push_back(D.Succs[E]);
  }
  return S.Order;
}

} // namespace

bool vsc::scheduleBlock(BasicBlock &BB, const MachineModel &MM,
                        const AliasAnalysis *AA) {
  size_t N = BB.firstTerminatorIdx();
  if (N < 2)
    return false;
  // One per thread: the parallel driver schedules functions concurrently.
  static thread_local Scratch S;
  const std::vector<unsigned> &Order = listSchedule(S, BB.instrs(), N, MM, AA);
  bool Identity = true;
  for (size_t I = 0; I != N; ++I)
    if (Order[I] != I)
      Identity = false;
  if (Identity)
    return false;
  std::vector<Instr> NewIns;
  NewIns.reserve(BB.size());
  for (unsigned Idx : Order)
    NewIns.push_back(std::move(BB.instrs()[Idx]));
  for (size_t I = N; I != BB.size(); ++I)
    NewIns.push_back(std::move(BB.instrs()[I]));
  BB.instrs() = std::move(NewIns);
  return true;
}

unsigned vsc::estimateBlockCycles(const BasicBlock &BB,
                                  const MachineModel &MM) {
  IssueEngine Engine(MM);
  for (const Instr &I : BB.instrs())
    Engine.issue(I, /*Taken=*/I.Op == Opcode::B || I.Op == Opcode::BCT);
  return static_cast<unsigned>(Engine.lastIssue());
}

unsigned
vsc::estimateSteadyStateCycles(const std::vector<BasicBlock *> &Chain,
                               const MachineModel &MM) {
  if (Chain.empty())
    return 0;
  const std::string &HeaderLabel = Chain.front()->label();
  // Linear trace of one iteration: internal conditional exits untaken,
  // internal unconditional chaining taken, back edge taken.
  std::vector<std::pair<const Instr *, bool>> Trace;
  for (size_t BI = 0; BI != Chain.size(); ++BI) {
    for (const Instr &I : Chain[BI]->instrs()) {
      bool Taken = false;
      if (I.Op == Opcode::B)
        Taken = true;
      else if (I.isCondBranch())
        Taken = I.Target == HeaderLabel || I.Target == Chain[BI]->label() ||
                (BI + 1 < Chain.size() &&
                 I.Target == Chain[BI + 1]->label());
      Trace.push_back({&I, Taken});
    }
  }
  IssueEngine Engine(MM);
  uint64_t EndOfCopy[3] = {0, 0, 0};
  for (int Copy = 0; Copy != 3; ++Copy) {
    for (auto &[I, Taken] : Trace)
      Engine.issue(*I, Taken);
    EndOfCopy[Copy] = Engine.lastIssue();
  }
  return static_cast<unsigned>(EndOfCopy[2] - EndOfCopy[1]);
}

std::vector<VliwWord> vsc::packIntoVliwWords(const BasicBlock &BB,
                                             const MachineModel &MM) {
  IssueEngine Engine(MM);
  std::vector<VliwWord> Words;
  for (size_t I = 0; I != BB.size(); ++I) {
    const Instr &Ins = BB.instrs()[I];
    uint64_t C = Engine.issue(
        Ins, /*Taken=*/Ins.Op == Opcode::B || Ins.Op == Opcode::BCT);
    if (Words.empty() || Words.back().Cycle != C)
      Words.push_back(VliwWord{C, {}});
    Words.back().Ops.push_back(I);
  }
  return Words;
}

std::string vsc::formatAsVliw(const BasicBlock &BB, const MachineModel &MM) {
  std::string Out = BB.label() + ":\n";
  for (const VliwWord &W : packIntoVliwWords(BB, MM)) {
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "  [%3llu] ",
                  static_cast<unsigned long long>(W.Cycle));
    Out += Buf;
    for (size_t K = 0; K != W.Ops.size(); ++K) {
      if (K)
        Out += "  ||  ";
      Out += BB.instrs()[W.Ops[K]].str();
    }
    Out += "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Global scheduling: cross-block upward motion
//===----------------------------------------------------------------------===//

namespace {

/// Instructions hoisted into any single block at most.
constexpr unsigned MaxHoistPerBlock = 8;
/// Join-point hoisting duplicates the operation into every predecessor
/// (the paper's bookkeeping copies); this caps the fan-in considered.
constexpr unsigned MaxJoinPreds = 3;

/// A successor a probe of P may hoist from, with its predecessors: the
/// blocks that receive the moved instruction or a bookkeeping copy.
struct HoistSource {
  BasicBlock *S;
  std::vector<BasicBlock *> Preds;
};

/// The sources a probe of \p P examines, in probe order. They depend on
/// the graph, the loops, the profile and P's terminator suffix only, none
/// of which a hoist changes, so the sweep computes them once per block.
std::vector<HoistSource> hoistSources(const Function &F, BasicBlock *P,
                                      const Cfg &G, const LoopInfo &LI,
                                      const GlobalScheduleOptions &Opts) {
  std::vector<HoistSource> Sources;
  size_t PTerm = P->firstTerminatorIdx();
  bool PEndsConditional =
      PTerm < P->size() && P->instrs()[PTerm].isCondBranch();

  // With a profile, try a clearly-hot successor first. Bucketised so that
  // near-balanced probabilities (profile noise) do not perturb the
  // deterministic hoist order.
  std::vector<CfgEdge> OrderedSuccs = G.succs(P);
  if (Opts.Profile) {
    auto Bucket = [&](const CfgEdge &E) {
      double P2 = Opts.Profile->edgeProbability(F, E);
      return P2 > 0.75 ? 2 : P2 < 0.25 ? 0 : 1;
    };
    std::stable_sort(OrderedSuccs.begin(), OrderedSuccs.end(),
                     [&](const CfgEdge &A, const CfgEdge &B) {
                       return Bucket(A) > Bucket(B);
                     });
  }

  for (const CfgEdge &E : OrderedSuccs) {
    BasicBlock *S = E.To;
    // Only clearly-unlikely paths are treated as speculative-and-unwanted
    // ("if an operation is present only on a less frequently executed path
    // it is considered speculative"); balanced branches keep full
    // speculation.
    if (Opts.Profile && PEndsConditional &&
        Opts.Profile->edgeProbability(F, E) < 0.2)
      continue;
    // A second edge to the same successor would probe it again, unchanged.
    if (S == P || std::any_of(Sources.begin(), Sources.end(),
                              [S](const HoistSource &H) { return H.S == S; }))
      continue;
    // Joins are legal hoist sources when the paper's bookkeeping copies go
    // into every other predecessor ("making bookkeeping copies for edges
    // that join the paths of code motion"): collect the predecessor set
    // and prove legality for each one.
    std::vector<BasicBlock *> AllPreds;
    for (BasicBlock *Q : G.preds(S))
      if (std::find(AllPreds.begin(), AllPreds.end(), Q) == AllPreds.end())
        AllPreds.push_back(Q);
    if (AllPreds.empty() || AllPreds.size() > MaxJoinPreds)
      continue;
    // Hoisting into a latch would rotate code across the back edge — that
    // is pipeline scheduling's job, with its own legality conditions.
    if (LI.loopFor(S) && LI.loopFor(S)->Header == S)
      continue;
    bool PredsOk = true;
    for (BasicBlock *Q : AllPreds)
      if (!G.isReachable(Q) || LI.loopFor(Q) != LI.loopFor(S))
        PredsOk = false;
    if (!PredsOk || LI.loopFor(S) != LI.loopFor(P))
      continue;
    Sources.push_back({S, std::move(AllPreds)});
  }
  return Sources;
}

/// A legal, profitable hoist: instruction \p J of \p Src->S.
struct Hoist {
  const HoistSource *Src = nullptr;
  size_t J = 0;
};

/// Probes \p P: the first instruction of one of its \p Sources that may
/// move into every predecessor of its block and fits an idle slot of P.
/// Reads P, the sources' blocks, the terminator suffixes of the sources'
/// predecessors, the live-in sets of those predecessors' other successors
/// and the alias facts \p GetAA returns (fetched only if a query follows);
/// changes nothing.
template <typename AliasFn>
Hoist findHoist(const Module &M, const MachineModel &MM, BasicBlock *P,
                const std::vector<HoistSource> &Sources, const Cfg &G,
                const Liveness &Live, AliasFn &&GetAA) {
  std::vector<Reg> Defs, Uses, Tmp;
  DefUseTable SDefUse;
  std::vector<bool> DefBefore, UseBefore;
  std::vector<int32_t> LastDef;
  std::vector<uint32_t> MemBefore;
  BasicBlock Probe("probe"), Trial("probe");
  unsigned CostBefore = 0;
  bool Probed = false;
  size_t PTerm = P->firstTerminatorIdx();
  for (const HoistSource &Src : Sources) {
    BasicBlock *S = Src.S;
    // Per-predecessor legality of placing \p Cand at Q's end.
    auto LegalInPred = [&](BasicBlock *Q, const Instr &Cand) {
      size_t QTerm = Q->firstTerminatorIdx();
      bool QConditional =
          QTerm < Q->size() && Q->instrs()[QTerm].isCondBranch();
      if (QConditional) {
        bool Safe = Cand.isSafeToSpeculate();
        if (!Safe && Cand.isLoad()) {
          const AliasAnalysis *AA = GetAA();
          Safe = AA ? AA->safeSpeculativeLoad(Cand, &M)
                    : isSafeSpeculativeLoad(Cand, &M);
        }
        if (!Safe)
          return false;
        // Destinations must be dead on Q's other successors.
        Defs.clear();
        Cand.collectDefs(Defs);
        for (const CfgEdge &Other : G.succs(Q)) {
          if (Other.To == S)
            continue;
          for (Reg D : Defs)
            if (Live.isLiveIn(Other.To, D))
              return false;
        }
      } else if (Cand.hasSideEffects() || Cand.isCall()) {
        // Even non-speculative motion keeps calls/stores put (they pin
        // the trace for the other passes).
        return false;
      }
      // Q's terminator suffix must not interfere.
      Defs.clear();
      Cand.collectDefs(Defs);
      Uses.clear();
      Cand.collectUses(Uses);
      for (size_t K = QTerm; K != Q->size(); ++K) {
        const Instr &T = Q->instrs()[K];
        Tmp.clear();
        T.collectUses(Tmp);
        for (Reg R : Tmp)
          if (std::find(Defs.begin(), Defs.end(), R) != Defs.end())
            return false;
        Tmp.clear();
        T.collectDefs(Tmp);
        for (Reg R : Tmp) {
          if (std::find(Uses.begin(), Uses.end(), R) != Uses.end())
            return false;
          if (std::find(Defs.begin(), Defs.end(), R) != Defs.end())
            return false;
        }
      }
      return true;
    };

    // Movable to the top of S: no register shared with an earlier
    // instruction (running def/use sets), and no memory or call ordering
    // with an earlier memory or call instruction.
    size_t STerm = S->firstTerminatorIdx();
    SDefUse.reset(S->instrs(), STerm);
    DefBefore.assign(SDefUse.numSlots(), false);
    UseBefore.assign(SDefUse.numSlots(), false);
    LastDef.assign(SDefUse.numSlots(), -1);
    MemBefore.clear();
    for (size_t J = 0; J != STerm; ++J) {
      const Instr &Cand = S->instrs()[J];
      bool Blocked = false;
      for (uint32_t U : SDefUse.useSlots(J))
        Blocked |= DefBefore[U];
      for (uint32_t D : SDefUse.defSlots(J))
        Blocked |= DefBefore[D] || UseBefore[D];
      if (!Blocked && touchesMemory(Cand))
        for (uint32_t K : MemBefore)
          if (memoryOrdered(S->instrs()[K], Cand,
                            scopeBefore(SDefUse, K, J, LastDef), GetAA())) {
            Blocked = true;
            break;
          }
      for (uint32_t U : SDefUse.useSlots(J))
        UseBefore[U] = true;
      for (uint32_t D : SDefUse.defSlots(J)) {
        DefBefore[D] = true;
        LastDef[D] = static_cast<int32_t>(J);
      }
      if (touchesMemory(Cand))
        MemBefore.push_back(static_cast<uint32_t>(J));
      if (Blocked)
        continue;
      bool AllLegal = true;
      for (BasicBlock *Q : Src.Preds)
        if (!LegalInPred(Q, Cand))
          AllLegal = false;
      if (!AllLegal)
        continue;

      // Profitability: the candidate must fit in an idle slot of the
      // triggering predecessor P — the probe re-schedules the block so the
      // candidate may land in a stall hole rather than at the end. P's own
      // schedule and cost do not depend on the candidate.
      if (!Probed) {
        Probe.instrs() = P->instrs();
        scheduleBlock(Probe, MM, GetAA());
        CostBefore = estimateBlockCycles(Probe, MM);
        Probed = true;
      }
      Trial.instrs() = Probe.instrs();
      Trial.instrs().insert(Trial.instrs().begin() + static_cast<long>(PTerm),
                            Cand);
      scheduleBlock(Trial, MM, GetAA());
      if (estimateBlockCycles(Trial, MM) > CostBefore)
        continue;
      return Hoist{&Src, J};
    }
  }
  return Hoist{};
}

/// Performs \p H: the instruction goes into every predecessor of its block
/// (one real motion plus bookkeeping copies), then leaves the block. Each
/// receiving block is list-scheduled again with \p AA, the facts of the
/// code before the move.
void applyHoist(Function &F, const MachineModel &MM, const Hoist &H,
                const AliasAnalysis *AA) {
  BasicBlock *S = H.Src->S;
  Instr Moved = S->instrs()[H.J];
  S->instrs().erase(S->instrs().begin() + static_cast<long>(H.J));
  for (BasicBlock *Q : H.Src->Preds) {
    Instr Copy = Moved;
    if (Q != H.Src->Preds.front())
      F.assignId(Copy);
    Q->instrs().insert(Q->instrs().begin() +
                           static_cast<long>(Q->firstTerminatorIdx()),
                       std::move(Copy));
    scheduleBlock(*Q, MM, AA);
  }
}

/// What a failed probe of a block read from the alias facts: the
/// label-free locations of the memory accesses in the block and its
/// sources. Empty (and Used false) when the probe asked nothing.
struct AliasRecord {
  bool Used = false;
  std::vector<AliasAnalysis::LabelFreeLoc> Locs;
  std::vector<std::string> Syms;

  bool operator==(const AliasRecord &O) const = default;
};

void recordAlias(const AliasAnalysis &AA, const BasicBlock *P,
                 const std::vector<HoistSource> &Sources,
                 std::vector<uint32_t> &Ids, AliasRecord &R) {
  Ids.clear();
  auto Collect = [&Ids](const BasicBlock *BB) {
    for (const Instr &I : BB->instrs())
      if (I.isMemAccess())
        Ids.push_back(I.Id);
  };
  Collect(P);
  for (const HoistSource &Src : Sources)
    Collect(Src.S);
  R.Used = true;
  R.Locs.clear();
  R.Syms.clear();
  AA.labelFreeLocations(Ids, R.Locs, R.Syms);
}

} // namespace

bool vsc::globalSchedule(Function &F, const MachineModel &MM,
                         const Module &M, FunctionAnalyses &FA,
                         const GlobalScheduleOptions &Opts) {
  // Local scheduling reorders only the non-terminator prefix of each
  // block, which every cached analysis survives (alias facts are keyed by
  // instruction id, and a dependence-safe reorder never changes the value
  // a base register holds at any given instruction).
  bool Any = false;
  {
    const AliasAnalysis *AA =
        Opts.FlowAlias ? &FA.aliasAnalysis() : nullptr;
    for (auto &BB : F.blocks())
      Any |= scheduleBlock(*BB, MM, AA);
  }

  // One sweep (DESIGN.md §12). A hoist keeps the graph, the loops and
  // (updated in place) liveness, so they are fetched once, and with them
  // each block's hoist sources and the inverse: which probes read a
  // block's instructions, or its live-in set.
  const Cfg &G = FA.cfg();
  const LoopInfo &LI = FA.loops();
  const Liveness &Live = FA.liveness();
  struct BlockState {
    std::vector<HoistSource> Sources;
    std::vector<BasicBlock *> ReadBy, LiveInReadBy;
    unsigned Hoisted = 0;
    /// The last probe failed, and nothing it read has changed since,
    /// alias facts checked up to hoist number CheckedAt.
    bool Fails = false;
    unsigned CheckedAt = 0;
    AliasRecord Alias;
  };
  std::unordered_map<const BasicBlock *, BlockState> State;
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *P = BBPtr.get();
    if (!G.isReachable(P))
      continue;
    BlockState &PS = State[P];
    PS.Sources = hoistSources(F, P, G, LI, Opts);
    PS.ReadBy.push_back(P);
    for (const HoistSource &Src : PS.Sources) {
      State[Src.S].ReadBy.push_back(P);
      for (BasicBlock *Q : Src.Preds) {
        size_t QTerm = Q->firstTerminatorIdx();
        if (QTerm == Q->size() || !Q->instrs()[QTerm].isCondBranch())
          continue;
        for (const CfgEdge &Other : G.succs(Q))
          if (Other.To != Src.S)
            State[Other.To].LiveInReadBy.push_back(P);
      }
    }
  }

  // Alias facts are rebuilt after a hoist only when a query follows.
  const AliasAnalysis *AA = nullptr;
  bool AAFetched = false;
  auto GetAA = [&]() {
    AAFetched = true;
    if (Opts.FlowAlias && !AA)
      AA = &FA.aliasAnalysis();
    return AA;
  };
  AliasRecord Now;
  std::vector<uint32_t> Ids;

  for (unsigned Hoists = 0; Hoists < 256;) {
    bool Moved = false;
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *P = BBPtr.get();
      if (!G.isReachable(P))
        continue;
      BlockState &PS = State[P];
      if (PS.Hoisted >= MaxHoistPerBlock)
        continue;
      // A known failure stands while the alias facts its probe read give
      // the same answers.
      if (PS.Fails && PS.CheckedAt != Hoists && PS.Alias.Used) {
        recordAlias(*GetAA(), P, PS.Sources, Ids, Now);
        PS.Fails = Now == PS.Alias;
      }
      if (PS.Fails) {
        PS.CheckedAt = Hoists;
        if (FA.checking() &&
            findHoist(M, MM, P, PS.Sources, G, Live, GetAA).Src)
          FA.reportCheckFailure("global scheduling skipped a probe of " +
                                P->label() + " in @" + F.name() +
                                " that hoists");
        continue;
      }
      AAFetched = false;
      Hoist H = findHoist(M, MM, P, PS.Sources, G, Live, GetAA);
      if (!H.Src) {
        PS.Fails = true;
        PS.CheckedAt = Hoists;
        PS.Alias = AliasRecord();
        if (AAFetched && AA)
          recordAlias(*AA, P, PS.Sources, Ids, PS.Alias);
        continue;
      }
      applyHoist(F, MM, H, GetAA());
      ++PS.Hoisted;
      ++Hoists;
      Moved = Any = true;
      // Every block the move edited, and every probe that reads one of
      // them or (when it moved) the source's live-in set, must run again.
      BasicBlock *S = H.Src->S;
      bool LiveInMoved = FA.noteHoist(S);
      AA = nullptr;
      auto Reprobe = [&](const std::vector<BasicBlock *> &Readers) {
        for (BasicBlock *R : Readers)
          State[R].Fails = false;
      };
      Reprobe(State[S].ReadBy);
      for (BasicBlock *Q : H.Src->Preds)
        Reprobe(State[Q].ReadBy);
      if (LiveInMoved)
        Reprobe(State[S].LiveInReadBy);
      if (FA.checking()) {
        std::string Err = FA.verifyCache();
        if (!Err.empty())
          FA.reportCheckFailure("global scheduling: " + Err);
      }
      break;
    }
    if (!Moved)
      break;
  }
  return Any;
}

//===----------------------------------------------------------------------===//
// Enhanced pipeline scheduling (rotation across the back edge)
//===----------------------------------------------------------------------===//

namespace {

/// Rotation attempts per loop for the greedy heuristic.
constexpr unsigned MaxRotations = 8;

struct ChainSnapshot {
  std::vector<std::vector<Instr>> Blocks;
  std::vector<Instr> Preheader;
};

ChainSnapshot snapshotChain(const std::vector<BasicBlock *> &Chain,
                            const BasicBlock *PH) {
  ChainSnapshot S;
  for (BasicBlock *BB : Chain)
    S.Blocks.push_back(BB->instrs());
  S.Preheader = PH->instrs();
  return S;
}

void restoreChain(const ChainSnapshot &S,
                  const std::vector<BasicBlock *> &Chain, BasicBlock *PH) {
  for (size_t I = 0; I != Chain.size(); ++I)
    Chain[I]->instrs() = S.Blocks[I];
  PH->instrs() = S.Preheader;
}

/// Emits the exact schedule: each block's non-terminator prefix is
/// reordered by (exact cycle, original index). Every intra-iteration
/// dependence edge i -> j forces cycle(j) >= cycle(i), and the stable tie
/// break keeps the original order at equal cycles, so any dependent pair
/// keeps its relative order — the permutation is dependence-safe by
/// construction of the schedule.
void reorderByExactCycles(const std::vector<BasicBlock *> &Chain,
                          const std::vector<unsigned> &Cycle) {
  size_t Base = 0;
  for (BasicBlock *BB : Chain) {
    size_t N = BB->firstTerminatorIdx();
    std::vector<unsigned> Idx(N);
    for (size_t I = 0; I != N; ++I)
      Idx[I] = static_cast<unsigned>(I);
    std::stable_sort(Idx.begin(), Idx.end(), [&](unsigned A, unsigned B) {
      return Cycle[Base + A] < Cycle[Base + B];
    });
    std::vector<Instr> NewIns;
    NewIns.reserve(BB->size());
    for (unsigned I : Idx)
      NewIns.push_back(std::move(BB->instrs()[I]));
    for (size_t I = N; I != BB->size(); ++I)
      NewIns.push_back(std::move(BB->instrs()[I]));
    BB->instrs() = std::move(NewIns);
    Base += BB->size();
  }
}

/// One rotation attempt: legality-checks the header-top operation against
/// the CURRENT state (liveness and alias facts come fresh from \p FA), and
/// on success moves it to the latch bottom with a preheader copy,
/// reschedules the chain and reports the new steady-state estimate in
/// \p Now. \returns false (chain untouched) when no legal rotation exists.
/// The caller decides keep vs. restore through \p Snap and owns the cache
/// invalidation of a kept rotation. AA is fetched per attempt, so a moved
/// instruction is always queried against facts for its current position.
bool tryRotate(Function &F, const MachineModel &MM, const Module &M,
               const std::vector<BasicBlock *> &Chain, BasicBlock *PH,
               const std::vector<BasicBlock *> &TailExitTargets,
               bool FlowAlias, FunctionAnalyses &FA, ChainSnapshot &Snap,
               unsigned &Now) {
  BasicBlock *Header = Chain.front();
  if (Header->firstTerminatorIdx() == 0)
    return false;
  const Instr &Cand = Header->instrs().front();
  const AliasAnalysis *AA = FlowAlias ? &FA.aliasAnalysis() : nullptr;
  bool Safe = Cand.isSafeToSpeculate() ||
              (Cand.isLoad() && (AA ? AA->safeSpeculativeLoad(Cand, &M)
                                    : isSafeSpeculativeLoad(Cand, &M)));
  if (!Safe)
    return false;
  // Single definition of each dest within the body.
  std::vector<Reg> Defs, Tmp;
  Cand.collectDefs(Defs);
  for (Reg D : Defs) {
    unsigned N = 0;
    for (BasicBlock *BB : Chain)
      for (const Instr &I : BB->instrs()) {
        Tmp.clear();
        I.collectDefs(Tmp);
        if (std::find(Tmp.begin(), Tmp.end(), D) != Tmp.end())
          ++N;
      }
    if (N != 1)
      return false;
  }
  // Destinations dead at the tail exits (the rotated op runs once more
  // than the original on the final traversal).
  {
    const Liveness &Live = FA.liveness();
    for (BasicBlock *T : TailExitTargets)
      for (Reg D : Defs)
        if (Live.isLiveIn(T, D))
          return false;
  }

  Snap = snapshotChain(Chain, PH);

  // Rotate: header top -> latch bottom + preheader copy.
  Instr Rotated = Cand;
  Header->instrs().erase(Header->instrs().begin());
  BasicBlock *Latch = Chain.back();
  Latch->instrs().insert(Latch->instrs().begin() +
                             static_cast<long>(Latch->firstTerminatorIdx()),
                         Rotated);
  Instr PreCopy = Rotated;
  F.assignId(PreCopy);
  PH->instrs().insert(PH->instrs().begin() +
                          static_cast<long>(PH->firstTerminatorIdx()),
                      std::move(PreCopy));

  for (BasicBlock *BB : Chain)
    scheduleBlock(*BB, MM);
  Now = estimateSteadyStateCycles(Chain, MM);
  return true;
}

/// Pipelines one loop; \returns rotations the greedy heuristic kept. With
/// PO.Exact != Off the loop is additionally graded against the exact
/// modulo scheduler (and, in Apply mode, replaced by an exact-guided
/// kernel when that strictly improves the steady-state estimate).
unsigned pipelineLoop(Function &F, const MachineModel &MM, const Module &M,
                      Loop &L, const PipelineLoopOptions &PO,
                      FunctionAnalyses &FA) {
  const Cfg &G = FA.cfg();
  std::vector<BasicBlock *> Chain = loopChain(G, L);
  if (Chain.empty())
    return 0;
  // All back edges must come from the chain tail.
  for (BasicBlock *Latch : L.Latches)
    if (Latch != Chain.back())
      return 0;
  // Everything needed from L and G is captured up front: the first
  // analysis fetch after ensurePreheader's epoch bump drops the cached
  // LoopInfo that owns L (the block pointers themselves are stable, and
  // preheader insertion leaves the latch's successors alone).
  const std::string HeaderLabel = Chain.front()->label();
  std::vector<BasicBlock *> TailExitTargets;
  for (const CfgEdge &E : G.succs(Chain.back()))
    if (!L.contains(E.To))
      TailExitTargets.push_back(E.To);

  // The min-II record (same shape checks) carries the chain's body and its
  // graph for the exact search; nothing has reordered the chain since.
  const bool Exact = PO.Exact != ExactPipelineMode::Off;
  LoopMinII MinRec;
  if (Exact)
    if (const LoopMinII *R =
            FA.minII(MM, PO.FlowAlias).forHeader(HeaderLabel))
      MinRec = *R;

  BasicBlock *PH = ensurePreheader(F, G, L);
  ChainSnapshot OrigSnap;
  if (Exact)
    OrigSnap = snapshotChain(Chain, PH);

  for (BasicBlock *BB : Chain)
    scheduleBlock(*BB, MM);
  unsigned Best = estimateSteadyStateCycles(Chain, MM);

  unsigned Kept = 0;
  for (unsigned Rot = 0; Rot != MaxRotations; ++Rot) {
    ChainSnapshot Snap;
    unsigned Now = 0;
    if (!tryRotate(F, MM, M, Chain, PH, TailExitTargets, PO.FlowAlias, FA,
                   Snap, Now))
      break;
    if (Now >= Best) {
      restoreChain(Snap, Chain, PH);
      break;
    }
    Best = Now;
    ++Kept;
    // Rotation edits non-terminators only (DESIGN.md §9).
    FA.invalidate(PreservedAnalyses::structure());
  }

  if (!Exact)
    return Kept;

  LoopPipelineRecord Rec;
  Rec.Function = F.name();
  Rec.Header = HeaderLabel;
  Rec.BodyInstrs = static_cast<unsigned>(MinRec.Body.size());
  Rec.ResMII = MinRec.ResMII;
  Rec.RecMII = MinRec.RecMII;
  Rec.HeuristicII = Best;
  Rec.Rotations = Kept;
  Rec.AchievedII = Best;

  // The exact sweep is capped at the heuristic's achieved II: the engine's
  // steady state induces a valid modulo schedule, so anything the search
  // finds at a lower II is a genuine gap, and finding one AT the cap
  // proves the heuristic optimal (gap 0). Oversized bodies come back
  // Infeasible after 0 nodes.
  if (MinRec.minII() <= Best) {
    ExactSchedule ES = exactScheduleLoop(MinRec.Body, MinRec.Graph, MM,
                                         MinRec.minII(), Best, PO.ExactOpts);
    Rec.ExactII = ES.II;
    Rec.Verdict = ES.Verdict;
    Rec.NodesExplored = ES.NodesExplored;

    if (PO.Exact == ExactPipelineMode::Apply && ES.II != 0 && ES.II < Best) {
      unsigned BestII = Best;
      ChainSnapshot BestSnap = snapshotChain(Chain, PH);
      // Candidate 1: emit the exact order — restore the pre-heuristic
      // body and lay each block out by exact cycles.
      restoreChain(OrigSnap, Chain, PH);
      reorderByExactCycles(Chain, ES.Cycle);
      unsigned NowA = estimateSteadyStateCycles(Chain, MM);
      if (NowA < BestII) {
        BestII = NowA;
        BestSnap = snapshotChain(Chain, PH);
        Rec.Applied = true;
      }
      restoreChain(BestSnap, Chain, PH);
      // Snapshots put back the same terminator suffixes.
      FA.invalidate(PreservedAnalyses::structure());
      // Candidate 2: rotation lookahead through the existing rotation
      // machinery — unlike the greedy loop, a non-improving rotation is
      // kept as the starting point of the next one; the best state seen
      // is what gets installed.
      for (unsigned Rot = 0; Rot != MaxRotations; ++Rot) {
        ChainSnapshot Snap;
        unsigned Now = 0;
        if (!tryRotate(F, MM, M, Chain, PH, TailExitTargets, PO.FlowAlias,
                       FA, Snap, Now))
          break;
        FA.invalidate(PreservedAnalyses::structure());
        if (Now < BestII) {
          BestII = Now;
          BestSnap = snapshotChain(Chain, PH);
          Rec.Applied = true;
        }
      }
      restoreChain(BestSnap, Chain, PH);
      FA.invalidate(PreservedAnalyses::structure());
      Rec.AchievedII = BestII;
    }
  }
  if (PO.Records)
    PO.Records->push_back(std::move(Rec));
  return Kept;
}

} // namespace

unsigned vsc::pipelineInnermostLoops(Function &F, const MachineModel &MM,
                                     const Module &M, FunctionAnalyses &FA,
                                     const PipelineLoopOptions &Opts) {
  unsigned Total = 0;
  std::unordered_set<std::string> Done;
  for (unsigned Guard = 0; Guard < 32; ++Guard) {
    // Loop discovery reads the shared cache: when pipelineLoop creates a
    // preheader the CFG epoch bump refreshes it automatically, and
    // instruction-only motion invalidates explicitly inside pipelineLoop.
    Loop *Todo = nullptr;
    for (Loop *L : FA.loops().innermostLoops())
      if (!Done.count(L->Header->label())) {
        Todo = L;
        break;
      }
    if (!Todo)
      break;
    Done.insert(Todo->Header->label());
    Total += pipelineLoop(F, MM, M, *Todo, Opts, FA);
  }
  return Total;
}
