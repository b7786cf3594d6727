//===- vliw/Schedule.cpp - Global scheduling + pipelining -------------------===//

#include "vliw/Schedule.h"

#include "analysis/Liveness.h"
#include "analysis/MemAlias.h"
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"
#include "profile/ProfileData.h"
#include "vliw/Rename.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <span>

using namespace vsc;

namespace {

/// Callees that neither read nor write user memory (I/O builtins).
bool isMemoryInertCall(const Instr &I) {
  return I.isCall() && (I.Sym == "print_int" || I.Sym == "print_char" ||
                        I.Sym == "read_int");
}

//===----------------------------------------------------------------------===//
// Issue-cost engine (mirrors sim/Simulator.cpp's issue rules)
//===----------------------------------------------------------------------===//

class IssueEngine {
public:
  explicit IssueEngine(const MachineModel &MM) : MM(MM) {}

  /// Issue cycle \p I would get right now, without committing.
  uint64_t tryIssue(const Instr &I) const {
    uint64_t Earliest = std::max(PrevIssue, FetchFloor);
    if (!I.isBranch())
      Earliest = std::max(Earliest, operandReady(I));
    if (Earliest < PendingResolve && SpecBudget == 0)
      Earliest = PendingResolve;
    // Unit contention.
    if (MM.unitOf(I) == UnitKind::Fxu) {
      if (FxuCycle == Earliest && FxuCount >= MM.FxuWidth)
        return Earliest + 1;
    } else if (MM.unitOf(I) == UnitKind::Bu) {
      if (BuCycle == Earliest && BuCount >= MM.BuWidth)
        return Earliest + 1;
    }
    return Earliest;
  }

  /// Issues \p I (with branch direction \p Taken) and returns its cycle.
  uint64_t issue(const Instr &I, bool Taken) {
    uint64_t Earliest = std::max(PrevIssue, FetchFloor);
    if (!I.isBranch())
      Earliest = std::max(Earliest, operandReady(I));
    if (Earliest < PendingResolve) {
      if (SpecBudget == 0)
        Earliest = PendingResolve;
      else
        --SpecBudget;
    }
    uint64_t C = Earliest;
    if (MM.unitOf(I) == UnitKind::Fxu) {
      if (FxuCycle == C && FxuCount >= MM.FxuWidth)
        ++C;
      if (FxuCycle != C) {
        FxuCycle = C;
        FxuCount = 0;
      }
      ++FxuCount;
    } else if (MM.unitOf(I) == UnitKind::Bu) {
      if (BuCycle == C && BuCount >= MM.BuWidth)
        ++C;
      if (BuCycle != C) {
        BuCycle = C;
        BuCount = 0;
      }
      ++BuCount;
    }

    if (I.Op == Opcode::BT || I.Op == Opcode::BF) {
      uint64_t CrReady = readyOf(I.Src1);
      uint64_t Resolve = std::max(C, CrReady);
      if (Taken)
        FetchFloor = std::max(
            FetchFloor, std::max(C, CrReady + MM.TakenBranchRedirect));
      else if (Resolve > C) {
        PendingResolve = Resolve;
        SpecBudget = MM.SpecWindow;
      }
      LastCondResolve = Resolve;
      SinceCondBranch = 0;
    } else if (I.Op == Opcode::BCT) {
      uint64_t Resolve = std::max(C, readyOf(Reg::ctr()));
      FetchFloor = std::max(FetchFloor, Resolve);
      LastCondResolve = Resolve;
      SinceCondBranch = 0;
    } else if (I.Op == Opcode::B) {
      if (SinceCondBranch < MM.ExpansionObjective)
        FetchFloor = std::max(
            FetchFloor, std::max(C, LastCondResolve + MM.TakenBranchRedirect));
      ++SinceCondBranch;
    } else if (I.isCall() || I.isRet()) {
      FetchFloor = std::max(FetchFloor, C + MM.TakenBranchRedirect);
      SinceCondBranch = 0;
    } else {
      ++SinceCondBranch;
    }

    // Commit defs.
    Defs.clear();
    I.collectDefs(Defs);
    for (Reg D : Defs)
      Ready[D] = C + MM.latencyOf(I);

    PrevIssue = C;
    return C;
  }

  uint64_t lastIssue() const { return PrevIssue; }

private:
  uint64_t readyOf(Reg R) const {
    auto It = Ready.find(R);
    return It == Ready.end() ? 0 : It->second;
  }

  uint64_t operandReady(const Instr &I) const {
    Uses.clear();
    I.collectUses(Uses);
    uint64_t T = 0;
    for (Reg U : Uses)
      T = std::max(T, readyOf(U));
    return T;
  }

  const MachineModel &MM;
  std::unordered_map<Reg, uint64_t, RegHash> Ready;
  uint64_t PrevIssue = 0, FetchFloor = 1;
  uint64_t FxuCycle = 0, BuCycle = 0;
  unsigned FxuCount = 0, BuCount = 0;
  uint64_t PendingResolve = 0;
  unsigned SpecBudget = 0;
  uint64_t LastCondResolve = 0;
  uint64_t SinceCondBranch = 1u << 20;
  mutable std::vector<Reg> Uses;
  std::vector<Reg> Defs;
};

//===----------------------------------------------------------------------===//
// Dependences
//===----------------------------------------------------------------------===//

/// The register defs and uses of each instruction in a straight-line
/// prefix Ins[0..N), collected once so the pairwise dependence tests below
/// allocate nothing.
class DefUseTable {
public:
  DefUseTable(const std::vector<Instr> &Ins, size_t N) : Ins(Ins) {
    Begin.reserve(2 * N + 1);
    Begin.push_back(0);
    for (size_t I = 0; I != N; ++I) {
      Ins[I].collectDefs(Regs);
      Begin.push_back(static_cast<uint32_t>(Regs.size()));
      Ins[I].collectUses(Regs);
      Begin.push_back(static_cast<uint32_t>(Regs.size()));
    }
  }

  const Instr &instr(size_t I) const { return Ins[I]; }
  std::span<const Reg> defs(size_t I) const { return range(2 * I); }
  std::span<const Reg> uses(size_t I) const { return range(2 * I + 1); }

private:
  std::span<const Reg> range(size_t K) const {
    return {Regs.data() + Begin[K], Regs.data() + Begin[K + 1]};
  }

  const std::vector<Instr> &Ins;
  std::vector<Reg> Regs;
  std::vector<uint32_t> Begin; ///< defs of I: [2I, 2I+1), uses: [2I+1, 2I+2)
};

bool contains(std::span<const Reg> Rs, Reg R) {
  return std::find(Rs.begin(), Rs.end(), R) != Rs.end();
}

/// \returns the scope an alias query between instructions \p I < \p J of
/// one straight-line sequence may be issued under. Both accesses sit in
/// one execution of the block; SameExecution additionally promises that no
/// instruction between them redefines a base register they share, which is
/// what the same-base displacement reasoning of the syntactic tier needs.
AliasScope memScopeFor(const DefUseTable &T, size_t I, size_t J) {
  Reg B = T.instr(I).memBase();
  if (B != T.instr(J).memBase())
    return AliasScope::SameExecution; // no shared base to redefine
  for (size_t K = I + 1; K < J; ++K)
    if (contains(T.defs(K), B))
      return AliasScope::CrossExecution;
  return AliasScope::SameExecution;
}

/// \returns true if instruction \p Later of \p T must not move above
/// instruction \p Earlier (Earlier < Later).
bool dependsOn(const DefUseTable &T, size_t Later, size_t Earlier,
               const AliasAnalysis *AA) {
  auto Intersects = [](std::span<const Reg> A, std::span<const Reg> B) {
    for (Reg R : A)
      if (contains(B, R))
        return true;
    return false;
  };
  if (Intersects(T.defs(Earlier), T.uses(Later))) // flow
    return true;
  if (Intersects(T.uses(Earlier), T.defs(Later))) // anti
    return true;
  if (Intersects(T.defs(Earlier), T.defs(Later))) // output
    return true;

  // Memory and call ordering.
  const Instr &E = T.instr(Earlier), &L = T.instr(Later);
  auto IsOpaqueCall = [](const Instr &I) {
    return I.isCall() && !isMemoryInertCall(I);
  };
  if (E.isCall() && L.isCall())
    return true; // output order of I/O, and opaque side effects
  if ((IsOpaqueCall(E) && L.isMemAccess()) ||
      (IsOpaqueCall(L) && E.isMemAccess()))
    return true;
  if (E.isMemAccess() && L.isMemAccess()) {
    if (E.IsVolatile && L.IsVolatile)
      return true; // volatile order is architectural
    if (E.isStore() || L.isStore()) {
      AliasScope Scope = memScopeFor(T, Earlier, Later);
      AliasResult R = AA ? AA->alias(E, L, Scope) : alias(E, L, Scope);
      if (R != AliasResult::NoAlias)
        return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Local list scheduling
//===----------------------------------------------------------------------===//

struct Dag {
  std::vector<std::vector<unsigned>> Preds; // indices of required earlier ops
  std::vector<unsigned> Height;
};

Dag buildDag(const std::vector<Instr> &Ins, size_t N, const MachineModel &MM,
             const AliasAnalysis *AA) {
  Dag D;
  D.Preds.assign(N, {});
  D.Height.assign(N, 0);
  DefUseTable T(Ins, N);
  for (size_t J = 0; J != N; ++J)
    for (size_t I = 0; I != J; ++I)
      if (dependsOn(T, J, I, AA))
        D.Preds[J].push_back(static_cast<unsigned>(I));
  // Heights: latency-weighted longest path to the end of the block, plus a
  // bonus for compares feeding any terminator of the block (they want to
  // run early so the dependent branch resolves in time).
  for (size_t J = N; J-- > 0;) {
    unsigned H = MM.latencyOf(Ins[J]);
    if (Ins[J].Op == Opcode::C || Ins[J].Op == Opcode::CI)
      for (size_t T = N; T != Ins.size(); ++T)
        if (Ins[T].isCondBranch() && Ins[T].Src1 == Ins[J].Dst)
          H += MM.TakenBranchRedirect;
    D.Height[J] = H;
  }
  for (size_t J = N; J-- > 0;)
    for (unsigned P : D.Preds[J])
      D.Height[P] =
          std::max(D.Height[P], D.Height[J] + MM.latencyOf(Ins[P]));
  return D;
}

/// Greedy cycle-directed list schedule of Ins[0..N); \returns new order of
/// indices.
std::vector<unsigned> listSchedule(const std::vector<Instr> &Ins, size_t N,
                                   const MachineModel &MM,
                                   const AliasAnalysis *AA) {
  Dag D = buildDag(Ins, N, MM, AA);
  std::vector<unsigned> Order;
  std::vector<bool> Scheduled(N, false);
  IssueEngine Engine(MM);
  for (size_t Step = 0; Step != N; ++Step) {
    int Best = -1;
    uint64_t BestCycle = ~0ULL;
    for (size_t J = 0; J != N; ++J) {
      if (Scheduled[J])
        continue;
      bool Ready = true;
      for (unsigned P : D.Preds[J])
        if (!Scheduled[P])
          Ready = false;
      if (!Ready)
        continue;
      uint64_t C = Engine.tryIssue(Ins[J]);
      if (Best < 0 || C < BestCycle ||
          (C == BestCycle &&
           D.Height[J] > D.Height[static_cast<size_t>(Best)]) ||
          (C == BestCycle &&
           D.Height[J] == D.Height[static_cast<size_t>(Best)] &&
           J < static_cast<size_t>(Best))) {
        Best = static_cast<int>(J);
        BestCycle = C;
      }
    }
    assert(Best >= 0 && "dependence cycle in a basic block?");
    Scheduled[static_cast<size_t>(Best)] = true;
    Engine.issue(Ins[static_cast<size_t>(Best)], /*Taken=*/false);
    Order.push_back(static_cast<unsigned>(Best));
  }
  return Order;
}

} // namespace

bool vsc::scheduleBlock(BasicBlock &BB, const MachineModel &MM,
                        const AliasAnalysis *AA) {
  size_t N = BB.firstTerminatorIdx();
  if (N < 2)
    return false;
  std::vector<unsigned> Order = listSchedule(BB.instrs(), N, MM, AA);
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

/// Attempts one hoist into \p P from one of its successors. \returns true
/// if an instruction moved (analyses must be rebuilt).
bool hoistOnce(Function &F, const Module &M, const MachineModel &MM,
               BasicBlock *P, const Cfg &G, const Liveness &Live,
               const LoopInfo &LI, const GlobalScheduleOptions &Opts,
               const AliasAnalysis *AA) {
  const std::vector<CfgEdge> &Succs = G.succs(P);
  if (Succs.empty())
    return false;
  bool PEndsConditional = false;
  {
    const Instr *Term = P->terminator();
    size_t FirstTerm = P->firstTerminatorIdx();
    if (FirstTerm < P->size() && P->instrs()[FirstTerm].isCondBranch())
      PEndsConditional = true;
    (void)Term;
  }
  if (PEndsConditional && !Opts.SpeculativeHoist)
    return false;

  // With a profile, try a clearly-hot successor first. Bucketised so that
  // near-balanced probabilities (profile noise) do not perturb the
  // deterministic hoist order.
  std::vector<CfgEdge> OrderedSuccs = Succs;
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

  std::vector<Reg> Defs, Uses, Tmp;
  for (const CfgEdge &E : OrderedSuccs) {
    BasicBlock *S = E.To;
    // Only clearly-unlikely paths are treated as speculative-and-unwanted
    // ("if an operation is present only on a less frequently executed path
    // it is considered speculative"); balanced branches keep full
    // speculation.
    if (Opts.Profile && PEndsConditional &&
        Opts.Profile->edgeProbability(F, E) < 0.2)
      continue;
    if (S == P)
      continue;
    // Joins are legal hoist sources when the paper's bookkeeping copies go
    // into every other predecessor ("making bookkeeping copies for edges
    // that join the paths of code motion"): collect the predecessor set
    // and prove legality for each one.
    std::vector<BasicBlock *> AllPreds;
    for (BasicBlock *Q : G.preds(S))
      if (std::find(AllPreds.begin(), AllPreds.end(), Q) == AllPreds.end())
        AllPreds.push_back(Q);
    if (AllPreds.empty() || AllPreds.size() > Opts.MaxJoinPreds)
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

    // Per-predecessor legality of placing \p Cand at Q's end.
    auto LegalInPred = [&](BasicBlock *Q, const Instr &Cand) {
      size_t QTerm = Q->firstTerminatorIdx();
      bool QConditional =
          QTerm < Q->size() && Q->instrs()[QTerm].isCondBranch();
      if (QConditional) {
        if (!Opts.SpeculativeHoist)
          return false;
        bool Safe = Cand.isSafeToSpeculate() ||
                    (Cand.isLoad() &&
                     (AA ? AA->safeSpeculativeLoad(Cand, &M)
                         : isSafeSpeculativeLoad(Cand, &M)));
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
      for (size_t K = Q->firstTerminatorIdx(); K != Q->size(); ++K) {
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

    size_t STerm = S->firstTerminatorIdx();
    DefUseTable SDefUse(S->instrs(), STerm);
    for (size_t J = 0; J != STerm; ++J) {
      const Instr &Cand = S->instrs()[J];
      // Must be movable to the top of S.
      bool Blocked = false;
      for (size_t K = 0; K != J && !Blocked; ++K)
        if (dependsOn(SDefUse, J, K, AA))
          Blocked = true;
      if (Blocked)
        continue;
      bool AllLegal = true;
      for (BasicBlock *Q : AllPreds)
        if (!LegalInPred(Q, Cand))
          AllLegal = false;
      if (!AllLegal)
        continue;

      // Profitability: the candidate must fit in an idle slot of the
      // triggering predecessor P — the probe re-schedules the block so the
      // candidate may land in a stall hole rather than at the end.
      BasicBlock Probe("probe");
      Probe.instrs() = P->instrs();
      scheduleBlock(Probe, MM, AA);
      unsigned CostBefore = estimateBlockCycles(Probe, MM);
      Probe.instrs().insert(Probe.instrs().begin() +
                                static_cast<long>(Probe.firstTerminatorIdx()),
                            Cand);
      scheduleBlock(Probe, MM, AA);
      unsigned CostAfter = estimateBlockCycles(Probe, MM);
      if (CostAfter > CostBefore)
        continue;

      // Move: the op goes into every predecessor (one real motion plus
      // bookkeeping copies), then leaves S.
      Instr Moved = Cand;
      S->instrs().erase(S->instrs().begin() + static_cast<long>(J));
      for (BasicBlock *Q : AllPreds) {
        Instr Copy = Moved;
        if (Q != AllPreds.front())
          F.assignId(Copy);
        Q->instrs().insert(Q->instrs().begin() +
                               static_cast<long>(Q->firstTerminatorIdx()),
                           std::move(Copy));
        scheduleBlock(*Q, MM, AA);
      }
      return true;
    }
  }
  return false;
}

} // namespace

bool vsc::globalSchedule(Function &F, const MachineModel &MM,
                         const Module &M, const GlobalScheduleOptions &Opts,
                         FunctionAnalyses &FA) {
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

  std::unordered_map<const BasicBlock *, unsigned> HoistedInto;
  for (unsigned Guard = 0; Guard < 256; ++Guard) {
    // Analyses come from the cache: on rounds where no hoist landed (and
    // after the final round) nothing is rebuilt. This also fixes the old
    // duplicate Dominators construction here vs pipelineInnermostLoops —
    // both now share one cached tree until a real CFG edit.
    const Cfg &G = FA.cfg();
    const LoopInfo &LI = FA.loops();
    const Liveness &Live = FA.liveness();
    const AliasAnalysis *AA =
        Opts.FlowAlias ? &FA.aliasAnalysis() : nullptr;
    bool Changed = false;
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *P = BBPtr.get();
      if (!G.isReachable(P))
        continue;
      if (HoistedInto[P] >= Opts.MaxHoistPerBlock)
        continue;
      if (hoistOnce(F, M, MM, P, G, Live, LI, Opts, AA)) {
        // The hoist erased and inserted instructions across blocks.
        FA.invalidateAll();
        ++HoistedInto[P];
        Changed = true;
        Any = true;
        break;
      }
    }
    if (!Changed)
      break;
  }
  return Any;
}

bool vsc::globalSchedule(Function &F, const MachineModel &MM,
                         const Module &M,
                         const GlobalScheduleOptions &Opts) {
  FunctionAnalyses FA(F);
  return globalSchedule(F, MM, M, Opts, FA);
}

//===----------------------------------------------------------------------===//
// Enhanced pipeline scheduling (rotation across the back edge)
//===----------------------------------------------------------------------===//

namespace {

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

/// Flattens the chain's instructions (terminators included) in layout
/// order — the body shape pipelining/MinII.h's dependence graph and the
/// exact scheduler's cycle vector are indexed by.
std::vector<Instr> flattenChain(const std::vector<BasicBlock *> &Chain) {
  std::vector<Instr> Body;
  for (BasicBlock *BB : Chain)
    for (const Instr &I : BB->instrs())
      Body.push_back(I);
  return Body;
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

  const bool Exact = PO.Exact != ExactPipelineMode::Off;
  LoopMinII MinRec;
  LoopDepGraph DepGraph;
  std::vector<Instr> OrigBody;
  if (Exact) {
    if (const LoopMinII *R =
            FA.minII(MM, PO.FlowAlias).forHeader(HeaderLabel))
      MinRec = *R;
    OrigBody = flattenChain(Chain);
    if (MinRec.Modeled && OrigBody.size() <= PO.ExactOpts.MaxBodyInstrs)
      DepGraph = buildLoopDepGraph(
          OrigBody, MM, PO.FlowAlias ? &FA.aliasAnalysis() : nullptr);
  }

  BasicBlock *PH = ensurePreheader(F, G, L);
  ChainSnapshot OrigSnap;
  if (Exact)
    OrigSnap = snapshotChain(Chain, PH);

  for (BasicBlock *BB : Chain)
    scheduleBlock(*BB, MM);
  unsigned Best = estimateSteadyStateCycles(Chain, MM);

  unsigned Kept = 0;
  for (unsigned Rot = 0; Rot != PO.MaxRotations; ++Rot) {
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
    // Instruction motion with no block edit: the epoch cannot catch it.
    FA.invalidateAll();
  }

  if (!Exact)
    return Kept;

  LoopPipelineRecord Rec;
  Rec.Function = F.name();
  Rec.Header = HeaderLabel;
  Rec.BodyInstrs =
      MinRec.Modeled ? MinRec.BodyInstrs : static_cast<unsigned>(OrigBody.size());
  Rec.ResMII = MinRec.ResMII;
  Rec.RecMII = MinRec.RecMII;
  Rec.HeuristicII = Best;
  Rec.Rotations = Kept;
  Rec.AchievedII = Best;

  // The exact sweep is capped at the heuristic's achieved II: the engine's
  // steady state induces a valid modulo schedule, so anything the search
  // finds at a lower II is a genuine gap, and finding one AT the cap
  // proves the heuristic optimal (gap 0).
  if (MinRec.Modeled && !OrigBody.empty() &&
      OrigBody.size() <= PO.ExactOpts.MaxBodyInstrs &&
      MinRec.minII() <= Best) {
    ExactSchedule ES = exactScheduleLoop(OrigBody, DepGraph, MM,
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
      FA.invalidateAll();
      // Candidate 2: rotation lookahead through the existing rotation
      // machinery — unlike the greedy loop, a non-improving rotation is
      // kept as the starting point of the next one; the best state seen
      // is what gets installed.
      for (unsigned Rot = 0; Rot != PO.MaxRotations; ++Rot) {
        ChainSnapshot Snap;
        unsigned Now = 0;
        if (!tryRotate(F, MM, M, Chain, PH, TailExitTargets, PO.FlowAlias,
                       FA, Snap, Now))
          break;
        FA.invalidateAll();
        if (Now < BestII) {
          BestII = Now;
          BestSnap = snapshotChain(Chain, PH);
          Rec.Applied = true;
        }
      }
      restoreChain(BestSnap, Chain, PH);
      FA.invalidateAll();
      Rec.AchievedII = BestII;
    }
  }
  if (PO.Records)
    PO.Records->push_back(std::move(Rec));
  return Kept;
}

} // namespace

unsigned vsc::pipelineInnermostLoops(Function &F, const MachineModel &MM,
                                     const Module &M,
                                     const PipelineLoopOptions &Opts,
                                     FunctionAnalyses &FA) {
  unsigned Total = 0;
  std::unordered_set<std::string> Done;
  for (unsigned Guard = 0; Guard < 32; ++Guard) {
    // Loop discovery reads the shared cache (no more throwaway
    // Cfg/Dominators per loop): when pipelineLoop creates a preheader the
    // CFG epoch bump refreshes it automatically, and instruction-only
    // motion invalidates explicitly inside pipelineLoop.
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

unsigned vsc::pipelineInnermostLoops(Function &F, const MachineModel &MM,
                                     const Module &M, unsigned MaxRotations,
                                     FunctionAnalyses &FA, bool FlowAlias) {
  PipelineLoopOptions Opts;
  Opts.MaxRotations = MaxRotations;
  Opts.FlowAlias = FlowAlias;
  return pipelineInnermostLoops(F, MM, M, Opts, FA);
}

unsigned vsc::pipelineInnermostLoops(Function &F, const MachineModel &MM,
                                     const Module &M,
                                     unsigned MaxRotations) {
  FunctionAnalyses FA(F);
  return pipelineInnermostLoops(F, MM, M, MaxRotations, FA);
}
