//===- opt/Classical.cpp - Classical scalar optimizations ------------------===//

#include "opt/Classical.h"

#include "analysis/Liveness.h"
#include "analysis/MemAlias.h"
#include "analysis/ValueTrack.h"
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_map>

using namespace vsc;

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

bool vsc::copyPropagate(Function &F) {
  bool Changed = false;
  std::vector<Reg> Defs;
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    std::unordered_map<Reg, Reg, RegHash> CopyOf; // dest -> original source

    auto Resolve = [&](Reg R) {
      auto It = CopyOf.find(R);
      return It == CopyOf.end() ? R : It->second;
    };
    auto Invalidate = [&](Reg D) {
      CopyOf.erase(D);
      for (auto It = CopyOf.begin(); It != CopyOf.end();) {
        if (It->second == D)
          It = CopyOf.erase(It);
        else
          ++It;
      }
    };

    for (Instr &I : BB->instrs()) {
      // Rewrite GPR uses through the copy map.
      auto RewriteUse = [&](Reg &R) {
        if (!R.isGpr())
          return;
        Reg New = Resolve(R);
        if (New != R) {
          R = New;
          Changed = true;
        }
      };
      const OpcodeInfo &Info = opcodeInfo(I.Op);
      if (Info.NumSrcs >= 1)
        RewriteUse(I.Src1);
      if (Info.NumSrcs >= 2)
        RewriteUse(I.Src2);

      // Kill mappings clobbered by this instruction's defs.
      Defs.clear();
      I.collectDefs(Defs);
      for (Reg D : Defs)
        if (D.isGpr())
          Invalidate(D);

      // Record a new copy. (Resolve already happened on Src1 above, so the
      // map stays in root form.)
      if (I.Op == Opcode::LR && I.Dst.isGpr() && I.Src1.isGpr() &&
          I.Dst != I.Src1)
        CopyOf[I.Dst] = I.Src1;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local value numbering
//===----------------------------------------------------------------------===//

namespace {

struct ExprKey {
  Opcode Op;
  int Vn1 = -1, Vn2 = -1;
  int64_t Imm = 0;
  std::string Sym;
  uint8_t MemSize = 0;
  uint64_t MemEpoch = 0;

  bool operator<(const ExprKey &RHS) const {
    return std::tie(Op, Vn1, Vn2, Imm, Sym, MemSize, MemEpoch) <
           std::tie(RHS.Op, RHS.Vn1, RHS.Vn2, RHS.Imm, RHS.Sym, RHS.MemSize,
                    RHS.MemEpoch);
  }
};

/// \returns true if \p I computes a pure value LVN may reuse.
bool isLvnCandidate(const Instr &I) {
  if (I.IsVolatile)
    return false;
  switch (I.Op) {
  case Opcode::LI:
  case Opcode::LTOC:
  case Opcode::LA:
  case Opcode::A:
  case Opcode::S:
  case Opcode::MUL:
  case Opcode::AND:
  case Opcode::OR:
  case Opcode::XOR:
  case Opcode::SL:
  case Opcode::SR:
  case Opcode::SRA:
  case Opcode::AI:
  case Opcode::SI:
  case Opcode::MULI:
  case Opcode::ANDI:
  case Opcode::ORI:
  case Opcode::XORI:
  case Opcode::SLI:
  case Opcode::SRI:
  case Opcode::SRAI:
  case Opcode::NEG:
  case Opcode::L:
    return true;
  default:
    return false;
  }
}

} // namespace

bool vsc::localValueNumbering(Function &F, const AliasAnalysis *AA) {
  bool Changed = false;
  std::vector<Reg> Defs;
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    int NextVn = 0;
    uint64_t MemEpoch = 0; // syntactic tier: one counter kills all loads
    std::unordered_map<Reg, int, RegHash> RegVn;
    // Flow-sensitive tier: a load's epoch is the position of the most
    // recent store/call that may touch its location, so provably-disjoint
    // stores no longer kill its value number. Positions start at 1 so an
    // epoch of 0 always means "no killer yet".
    std::vector<std::pair<uint64_t, Instr>> Stores;
    uint64_t LastCallPos = 0;
    std::unordered_map<Reg, uint64_t, RegHash> LastDefPos;
    uint64_t Pos = 0;
    struct Holder {
      int Vn;
      Reg R;
    };
    std::map<ExprKey, Holder> Table;

    auto VnOf = [&](Reg R) {
      auto It = RegVn.find(R);
      if (It != RegVn.end())
        return It->second;
      int Vn = NextVn++;
      RegVn[R] = Vn;
      return Vn;
    };

    auto LoadEpoch = [&](const Instr &Ld) -> uint64_t {
      if (!AA)
        return MemEpoch;
      uint64_t Epoch = LastCallPos;
      for (auto It = Stores.rbegin(); It != Stores.rend(); ++It) {
        if (It->first <= Epoch)
          break; // no older store can beat the current killer
        const Instr &St = It->second;
        // SameExecution additionally requires the shared base register
        // untouched between the store and the load.
        AliasScope Scope = AliasScope::CrossExecution;
        if (St.memBase() == Ld.memBase()) {
          auto DIt = LastDefPos.find(Ld.memBase());
          if (DIt == LastDefPos.end() || DIt->second <= It->first)
            Scope = AliasScope::SameExecution;
        }
        if (AA->alias(Ld, St, Scope) != AliasResult::NoAlias) {
          Epoch = It->first;
          break;
        }
      }
      return Epoch;
    };

    for (Instr &I : BB->instrs()) {
      // Record def positions up front. Recording the current instruction's
      // own defs before its query is conservative-only: it matters just
      // for a load whose destination is its own base register, which then
      // downgrades to CrossExecution.
      ++Pos;
      if (AA) {
        Defs.clear();
        I.collectDefs(Defs);
        for (Reg D : Defs)
          LastDefPos[D] = Pos;
      }
      if (I.isStore() || I.isCall()) {
        ++MemEpoch;
        if (AA) {
          if (I.isStore())
            Stores.emplace_back(Pos, I);
          else
            LastCallPos = Pos;
        }
        if (I.isCall()) {
          Defs.clear();
          I.collectDefs(Defs);
          for (Reg D : Defs)
            RegVn[D] = NextVn++;
        }
        continue;
      }
      if (!isLvnCandidate(I) || !I.Dst.isGpr()) {
        Defs.clear();
        I.collectDefs(Defs);
        for (Reg D : Defs)
          RegVn[D] = NextVn++;
        // An LR still forwards its source's value number.
        if (I.Op == Opcode::LR && I.Src1.isGpr())
          RegVn[I.Dst] = VnOf(I.Src1);
        continue;
      }

      const OpcodeInfo &Info = opcodeInfo(I.Op);
      ExprKey Key;
      Key.Op = I.Op;
      if (Info.NumSrcs >= 1)
        Key.Vn1 = VnOf(I.Src1);
      if (Info.NumSrcs >= 2)
        Key.Vn2 = VnOf(I.Src2);
      Key.Imm = Info.HasImm ? I.Imm : 0;
      Key.Sym = I.Sym;
      Key.MemSize = I.isMemAccess() ? I.MemSize : 0;
      Key.MemEpoch = I.isLoad() ? LoadEpoch(I) : 0;

      auto It = Table.find(Key);
      if (It != Table.end() && RegVn.count(It->second.R) &&
          RegVn[It->second.R] == It->second.Vn && It->second.R != I.Dst) {
        // Reuse: rewrite as a register copy.
        Reg Holder = It->second.R;
        int Vn = It->second.Vn;
        Instr Copy;
        Copy.Op = Opcode::LR;
        Copy.Dst = I.Dst;
        Copy.Src1 = Holder;
        Copy.Id = I.Id;
        I = Copy;
        RegVn[I.Dst] = Vn;
        Changed = true;
        continue;
      }
      int Vn = NextVn++;
      RegVn[I.Dst] = Vn;
      Table[Key] = Holder{Vn, I.Dst};
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

/// One DCE sweep. \returns true if an instruction died. All three
/// analyses are fetched up front, before any erase, so the sweep works on
/// a consistent snapshot; the caller invalidates after a changed sweep.
static bool dceOnce(Function &F, FunctionAnalyses &FA) {
  const Cfg &G = FA.cfg();
  const RegUniverse &U = FA.universe();
  const Liveness &L = FA.liveness();
  bool Changed = false;
  std::vector<Reg> Defs;

  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    if (!G.isReachable(BB))
      continue;
    BitVector Live = L.liveOut(BB);
    for (size_t I = BB->size(); I-- > 0;) {
      Instr &Ins = BB->instrs()[I];
      Defs.clear();
      Ins.collectDefs(Defs);

      bool AnyDefLive = Defs.empty();
      for (Reg D : Defs) {
        int Idx = U.indexOf(D);
        if (Idx >= 0 && Live.test(static_cast<size_t>(Idx)))
          AnyDefLive = true;
      }
      bool Removable = !AnyDefLive && !Ins.hasSideEffects() &&
                       !Ins.isTerminator() && opcodeInfo(Ins.Op).HasDst;
      if (Removable) {
        BB->instrs().erase(BB->instrs().begin() + static_cast<long>(I));
        Changed = true;
        continue;
      }
      // Update the running live set.
      for (Reg D : Defs) {
        int Idx = U.indexOf(D);
        if (Idx >= 0)
          Live.reset(static_cast<size_t>(Idx));
      }
      Defs.clear();
      Ins.collectUses(Defs);
      for (Reg Use : Defs) {
        int Idx = U.indexOf(Use);
        if (Idx >= 0)
          Live.set(static_cast<size_t>(Idx));
      }
    }
  }
  return Changed;
}

bool vsc::deadCodeElim(Function &F, FunctionAnalyses &FA) {
  bool Any = false;
  while (dceOnce(F, FA)) {
    // Only non-terminators die: the graph and every edge survive.
    FA.invalidate(PreservedAnalyses::structure());
    Any = true;
  }
  return Any;
}

//===----------------------------------------------------------------------===//
// Classical loop-invariant code motion
//===----------------------------------------------------------------------===//

static bool licmOnLoop(Function &F, Loop &L, const Cfg &G,
                       const Dominators &Dom, const AliasAnalysis *AA) {
  BasicBlock *PH = ensurePreheader(F, G, L);
  if (!PH)
    return false;

  // Registers with a definition inside the loop, with def counts.
  std::unordered_map<Reg, unsigned, RegHash> DefCount;
  std::vector<Reg> Tmp;
  for (BasicBlock *BB : L.Blocks) {
    for (const Instr &I : BB->instrs()) {
      Tmp.clear();
      I.collectDefs(Tmp);
      for (Reg D : Tmp)
        ++DefCount[D];
    }
  }
  // Any store or call inside the loop blocks loads from being hoisted
  // unless provably no-alias with every one of them. Copies, not pointers:
  // hoisting below shifts the instruction vectors.
  std::vector<Instr> Clobbers;
  bool HasCall = false;
  for (BasicBlock *BB : L.Blocks)
    for (const Instr &I : BB->instrs()) {
      if (I.isStore())
        Clobbers.push_back(I);
      if (I.isCall())
        HasCall = true;
    }

  // Liveness serves only the last test, so it is built when the first
  // candidate gets there. No hoist can come before that, so it sees the
  // function as this call found it (after preheader creation).
  std::optional<RegUniverse> U;
  std::optional<Cfg> G2;
  std::optional<Liveness> Live;
  auto LiveIntoHeader = [&](Reg R) {
    if (!Live) {
      U.emplace(F);
      G2.emplace(F);
      Live.emplace(*G2, *U);
    }
    return Live->isLiveIn(L.Header, R);
  };

  bool Changed = false;
  for (BasicBlock *BB : L.Blocks) {
    // Classical safety: the block must execute on every iteration, i.e.
    // dominate every latch.
    bool DominatesLatches = true;
    for (BasicBlock *Latch : L.Latches)
      if (!Dom.dominates(BB, Latch))
        DominatesLatches = false;
    if (!DominatesLatches)
      continue;

    for (size_t II = 0; II < BB->size();) {
      Instr &I = BB->instrs()[II];
      bool Pure = I.isSafeToSpeculate();
      bool IsLoad = I.isLoad() && I.Op == Opcode::L && !I.IsVolatile;
      if ((!Pure && !IsLoad) || !opcodeInfo(I.Op).HasDst ||
          !I.Dst.isValid()) {
        ++II;
        continue;
      }
      // The tests run cheapest first and stop at the first failure.
      // Operands invariant?
      Tmp.clear();
      I.collectUses(Tmp);
      bool Invariant = std::none_of(Tmp.begin(), Tmp.end(), [&](Reg S) {
        auto It = DefCount.find(S);
        return It != DefCount.end() && It->second > 0;
      });
      // Single def of the destination.
      auto DefIt = DefCount.find(I.Dst);
      Invariant = Invariant && DefIt != DefCount.end() && DefIt->second == 1;
      // CrossExecution: the load and the store execute in different
      // iterations (and after hoisting, the load runs before the loop).
      auto MayAlias = [&](const Instr &St) {
        AliasResult R = AA ? AA->alias(I, St, AliasScope::CrossExecution)
                           : alias(I, St, AliasScope::CrossExecution);
        return R != AliasResult::NoAlias;
      };
      if (Invariant && IsLoad)
        Invariant = !HasCall &&
                    std::none_of(Clobbers.begin(), Clobbers.end(), MayAlias);
      // Not live into the header (no loop-carried use of the previous
      // value).
      Invariant = Invariant && !LiveIntoHeader(I.Dst);
      if (!Invariant) {
        ++II;
        continue;
      }
      // Hoist to the preheader.
      Instr Moved = I;
      Reg MovedDst = I.Dst;
      BB->instrs().erase(BB->instrs().begin() + static_cast<long>(II));
      PH->instrs().insert(PH->instrs().begin() +
                              static_cast<long>(PH->firstTerminatorIdx()),
                          std::move(Moved));
      --DefCount[MovedDst];
      Changed = true;
      // Re-run from the top of the block: hoisting may enable more.
      II = 0;
    }
  }
  return Changed;
}

/// \returns true if \p L holds both a plain non-volatile load and a store:
/// the only loops whose licmOnLoop asks an alias query.
static bool loadsAndStores(const Loop *L) {
  bool Load = false, Store = false;
  for (const BasicBlock *BB : L->Blocks)
    for (const Instr &I : BB->instrs()) {
      Load |= I.Op == Opcode::L && !I.IsVolatile;
      Store |= I.isStore();
    }
  return Load && Store;
}

bool vsc::classicalLicm(Function &F, FunctionAnalyses &FA, bool FlowAlias) {
  bool Any = false;
  bool Changed = true;
  unsigned Guard = 0;
  while (Changed && Guard++ < 8) {
    Changed = false;
    const Cfg &G = FA.cfg();
    const Dominators &Dom = FA.dominators();
    std::vector<Loop *> Innermost = FA.loops().innermostLoops();
    // licmOnLoop queries alias facts only for a plain load in a loop that
    // also stores, so only such a loop pays for building them. The pointer
    // stays valid through licmOnLoop: preheader creation and invariant
    // hoisting change neither the base-register contents any surviving
    // instruction observes nor the queried instructions' blocks.
    const AliasAnalysis *AA = nullptr;
    if (FlowAlias &&
        std::any_of(Innermost.begin(), Innermost.end(), loadsAndStores))
      AA = &FA.aliasAnalysis();
    for (Loop *L : Innermost) {
      if (licmOnLoop(F, *L, G, Dom, AA)) {
        // Hoisting moves non-terminators into a preheader: structure
        // survives (DESIGN.md §9), and a new preheader bumps the epoch.
        FA.invalidate(PreservedAnalyses::structure());
        Changed = true;
        Any = true;
        break;
      }
    }
  }
  return Any;
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

/// \returns true if localValueNumbering would ask the flow tier an alias
/// query in \p F: some LVN-candidate load has a store after the last call
/// before it in its block. Otherwise each load's flow epoch is the position
/// of that call, and two loads of a block share it exactly when no store
/// or call separates them, which is when their syntactic epochs agree. So
/// LVN without the analysis finds the same value numbers.
static bool lvnQueriesAlias(const Function &F) {
  for (const auto &BB : F.blocks()) {
    bool StoreSinceCall = false;
    for (const Instr &I : BB->instrs()) {
      if (I.isCall())
        StoreSinceCall = false;
      else if (I.isStore())
        StoreSinceCall = true;
      else if (StoreSinceCall && I.isLoad() && isLvnCandidate(I) &&
               I.Dst.isGpr())
        return true;
    }
  }
  return false;
}

bool vsc::runClassicalPipeline(Function &F, FunctionAnalyses &FA,
                               bool FlowAlias) {
  bool Any = false;
  for (unsigned Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    // Copy propagation and LVN rewrite instructions in place — branches
    // and block boundaries survive, register contents do not.
    if (copyPropagate(F)) {
      FA.invalidate(PreservedAnalyses::structure());
      Changed = true;
    }
    // Fetch alias facts only after copy propagation invalidated them, and
    // only if LVN will query them: it must query the function it is about
    // to walk. Its own load->LR rewrites keep the facts valid mid-walk (the
    // copy writes the same value the load produced), but facts built
    // mid-walk would number those copies differently, so the decision is
    // made up front.
    const AliasAnalysis *AA =
        FlowAlias && lvnQueriesAlias(F) ? &FA.aliasAnalysis() : nullptr;
    if (localValueNumbering(F, AA)) {
      FA.invalidate(PreservedAnalyses::structure());
      Changed = true;
    }
    Changed |= deadCodeElim(F, FA);
    Changed |= classicalLicm(F, FA, FlowAlias);
    // straighten() bumps the CFG epoch itself when it edits.
    Changed |= straighten(F);
    if (!Changed)
      break;
    Any = true;
  }
  return Any;
}
