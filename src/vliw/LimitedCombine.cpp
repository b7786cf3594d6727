//===- vliw/LimitedCombine.cpp - Limited combining ---------------------------===//

#include "vliw/LimitedCombine.h"

#include "analysis/Liveness.h"
#include "analysis/ValueTrack.h"
#include "cfg/CfgEdit.h"

#include <algorithm>
#include <cassert>

using namespace vsc;

namespace {

/// Instructions walked past the starting instruction at most.
constexpr unsigned Window = 40;

struct Pos {
  BasicBlock *BB;
  size_t Idx;
};

/// Rewrites one use of \p RD when the start was "LR rD = rS".
bool rewriteCopyUse(Instr &I, Reg RD, Reg RS) {
  bool Done = false;
  const OpcodeInfo &Info = opcodeInfo(I.Op);
  if (Info.NumSrcs >= 1 && I.Src1 == RD) {
    I.Src1 = RS;
    Done = true;
  }
  if (Info.NumSrcs >= 2 && I.Src2 == RD) {
    I.Src2 = RS;
    Done = true;
  }
  return Done;
}

/// Rewrites one use of \p RD when the start was "LI rD = Imm"; \returns
/// false if the user has no immediate form.
bool foldImmediateUse(Instr &I, Reg RD, int64_t Imm) {
  auto ToImmForm = [](Opcode Op, Opcode &Out) {
    switch (Op) {
    case Opcode::A:
      Out = Opcode::AI;
      return true;
    case Opcode::S:
      Out = Opcode::SI;
      return true;
    case Opcode::MUL:
      Out = Opcode::MULI;
      return true;
    case Opcode::AND:
      Out = Opcode::ANDI;
      return true;
    case Opcode::OR:
      Out = Opcode::ORI;
      return true;
    case Opcode::XOR:
      Out = Opcode::XORI;
      return true;
    case Opcode::SL:
      Out = Opcode::SLI;
      return true;
    case Opcode::SR:
      Out = Opcode::SRI;
      return true;
    case Opcode::SRA:
      Out = Opcode::SRAI;
      return true;
    case Opcode::C:
      Out = Opcode::CI;
      return true;
    default:
      return false;
    }
  };
  auto IsCommutative = [](Opcode Op) {
    return Op == Opcode::A || Op == Opcode::MUL || Op == Opcode::AND ||
           Op == Opcode::OR || Op == Opcode::XOR;
  };

  if (I.Op == Opcode::LR && I.Src1 == RD) {
    I.Op = Opcode::LI;
    I.Src1 = Reg();
    I.Imm = Imm;
    return true;
  }
  const OpcodeInfo &Info = opcodeInfo(I.Op);
  if (Info.NumSrcs != 2)
    return false;
  if (I.Src1 == RD && I.Src2 == RD)
    return false;
  Opcode ImmOp;
  if (I.Src2 == RD && ToImmForm(I.Op, ImmOp)) {
    I.Op = ImmOp;
    I.Src2 = Reg();
    I.Imm = Imm;
    return true;
  }
  if (I.Src1 == RD && IsCommutative(I.Op) && ToImmForm(I.Op, ImmOp)) {
    I.Op = ImmOp;
    I.Src1 = I.Src2;
    I.Src2 = Reg();
    I.Imm = Imm;
    return true;
  }
  return false;
}

/// \returns true if \p I mentions \p R outside its explicit source fields
/// (an implicit use rewriting cannot reach).
bool hasImplicitUseOf(const Instr &I, Reg R) {
  std::vector<Reg> Uses;
  I.collectUses(Uses);
  unsigned Total = static_cast<unsigned>(
      std::count(Uses.begin(), Uses.end(), R));
  unsigned Explicit = 0;
  const OpcodeInfo &Info = opcodeInfo(I.Op);
  if (Info.NumSrcs >= 1 && I.Src1 == R)
    ++Explicit;
  if (Info.NumSrcs >= 2 && I.Src2 == R)
    ++Explicit;
  return Total > Explicit;
}

/// Attempts to combine the starting copy/immediate at \p Start. \returns
/// true if the function changed.
bool combineFrom(Function &F, const Cfg &G, const Liveness &Live,
                 Pos Start) {
  Instr &StartI = Start.BB->instrs()[Start.Idx];
  Reg RD = StartI.Dst;
  Reg RS = StartI.Src1; // invalid for LI
  bool IsCopy = StartI.Op == Opcode::LR;
  if (!RD.isGpr())
    return false;
  if (IsCopy && RD == RS) {
    Start.BB->instrs().erase(Start.BB->instrs().begin() +
                             static_cast<long>(Start.Idx));
    return true;
  }

  // Walk forward until the last use of RD.
  std::vector<Pos> Path; // every instruction walked, in order
  std::vector<Pos> Uses;
  bool CrossedJoin = false;
  bool LastUseKillsRd = false;
  BasicBlock *BB = Start.BB;
  size_t Idx = Start.Idx + 1;
  unsigned Walked = 0;
  std::vector<Reg> Tmp;
  std::unordered_set<const BasicBlock *> VisitedBlocks; // no loops
  VisitedBlocks.insert(BB);

  while (true) {
    if (Idx >= BB->size() || Walked >= Window) {
      if (Walked >= Window)
        break;
      // Block boundary: follow fallthrough or an unconditional branch.
      BasicBlock *Next = nullptr;
      if (BB->canFallThrough()) {
        size_t BI = F.indexOf(BB);
        if (BI + 1 >= F.blocks().size())
          break;
        Next = F.blocks()[BI + 1].get();
      }
      if (!Next)
        break; // RET or conditional suffix handled below as instructions
      if (G.preds(Next).size() > 1)
        CrossedJoin = true;
      if (VisitedBlocks.count(Next))
        break;
      VisitedBlocks.insert(Next);
      BB = Next;
      Idx = 0;
      continue;
    }
    Instr &J = BB->instrs()[Idx];
    ++Walked;

    if (J.Op == Opcode::B) {
      BasicBlock *Next = F.findBlock(J.Target);
      assert(Next && "verified function");
      if (G.preds(Next).size() > 1)
        CrossedJoin = true;
      if (VisitedBlocks.count(Next))
        break;
      VisitedBlocks.insert(Next);
      Path.push_back(Pos{BB, Idx});
      BB = Next;
      Idx = 0;
      continue;
    }
    if (J.isCondBranch() || J.isRet()) {
      // Cannot follow both ways; stop here (RD must be dead past the last
      // use, checked below).
      if (hasImplicitUseOf(J, RD))
        return false; // e.g. RET with RD callee-saved
      if (J.isCondBranch() && J.Src1 == RD)
        return false; // conditional branches read CRs; defensive
      break;
    }

    // Uses of RD must be rewriteable. Uses are processed before the def
    // check so "LR r5=r33; AI r5=r5,1" combines (the use instruction may
    // itself redefine RD, which also ends the live range).
    bool UsesRd = false;
    Tmp.clear();
    J.collectUses(Tmp);
    if (std::find(Tmp.begin(), Tmp.end(), RD) != Tmp.end()) {
      if (hasImplicitUseOf(J, RD))
        return false;
      if (!IsCopy) {
        // Probe foldability on a scratch copy.
        Instr Probe = J;
        if (!foldImmediateUse(Probe, RD, StartI.Imm))
          return false;
      }
      UsesRd = true;
      Uses.push_back(Pos{BB, Idx});
    }

    // Defs of RD or RS end the walk after this instruction.
    Tmp.clear();
    J.collectDefs(Tmp);
    bool DefsRd = std::find(Tmp.begin(), Tmp.end(), RD) != Tmp.end();
    if (DefsRd || (IsCopy && std::find(Tmp.begin(), Tmp.end(), RS) !=
                                 Tmp.end())) {
      if (UsesRd && DefsRd) {
        // The last use also redefines RD: the old value is trivially dead
        // afterwards.
        Path.push_back(Pos{BB, Idx});
        LastUseKillsRd = true;
      } else if (UsesRd) {
        // Uses RD while redefining RS: rewriting would read the new RS.
        Uses.pop_back();
      }
      break;
    }
    Path.push_back(Pos{BB, Idx});
    ++Idx;
  }

  if (Uses.empty())
    return false;
  Pos LastUse = Uses.back();

  // RD must be dead after the last use (on every path) — unless that use
  // itself redefined RD.
  bool LastIsKiller =
      LastUseKillsRd && LastUse.BB == Path.back().BB &&
      LastUse.Idx == Path.back().Idx;
  if (!LastIsKiller && Live.isLiveAfter(LastUse.BB, LastUse.Idx, RD))
    return false;

  auto RewriteUse = [&](Instr &I) {
    bool Ok = IsCopy ? rewriteCopyUse(I, RD, RS)
                     : foldImmediateUse(I, RD, StartI.Imm);
    assert(Ok && "use became unrewriteable?");
    (void)Ok;
  };

  if (!CrossedJoin) {
    // In-place rewrite, then drop the starting instruction.
    for (const Pos &UsePos : Uses)
      RewriteUse(UsePos.BB->instrs()[UsePos.Idx]);
    Start.BB->instrs().erase(Start.BB->instrs().begin() +
                             static_cast<long>(Start.Idx));
    return true;
  }

  // Duplicate the walked sequence up to the last use, in place of the
  // starting instruction, closed by a branch to the continuation.
  // Continuation: the instruction after the last use.
  std::string ContLabel;
  if (LastUse.Idx + 1 < LastUse.BB->size()) {
    // Split the last-use block.
    size_t LBIdx = F.indexOf(LastUse.BB);
    BasicBlock *C = F.insertBlock(LBIdx + 1, LastUse.BB->label() + ".cont");
    auto &Ins = LastUse.BB->instrs();
    C->instrs().assign(Ins.begin() + static_cast<long>(LastUse.Idx) + 1,
                       Ins.end());
    Ins.erase(Ins.begin() + static_cast<long>(LastUse.Idx) + 1, Ins.end());
    ContLabel = C->label();
  } else {
    size_t LBIdx = F.indexOf(LastUse.BB);
    assert(LastUse.BB->canFallThrough() && LBIdx + 1 < F.blocks().size() &&
           "last use at a function tail?");
    ContLabel = F.blocks()[LBIdx + 1]->label();
  }

  // Build the duplicate (skipping unconditional branches along the path).
  std::vector<Instr> Dup;
  for (const Pos &P : Path) {
    // Stop after the last use.
    const Instr &Orig = P.BB->instrs()[P.Idx];
    if (Orig.Op == Opcode::B)
      continue;
    Instr Copy = Orig;
    F.assignId(Copy);
    std::vector<Reg> U;
    Copy.collectUses(U);
    if (std::find(U.begin(), U.end(), RD) != U.end())
      RewriteUse(Copy);
    Dup.push_back(std::move(Copy));
    if (P.BB == LastUse.BB && P.Idx == LastUse.Idx)
      break;
  }
  Instr Closer;
  Closer.Op = Opcode::B;
  Closer.Target = ContLabel;
  F.assignId(Closer);
  Dup.push_back(std::move(Closer));

  // Replace the start block's tail (which was the first path segment) with
  // the duplicate.
  auto &StartIns = Start.BB->instrs();
  StartIns.erase(StartIns.begin() + static_cast<long>(Start.Idx),
                 StartIns.end());
  for (Instr &I : Dup)
    StartIns.push_back(std::move(I));
  // The start block's terminator suffix changed in place.
  F.noteCfgEdit();
  return true;
}

/// Local copy coalescing: "X: op rS = ...; ...; LR rD = rS" with rS dead
/// after the copy and rD/rS untouched in between becomes "op rD = ..."
/// (the paper's "coalescing" stage that leaves the lone AI in the
/// load/store-motion example). \returns true if a copy was coalesced.
bool coalesceOnce(Function &F, const Cfg &G, const Liveness &Live) {
  std::vector<Reg> Tmp;
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    if (!G.isReachable(BB))
      continue;
    for (size_t I = 0; I != BB->size(); ++I) {
      const Instr &Copy = BB->instrs()[I];
      if (Copy.Op != Opcode::LR || !Copy.Dst.isGpr() || !Copy.Src1.isGpr())
        continue;
      Reg RD = Copy.Dst, RS = Copy.Src1;
      if (RD == RS) {
        BB->instrs().erase(BB->instrs().begin() + static_cast<long>(I));
        return true;
      }
      // rS must die at the copy.
      if (Live.isLiveAfter(BB, I, RS))
        continue;
      // Scan backwards for rS's defining instruction.
      for (size_t J = I; J-- > 0;) {
        Instr &Def = BB->instrs()[J];
        Tmp.clear();
        Def.collectDefs(Tmp);
        bool DefsRs = std::find(Tmp.begin(), Tmp.end(), RS) != Tmp.end();
        bool DefsRd = std::find(Tmp.begin(), Tmp.end(), RD) != Tmp.end();
        if (DefsRs) {
          if (DefsRd || !opcodeInfo(Def.Op).HasDst || Def.Dst != RS ||
              Def.isCall() || Def.Op == Opcode::LU)
            break;
          Def.Dst = RD;
          BB->instrs().erase(BB->instrs().begin() + static_cast<long>(I));
          return true;
        }
        if (DefsRd)
          break;
        Tmp.clear();
        Def.collectUses(Tmp);
        if (std::find(Tmp.begin(), Tmp.end(), RS) != Tmp.end() ||
            std::find(Tmp.begin(), Tmp.end(), RD) != Tmp.end())
          break;
      }
    }
  }
  return false;
}

/// Store-to-load forwarding: a doubleword load whose location must-alias
/// an earlier same-block store, with every store in between provably
/// disjoint, reads exactly the stored register. Doubleword only: smaller
/// stores truncate while loads sign-extend, so forwarding the full stored
/// register would be wrong for out-of-range values. The load becomes an
/// LR the combining walk then collapses. \returns true on a rewrite.
bool forwardStoreToLoadOnce(Function &F, const Cfg &G,
                            FunctionAnalyses &FA) {
  // Built at the first query: nothing changes the function before it.
  const AliasAnalysis *AA = nullptr;
  std::vector<Reg> Tmp;
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    if (!G.isReachable(BB))
      continue;
    auto &Ins = BB->instrs();
    for (size_t I = 0; I != Ins.size(); ++I) {
      const Instr &Ld = Ins[I];
      if (Ld.Op != Opcode::L || Ld.IsVolatile || Ld.MemSize != 8 ||
          !Ld.Dst.isGpr())
        continue;
      std::unordered_set<Reg, RegHash> Between; // defs in (store, load)
      for (size_t J = I; J-- > 0;) {
        const Instr &St = Ins[J];
        if (St.isCall())
          break;
        if (St.isStore()) {
          // SameExecution needs the shared base untouched between the
          // store and the load; Between holds exactly the defs in that
          // window (the store's own defs are added after this check).
          AliasScope Scope = AliasScope::CrossExecution;
          if (St.memBase() == Ld.memBase() && !Between.count(Ld.memBase()))
            Scope = AliasScope::SameExecution;
          if (!AA)
            AA = &FA.aliasAnalysis();
          AliasResult R = AA->alias(St, Ld, Scope);
          if (R == AliasResult::MustAlias) {
            if (St.MemSize == 8 && !St.IsVolatile && St.Src1.isGpr() &&
                !Between.count(St.Src1)) {
              Instr Copy;
              Copy.Op = Opcode::LR;
              Copy.Dst = Ld.Dst;
              Copy.Src1 = St.Src1;
              Copy.Id = Ld.Id;
              Ins[I] = Copy;
              return true;
            }
            break; // the value comes from this store but can't be forwarded
          }
          if (R == AliasResult::MayAlias)
            break;
          // NoAlias: provably disjoint, keep scanning past it.
        }
        Tmp.clear();
        St.collectDefs(Tmp);
        for (Reg D : Tmp)
          Between.insert(D);
      }
    }
  }
  return false;
}

} // namespace

bool vsc::limitedCombine(Function &F, FunctionAnalyses &FA, bool FlowAlias) {
  bool Any = false;
  for (unsigned Guard = 0; Guard < 64; ++Guard) {
    const Cfg &G = FA.cfg();
    const Liveness &Live = FA.liveness();
    bool Changed = false;
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *BB = BBPtr.get();
      if (!G.isReachable(BB))
        continue;
      for (size_t I = 0; I != BB->size(); ++I) {
        const Instr &Ins = BB->instrs()[I];
        if (Ins.Op != Opcode::LR && Ins.Op != Opcode::LI)
          continue;
        if (combineFrom(F, G, Live, Pos{BB, I})) {
          Changed = true;
          break;
        }
      }
      if (Changed)
        break;
    }
    if (!Changed)
      Changed = coalesceOnce(F, G, Live);
    // Alias facts only where a query follows: nothing above changed the
    // function this round, so they describe the code the round began with.
    if (!Changed && FlowAlias)
      Changed = forwardStoreToLoadOnce(F, G, FA);
    if (!Changed)
      break;
    // Every rewrite above leaves the terminator suffixes alone, except
    // duplication, which notes its CFG edit itself.
    FA.invalidate(PreservedAnalyses::structure());
    Any = true;
    removeUnreachableBlocks(F);
  }
  return Any;
}
