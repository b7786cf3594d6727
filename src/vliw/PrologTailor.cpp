//===- vliw/PrologTailor.cpp - Callee-save shrink wrapping -------------------===//

#include "vliw/PrologTailor.h"

#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"
#include "vliw/Frame.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace vsc;

namespace {

const char *SpillTag = "$csave";

/// Callee-saved registers written anywhere in \p F, in id order.
std::vector<Reg> killedCalleeSaved(const Function &F) {
  std::vector<bool> Killed(32, false);
  std::vector<Reg> Tmp;
  for (const auto &BB : F.blocks())
    for (const Instr &I : BB->instrs()) {
      Tmp.clear();
      I.collectDefs(Tmp);
      for (Reg D : Tmp)
        if (D.isCalleeSaved())
          Killed[D.id()] = true;
    }
  std::vector<Reg> Out;
  for (uint32_t Id = 13; Id <= 31; ++Id)
    if (Killed[Id])
      Out.push_back(Reg::gpr(Id));
  return Out;
}

Instr makeSpill(Function &F, Reg R, int64_t Disp, bool IsRestore) {
  Instr I;
  if (IsRestore) {
    I.Op = Opcode::L;
    I.Dst = R;
    I.Src1 = regs::sp();
  } else {
    I.Op = Opcode::ST;
    I.Src1 = R;
    I.Src2 = regs::sp();
  }
  I.Imm = Disp;
  I.MemSize = 8;
  I.Sym = SpillTag;
  F.assignId(I);
  return I;
}

/// \returns blocks reachable from \p From (inclusive).
std::vector<BasicBlock *> reachableFrom(const Cfg &G, BasicBlock *From) {
  std::vector<BasicBlock *> Work{From}, Out;
  std::unordered_set<const BasicBlock *> Seen{From};
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    Out.push_back(BB);
    for (const CfgEdge &E : G.succs(BB))
      if (Seen.insert(E.To).second)
        Work.push_back(E.To);
  }
  return Out;
}

} // namespace

unsigned vsc::insertPrologEpilog(Function &F, FunctionAnalyses &FA,
                                 bool Tailored) {
  std::vector<Reg> Regs = killedCalleeSaved(F);
  if (Regs.empty())
    return 0;
  int64_t Extra = static_cast<int64_t>(8 * Regs.size());
  int64_t SpillBase = growFrame(F, Extra);
  auto SlotOf = [&](Reg R) {
    auto It = std::find(Regs.begin(), Regs.end(), R);
    return SpillBase + 8 * (It - Regs.begin());
  };

  // growFrame edited instructions without touching the block list; any
  // caches carried over from earlier stages are stale now.
  FA.invalidateAll();
  const Cfg &G = FA.cfg();
  const Dominators &Dom = FA.dominators();
  const LoopInfo &LI = FA.loops();

  for (Reg R : Regs) {
    // Save placement.
    BasicBlock *SavePoint = F.entry();
    if (Tailored) {
      // Nearest common dominator of all kills.
      BasicBlock *Ncd = nullptr;
      std::vector<Reg> Tmp;
      for (auto &BBPtr : F.blocks()) {
        BasicBlock *BB = BBPtr.get();
        if (!G.isReachable(BB))
          continue;
        bool Kills = false;
        for (const Instr &I : BB->instrs()) {
          if (!I.Sym.empty() && I.Sym == SpillTag)
            continue;
          Tmp.clear();
          I.collectDefs(Tmp);
          if (std::find(Tmp.begin(), Tmp.end(), R) != Tmp.end())
            Kills = true;
        }
        if (!Kills)
          continue;
        if (!Ncd) {
          Ncd = BB;
          continue;
        }
        // Walk both up the dominator tree to their common ancestor.
        while (Ncd != BB) {
          if (!Dom.dominates(Ncd, BB))
            Ncd = Dom.idom(Ncd) ? Dom.idom(Ncd) : F.entry();
          else
            break;
        }
      }
      if (!Ncd)
        Ncd = F.entry();
      // Never inside a loop.
      while (LI.loopFor(Ncd))
        Ncd = Dom.idom(Ncd) ? Dom.idom(Ncd) : F.entry();
      // Close the region: every block reachable from the save point must
      // be dominated by it, else a join could be reached saved on one path
      // and unsaved on another.
      while (Ncd != F.entry()) {
        bool Closed = true;
        for (BasicBlock *RB : reachableFrom(G, Ncd))
          if (!Dom.dominates(Ncd, RB))
            Closed = false;
        if (Closed)
          break;
        Ncd = Dom.idom(Ncd) ? Dom.idom(Ncd) : F.entry();
      }
      SavePoint = Ncd;
    }

    // Insert the save at the top of the save point (after the frame
    // adjustment in the entry block).
    {
      size_t At = 0;
      if (SavePoint == F.entry() && frameAdjustment(F))
        At = 1;
      SavePoint->instrs().insert(SavePoint->instrs().begin() +
                                     static_cast<long>(At),
                                 makeSpill(F, R, SlotOf(R), false));
    }

    // Restores before every return reachable from the save point.
    for (BasicBlock *RB : reachableFrom(G, SavePoint)) {
      for (size_t I = 0; I != RB->size(); ++I) {
        if (!RB->instrs()[I].isRet())
          continue;
        // Before the epilogue frame pop when present.
        size_t At = I;
        if (At > 0) {
          const Instr &Prev = RB->instrs()[At - 1];
          if (Prev.Op == Opcode::AI && Prev.Dst == regs::sp() &&
              Prev.Src1 == regs::sp())
            --At;
        }
        RB->instrs().insert(RB->instrs().begin() + static_cast<long>(At),
                            makeSpill(F, R, SlotOf(R), true));
        ++I;
      }
    }
  }
  return static_cast<unsigned>(Regs.size());
}

std::string vsc::verifyUnwindInvariant(Function &F) {
  Cfg G(F);
  // Forward dataflow of the saved set (bitmask over r13..r31). A block's
  // in-state must be identical along every incoming edge.
  std::unordered_map<const BasicBlock *, uint32_t> InState;
  std::unordered_map<const BasicBlock *, bool> HasIn;
  std::vector<BasicBlock *> Work{F.entry()};
  InState[F.entry()] = 0;
  HasIn[F.entry()] = true;

  auto MaskOf = [](Reg R) { return 1u << (R.id() - 13); };

  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    uint32_t Saved = InState[BB];
    for (const Instr &I : BB->instrs()) {
      if (I.Sym == SpillTag && I.Op == Opcode::ST)
        Saved |= MaskOf(I.Src1);
      else if (I.Sym == SpillTag && I.Op == Opcode::L)
        Saved &= ~MaskOf(I.Dst);
      else if (I.isRet() && Saved != 0)
        return F.name() + ":" + BB->label() +
               ": return with unrestored saved registers";
    }
    for (const CfgEdge &E : G.succs(BB)) {
      auto It = HasIn.find(E.To);
      if (It != HasIn.end() && It->second) {
        if (InState[E.To] != Saved)
          return F.name() + ":" + E.To->label() +
                 ": reached with differing saved sets (the unwind "
                 "invariant is violated)";
        continue;
      }
      HasIn[E.To] = true;
      InState[E.To] = Saved;
      Work.push_back(E.To);
    }
  }
  return "";
}
