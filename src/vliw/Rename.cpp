//===- vliw/Rename.cpp - Live-range renaming in loops -----------------------===//

#include "vliw/Rename.h"

#include "analysis/Liveness.h"
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"

#include <algorithm>
#include <cassert>

using namespace vsc;

std::vector<BasicBlock *> vsc::loopChain(const Cfg &G, const Loop &L) {
  std::vector<BasicBlock *> Chain;
  // No calls (implicit physical-register semantics block renaming) and no
  // load-with-update (its base is both source and destination; renaming the
  // chain would need special handling).
  for (BasicBlock *BB : L.Blocks)
    for (const Instr &I : BB->instrs())
      if (I.isCall() || I.isRet() || I.Op == Opcode::LU)
        return {};

  // Each non-header block must have exactly one in-loop predecessor; walk
  // the unique in-loop successor chain from the header.
  BasicBlock *Cur = L.Header;
  std::unordered_set<const BasicBlock *> Visited;
  while (true) {
    Chain.push_back(Cur);
    Visited.insert(Cur);
    BasicBlock *Next = nullptr;
    for (const CfgEdge &E : G.succs(Cur)) {
      if (!L.contains(E.To) || E.To == L.Header)
        continue;
      if (Next && Next != E.To)
        return {}; // branches to two distinct in-loop blocks
      Next = E.To;
    }
    if (!Next)
      break;
    if (Visited.count(Next))
      return {}; // inner cycle not through the header
    unsigned InLoopPreds = 0;
    for (BasicBlock *P : G.preds(Next))
      if (L.contains(P))
        ++InLoopPreds;
    if (InLoopPreds != 1)
      return {}; // join inside the body
    Cur = Next;
  }
  if (Chain.size() != L.Blocks.size())
    return {}; // disconnected shape
  return Chain;
}

bool vsc::renameLoopLiveRanges(Function &F, const Loop &L) {
  Cfg G(F);
  std::vector<BasicBlock *> Chain = loopChain(G, L);
  if (Chain.empty())
    return false;
  // Every back edge must leave from the chain tail: a renamed (non-final)
  // definition would otherwise be the value a mid-chain back edge carries
  // into the next iteration under its ORIGINAL name, which renaming just
  // destroyed. (Same shape restriction enhanced pipeline scheduling has.)
  for (BasicBlock *Latch : L.Latches)
    if (Latch != Chain.back())
      return false;

  RegUniverse U(F);
  Liveness Live(G, U);

  // Registers defined in the loop, and the position of each reg's last def.
  std::unordered_map<Reg, unsigned, RegHash> DefsTotal;
  std::vector<Reg> Tmp;
  for (BasicBlock *BB : Chain)
    for (const Instr &I : BB->instrs()) {
      Tmp.clear();
      I.collectDefs(Tmp);
      for (Reg D : Tmp)
        if (D.isGpr() || D.isCr())
          ++DefsTotal[D];
    }

  // Insert "LR r = r" on every exit edge for loop-defined GPRs live there.
  // (CRs cannot be copied; a CR live at an exit simply keeps its final
  // name, which the renamer below guarantees for last definitions.)
  struct ExitCopies {
    const BasicBlock *Source; ///< in-loop block the edge leaves
    BasicBlock *CopyBlock;
  };
  std::vector<ExitCopies> Exits;
  for (const CfgEdge &E : L.Exits) {
    std::vector<Reg> LiveRegs;
    for (const auto &[R, N] : DefsTotal)
      if (R.isGpr() && Live.isLiveIn(E.To, R))
        LiveRegs.push_back(R);
    std::sort(LiveRegs.begin(), LiveRegs.end());
    if (LiveRegs.empty())
      continue;
    BasicBlock *S = splitEdge(F, E);
    for (Reg R : LiveRegs) {
      Instr Copy;
      Copy.Op = Opcode::LR;
      Copy.Dst = R;
      Copy.Src1 = R;
      F.assignId(Copy);
      S->instrs().insert(S->instrs().begin(), std::move(Copy));
    }
    Exits.push_back(ExitCopies{E.From, S});
  }

  // Condition registers cannot be copied at exits; a CR live at some exit
  // keeps its name throughout.
  std::unordered_set<uint32_t> CrLiveAtExit;
  for (const CfgEdge &E : L.Exits)
    for (const auto &[R, N] : DefsTotal)
      if (R.isCr() && Live.isLiveIn(E.To, R))
        CrLiveAtExit.insert(R.id());

  // Walk the chain, renaming every non-final definition.
  std::unordered_map<Reg, unsigned, RegHash> DefsSeen;
  std::unordered_map<Reg, Reg, RegHash> Cur;
  auto Resolve = [&](Reg R) {
    auto It = Cur.find(R);
    return It == Cur.end() ? R : It->second;
  };

  bool Renamed = false;
  for (BasicBlock *BB : Chain) {
    for (Instr &I : BB->instrs()) {
      // Rewrite explicit register uses.
      const OpcodeInfo &Info = opcodeInfo(I.Op);
      unsigned NumSrcs = Info.NumSrcs;
      if (NumSrcs >= 1 && (I.Src1.isGpr() || I.Src1.isCr()))
        I.Src1 = Resolve(I.Src1);
      if (NumSrcs >= 2 && (I.Src2.isGpr() || I.Src2.isCr()))
        I.Src2 = Resolve(I.Src2);

      // Rename the definition unless it is the register's last in the body.
      if (Info.HasDst && (I.Dst.isGpr() || I.Dst.isCr())) {
        Reg D = I.Dst;
        unsigned Seen = ++DefsSeen[D];
        if (Seen < DefsTotal[D] &&
            !(D.isCr() && CrLiveAtExit.count(D.id()))) {
          Reg Fresh = D.isGpr() ? F.freshGpr() : F.freshCr();
          I.Dst = Fresh;
          Cur[D] = Fresh;
          Renamed = true;
        } else {
          Cur[D] = D;
        }
      }
    }
    // Fix the exit-copy sources hanging off this block with the current
    // names.
    for (const ExitCopies &E : Exits) {
      if (E.Source != BB)
        continue;
      for (Instr &Copy : E.CopyBlock->instrs())
        if (Copy.Op == Opcode::LR)
          Copy.Src1 = Resolve(Copy.Src1);
    }
  }

  // Drop identity copies the renaming did not touch.
  for (const ExitCopies &E : Exits) {
    auto &Ins = E.CopyBlock->instrs();
    Ins.erase(std::remove_if(Ins.begin(), Ins.end(),
                             [](const Instr &I) {
                               return I.Op == Opcode::LR && I.Dst == I.Src1;
                             }),
              Ins.end());
  }
  return Renamed;
}

unsigned vsc::renameInnermostLoops(Function &F, FunctionAnalyses &FA) {
  unsigned Count = 0;
  std::unordered_set<std::string> Done;
  for (unsigned Guard = 0; Guard < 32; ++Guard) {
    bool Changed = false;
    for (Loop *L : FA.loops().innermostLoops()) {
      if (Done.count(L->Header->label()))
        continue;
      Done.insert(L->Header->label());
      if (renameLoopLiveRanges(F, *L)) {
        // Renaming rewrites instructions and may split exit edges.
        FA.invalidateAll();
        ++Count;
        Changed = true;
        break;
      }
    }
    if (!Changed)
      break;
  }
  return Count;
}
