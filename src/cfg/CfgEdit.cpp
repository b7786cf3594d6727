//===- cfg/CfgEdit.cpp - CFG surgery utilities -----------------------------===//

#include "cfg/CfgEdit.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace vsc;

/// Appends "B Target" to \p BB.
static void appendBranch(Function &F, BasicBlock *BB,
                         const std::string &Target) {
  Instr I;
  I.Op = Opcode::B;
  I.Target = Target;
  F.assignId(I);
  BB->instrs().push_back(std::move(I));
}

BasicBlock *vsc::splitEdge(Function &F, const CfgEdge &E) {
  if (!E.IsTaken) {
    // Fallthrough edge: place the new block between the two blocks.
    size_t FromIdx = F.indexOf(E.From);
    assert(FromIdx + 1 < F.blocks().size() &&
           F.blocks()[FromIdx + 1].get() == E.To &&
           "stale fallthrough edge");
    return F.insertBlock(FromIdx + 1, "split");
  }
  // Taken edge: append a trampoline and retarget the branch.
  BasicBlock *S = F.insertBlock(F.blocks().size(), "split");
  appendBranch(F, S, E.To->label());
  assert(E.TermPos >= 0 &&
         E.From->firstTerminatorIdx() + static_cast<size_t>(E.TermPos) <
             E.From->size() &&
         E.branch().Target == E.To->label() && "stale taken edge");
  E.branch().Target = S->label();
  return S;
}

BasicBlock *vsc::ensurePreheader(Function &F, const Cfg &G, Loop &L) {
  BasicBlock *Header = L.Header;
  // An existing preheader?
  BasicBlock *OutsidePred = nullptr;
  unsigned NumOutside = 0;
  for (BasicBlock *P : G.preds(Header)) {
    if (L.contains(P))
      continue;
    ++NumOutside;
    OutsidePred = P;
  }
  if (NumOutside == 1 && G.succs(OutsidePred).size() == 1 &&
      OutsidePred != F.entry())
    return OutsidePred;

  size_t HeaderIdx = F.indexOf(Header);
  // If the layout-previous block is an in-loop fallthrough latch, make its
  // back edge explicit so the new preheader does not intercept it.
  if (HeaderIdx > 0) {
    BasicBlock *Prev = F.blocks()[HeaderIdx - 1].get();
    if (L.contains(Prev) && Prev->canFallThrough())
      appendBranch(F, Prev, Header->label());
  }
  BasicBlock *PH = F.insertBlock(HeaderIdx, "preheader");
  // Retarget every outside-loop branch aimed at the header.
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *BB = BBPtr.get();
    if (BB == PH || L.contains(BB))
      continue;
    for (size_t II = BB->firstTerminatorIdx(); II != BB->size(); ++II) {
      Instr &I = BB->instrs()[II];
      if (I.isBranch() && I.Target == Header->label())
        I.Target = PH->label();
    }
  }
  return PH; // falls through into the header
}

void vsc::layoutBlocks(Function &F, const std::vector<BasicBlock *> &Order) {
  // Record the current fallthrough target of every block.
  std::unordered_map<BasicBlock *, BasicBlock *> FallTarget;
  for (size_t I = 0, E = F.blocks().size(); I != E; ++I) {
    BasicBlock *BB = F.blocks()[I].get();
    if (BB->canFallThrough() && I + 1 < E)
      FallTarget[BB] = F.blocks()[I + 1].get();
  }

  // Build the permutation: Order first, then leftover blocks.
  std::unordered_set<BasicBlock *> InOrder(Order.begin(), Order.end());
  std::vector<std::unique_ptr<BasicBlock>> NewBlocks;
  NewBlocks.reserve(F.blocks().size());
  auto Steal = [&](BasicBlock *Want) {
    for (auto &Slot : F.blocks())
      if (Slot.get() == Want) {
        NewBlocks.push_back(std::move(Slot));
        return;
      }
    assert(false && "ordered block not in function");
  };
  for (BasicBlock *BB : Order)
    Steal(BB);
  for (auto &Slot : F.blocks())
    if (Slot && !InOrder.count(Slot.get()))
      NewBlocks.push_back(std::move(Slot));
  F.blocks() = std::move(NewBlocks);
  assert(!Order.empty() && F.entry() == Order.front() &&
         "entry must stay first");

  // Restore semantics: insert explicit branches where fallthrough broke.
  for (size_t I = 0, E = F.blocks().size(); I != E; ++I) {
    BasicBlock *BB = F.blocks()[I].get();
    auto It = FallTarget.find(BB);
    if (It == FallTarget.end())
      continue;
    BasicBlock *Next = I + 1 < E ? F.blocks()[I + 1].get() : nullptr;
    if (Next != It->second)
      appendBranch(F, BB, It->second->label());
  }
  F.noteCfgEdit();
}

size_t vsc::removeUnreachableBlocks(Function &F) {
  Cfg G(F);
  size_t Removed = 0;
  for (size_t I = F.blocks().size(); I-- > 0;) {
    if (!G.isReachable(F.blocks()[I].get())) {
      F.eraseBlock(I);
      ++Removed;
    }
  }
  return Removed;
}

/// One straightening round; \returns true if something changed.
static bool straightenOnce(Function &F) {
  // (a) Delete "B next" and conditional branches to their own fallthrough.
  for (size_t BI = 0, BE = F.blocks().size(); BI != BE; ++BI) {
    BasicBlock *BB = F.blocks()[BI].get();
    BasicBlock *Next = BI + 1 < BE ? F.blocks()[BI + 1].get() : nullptr;
    if (!BB->empty() && BB->instrs().back().Op == Opcode::B && Next &&
        BB->instrs().back().Target == Next->label()) {
      BB->instrs().pop_back();
      return true;
    }
    // [BT X, B X] — the conditional branch is pointless.
    size_t N = BB->size();
    if (N >= 2 && BB->instrs()[N - 1].Op == Opcode::B &&
        BB->instrs()[N - 2].isCondBranch() &&
        BB->instrs()[N - 2].Op != Opcode::BCT &&
        BB->instrs()[N - 2].Target == BB->instrs()[N - 1].Target) {
      BB->instrs().erase(BB->instrs().begin() + static_cast<long>(N) - 2);
      return true;
    }
    // [BT next] — conditional branch to the fallthrough target.
    if (N >= 1 && BB->instrs().back().isCondBranch() &&
        BB->instrs().back().Op != Opcode::BCT && Next &&
        BB->instrs().back().Target == Next->label()) {
      BB->instrs().pop_back();
      return true;
    }
    // [BT X, B Y] where X is the layout-next block: invert the condition
    // so the hot path falls through ("branch reversal" in its classical
    // straightening form).
    if (N >= 2 && BB->instrs()[N - 1].Op == Opcode::B &&
        (BB->instrs()[N - 2].Op == Opcode::BT ||
         BB->instrs()[N - 2].Op == Opcode::BF) &&
        Next && BB->instrs()[N - 2].Target == Next->label()) {
      Instr &Cond = BB->instrs()[N - 2];
      Cond.Op = Cond.Op == Opcode::BT ? Opcode::BF : Opcode::BT;
      Cond.Target = BB->instrs()[N - 1].Target;
      BB->instrs().pop_back();
      return true;
    }
  }

  // (b) Thread branches through empty forwarding blocks ("B T" only).
  for (auto &BBPtr : F.blocks()) {
    BasicBlock *E = BBPtr.get();
    if (E == F.entry() || E->size() != 1 ||
        E->instrs()[0].Op != Opcode::B)
      continue;
    const std::string &T = E->instrs()[0].Target;
    if (T == E->label())
      continue; // self loop
    bool Changed = false;
    for (auto &OtherPtr : F.blocks()) {
      BasicBlock *O = OtherPtr.get();
      if (O == E)
        continue;
      for (size_t II = O->firstTerminatorIdx(); II != O->size(); ++II) {
        Instr &I = O->instrs()[II];
        if (I.isBranch() && I.Target == E->label()) {
          I.Target = T;
          Changed = true;
        }
      }
    }
    if (Changed)
      return true;
  }

  // (c) Merge single-pred/single-succ straight-line pairs.
  {
    Cfg G(F);
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *A = BBPtr.get();
      if (!G.isReachable(A))
        continue;
      const auto &Succs = G.succs(A);
      if (Succs.size() != 1)
        continue;
      BasicBlock *S = Succs[0].To;
      if (S == A || S == F.entry() || G.preds(S).size() != 1)
        continue;
      // Drop A's trailing unconditional branch, splice S in, remove S. If
      // S could fall through, that successor is positional: make it
      // explicit first so the splice cannot change it.
      if (S->canFallThrough()) {
        BasicBlock *SFall = G.fallthroughOf(S);
        if (!SFall)
          continue; // S at function end relies on verifier-rejected shape
        appendBranch(F, S, SFall->label());
      }
      if (!A->empty() && A->instrs().back().Op == Opcode::B)
        A->instrs().pop_back();
      else
        assert(G.fallthroughOf(A) == S && "unexpected merge shape");
      for (Instr &I : S->instrs())
        A->instrs().push_back(std::move(I));
      F.eraseBlock(F.indexOf(S));
      return true;
    }
  }

  return false;
}

bool vsc::straighten(Function &F) {
  bool Any = false;
  while (straightenOnce(F)) {
    Any = true;
    // Rounds (a)/(b) delete or retarget branches in place, which no
    // block-list mutator sees — record the structural edit explicitly.
    F.noteCfgEdit();
    removeUnreachableBlocks(F);
  }
  removeUnreachableBlocks(F);
  return Any;
}
