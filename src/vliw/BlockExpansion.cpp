//===- vliw/BlockExpansion.cpp - Basic block expansion -----------------------===//

#include "vliw/BlockExpansion.h"

#include "cfg/CfgEdit.h"

#include <cstdio>

#include <cassert>
#include <unordered_set>

using namespace vsc;

namespace {

/// Expansions applied per function at most (the code-growth bound).
constexpr unsigned MaxExpansions = 16;

struct Pos {
  BasicBlock *BB;
  size_t Idx;
};

/// Non-branch instructions at the tail of \p BB before its terminator
/// suffix, since the last call (a block-local approximation of "code
/// immediately preceding the branch").
unsigned tailSeparation(const BasicBlock &BB) {
  size_t FirstTerm = BB.firstTerminatorIdx();
  unsigned N = 0;
  for (size_t I = FirstTerm; I-- > 0;) {
    const Instr &Ins = BB.instrs()[I];
    if (Ins.isCall())
      break;
    ++N;
  }
  // A conditional branch inside the suffix (the [BT, B] shape) means the
  // unconditional branch sits directly in a branch shadow.
  if (FirstTerm + 1 < BB.size())
    return 0;
  return N;
}

/// Walks the code starting at label \p Target gathering the copy region.
/// \returns true and sets \p Stop (inclusive) on success.
bool findStoppingPoint(Function &F, const std::string &Target, unsigned Need,
                       unsigned Window, Pos &Stop) {
  BasicBlock *BB = F.findBlock(Target);
  assert(BB && "verified function");
  size_t Idx = 0;
  unsigned Run = 0;
  unsigned Walked = 0;
  bool HaveBest = false;
  Pos Best{nullptr, 0};
  Pos Prev{nullptr, 0};
  std::unordered_set<const BasicBlock *> Visited;
  Visited.insert(BB);

  while (Walked < Window) {
    if (Idx >= BB->size()) {
      // Fallthrough.
      size_t BI = F.indexOf(BB);
      if (BI + 1 >= F.blocks().size())
        break;
      BB = F.blocks()[BI + 1].get();
      if (Visited.count(BB))
        break; // revisited: stop
      Visited.insert(BB);
      Idx = 0;
      continue;
    }
    Instr &J = BB->instrs()[Idx];
    ++Walked;
    if (J.Op == Opcode::B) {
      // Follow the unconditional branch without copying it.
      BasicBlock *Next = F.findBlock(J.Target);
      if (!Next || Visited.count(Next))
        break;
      Visited.insert(Next);
      BB = Next;
      Idx = 0;
      continue;
    }
    if (J.isRet() || J.Op == Opcode::BCT) {
      // The search stops at returns and branch-on-count — inclusively: a
      // clone may legally end with the RET, or with the BCT followed by a
      // branch to its fallthrough continuation.
      Stop = Pos{BB, Idx};
      return true;
    }
    if (J.isCondBranch() || J.isCall()) {
      // Good stopping point: the instruction immediately preceding a
      // conditional branch.
      if (J.isCondBranch() && Prev.BB && Run > 0) {
        Best = Prev;
        HaveBest = true;
      }
      Run = 0; // objective re-calculated past conditional branches/calls
      Prev = Pos{BB, Idx};
      ++Idx;
      continue;
    }
    ++Run;
    Prev = Pos{BB, Idx};
    if (Run >= Need) {
      Stop = Pos{BB, Idx};
      return true;
    }
    ++Idx;
  }
  if (HaveBest) {
    Stop = Best;
    return true;
  }
  return false;
}

/// Clones the chain from \p Target up to and including \p Stop, placing the
/// clones right after block \p P (which must end with the unconditional
/// branch being expanded). The final clone branches to the instruction
/// after \p Stop.
// NOTE: Target is taken by value — the caller's string lives inside the
// unconditional branch this function deletes.
void cloneChain(Function &F, BasicBlock *P, const std::string Target,
                Pos Stop) {
  bool StopIsRet = Stop.BB->instrs()[Stop.Idx].isRet();
  // Continuation label: split Stop's block after Stop.Idx if needed.
  std::string ContLabel;
  if (StopIsRet) {
    ContLabel.clear(); // the clone ends with the return itself
  } else if (Stop.Idx + 1 < Stop.BB->size()) {
    size_t SBIdx = F.indexOf(Stop.BB);
    BasicBlock *C = F.insertBlock(SBIdx + 1, Stop.BB->label() + ".bx");
    auto &Ins = Stop.BB->instrs();
    C->instrs().assign(Ins.begin() + static_cast<long>(Stop.Idx) + 1,
                       Ins.end());
    Ins.erase(Ins.begin() + static_cast<long>(Stop.Idx) + 1, Ins.end());
    ContLabel = C->label();
  } else {
    size_t SBIdx = F.indexOf(Stop.BB);
    assert(Stop.BB->canFallThrough() && SBIdx + 1 < F.blocks().size());
    ContLabel = F.blocks()[SBIdx + 1]->label();
  }

  // Remove P's trailing unconditional branch; clones are laid right after
  // P so execution falls into them.
  assert(!P->empty() && P->instrs().back().Op == Opcode::B);
  P->instrs().pop_back();

  size_t InsertAt = F.indexOf(P) + 1;
  BasicBlock *BB = F.findBlock(Target);
  size_t Idx = 0;
  BasicBlock *Clone = F.insertBlock(InsertAt++, P->label() + ".x");
  unsigned Guard = 0;
  while (true) {
    if (!BB || ++Guard > 4096) {
      std::fprintf(stderr,
                   "cloneChain diverged: P=%s target=%s stop=%s/%zu\n",
                   P->label().c_str(), Target.c_str(),
                   Stop.BB->label().c_str(), Stop.Idx);
      assert(false && "chain walk diverged from findStoppingPoint");
    }
    if (Idx >= BB->size()) {
      size_t BI = F.indexOf(BB);
      BB = F.blocks()[BI + 1].get();
      Idx = 0;
      continue;
    }
    const Instr &J = BB->instrs()[Idx];
    if (J.Op == Opcode::B) {
      BB = F.findBlock(J.Target);
      Idx = 0;
      continue;
    }
    Instr Copy = J;
    F.assignId(Copy);
    Clone->instrs().push_back(std::move(Copy));
    bool AtStop = (BB == Stop.BB && Idx == Stop.Idx);
    if (AtStop)
      break;
    if (J.isCondBranch()) {
      // The clone keeps the conditional branch (same target) and continues
      // on the fallthrough path in a fresh clone block.
      Clone = F.insertBlock(InsertAt++, P->label() + ".x");
    }
    ++Idx;
  }
  if (!ContLabel.empty()) {
    Instr Closer;
    Closer.Op = Opcode::B;
    Closer.Target = ContLabel;
    F.assignId(Closer);
    Clone->instrs().push_back(std::move(Closer));
  }
}

} // namespace

bool vsc::expandBasicBlocks(Function &F, const MachineModel &MM,
                            FunctionAnalyses &FA, unsigned Window) {
  bool Any = false;
  // Each expansion restructures the layout; restart the scan after one.
  // cloneChain inserts blocks, so the epoch bump refreshes the cached Cfg
  // on the next round automatically.
  for (unsigned Guard = 0; Guard < MaxExpansions; ++Guard) {
    const Cfg &G = FA.cfg();
    bool Changed = false;
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *P = BBPtr.get();
      if (!G.isReachable(P) || P->empty())
        continue;
      const Instr &Last = P->instrs().back();
      if (Last.Op != Opcode::B)
        continue;
      if (tailSeparation(*P) >= MM.ExpansionObjective)
        continue; // no stall to remove
      // Self-loops are the loop latch's business, not expansion's.
      if (Last.Target == P->label())
        continue;
      unsigned Need = MM.ExpansionObjective;
      Pos Stop{nullptr, 0};
      if (!findStoppingPoint(F, Last.Target, Need, Window, Stop))
        continue;
      // The walk can wrap around a loop and stop inside P itself; the
      // continuation split would then steal the very branch being
      // expanded. Skip that degenerate case.
      if (Stop.BB == P)
        continue;
      cloneChain(F, P, Last.Target, Stop);
      Changed = true;
      Any = true;
      break;
    }
    if (!Changed)
      break;
  }
  if (Any) {
    removeUnreachableBlocks(F);
    straighten(F);
  }
  return Any;
}
