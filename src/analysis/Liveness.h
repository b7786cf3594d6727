//===- analysis/Liveness.h - Live-register analysis -----------*- C++ -*-===//
///
/// \file
/// Classic backward live-variable analysis over a dense register numbering.
/// Used by unspeculation ("destination registers dead on one target"),
/// live-range renaming (loop-exit copies), global scheduling (speculation
/// legality) and dead-code elimination.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_ANALYSIS_LIVENESS_H
#define VSC_ANALYSIS_LIVENESS_H

#include "cfg/Cfg.h"
#include "support/BitVector.h"

#include <unordered_map>

namespace vsc {

/// Dense numbering of every register mentioned in a function.
class RegUniverse {
public:
  explicit RegUniverse(const Function &F);

  size_t size() const { return Regs.size(); }

  /// \returns the dense index of \p R, or -1 if R never appears.
  int indexOf(Reg R) const {
    auto It = Index.find(R);
    return It == Index.end() ? -1 : It->second;
  }

  Reg regAt(size_t Idx) const { return Regs[Idx]; }

private:
  void note(Reg R) {
    if (R.isValid() && !Index.count(R)) {
      Index[R] = static_cast<int>(Regs.size());
      Regs.push_back(R);
    }
  }

  std::vector<Reg> Regs;
  std::unordered_map<Reg, int, RegHash> Index;
};

class Liveness {
public:
  Liveness(const Cfg &G, const RegUniverse &U);

  const RegUniverse &universe() const { return U; }

  const BitVector &liveIn(const BasicBlock *BB) const { return In.at(BB); }
  const BitVector &liveOut(const BasicBlock *BB) const { return Out.at(BB); }

  bool isLiveIn(const BasicBlock *BB, Reg R) const {
    int Idx = U.indexOf(R);
    return Idx >= 0 && liveIn(BB).test(static_cast<size_t>(Idx));
  }
  bool isLiveOut(const BasicBlock *BB, Reg R) const {
    int Idx = U.indexOf(R);
    return Idx >= 0 && liveOut(BB).test(static_cast<size_t>(Idx));
  }

  /// Live set immediately before each instruction of \p BB:
  /// result[i] = registers live before instruction i; result.back()
  /// (index size()) = live-out of the block. Recomputed on demand.
  std::vector<BitVector> liveAtEachInstr(const BasicBlock *BB) const;

  /// \returns true if \p R is live immediately after instruction \p Idx
  /// of \p BB: the first later instruction of the block that mentions R
  /// reads it, or none mentions it and R is live-out. Builds no sets.
  bool isLiveAfter(const BasicBlock *BB, size_t Idx, Reg R) const;

  /// Updates the solution after one global-scheduling hoist: an
  /// instruction left the non-terminator prefix of \p Source, legally
  /// for every predecessor of Source, and a copy joined each
  /// predecessor's non-terminator prefix. Only Source's live-in and its
  /// predecessors' live-out can change (DESIGN.md §12 proves it); they are
  /// recomputed from \p G, the unchanged graph. \returns true if Source's
  /// live-in set changed.
  bool updateAfterHoist(const Cfg &G, const BasicBlock *Source);

private:
  /// Steps \p Live, the set live just after \p Ins, back to the set live
  /// just before it. \p Tmp is scratch.
  void stepBack(const Instr &Ins, BitVector &Live,
                std::vector<Reg> &Tmp) const;

  const RegUniverse &U;
  std::unordered_map<const BasicBlock *, BitVector> In, Out;
};

} // namespace vsc

#endif // VSC_ANALYSIS_LIVENESS_H
