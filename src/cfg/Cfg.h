//===- cfg/Cfg.h - Control-flow graph view --------------------*- C++ -*-===//
///
/// \file
/// A lightweight control-flow-graph view over a Function. Successors are
/// derived from each block's terminator suffix and the layout order
/// (fallthrough). The view is computed once at construction. It stays
/// valid while only non-terminators are inserted, erased or rewritten;
/// an edit of a terminator suffix or of the block list needs a rebuild.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_CFG_CFG_H
#define VSC_CFG_CFG_H

#include "ir/Function.h"

#include <unordered_map>
#include <vector>

namespace vsc {

/// One control-flow edge. \c IsTaken distinguishes the branch-taken edge
/// from the fallthrough edge (a block can have both to the same target).
/// For taken edges \c TermPos is the position of the branch that creates
/// the edge within From's terminator suffix (0 for the first terminator),
/// so edge-splitting can retarget exactly the right branch; it is -1 for
/// fallthrough edges. Counting from the suffix rather than the block start
/// keeps every edge valid when non-terminators are inserted or erased.
struct CfgEdge {
  BasicBlock *From = nullptr;
  BasicBlock *To = nullptr;
  bool IsTaken = false;
  int TermPos = -1;

  /// The branch that creates a taken edge.
  Instr &branch() const {
    return From->instrs()[From->firstTerminatorIdx() +
                          static_cast<size_t>(TermPos)];
  }

  bool operator==(const CfgEdge &RHS) const {
    return From == RHS.From && To == RHS.To && IsTaken == RHS.IsTaken &&
           TermPos == RHS.TermPos;
  }
};

class Cfg {
public:
  explicit Cfg(Function &F);

  Function &function() const { return F; }

  const std::vector<CfgEdge> &succs(const BasicBlock *BB) const {
    return SuccMap.at(BB);
  }
  const std::vector<BasicBlock *> &preds(const BasicBlock *BB) const {
    return PredMap.at(BB);
  }
  /// Every edge, ordered by source layout index (taken edges first).
  const std::vector<CfgEdge> &edges() const { return Edges; }

  /// Blocks in reverse postorder from the entry (unreachable blocks are
  /// excluded).
  const std::vector<BasicBlock *> &rpo() const { return Rpo; }

  /// Position of \p BB in the reverse postorder, or -1 if unreachable.
  int rpoIndex(const BasicBlock *BB) const {
    auto It = RpoIndex.find(BB);
    return It == RpoIndex.end() ? -1 : It->second;
  }

  bool isReachable(const BasicBlock *BB) const {
    return RpoIndex.count(BB) != 0;
  }

  /// \returns the fallthrough successor of \p BB (the next block in layout
  /// order) when execution can fall through, else null.
  BasicBlock *fallthroughOf(const BasicBlock *BB) const;

private:
  Function &F;
  std::unordered_map<const BasicBlock *, std::vector<CfgEdge>> SuccMap;
  std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>> PredMap;
  std::vector<CfgEdge> Edges;
  std::vector<BasicBlock *> Rpo;
  std::unordered_map<const BasicBlock *, int> RpoIndex;
};

} // namespace vsc

#endif // VSC_CFG_CFG_H
