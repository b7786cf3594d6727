//===- cfg/CfgEdit.h - CFG surgery utilities ------------------*- C++ -*-===//
///
/// \file
/// Control-flow-graph editing primitives shared by the optimization passes:
/// edge splitting, preheader creation, physical block reordering,
/// unreachable-code elimination, straightening and branch simplification
/// (the paper relies on "standard code straightening optimizations of the
/// XLC compiler" after its reordering steps; these are ours).
///
/// All functions invalidate previously computed Cfg views.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_CFG_CFGEDIT_H
#define VSC_CFG_CFGEDIT_H

#include "cfg/Cfg.h"
#include "cfg/Loops.h"

namespace vsc {

/// Splits \p E by inserting a fresh empty block on it. For a fallthrough
/// edge the new block is placed between the two blocks in layout; for a
/// taken edge the new block is appended (ending with "B To") and the branch
/// identified by E.TermPos is retargeted. \returns the new block.
BasicBlock *splitEdge(Function &F, const CfgEdge &E);

/// \returns the preheader of \p L (the unique out-of-loop predecessor of
/// the header whose only successor is the header), creating one if needed.
/// \p G must be the Cfg the loop was computed from and is invalidated when
/// a block is created (the caller should rebuild if it keeps using it).
BasicBlock *ensurePreheader(Function &F, const Cfg &G, Loop &L);

/// Physically reorders blocks into \p Order (which must be a permutation of
/// the reachable blocks; unreachable blocks are appended at the end), then
/// inserts unconditional branches wherever a block's fallthrough successor
/// changed, preserving semantics — step 1 of the paper's unspeculation
/// algorithm and the core of PDF block reordering.
void layoutBlocks(Function &F, const std::vector<BasicBlock *> &Order);

/// Removes blocks unreachable from the entry. \returns number removed.
size_t removeUnreachableBlocks(Function &F);

/// Branch cleanups: deletes unconditional branches to the next block in
/// layout, conditional branches whose target equals their fallthrough,
/// threads jumps to empty forwarding blocks, and merges single-pred,
/// single-succ straight-line chains. Iterates to a fixed point.
/// \returns true if anything changed.
bool straighten(Function &F);

} // namespace vsc

#endif // VSC_CFG_CFGEDIT_H
