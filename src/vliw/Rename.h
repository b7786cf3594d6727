//===- vliw/Rename.h - Live-range renaming in loops -----------*- C++ -*-===//
///
/// \file
/// Live-range renaming of (unrolled) loop bodies, the paper's enabler for
/// cross-iteration scheduling: every non-final definition of a register in
/// the body receives a fresh name, breaking anti- and output-dependences
/// between unrolled iterations. Following the paper, "for each register r
/// that is live at an edge that leaves the loop, a copy operation LR r=r is
/// inserted at that exit edge before live range renaming" — renaming then
/// rewrites the copy's source, producing the non-coalesceable LR the
/// paper's listings show at the `found:` exit.
///
/// Scope: loops whose body is a linear chain of blocks (each non-header
/// block has exactly one in-loop predecessor and each block at most one
/// in-loop successor besides the back edge) and that contain no calls.
/// These are exactly the loop shapes the scheduler pipelines; DESIGN.md
/// records the restriction.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_RENAME_H
#define VSC_VLIW_RENAME_H

#include "cfg/Loops.h"
#include "ir/Function.h"
#include "pm/Analysis.h"

namespace vsc {

/// \returns the loop body as a linear chain starting at the header, or an
/// empty vector if the loop is not chain-shaped (or contains calls).
std::vector<BasicBlock *> loopChain(const Cfg &G, const Loop &L);

/// Renames live ranges in \p L. \returns true if renaming was performed.
/// Invalidate CFG analyses afterwards (exit edges are split for copies).
bool renameLoopLiveRanges(Function &F, const Loop &L);

/// Runs renaming on every innermost chain-shaped loop. \returns count.
unsigned renameInnermostLoops(Function &F, FunctionAnalyses &FA);

} // namespace vsc

#endif // VSC_VLIW_RENAME_H
