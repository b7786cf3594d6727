//===- vliw/Unspeculation.h - Push speculative code below branches -*- C++ -*-===//
///
/// \file
/// The paper's "Unspeculation": discover operations whose results do not
/// contribute on one side of a conditional branch and push them down onto
/// the branch edge where their destinations are live, making them
/// non-speculative there. Per the paper's algorithm:
///
///  1. blocks are first physically reordered in reverse postorder (with
///     patch-up branches to preserve semantics);
///  2. for each conditional branch, the instructions preceding it are
///     examined in reverse order, each deciding to stay, go to the left
///     edge, or go to the right edge;
///  3. moves chain: pushing one instruction down can enable the one above
///     it, and code can be pushed repeatedly under successive branches
///     (the pass iterates to a fixed point);
///  4. code is never pushed into a loop from the outside, but speculative
///     code inside a loop IS pushed out through its exits (including BCT
///     fallthrough exits).
///
/// Move legality (the paper's conditions): the destinations are dead on
/// exactly one target edge; no instruction between the candidate and the
/// branch sets its sources or destinations, uses its destinations, or (for
/// loads) may store to the loaded location; and the candidate has no side
/// effects. Moving down executes the operation strictly less often, so
/// potentially-trapping operations (loads, DIV) are also eligible.
///
/// Deviation from the paper (recorded in DESIGN.md): we move individual
/// instructions rather than whole single-entry single-exit groups;
/// iteration to a fixed point recovers the common group cases since
/// straight-line groups drain one instruction at a time.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_UNSPECULATION_H
#define VSC_VLIW_UNSPECULATION_H

#include "ir/Function.h"
#include "pm/Analysis.h"

namespace vsc {

/// Runs unspeculation on \p F. \returns true if anything moved.
/// \p FlowAlias selects the flow-sensitive disambiguation tier for the
/// "may store to the loaded location" legality check.
bool unspeculate(Function &F, FunctionAnalyses &FA, bool FlowAlias = true);

/// Step 1 only: physically reorder the blocks in reverse postorder,
/// inserting patch-up branches. Exposed separately because profile-directed
/// block reordering reuses it with a different order.
void reorderReversePostorder(Function &F);

} // namespace vsc

#endif // VSC_VLIW_UNSPECULATION_H
