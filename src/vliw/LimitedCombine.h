//===- vliw/LimitedCombine.h - Limited combining --------------*- C++ -*-===//
///
/// \file
/// The paper's "Limited Combining": collapse a register copy (LR rD=rS) or
/// load-immediate (LI rD=imm) into its later users, even when they sit in
/// other basic blocks. The search walks forward from the starting
/// instruction, through fallthroughs and unconditional branches, possibly
/// across join points, until the last use of rD. If neither rD nor rS is
/// redefined on the way, the uses are rewritten (rS substituted, or the
/// immediate folded into immediate-form opcodes) and the starting
/// instruction is deleted. When the walk crossed a join point, the walked
/// sequence is duplicated in place of the starting instruction and closed
/// with a branch to the instruction following the last use, leaving the
/// original sequence for the paths that join mid-way — exactly the code
/// shape of the paper's example. Unreachable originals are cleaned by
/// standard unreachable-code elimination.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_LIMITEDCOMBINE_H
#define VSC_VLIW_LIMITEDCOMBINE_H

#include "ir/Function.h"
#include "pm/Analysis.h"

namespace vsc {

/// Runs limited combining to a fixed point. \returns true on change.
/// \p FlowAlias enables store-to-load forwarding through the
/// flow-sensitive alias analysis: a doubleword load that must-alias an
/// earlier same-block store (with only provably-disjoint stores in between)
/// becomes an LR from the stored register, which the combining walk then
/// collapses.
bool limitedCombine(Function &F, FunctionAnalyses &FA, bool FlowAlias = true);

} // namespace vsc

#endif // VSC_VLIW_LIMITEDCOMBINE_H
