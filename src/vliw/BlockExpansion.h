//===- vliw/BlockExpansion.h - Basic block expansion ----------*- C++ -*-===//
///
/// \file
/// The paper's "Basic Block Expansion": remove taken unconditional branches
/// from the execution trace by copying code from the branch target. The
/// RS/6000 stalls when an untaken conditional branch is followed
/// immediately by a taken unconditional branch; machine-specific rules
/// (MachineModel::ExpansionObjective) say how many non-branch instructions
/// are needed between a compare, a dependent conditional branch and an
/// unconditional branch to avoid the stall.
///
/// For each unconditional branch lacking that separation, the pass walks
/// the code at the target — past conditional branches and calls (which
/// reset the objective), following further unconditional branches, not
/// copying labels — until it has gathered enough consecutive non-branch
/// instructions, hits a return/branch-on-count, revisits an instruction, or
/// exceeds the window. Good stopping points are instructions immediately
/// preceding conditional branches. The gathered chain is cloned in place of
/// the unconditional branch (the clone ends with a branch to the
/// instruction after the stopping point), so the original taken branch
/// disappears from the trace.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_BLOCKEXPANSION_H
#define VSC_VLIW_BLOCKEXPANSION_H

#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "pm/Analysis.h"

namespace vsc {

/// Runs basic block expansion under \p MM's rules, scanning at most
/// \p Window instructions per branch ("the window size"). \returns true
/// on change.
bool expandBasicBlocks(Function &F, const MachineModel &MM,
                       FunctionAnalyses &FA, unsigned Window = 24);

} // namespace vsc

#endif // VSC_VLIW_BLOCKEXPANSION_H
