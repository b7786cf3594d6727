//===- profile/PdfLayout.h - PDF block reordering & reversal --*- C++ -*-===//
///
/// \file
/// The paper's profile-directed layout applications:
///
///  * Basic block re-ordering: "just before final code generation, the
///    basic blocks are physically reordered following a depth-first
///    enumeration of the flow graph ... the flow graph edges that are
///    executed most frequently are followed first", so the hot path
///    becomes a straight line of fallthroughs; standard straightening runs
///    afterwards.
///  * Branch reversal: conditional branches still taken most of the time
///    are reversed (BT <-> BF with targets swapped through a new
///    unconditional branch), and basic block expansion then copies the old
///    target's code over the new unconditional branch.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PROFILE_PDFLAYOUT_H
#define VSC_PROFILE_PDFLAYOUT_H

#include "machine/MachineModel.h"
#include "profile/ProfileData.h"

namespace vsc {

/// Reorders blocks most-frequent-successor-first. \returns true on change.
bool pdfReorderBlocks(Function &F, const ProfileData &P);

/// Reverses conditional branches taken with probability > \p Threshold and
/// applies basic block expansion to the introduced unconditional branches.
bool pdfReverseBranches(Function &F, const ProfileData &P,
                        const MachineModel &MM, double Threshold = 0.6);

/// Module-level layout application with a *measured* gate: applies
/// reordering + reversal to every function, re-simulates the training
/// battery, and rolls everything back unless the cycles summed over every
/// input improved. Profile-directed feedback with this gate can only help
/// the trained inputs — the safety the paper's "heretofore considered too
/// risky" framing asks for. Each battery is simulated through one
/// predecoded SimEngine and fanned out over \p Threads workers (0 defers
/// to VSC_THREADS; the sum is positional, so the decision is identical at
/// every thread count). An empty battery keeps the layout
/// unconditionally; a trapping training run rolls it back. \returns true
/// if the layout was kept.
bool pdfLayoutMeasured(Module &M, const ProfileData &P,
                       const MachineModel &MM,
                       const std::vector<RunOptions> &TrainBattery,
                       unsigned Threads = 0);

} // namespace vsc

#endif // VSC_PROFILE_PDFLAYOUT_H
