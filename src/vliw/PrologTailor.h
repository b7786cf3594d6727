//===- vliw/PrologTailor.h - Callee-save shrink wrapping ------*- C++ -*-===//
///
/// \file
/// The paper's "Prolog Tailoring": delay the saving of killed callee-saved
/// registers (r13..r31 under the RS/6000 linkage convention) from the
/// function entry to the latest point that still satisfies the unwind
/// invariant the paper introduces for exception handling:
///
///   "at any point in the procedure, all paths reaching this point from
///    the start of the procedure have the same set of saved registers"
///
/// Placement: each killed register's save is placed at the nearest common
/// dominator of its kills, hoisted (a) out of loops — register saves are
/// never pushed inside loops — and (b) upward until the dominated region
/// is closed (every block reachable from the save point is dominated by
/// it), which is exactly what makes the invariant hold. Restores are
/// placed before every return reachable from the save point.
///
/// This dominator-closure placement substitutes for the paper's
/// biconnected-component tree + MustKill formulation; it enforces the same
/// invariant and produces the same code shape on the paper's example
/// (DESIGN.md records the substitution). verifyUnwindInvariant() checks the
/// invariant by forward dataflow and is used by the tests.
///
/// Frame protocol: if the entry starts with "SI r1 = r1, FS" the pass grows
/// FS by the spill area and places slots at [FS, FS+8*N); otherwise it
/// inserts the frame adjustment itself. Every RET must be preceded by the
/// matching "AI r1 = r1, FS" (inserted when absent). Spills carry the
/// "$csave" annotation so the checker can recognise them.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_PROLOGTAILOR_H
#define VSC_VLIW_PROLOGTAILOR_H

#include "ir/Function.h"
#include "pm/Analysis.h"

#include <string>

namespace vsc {

/// Inserts callee-save spills/reloads for every killed r13..r31.
/// \p Tailored false = classic prolog (all saves at entry, all restores at
/// every return); true = the paper's tailored placement, which reads \p FA.
/// The spill insertions leave \p FA stale. \returns number of registers
/// saved.
unsigned insertPrologEpilog(Function &F, FunctionAnalyses &FA,
                            bool Tailored);

/// Checks the paper's unwind invariant on a function processed by
/// insertPrologEpilog: every join point must be reached with one unique
/// saved-register set, and every return must restore exactly the saved
/// set. \returns "" when the invariant holds, else a diagnostic.
std::string verifyUnwindInvariant(Function &F);

} // namespace vsc

#endif // VSC_VLIW_PROLOGTAILOR_H
