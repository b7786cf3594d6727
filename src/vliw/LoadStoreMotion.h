//===- vliw/LoadStoreMotion.h - Speculative load/store motion -*- C++ -*-===//
///
/// \file
/// The paper's "Speculative Load/Store Motion Out of Loops": register-cache
/// a memory location accessed inside a loop — including accesses that are
/// only conditionally executed — when it is provably safe:
///
///  1. every load/store in the group uses the same base register, the same
///     displacement and the same operand length;
///  2. the base register is not written in the loop;
///  3. the location is not volatile;
///  4. the group cannot overlap any other memory reference (load, store or
///     call) within the loop or its inner loops — calls to I/O builtins
///     with known properties (print_int etc., which touch no user memory)
///     are exempt, the paper's "I/O library procedures" special case;
///  5. the access is safe to perform unconditionally: the location is a
///     named global of sufficient size (the paper's "load of the address
///     constant of an external variable of sufficient size" through the
///     TOC), a stack slot, or carries an explicit !safe annotation.
///
/// The transformation loads the location into a fresh register in the loop
/// preheader, rewrites in-loop loads as LR from it and stores as LR into
/// it, and stores the register back on every loop exit edge when the group
/// contained stores.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_LOADSTOREMOTION_H
#define VSC_VLIW_LOADSTOREMOTION_H

#include "ir/Module.h"
#include "pm/Analysis.h"

namespace vsc {

/// Runs the pass on one function; \p M provides global sizes for the
/// safety check. \returns true if any group was moved. \p FlowAlias
/// selects the flow-sensitive tier for condition 4 (and the matching
/// flow-sensitive extension of condition 5's safety proof).
bool speculativeLoadStoreMotion(Function &F, const Module &M,
                                FunctionAnalyses &FA, bool FlowAlias = true);

} // namespace vsc

#endif // VSC_VLIW_LOADSTOREMOTION_H
