//===- audit/Checkers.h - Semantic static-analysis checkers ---*- C++ -*-===//
///
/// \file
/// The four dataflow-based checkers behind PassAudit. Each appends findings
/// to an AuditResult and never mutates the IR (non-const Function access
/// inside the implementations exists only because Cfg takes a Function&).
///
/// What each checker proves:
///
///  * auditUseBeforeDef — every register read is reached by a definition on
///    *all* paths from the entry (forward must-defined dataflow over the
///    Cfg). ABI live-in registers (r1/sp, r2/TOC, the r3..r10 argument
///    registers, and the r13..r31 callee-saved set) are whitelisted.
///    CALL clobbers (r0, r4..r12, cr0..cr7, ctr) are treated as *kills*,
///    not definitions — reading one after a call without redefining it is
///    reading garbage; only r3 (the return value) is defined by a call.
///
///  * auditSpeculationSafety — differential: every load that a pass moved
///    above one of its guarding conditional branches (guard = a branch
///    that dominates the load's old position and that the load did not
///    post-dominate) must satisfy the paper's speculation-safety
///    conditions — provably non-trapping (isSafeSpeculativeLoad: !safe
///    annotation, owned stack frame, or TOC-anchored global of sufficient
///    extent) or covered by a dominating same-address access (MustAlias
///    under analysis/MemAlias). Trap-capable or side-effecting matched
///    instructions (DIV, LU, stores, calls) may never lose a guard.
///    Instructions are matched across the pass by their unique Instr::Id
///    (clones get fresh ids, so only genuinely *moved* code is compared),
///    and a lost guard is enforced only when it is provably speculation:
///    the guard branch must survive textually unchanged (same opcode,
///    condition, and target) in its original block, and the site's new
///    block must (reflexively) dominate the branch's block — the shape of
///    an upward hoist past the branch. Sites that merely lost the
///    dominance relation because a restructuring pass relabelled,
///    duplicated, or retargeted the control flow around them are skipped;
///    their guard structure is re-derived at the next snapshot.
///
///  * auditScheduleHazards — re-derives each block's VLIW packing
///    (packIntoVliwWords) and validates it with an independent model: per
///    dispatch group no more than FxuWidth/BuWidth operations per unit,
///    groups in non-decreasing cycle order covering every instruction
///    exactly once, and no non-branch instruction consuming a result
///    before MachineModel::defLatency cycles after its producer issued.
///
///  * auditCfgLoopIntegrity — CFG/loop invariants the reordering passes
///    must preserve: the entry block has no predecessors (otherwise the
///    prolog would re-execute), instruction ids stay unique (the clone
///    bookkeeping discipline the differential checkers rely on), no edge
///    enters a natural loop except through its header, and — differential,
///    when a "before" function is supplied — a back-edge branch that
///    survives a pass and still targets its old loop header must still be
///    dominated by it (a pass that breaks this has made the loop
///    irreducible, e.g. by jumping into the middle of an unrolled body).
///    The back-edge check stands down when the pass visibly restructured
///    the loop on purpose: the header's own instructions changed, or a
///    freshly created block (label that did not exist before the pass)
///    acquired an edge into the old loop body, as block expansion does
///    when it tail-duplicates the header compare into predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_AUDIT_CHECKERS_H
#define VSC_AUDIT_CHECKERS_H

#include "audit/Audit.h"
#include "ir/Module.h"
#include "machine/MachineModel.h"
#include "vliw/Schedule.h"

namespace vsc {

/// Dominance-based use-before-def audit (see file comment).
void auditUseBeforeDef(const Function &F, AuditResult &R);

/// Differential speculation-safety audit of \p After relative to
/// \p Before (the same function, snapshotted before the pass). \p M
/// provides global extents for load-safety proofs.
void auditSpeculationSafety(const Function &Before, const Function &After,
                            const Module &M, AuditResult &R);

/// Validates one explicit packing of \p BB against \p MM. Exposed so tests
/// can feed hand-built (corrupt) packings; auditScheduleHazards feeds it
/// packIntoVliwWords output.
void auditPacking(const Function &F, const BasicBlock &BB,
                  const std::vector<VliwWord> &Words, const MachineModel &MM,
                  AuditResult &R);

/// Packs every block of \p F under \p MM and validates the packing.
void auditScheduleHazards(const Function &F, const MachineModel &MM,
                          AuditResult &R);

/// CFG/loop-integrity audit; \p Before enables the differential back-edge
/// check and may be null.
void auditCfgLoopIntegrity(const Function *Before, const Function &After,
                           AuditResult &R);

} // namespace vsc

#endif // VSC_AUDIT_CHECKERS_H
