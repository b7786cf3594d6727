//===- audit/PassAudit.h - Pass-boundary audit harness --------*- C++ -*-===//
///
/// \file
/// The pass-boundary harness behind PipelineOptions::Audit. A PassAudit
/// keeps a snapshot (deep clone, instruction ids preserved) of every
/// function; each checkpoint re-audits the functions whose text changed
/// since the snapshot, running verifyFunction plus the absolute checkers
/// (use-before-def, schedule-hazard, CFG/loop integrity) and the
/// differential checkers against the snapshot (speculation safety,
/// back-edge preservation). On success the snapshot advances; on failure
/// the findings are stamped with the offending pipeline stage and
/// AuditResult::Report carries a printable diagnosis including an IR diff
/// of each offending function — "which pass broke which invariant".
///
//===----------------------------------------------------------------------===//

#ifndef VSC_AUDIT_PASSAUDIT_H
#define VSC_AUDIT_PASSAUDIT_H

#include "analysis/MemAlias.h"
#include "audit/Audit.h"
#include "ir/Module.h"
#include "machine/MachineModel.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vsc {

/// Deep copy of \p F preserving instruction ids (the currency of the
/// differential checkers).
std::unique_ptr<Function> cloneFunction(const Function &F);

/// Deep copy of \p M: globals and functions, instruction ids preserved,
/// fresh-register and fresh-id counters advanced past everything in use —
/// safe to instrument or optimize independently of the original. One
/// build + N clones replaces N rebuilds in the PDF experiments.
std::unique_ptr<Module> cloneModule(const Module &M);

/// One-shot audit of \p M (the vsc-audit CLI entry point): verifyModule
/// plus every absolute checker on every function; when \p Before is given,
/// additionally the differential checkers on functions present in both
/// modules (matched by name).
AuditResult auditModule(const Module &M, const MachineModel &MM,
                        const Module *Before = nullptr);

class PassAudit {
public:
  PassAudit(AuditLevel Level, const MachineModel &MM)
      : Level(Level), MM(MM), AliasSnap(aliasQueryCounters()) {}

  AuditLevel level() const { return Level; }
  bool enabled() const { return Level != AuditLevel::Off; }
  /// \returns true when per-sub-pass checkpoints (inside the per-function
  /// VLIW pipeline) should run.
  bool full() const { return Level == AuditLevel::Full; }

  /// First checkpoint: audits the input module with the absolute checkers
  /// and takes the initial snapshot.
  AuditResult begin(const Module &M) { return checkpoint(M, "input"); }

  /// Audits every function of \p M whose printed form changed since its
  /// snapshot. Advances the snapshots only when the audit is clean.
  AuditResult checkpoint(const Module &M, const std::string &Stage);

  /// Audits a single function (used for per-sub-pass checkpoints at Full
  /// level, where only \p F can have changed).
  AuditResult checkpointFunction(const Function &F, const Module &M,
                                 const std::string &Stage);

  /// Disambiguation queries and flow-sensitive analysis builds attributed
  /// to each pipeline stage: the delta of the process-wide counters
  /// (analysis/MemAlias.h) between checkpoints, charged to the stage that
  /// just ran. Per-function stage
  /// names "pass(fn)" are merged under the bare pass name; the audit's own
  /// queries (speculation-safety checking) are excluded by re-snapshotting
  /// after each checkpoint's checkers finish.
  const std::vector<std::pair<std::string, AliasQueryCounters>> &
  aliasQueryLog() const {
    return QueryLog;
  }

private:
  void auditOne(const Function &F, const Module &M, AuditResult &R,
                std::vector<const Function *> &Changed);
  void finalize(AuditResult &R, const std::string &Stage,
                const std::vector<const Function *> &Changed);
  void chargeAliasQueries(const std::string &Stage);

  AuditLevel Level;
  MachineModel MM;
  std::unordered_map<std::string, std::unique_ptr<Function>> Snap;
  std::unordered_map<std::string, std::string> SnapText;
  AliasQueryCounters AliasSnap;
  std::vector<std::pair<std::string, AliasQueryCounters>> QueryLog;
};

} // namespace vsc

#endif // VSC_AUDIT_PASSAUDIT_H
