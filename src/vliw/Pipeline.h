//===- vliw/Pipeline.h - Optimization pipelines ---------------*- C++ -*-===//
///
/// \file
/// The compiler driver: sequences the passes the way the paper's prototype
/// does. Three levels exist:
///
///  * OptLevel::None      — as written, plus classic prologs.
///  * OptLevel::Classical — the "xlc -O" baseline: classical scalar
///    optimizations plus classic (entry) prologs.
///  * OptLevel::Vliw      — the paper's "-O3" prototype: classical, then
///    speculative load/store motion, unspeculation, unrolling + live-range
///    renaming, enhanced pipeline scheduling, global scheduling, limited
///    combining, cleanup, basic block expansion and tailored prologs. With
///    a profile attached, PDF block reordering, branch reversal and the
///    profile scheduling heuristic run as well.
///
/// Every pass-enable flag exists so the ablation benches (experiment A1)
/// can knock out one technique at a time.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_PIPELINE_H
#define VSC_VLIW_PIPELINE_H

#include "analysis/MemAlias.h"
#include "audit/Audit.h"
#include "ir/Module.h"
#include "machine/MachineModel.h"
#include "oracle/ExecOracle.h"
#include "pipelining/ExactPipeliner.h"
#include "pm/Analysis.h"
#include "sim/Simulator.h"

#include <functional>
#include <utility>

namespace vsc {

class ProfileData;

enum class OptLevel { None, Classical, Vliw };

/// Aggregate counters the driver can export after a run (see
/// bench_compile_time's cache-hit column).
struct PipelineStats {
  /// Analysis-cache hits/misses across every function (pm/Analysis.h),
  /// and the misses (analysis builds) by AnalysisKind, which sum to
  /// AnalysisMisses.
  uint64_t AnalysisHits = 0;
  uint64_t AnalysisMisses = 0;
  uint64_t AnalysisMissesByKind[NumAnalysisKinds] = {};
  /// Measured PDF-layout gate decision: -1 the gate did not run (no
  /// profile, or no training battery to measure), 0 the layout was rolled
  /// back, 1 it was kept. Cross-process experiments compare this
  /// (scripts/ci.sh checks pdf_workflow against vscc); pdfLayoutName
  /// spells it.
  int PdfLayoutKept = -1;
  /// Per-stage alias query and build deltas (analysis/MemAlias.h counters,
  /// snapshotted by the PassAudit checkpoints — empty unless Audit is
  /// enabled). Per-function checkpoint names "pass(fn)" are merged under
  /// the bare pass name; bench_audit_overhead prints the table.
  std::vector<std::pair<std::string, AliasQueryCounters>> AliasQueriesByStage;
  /// One record per chain-shaped innermost loop the pipelining pass
  /// attempted, sorted by (function, header) — byte-identical at every
  /// thread count. Empty unless ExactPipelining != Off.
  std::vector<LoopPipelineRecord> PipelineLoops;
};

struct PipelineOptions {
  MachineModel Machine;
  /// Inline small pure-leaf callees first (exposes call-bearing loops to
  /// renaming and pipeline scheduling). Off by default so the SPECint
  /// comparison measures the paper's techniques in isolation; see
  /// bench_extensions.
  bool Inlining = false;
  bool LoadStoreMotion = true;
  bool Unspeculation = true;
  bool UnrollAndRename = true;
  bool Pipelining = true;
  bool GlobalScheduling = true;
  bool Combining = true;
  bool BlockExpansion = true;
  bool TailorProlog = true;
  /// Insert callee-save prologs/epilogs at all (needed for correctness of
  /// functions killing r13..r31; off only for IR that manages them
  /// manually).
  bool InsertPrologs = true;
  /// Run linear-scan register allocation after optimization (and before
  /// prolog insertion, so exactly the callee-saved registers the
  /// allocator used get saved). Off by default: the paper measures
  /// pre-allocation code, and the simulator models post-allocation
  /// semantics either way.
  bool AllocateRegisters = false;
  /// Profile for PDF (reordering, reversal, scheduling heuristics).
  const ProfileData *Profile = nullptr;
  /// Training battery for the measured PDF-layout gate: the layout
  /// applications are kept only if simulated cycles summed over every
  /// input improve (see pdfLayoutMeasured), each input run through one
  /// predecoded engine and fanned out over Threads workers. A single input
  /// is a battery of one; null or empty keeps the layout unconditionally.
  const std::vector<RunOptions> *TrainBattery = nullptr;
  /// Trace-scheduling-style superblock formation (requires Profile): tail-
  /// duplicate hot traces before scheduling, the IMPACT-flavoured baseline
  /// the paper contrasts its profile-independent techniques with. Off by
  /// default; bench_superblock compares.
  bool Superblocks = false;
  /// Disambiguate memory with the flow-sensitive alias tier
  /// (analysis/ValueTrack.h) in every consumer pass — dependence building,
  /// load/store motion, unspeculation, LVN/LICM, combining. Off falls back
  /// to the purely syntactic per-instruction MemRegion comparison; this is
  /// the ablation axis bench_alias measures.
  bool FlowSensitiveAlias = true;
  /// Exact software pipelining (pipelining/ExactPipeliner.h). Grade runs
  /// the branch-and-bound modulo scheduler as a per-loop oracle and only
  /// records achieved-II vs. min-II vs. exact-II into Stats->PipelineLoops;
  /// Apply additionally substitutes the exact kernel when it strictly
  /// beats the heuristic's steady state. Requires Pipelining.
  ExactPipelineMode ExactPipelining = ExactPipelineMode::Off;
  /// Budget knobs for the exact search. Folded into optionsFingerprint
  /// (they change Apply-mode output bytes).
  ExactPipelinerOptions ExactPipeline;
  /// Dynamically validate NoAlias claims (audit/AliasAudit.h): the claims
  /// the pipeline's own disambiguation queries issue are collected during
  /// the run, and an "alias-audit" module pass (before renumbering, since
  /// claims are keyed by instruction id) re-enumerates claims on the final
  /// module, simulates the audit battery with an effective-address watcher
  /// and aborts if any claimed-NoAlias pair overlapped inside its window.
  /// The audit simulates defaultAliasAuditBattery().
  bool AliasAudit = false;
  /// Verify the module between pass stages (aborts with the stage name on
  /// breakage) — on by default; this project treats it as a regression net.
  bool Verify = true;
  /// Semantic pass auditing (audit/PassAudit.h): Off, Boundaries (audit at
  /// the same module-level stage boundaries Verify checks), or Full
  /// (additionally after every individual VLIW pass inside the per-function
  /// pipeline). On failure the pipeline aborts, naming the pass that broke
  /// the invariant and printing an IR diff of the offending function.
  AuditLevel Audit = AuditLevel::Off;
  /// Differential execution oracle (oracle/ExecOracle.h): Off, Boundaries
  /// (execute changed functions against their snapshot at the stage
  /// boundaries Verify checks) or Full (additionally after every
  /// individual VLIW pass). On divergence the pipeline aborts, naming the
  /// pass and printing the reproducing input plus an interleaved execution
  /// trace. PageZeroReadable is taken from Machine, not from OracleCfg.
  OracleLevel Oracle = OracleLevel::Off;
  OracleOptions OracleCfg;
  /// Worker threads for the per-function pass stages. 0 defers to the
  /// VSC_THREADS environment variable (default 1); values are clamped to
  /// [1, 64]. Output is byte-identical at every thread count; module-level
  /// stages (inlining, PDF layout) always run serially, and Full-level
  /// audit/oracle instrumentation forces the whole run serial because its
  /// per-pass checkpoints observe cross-function state mid-chain.
  unsigned Threads = 0;
  /// When set, analysis-cache counters are accumulated here after the run.
  PipelineStats *Stats = nullptr;

  PipelineOptions();
};

/// Optimizes \p M in place at level \p L.
void optimize(Module &M, OptLevel L, const PipelineOptions &Opts);
inline void optimize(Module &M, OptLevel L) {
  optimize(M, L, PipelineOptions());
}

/// Canonical fingerprint of every option that can change the bytes of the
/// optimized module: the level, every pass toggle, the exact-pipelining
/// mode and budgets, and the machine parameters (machineFingerprint). Two optimize() runs over
/// modules with equal content and equal option fingerprints produce
/// byte-identical output. Deliberately EXCLUDED: Threads (byte-identical
/// at every count by the parallel driver's contract), Stats, and the
/// verification/audit/oracle levels (observers that abort rather than
/// transform). Profile and TrainBattery are folded in as present/absent
/// markers only — a caller keying cached artifacts (the compile service)
/// must additionally fold the profile and gate-battery CONTENT hashes
/// into its key.
uint64_t optionsFingerprint(OptLevel L, const PipelineOptions &Opts);

/// Clone-and-optimize: the shape every staged driver wants (PDF baseline
/// and guided compiles, the compile service's cached compile stage).
/// \p Source is never modified.
std::unique_ptr<Module> optimizedClone(const Module &Source, OptLevel L,
                                       const PipelineOptions &Opts);

/// Human-readable name for reports.
const char *optLevelName(OptLevel L);

/// Report name of a PipelineStats::PdfLayoutKept decision: "unconditional"
/// (-1), "rolled-back" (0) or "kept" (1).
const char *pdfLayoutName(int Kept);

/// Installs a hook whose string is printed to stderr right before the
/// pipeline aborts on a verification/audit/oracle failure. Harnesses use
/// it to attach reproduction context (e.g. the fuzz seed and generated
/// source) to otherwise-anonymous aborts. Pass nullptr to clear.
void setPipelineFailureHook(std::function<std::string()> Hook);

} // namespace vsc

#endif // VSC_VLIW_PIPELINE_H
