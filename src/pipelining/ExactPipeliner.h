//===- pipelining/ExactPipeliner.h - B&B modulo scheduler -----*- C++ -*-===//
///
/// \file
/// The search layer of the exact software-pipelining subsystem
/// (DESIGN.md §16): a branch-and-bound modulo scheduler over the loop's
/// dependence graph (analysis/DepGraph.h) its min-II record carries.
///
/// For each candidate II starting at max(resMII, recMII), every body
/// operation gets one decision variable — an absolute issue cycle in
/// [0, MaxStages*II); cycle mod II is the operation's reservation slot,
/// cycle / II its pipeline stage. Constraints:
///
///  * latency/distance: cycle(To) >= cycle(From) + Lat - II*Dist for every
///    dependence edge;
///  * resources: at most FxuWidth FXU ops and BuWidth BU ops share any
///    residue class mod II (the modulo reservation table);
///  * normalization: the first operation placed is pinned to [0, II) — a
///    uniform shift of all cycles permutes residues without changing
///    feasibility, so this prunes pure translates of the same schedule.
///
/// Operations are placed in decreasing dependence-height order; each
/// placement enumerates only the window its already-placed neighbours
/// allow. Every attempted placement counts against a node budget; a search
/// cut by the budget is "incomplete" and can no longer prove infeasibility
/// at its II. Verdicts over the swept II range [minII, maxII]:
///
///  * Optimal         — schedule found, every lower II searched to
///                      completion (proven no better II exists in-model);
///  * Feasible        — schedule found, but some lower II search was cut
///                      by the budget (a better schedule may exist);
///  * BudgetExceeded  — nothing found and at least one search was cut;
///  * Infeasible      — nothing found, every candidate II searched to
///                      completion (or the loop shape is outside the
///                      model: non-chain loops, oversized bodies).
///
/// The harness types below (LoopPipelineRecord, PipelineLoopLog) carry the
/// per-loop grading results — achieved-II vs. min-II vs. exact-II — from
/// the pipelining pass to PipelineStats, deterministically across the
/// parallel per-function driver.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PIPELINING_EXACTPIPELINER_H
#define VSC_PIPELINING_EXACTPIPELINER_H

#include "pipelining/MinII.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vsc {

/// How the exact scheduler participates in the pipeline (wired through
/// PipelineOptions::ExactPipelining).
enum class ExactPipelineMode : uint8_t {
  Off,   ///< never runs
  Grade, ///< runs as a pure oracle; records gaps, changes no code
  Apply, ///< additionally substitutes its kernel when it beats the
         ///< heuristic's steady-state estimate
};

enum class ExactVerdict : uint8_t {
  Optimal,
  Feasible,
  BudgetExceeded,
  Infeasible,
};

const char *exactVerdictName(ExactVerdict V);
const char *exactPipelineModeName(ExactPipelineMode M);

/// Budget and shape caps of the exact search.
struct ExactPipelinerOptions {
  /// Placement attempts across all candidate IIs of one loop; the search
  /// stops (BudgetExceeded/Feasible) when exhausted.
  uint64_t NodeBudget = 200000;
  /// Schedule length cap: cycles live in [0, MaxStages*II).
  unsigned MaxStages = 4;
  /// Loops with more flattened body instructions are not searched.
  unsigned MaxBodyInstrs = 48;
  /// Absolute ceiling on the candidate II sweep.
  unsigned MaxII = 64;
};

/// Outcome of one loop's search.
struct ExactSchedule {
  ExactVerdict Verdict = ExactVerdict::Infeasible;
  unsigned II = 0;             ///< best II found (0 = none)
  std::vector<unsigned> Cycle; ///< absolute cycle per body op when II != 0
  uint64_t NodesExplored = 0;
};

/// Searches candidate IIs in [max(1, MinII), MaxII] for \p Body under
/// dependence graph \p G. Branch operations occupy BU reservation slots
/// but have no dependence edges (see pipelining/MinII.h).
ExactSchedule exactScheduleLoop(const std::vector<Instr> &Body,
                                const DepGraph &G,
                                const MachineModel &MM, unsigned MinII,
                                unsigned MaxII,
                                const ExactPipelinerOptions &Opts);

/// Grading result for one pipelined innermost loop.
struct LoopPipelineRecord {
  std::string Function;
  std::string Header;
  unsigned BodyInstrs = 0;
  unsigned ResMII = 0;
  unsigned RecMII = 0;
  /// Steady-state II the heuristic rotation pass reached.
  unsigned HeuristicII = 0;
  /// Best II the exact scheduler found (0 = none within budget/caps).
  unsigned ExactII = 0;
  ExactVerdict Verdict = ExactVerdict::Infeasible;
  uint64_t NodesExplored = 0;
  /// Rotations the heuristic kept.
  unsigned Rotations = 0;
  /// Apply mode substituted an exact-guided kernel.
  bool Applied = false;
  /// Final steady-state II of the emitted loop (== HeuristicII unless
  /// Applied).
  unsigned AchievedII = 0;

  unsigned minII() const { return ResMII > RecMII ? ResMII : RecMII; }
};

/// Thread-safe sink for per-function record batches; sorted() gives the
/// deterministic (function, header) order every exporter uses, so
/// PipelineStats is byte-identical at every VSC_THREADS count.
class PipelineLoopLog {
public:
  void append(std::vector<LoopPipelineRecord> Records);
  std::vector<LoopPipelineRecord> sorted() const;

private:
  mutable std::mutex Mu;
  std::vector<LoopPipelineRecord> All;
};

} // namespace vsc

#endif // VSC_PIPELINING_EXACTPIPELINER_H
