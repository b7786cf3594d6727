//===- vliw/Schedule.h - Global scheduling + pipelining -------*- C++ -*-===//
///
/// \file
/// The scheduling core of the reproduction, after the paper's "Unrolling,
/// Renaming, Global Scheduling, Software Pipelining" section:
///
///  * Per-block list scheduling under the machine model (removes load-use
///    and compare→branch stalls inside a block) — the baseline compaction.
///  * Global scheduling: upward code motion across block boundaries. An
///    operation moves from the top of a successor into a predecessor's
///    idle issue slots; motion above a conditional branch makes it
///    speculative, which requires side-effect freedom, a safety proof for
///    loads, and destinations dead on the other branch target (live-range
///    renaming has usually provided fresh destinations).
///  * Enhanced pipeline scheduling, implemented as code motion across the
///    loop back edge ("a fence at the current scheduling point ... search
///    for the best operation on all paths which can possibly cross the
///    loop back edges"): the first operation of the body is rotated to the
///    bottom of the latch with a copy in the preheader, so each iteration
///    computes the next iteration's values early. Rotations are kept only
///    when the modelled steady-state cycle count improves.
///
/// The estimator replicates the timing simulator's issue rules so the
/// scheduler optimizes the metric the experiments measure.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_VLIW_SCHEDULE_H
#define VSC_VLIW_SCHEDULE_H

#include "ir/Module.h"
#include "machine/MachineModel.h"
#include "pipelining/ExactPipeliner.h"
#include "pm/Analysis.h"

namespace vsc {

class ProfileData;

/// Reorders the non-terminator instructions of \p BB (dependence-safe) to
/// minimise modelled issue cycles. \returns true if the order changed.
/// With \p AA the dependence builder disambiguates through the
/// flow-sensitive tier (AA facts are keyed by instruction id, so they
/// survive the reorder itself); without it the syntactic tier decides.
bool scheduleBlock(BasicBlock &BB, const MachineModel &MM,
                   const AliasAnalysis *AA = nullptr);

/// Modelled cycles to issue \p BB's instructions from a cold start.
unsigned estimateBlockCycles(const BasicBlock &BB, const MachineModel &MM);

/// Modelled steady-state cycles of one traversal of a loop body chain
/// (internal conditional branches assumed untaken, final back edge taken).
unsigned estimateSteadyStateCycles(const std::vector<BasicBlock *> &Chain,
                                   const MachineModel &MM);

struct GlobalScheduleOptions {
  /// Profile-directed heuristic (the paper's PDF application): operations
  /// on an improbable path are treated as speculative-and-unwanted; hoists
  /// prefer the likely successor.
  const ProfileData *Profile = nullptr;
  /// Disambiguate through the cached flow-sensitive alias analysis
  /// (analysis/ValueTrack.h). Off = syntactic tier only (the bench_alias
  /// ablation baseline).
  bool FlowAlias = true;
};

/// Local scheduling everywhere plus cross-block upward motion into idle
/// slots: at most 8 instructions into any one block, and across a join
/// only when it has at most 3 predecessors. \p M provides global sizes for
/// load-safety proofs. \returns true if anything changed. Analyses come
/// from, and are kept current in, \p FA.
bool globalSchedule(Function &F, const MachineModel &MM, const Module &M,
                    FunctionAnalyses &FA,
                    const GlobalScheduleOptions &Opts = {});

struct PipelineLoopOptions {
  /// Disambiguate through the cached flow-sensitive alias tier.
  bool FlowAlias = true;
  /// Exact software pipelining (pipelining/ExactPipeliner.h): Grade runs
  /// the branch-and-bound scheduler as a pure oracle per loop; Apply
  /// additionally substitutes an exact-guided kernel when its measured
  /// steady-state II strictly beats the heuristic's (else the heuristic
  /// result is kept untouched).
  ExactPipelineMode Exact = ExactPipelineMode::Off;
  ExactPipelinerOptions ExactOpts;
  /// When non-null and Exact != Off, one LoopPipelineRecord is appended
  /// per attempted chain-shaped innermost loop.
  std::vector<LoopPipelineRecord> *Records = nullptr;
};

/// Software-pipelines every innermost chain-shaped loop of \p F by rotating
/// operations across the back edge while the steady-state estimate
/// improves (at most 8 rotations per loop); optionally grades the result
/// against (or replaces it with) the exact modulo scheduler. \returns the
/// total number of rotations kept. Loop discovery, liveness and alias
/// queries all go through the shared analysis cache \p FA.
unsigned pipelineInnermostLoops(Function &F, const MachineModel &MM,
                                const Module &M, FunctionAnalyses &FA,
                                const PipelineLoopOptions &Opts = {});

/// One VLIW instruction word: the block-relative indices of the operations
/// the machine model issues in the same cycle. This is the paper's framing
/// made visible — "imagining a VLIW with the same resources as the
/// superscalar, scheduling for that VLIW, but leaving the resulting code
/// in superscalar format".
struct VliwWord {
  uint64_t Cycle;
  std::vector<size_t> Ops;
};

/// Packs \p BB's instructions into VLIW words under \p MM's issue rules
/// (conditional branches assumed untaken, unconditional control taken).
std::vector<VliwWord> packIntoVliwWords(const BasicBlock &BB,
                                        const MachineModel &MM);

/// Renders \p BB as VLIW words, one line per cycle:
///   [  3] L r5 = 4(r4)  ||  BT found, cr0.eq
std::string formatAsVliw(const BasicBlock &BB, const MachineModel &MM);

} // namespace vsc

#endif // VSC_VLIW_SCHEDULE_H
