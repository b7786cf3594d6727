//===- pipelining/MinII.h - Initiation-interval lower bounds --*- C++ -*-===//
///
/// \file
/// The analysis layer of the exact software-pipelining subsystem
/// (DESIGN.md §16). For every innermost chain-shaped loop it computes the
/// two classic lower bounds on the initiation interval of any modulo
/// schedule:
///
///  * resMII — resource-constrained: each execution unit class (FXU, BU)
///    must issue its share of the body every II cycles, so
///    II >= ceil(ops-on-unit / unit-width).
///  * recMII — recurrence-constrained: every dependence cycle C in the
///    loop-carried dependence graph forces
///    II >= ceil(sum(latency over C) / sum(distance over C)); computed by
///    binary search on II with positive-cycle detection over edge weights
///    latency - II*distance (Bellman-Ford relaxation).
///
/// The dependence graph mirrors the timing model the schedulers optimize
/// (machine/IssueCore.h): register flow edges carry the producer's
/// latency for the def read (MachineModel::defLatency); anti/output and memory/call ordering edges carry
/// latency 0 (the engine imposes no cross-operation memory delay — program
/// order decides semantics); loop-carried edges all have distance 1 (the
/// body is a single chain, so an operation of iteration k+1 depends on
/// iteration k at distance exactly one). Branch operations participate in
/// resMII as BU consumers but contribute no dependence edges: the engine
/// issues branches without waiting on their operands, so the model stays a
/// relaxation of the engine and max(resMII, recMII) is a true lower bound
/// on any achievable steady-state II.
///
/// MinIIAnalysis is cached by FunctionAnalyses (AnalysisKind::MinII),
/// keyed by the machine fingerprint and the alias tier it was built with.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PIPELINING_MINII_H
#define VSC_PIPELINING_MINII_H

#include "cfg/Loops.h"
#include "ir/Module.h"
#include "machine/MachineModel.h"

#include <string>
#include <vector>

namespace vsc {

class AliasAnalysis;

/// One dependence edge of a loop body: operation \p To of iteration
/// k + Dist must issue no earlier than Lat cycles after operation \p From
/// of iteration k.
struct LoopDepEdge {
  unsigned From = 0;
  unsigned To = 0;
  unsigned Lat = 0;  ///< cycles From's result needs (0 for pure ordering)
  unsigned Dist = 0; ///< iteration distance (0 intra, 1 loop-carried)
};

/// The loop-carried dependence graph of one flattened loop body.
struct LoopDepGraph {
  unsigned NumOps = 0;
  std::vector<LoopDepEdge> Edges;
};

/// Builds the dependence graph of \p Body (the concatenated instructions
/// of a loop chain, terminators included). Memory disambiguation goes
/// through \p AA when non-null (CrossExecution scope for loop-carried
/// queries), else the syntactic tier.
LoopDepGraph buildLoopDepGraph(const std::vector<Instr> &Body,
                               const MachineModel &MM,
                               const AliasAnalysis *AA);

/// recMII of \p G: the smallest II with no positive cycle under edge
/// weights Lat - II*Dist. 1 when the graph is acyclic.
unsigned computeRecMII(const LoopDepGraph &G);

/// resMII of \p Body under \p MM's unit widths (>= 1).
unsigned computeResMII(const std::vector<Instr> &Body,
                       const MachineModel &MM);

/// Lower bounds for one innermost loop.
struct LoopMinII {
  std::string Header;      ///< header block label (the loop's stable key)
  unsigned BodyInstrs = 0; ///< flattened body size, terminators included
  unsigned ResMII = 1;
  unsigned RecMII = 1;
  /// False when the loop is outside the model: not a single chain with
  /// all back edges from the chain tail (vliw/Rename.h's loopChain).
  bool Modeled = false;

  unsigned minII() const { return ResMII > RecMII ? ResMII : RecMII; }
};

/// Per-function min-II analysis: one LoopMinII per innermost loop, in
/// LoopInfo's deterministic discovery order.
class MinIIAnalysis {
public:
  MinIIAnalysis(const Function &F, const Cfg &G, const LoopInfo &LI,
                const AliasAnalysis *AA, const MachineModel &MM);

  const std::vector<LoopMinII> &loops() const { return Loops; }

  /// The record for the innermost loop headed by \p HeaderLabel, or null.
  const LoopMinII *forHeader(const std::string &HeaderLabel) const;

  /// Cache key halves (FunctionAnalyses::minII compares both).
  uint64_t machineKey() const { return MachineKey; }
  bool flowAlias() const { return Flow; }
  /// The machine the bounds were computed for (verifyCache recomputes
  /// with it).
  const MachineModel &machine() const { return MM; }

  /// Canonical one-line digest for recompute-and-compare checking.
  std::string summarize() const;

private:
  std::vector<LoopMinII> Loops;
  MachineModel MM;
  uint64_t MachineKey;
  bool Flow;
};

} // namespace vsc

#endif // VSC_PIPELINING_MINII_H
