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
/// The dependence graph is the loop form of analysis/DepGraph.h, the
/// graph the list scheduler reads at distance 0. Every edge is a
/// constraint the issue engine (machine/IssueCore.h) imposes, so the model
/// is a relaxation of the engine and max(resMII, recMII) is a true lower
/// bound on any achievable steady-state II. Branches count toward resMII
/// as BU consumers but get no dependence edges.
///
/// MinIIAnalysis is cached by FunctionAnalyses (AnalysisKind::MinII),
/// keyed by the machine fingerprint and the alias tier it was built with.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PIPELINING_MINII_H
#define VSC_PIPELINING_MINII_H

#include "analysis/DepGraph.h"
#include "cfg/Loops.h"
#include "ir/Module.h"
#include "machine/MachineModel.h"

#include <string>
#include <vector>

namespace vsc {

class AliasAnalysis;

/// recMII of \p G: the smallest II with no positive cycle under edge
/// weights Lat - II*Dist. 1 when the graph is acyclic.
unsigned computeRecMII(const DepGraph &G);

/// resMII of \p Body under \p MM's unit widths (>= 1).
unsigned computeResMII(const std::vector<Instr> &Body,
                       const MachineModel &MM);

/// Lower bounds for one innermost loop.
struct LoopMinII {
  std::string Header;      ///< header block label (the loop's stable key)
  unsigned ResMII = 1;
  unsigned RecMII = 1;
  /// False when the loop is outside the model: not a single chain with
  /// all back edges from the chain tail (vliw/Rename.h's loopChain).
  bool Modeled = false;
  /// The chain's instructions in layout order, terminators included, and
  /// their dependence graph, for the exact search (empty unless Modeled).
  std::vector<Instr> Body;
  DepGraph Graph;

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
