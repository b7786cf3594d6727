//===- profile/ProfileData.h - Execution-count data -----------*- C++ -*-===//
///
/// \file
/// Execution counts consumed by profile-directed feedback: block counts and
/// edge counts keyed by "function:label" / "function:from->to". Two
/// producers exist: the simulator's exact ground truth (RunResult), and the
/// paper's low-overhead instrumentation pipeline (profile/Counters.h),
/// which counts only a subset of blocks and infers the rest. "The flow
/// graph edge counts are maintained as compiler transformations occur" is
/// approximated by key lookups that survive label-preserving
/// transformations; blocks created later have no counts and report
/// probability 0.5.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PROFILE_PROFILEDATA_H
#define VSC_PROFILE_PROFILEDATA_H

#include "cfg/Cfg.h"
#include "sim/Simulator.h"

#include <string>
#include <unordered_map>

namespace vsc {

class ProfileData {
public:
  std::unordered_map<std::string, uint64_t> BlockCount;
  std::unordered_map<std::string, uint64_t> EdgeCount;

  static std::string blockKey(const Function &F, const BasicBlock *BB) {
    return blockCountKey(F.name(), BB->label());
  }
  static std::string edgeKey(const Function &F, const CfgEdge &E) {
    return edgeCountKey(F.name(), E.From->label(), E.To->label());
  }

  uint64_t block(const Function &F, const BasicBlock *BB) const {
    auto It = BlockCount.find(blockKey(F, BB));
    return It == BlockCount.end() ? 0 : It->second;
  }
  uint64_t edge(const Function &F, const CfgEdge &E) const {
    auto It = EdgeCount.find(edgeKey(F, E));
    return It == EdgeCount.end() ? 0 : It->second;
  }

  /// Probability that control leaving E.From follows E; 0.5 when the
  /// profile knows nothing about the source block.
  double edgeProbability(const Function &F, const CfgEdge &E) const {
    uint64_t B = block(F, E.From);
    if (B == 0)
      return 0.5;
    return static_cast<double>(edge(F, E)) / static_cast<double>(B);
  }

  bool hasDataFor(const Function &F, const BasicBlock *BB) const {
    return BlockCount.count(blockKey(F, BB)) != 0;
  }

  /// Ground-truth profile from a simulation run.
  static ProfileData fromRun(const RunResult &R) {
    ProfileData P;
    P.BlockCount = R.BlockCounts;
    P.EdgeCount = R.EdgeCounts;
    return P;
  }
};

} // namespace vsc

#endif // VSC_PROFILE_PROFILEDATA_H
