//===- pm/Analysis.h - Cached per-function analyses -----------*- C++ -*-===//
///
/// \file
/// The analysis-caching half of the pass manager (pm/PassManager.h).
///
/// FunctionAnalyses owns at most one cached instance of each analysis the
/// pipeline uses (Cfg, Dominators, PostDominators, LoopInfo,
/// RegUniverse+Liveness) for one function. Getters compute on first use
/// and return a cached const reference afterwards.
///
/// Invalidation is two-layered:
///
///  1. Structural (automatic): Function keeps a CFG-edit epoch
///     (Function::cfgEpoch(), bumped by block-list mutators and the
///     cfg/CfgEdit.h surgery helpers). Every getter compares the epoch
///     against the value captured when the cache was filled and drops
///     everything on mismatch. A pass cannot "forget" to invalidate after
///     block surgery.
///
///  2. Declared (PreservedAnalyses): after a pass runs, the manager calls
///     invalidate() with the pass's PreservedAnalyses return value. The
///     dependency closure is applied automatically: dropping Cfg drops
///     all derived analyses, dropping Dominators drops Loops, dropping
///     Liveness drops the RegUniverse it was numbered against.
///
/// The preservation rules passes follow (see DESIGN.md §9):
///  - editing a terminator suffix (adding, removing, retargeting or
///    inverting a branch) invalidates structurally;
///  - inserting, erasing or rewriting non-terminators preserves
///    structure() but not Liveness: CfgEdge::TermPos counts a branch from
///    the start of its block's terminator suffix, so the edges (and the
///    Loop::Exits that store them) survive such edits;
///  - reordering only the non-terminator prefix of a block (local
///    scheduling) preserves all().
///
/// References returned by getters are valid until the next invalidation —
/// including the implicit epoch check a later getter performs. A pass that
/// mutates its function must not mix pre-mutation references with
/// post-mutation getter calls.
///
/// Debug mode (VSC_CHECK_ANALYSES=1 or FunctionPassManager flag):
/// verifyCache() recomputes every cached analysis from scratch and
/// compares; a pass that mutated the CFG while claiming preservation is
/// reported by name.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PM_ANALYSIS_H
#define VSC_PM_ANALYSIS_H

#include "analysis/Liveness.h"
#include "analysis/ValueTrack.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"
#include "ir/Module.h"
#include "pipelining/MinII.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace vsc {

/// Every analysis the manager can cache. Liveness covers the
/// RegUniverse/Liveness pair (Liveness holds a reference into the
/// universe it was numbered against, so they cache and die together).
enum class AnalysisKind : unsigned {
  Cfg = 0,
  Dominators,
  PostDominators,
  Loops,
  Liveness,
  Alias,
  MinII,
};
constexpr unsigned NumAnalysisKinds = 7;

/// Lower-case name of \p K ("cfg", "dominators", ...), for stats output.
const char *analysisKindName(AnalysisKind K);

/// What a pass kept intact, as a bitmask over AnalysisKind. Passes build
/// one of these as their return value; the manager applies it (plus the
/// dependency closure) to the cache.
class PreservedAnalyses {
public:
  /// Nothing survives. The safe default for any pass that edits a
  /// terminator suffix (see the rules in the file comment).
  static PreservedAnalyses none() { return PreservedAnalyses(0); }

  /// Everything survives. Correct only for passes that change nothing or
  /// only reorder the non-terminator prefix of blocks.
  static PreservedAnalyses all() { return PreservedAnalyses(AllMask); }

  /// Structure survives, register contents do not: Cfg, Dominators,
  /// PostDominators and Loops are kept; Liveness and the
  /// alias analysis (both functions of register contents) are dropped.
  /// Correct for edits that leave every branch and block boundary
  /// untouched: in-place rewrites (copy propagation, local value
  /// numbering) and non-terminator insertion or erasure (dead-code
  /// elimination, code motion into existing blocks).
  static PreservedAnalyses structure() {
    PreservedAnalyses PA = all();
    return PA.abandon(AnalysisKind::Liveness)
        .abandon(AnalysisKind::Alias)
        .abandon(AnalysisKind::MinII);
  }

  PreservedAnalyses &preserve(AnalysisKind K) {
    Mask |= bit(K);
    return *this;
  }
  PreservedAnalyses &abandon(AnalysisKind K) {
    Mask &= ~bit(K);
    return *this;
  }

  bool preserves(AnalysisKind K) const { return (Mask & bit(K)) != 0; }
  bool preservesAll() const { return Mask == AllMask; }
  bool preservesNone() const { return Mask == 0; }

private:
  explicit PreservedAnalyses(unsigned Mask) : Mask(Mask) {}
  static unsigned bit(AnalysisKind K) {
    return 1u << static_cast<unsigned>(K);
  }
  static constexpr unsigned AllMask = (1u << NumAnalysisKinds) - 1;
  unsigned Mask = 0;
};

/// The cached analyses of one function. Not thread-safe by itself; the
/// parallel driver gives each worker exclusive access to the entries of
/// the functions it is compiling.
class FunctionAnalyses {
public:
  struct Stats {
    uint64_t Hits = 0;   ///< getter served from cache
    uint64_t Misses = 0; ///< getter had to compute
    /// Misses by AnalysisKind; they sum to Misses. A RegUniverse build
    /// counts under Liveness.
    uint64_t MissesByKind[NumAnalysisKinds] = {};
  };

  explicit FunctionAnalyses(Function &F) : F(F), Epoch(F.cfgEpoch()) {}

  Function &function() const { return F; }

  const Cfg &cfg();
  const Dominators &dominators();
  const Dominators &postDominators();
  const LoopInfo &loops();
  const RegUniverse &universe();
  const Liveness &liveness();
  const AliasAnalysis &aliasAnalysis();
  /// Min-II lower bounds per innermost loop (pipelining/MinII.h). Keyed by
  /// the machine fingerprint and the alias tier: asking for a different
  /// machine (or flipping \p FlowAlias) recomputes and re-caches, asking
  /// for the same one is a hit.
  const MinIIAnalysis &minII(const MachineModel &MM, bool FlowAlias);

  /// Applies a pass's preservation claim: drops every analysis the claim
  /// abandons, plus everything depending on a dropped analysis.
  void invalidate(const PreservedAnalyses &PA);
  void invalidateAll();

  /// Carries the cache across one global-scheduling hoist: an instruction
  /// left the non-terminator prefix of \p Source and a copy joined the
  /// non-terminator prefix of every predecessor of Source. Structure
  /// survives (see the rules in the file comment), a cached Liveness is
  /// updated in place (only Source's live-in and its predecessors'
  /// live-out can change; DESIGN.md §12), and the alias facts and MinII
  /// are dropped. \returns true if Source's live-in set may have changed.
  bool noteHoist(const BasicBlock *Source);

  /// \returns true if \p K is cached AND still structurally fresh (an
  /// epoch mismatch counts as not cached). Test/bench introspection.
  bool hasCached(AnalysisKind K) const;

  const Stats &stats() const { return Counters; }

  /// Debug check: recomputes every cached analysis from the function's
  /// current state and compares against the cache. \returns "" when
  /// consistent, else a message naming the stale analysis — evidence of a
  /// pass that mutated the CFG while claiming preservation — or the first
  /// self-check failure a pass reported.
  std::string verifyCache();

  /// Whether the running pass should check its own cache upkeep as it
  /// goes. The FunctionPassManager sets this when it verifies the cache
  /// after every pass (VSC_CHECK_ANALYSES=1).
  bool checking() const { return Checking; }
  void setChecking(bool On) { Checking = On; }
  /// Records a failed self-check of the running pass; verifyCache()
  /// reports the first one.
  void reportCheckFailure(const std::string &Msg) {
    if (CheckFailure.empty())
      CheckFailure = Msg;
  }

private:
  /// Drops everything if the function's CFG epoch moved past the cache.
  void freshen();
  void count(AnalysisKind K, bool Hit) {
    if (Hit) {
      ++Counters.Hits;
      return;
    }
    ++Counters.Misses;
    ++Counters.MissesByKind[static_cast<unsigned>(K)];
  }

  Function &F;
  uint64_t Epoch;
  Stats Counters;
  bool Checking = false;
  std::string CheckFailure;

  std::unique_ptr<Cfg> CfgA;
  std::unique_ptr<Dominators> DomA;
  std::unique_ptr<Dominators> PostDomA;
  std::unique_ptr<LoopInfo> LoopsA;
  std::unique_ptr<RegUniverse> UnivA;
  std::unique_ptr<Liveness> LiveA;
  std::unique_ptr<AliasAnalysis> AliasA;
  std::unique_ptr<MinIIAnalysis> MinIIA;
};

/// Per-module registry of FunctionAnalyses. Entry creation is
/// mutex-guarded so parallel workers can each fetch their function's
/// entry; everything past on() is single-owner by the driver's contract.
class FunctionAnalysisManager {
public:
  explicit FunctionAnalysisManager(Module &M) : M(M) {}

  Module &module() const { return M; }

  FunctionAnalyses &on(Function &F);

  /// Drops every cache (module-level passes mutate arbitrary functions).
  void invalidateAll();

  /// Reconciles with the module after functions were added or removed
  /// (e.g. inlining): entries of vanished functions are destroyed so no
  /// dangling Function& survives.
  void refresh();

  /// Aggregate hit/miss counters across all entries (bench reporting).
  FunctionAnalyses::Stats totalStats() const;

private:
  Module &M;
  mutable std::mutex Mu;
  std::unordered_map<Function *, std::unique_ptr<FunctionAnalyses>> Entries;
};

} // namespace vsc

#endif // VSC_PM_ANALYSIS_H
