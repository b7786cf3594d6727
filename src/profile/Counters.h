//===- profile/Counters.h - Low-overhead profiling ------------*- C++ -*-===//
///
/// \file
/// The paper's low-overhead profiling-directed-feedback machinery:
///
///  * planCounters — picks a subset of basic blocks to count such that
///    every remaining block and edge count is uniquely determined by flow
///    conservation, using constraint propagation (the paper credits
///    Sussman/Steele-style constraint networks). Preference goes to blocks
///    in shallow loop nests ("counting code placed in less frequently
///    executed locations"). Where no block subset can disambiguate (e.g.
///    parallel edges or crossing diamonds), a dummy block is created on an
///    edge, exactly as the paper describes. The plan is deterministic, so
///    pass 1 (instrument) and pass 2 (read back) modify the flow graph the
///    same way.
///
///  * instrumentModule — inserts real counting code (load counter, add 1,
///    store back, three instructions per block as in the paper) against a
///    per-module "__bbcounts" global. Running speculative load/store
///    motion afterwards register-caches the counters in loops, reducing
///    the overhead to one AI per counted block inside loops — the paper's
///    eqntott example.
///
///  * inferCounts — reconstructs every block and edge count from the
///    counted subset by numeric constraint propagation; the simulator's
///    exact counts serve as ground truth in the tests.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PROFILE_COUNTERS_H
#define VSC_PROFILE_COUNTERS_H

#include "profile/ProfileData.h"

#include <memory>
#include <string>
#include <vector>

namespace vsc {

struct CounterPlan {
  /// Labels of the blocks that receive counting code, in layout order.
  std::vector<std::string> CountedBlocks;
  /// Dummy blocks created (already inserted into the function).
  unsigned NumDummies = 0;
};

/// Chooses counter sites for \p F (may insert dummy blocks). Deterministic.
CounterPlan planCounters(Function &F);

/// Bookkeeping for reading an instrumented run back.
struct Instrumentation {
  /// Slot i of __bbcounts counts the block with key SlotKeys[i]
  /// ("function:label").
  std::vector<std::string> SlotKeys;
  /// Per-function plans (for the second compile).
  std::unordered_map<std::string, CounterPlan> Plans;
  /// Address of __bbcounts (computeGlobalLayout; globals are only ever
  /// appended, so later globals do not move it).
  uint64_t TableBase = 0;
};

/// Plans counters for every function of \p M and inserts counting code
/// plus the "__bbcounts" global. When \p HoistCounters, speculative
/// load/store motion + classical cleanup then shrink in-loop counting to
/// one instruction per block.
Instrumentation instrumentModule(Module &M, bool HoistCounters = true);

/// Extracts the counter values from a KeepMemory run of the instrumented
/// module, keyed like ProfileData::BlockCount.
std::unordered_map<std::string, uint64_t>
readCounters(const RunResult &R, const Instrumentation &Info);

/// Reconstructs all block and edge counts of \p F from the counted subset.
/// \p Counted maps "function:label" to values (as from readCounters).
/// \returns "" on success (and fills \p Out), else a diagnostic naming an
/// undetermined block or edge.
std::string inferCounts(Function &F,
                        const std::unordered_map<std::string, uint64_t>
                            &Counted,
                        ProfileData &Out);

/// A run-ready clone of \p Source for training: prolog insertion only
/// (optimize at OptLevel::None). The raw frontend output has no prologs,
/// so an argument-taking entry would read its parameters from unwired
/// stack slots and train on a garbage input. The CFG fingerprint is
/// invariant under this preparation (tests/test_pdf_store.cpp), so a
/// profile collected from the clone still attaches to \p Source.
std::unique_ptr<Module> prepareForTraining(const Module &Source);

/// The paper's two-pass scheme, instrumented and predecoded once: the
/// constructor prepares a clone of the raw source module
/// (prepareForTraining), instruments it and predecodes it, so every
/// training input only costs one simulation. expand() then applies the
/// pass-1-identical planCounters surgery to the module that will be
/// optimized and reads the counters back "at the same place".
class ProfileCollector {
public:
  /// \p Source is the raw (unprepared) module; it is cloned, never
  /// modified. Its counters are hoisted (instrumentModule).
  ProfileCollector(const Module &Source, const MachineModel &Machine);

  /// Counter values summed over a whole training battery, fanned out over
  /// \p Threads workers (0 defers to VSC_THREADS). Summation order is the
  /// battery order, so the result is identical at every thread count.
  std::unordered_map<std::string, uint64_t>
  counts(const std::vector<RunOptions> &Battery, unsigned Threads = 0);

  /// Applies the pass-1-identical planCounters surgery to \p Target and
  /// expands \p Counted into a full profile for it. \returns "" on
  /// success, else the first inference diagnostic.
  static std::string expand(Module &Target,
                            const std::unordered_map<std::string, uint64_t>
                                &Counted,
                            ProfileData &Out);

private:
  std::unique_ptr<Module> Instrumented;
  Instrumentation Info;
  SimEngine Engine;
};

} // namespace vsc

#endif // VSC_PROFILE_COUNTERS_H
