//===- sim/Simulator.h - Functional + timing simulator --------*- C++ -*-===//
///
/// \file
/// Executes IR modules and accounts cycles on a parametric in-order
/// superscalar model (machine/MachineModel.h). The simulator plays two
/// roles in this reproduction:
///
///  1. Correctness oracle — the paper's passes must produce "the same
///     run-time results"; every pass test runs the program before and after
///     and compares output, exit code and the final-memory digest.
///  2. The stand-in for the paper's RS/6000 hardware — cycle counts,
///     pathlength (dynamic instructions) and a stall breakdown replace the
///     paper's SPECmark measurements.
///
/// Memory layout: page zero (0..4095) reads as zero when the model allows
/// (the paper's NIL trick), globals from address 4096 up, stack at the top
/// growing down. Virtual registers are function-private (saved/restored at
/// calls), modelling the allocation the real back end would perform after
/// these passes.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_SIM_SIMULATOR_H
#define VSC_SIM_SIMULATOR_H

#include "ir/Module.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace vsc {

/// Escapes profiling-key metacharacters so concatenated keys stay
/// injective: '\' -> "\\", ':' -> "\:", '>' -> "\>". Names without
/// metacharacters (the overwhelmingly common case) come back verbatim, so
/// ordinary keys keep the historical "func:label" spelling.
std::string profileKeyEscape(const std::string &S);

/// Key for a block execution count: "<func>:<label>", both parts escaped.
/// Unambiguous: a literal ':' can only be the separator.
std::string blockCountKey(const std::string &Func, const std::string &Label);

/// Key for an edge execution count: "<func>:<from>-><to>", all parts
/// escaped. Unambiguous: literal ':' and '->' can only be the separators.
std::string edgeCountKey(const std::string &Func, const std::string &From,
                         const std::string &To);

/// Everything a simulation run produces.
struct RunResult {
  bool Trapped = false;
  std::string TrapMsg;
  int64_t ExitCode = 0;
  /// Bytes written by print_int / print_char builtins.
  std::string Output;
  /// Pathlength: dynamically executed instructions.
  uint64_t DynInstrs = 0;
  /// Total cycles under the machine model.
  uint64_t Cycles = 0;
  /// Cycles lost waiting on operands (load-use and similar interlocks).
  uint64_t OperandStallCycles = 0;
  /// Cycles lost to fetch redirects (taken branches, late unconditional
  /// branches, calls/returns).
  uint64_t BranchStallCycles = 0;
  /// FNV-1a digest of the global data area after the run.
  uint64_t MemDigest = 0;
  /// Execution count per (function, block label), keyed by blockCountKey —
  /// ground truth for the profiling experiments.
  std::unordered_map<std::string, uint64_t> BlockCounts;
  /// Execution count per control-flow edge, keyed by edgeCountKey
  /// ("func:from->to", metacharacters escaped) — ground truth the
  /// low-overhead-profiling inference is tested against.
  std::unordered_map<std::string, uint64_t> EdgeCounts;
  /// Final memory image (only when RunOptions::KeepMemory); the globals
  /// sit at computeGlobalLayout's addresses.
  std::vector<uint8_t> Memory;

  /// Functional-equivalence key: two runs with equal fingerprints produced
  /// the same observable behaviour.
  std::string fingerprint() const {
    return (Trapped ? "TRAP:" + TrapMsg : "ok") + "|exit=" +
           std::to_string(ExitCode) + "|out=" + Output +
           "|mem=" + std::to_string(MemDigest);
  }
};

/// Observation hook for the predecoded fast path (RunOptions::Watcher).
/// The engine reports function entries/exits, block entries and every
/// successful memory access with its effective address. Callbacks fire
/// only when a watcher is installed, so the default (null) configuration
/// stays bit-identical to the legacy engine. The alias audit
/// (audit/AliasAudit.h) uses this to cross-check NoAlias claims against
/// the addresses the program actually touched.
class MemAccessWatcher {
public:
  virtual ~MemAccessWatcher() = default;
  /// A new invocation of \p F begins (the entry function, or a CALL).
  virtual void enterFunction(const Function *F) = 0;
  /// The current invocation returns to its caller. The caller's
  /// interrupted block execution resumes without a fresh enterBlock.
  virtual void exitFunction() = 0;
  /// Execution enters \p BB: function entry, fallthrough or taken branch.
  virtual void enterBlock(const BasicBlock *BB) = 0;
  /// \p I (a load or store) accessed [Addr, Addr + Size).
  virtual void memAccess(const Instr *I, uint64_t Addr, unsigned Size) = 0;
};

struct RunOptions {
  std::string EntryFunction = "main";
  std::vector<int64_t> Args;
  /// Values returned by the read_int builtin, in order (0 when exhausted).
  std::vector<int64_t> Input;
  uint64_t MaxInstrs = 200'000'000;
  bool KeepMemory = false;
  uint64_t MemBytes = 1u << 22;
  /// Fast-path-only observation hook; see MemAccessWatcher. The legacy
  /// engine ignores it (the bit-identity tests never install one).
  MemAccessWatcher *Watcher = nullptr;
};

/// Content fingerprint of everything about \p Opts that can influence a
/// run's observable result (entry, arguments, input stream, instruction
/// budget, memory size) — the simulate-request component of the compile
/// service's artifact keys (src/service). Watcher and KeepMemory are
/// excluded: they change what is *recorded*, not what the program does.
uint64_t runOptionsFingerprint(const RunOptions &Opts);

/// Runs \p M under \p Machine. This is the predecoded fast path: the
/// module is decoded once (sim/Predecode.h) and the functional+timing loop
/// runs over flat records with dense counters. Bit-identical to
/// simulateLegacy (enforced by tests/test_sim_fastpath.cpp).
RunResult simulate(const Module &M, const MachineModel &Machine,
                   const RunOptions &Opts = RunOptions());

/// The original walking interpreter, kept as the reference the fast path
/// is differentially tested and benchmarked against.
RunResult simulateLegacy(const Module &M, const MachineModel &Machine,
                         const RunOptions &Opts = RunOptions());

struct SimImage;

/// One run's dense counter slots, indexed exactly like the image's
/// interned key tables (SimImage::BlockKeys / EdgeKeys). This is the raw
/// form ProfileStore records — no string-keyed map is materialized.
struct DenseCounters {
  std::vector<uint64_t> BlockHits;
  std::vector<uint64_t> EdgeHits;
};

/// A predecoded module bound to a machine model: predecode once, run many
/// times. Runs reuse a pooled memory arena and dense counter vectors; the
/// string-keyed maps in RunResult are materialized per run from interned
/// keys. The machine model is copied; the module must outlive the engine
/// and not change while it is in use.
class SimEngine {
public:
  SimEngine(const Module &M, const MachineModel &Machine);
  SimEngine(SimEngine &&) noexcept;
  SimEngine &operator=(SimEngine &&) noexcept;
  ~SimEngine();

  RunResult run(const RunOptions &Opts = RunOptions());

  /// Runs every element of \p Batch against the engine's image. \p Threads
  /// 0 defers to VSC_THREADS (default 1); one thread reuses the engine's
  /// pooled arena exactly like sequential run() calls, more threads fan
  /// the batch out over the work-stealing pool with per-worker arenas.
  /// Results (and \p Dense slots, when requested) are positionally
  /// matched to \p Batch, so the output is identical at every thread
  /// count. With \p Dense the block/edge counters are exported as dense
  /// slot vectors and the string-keyed RunResult::BlockCounts / EdgeCounts
  /// maps are not materialized — the profile-collection fast path
  /// (pdf/ProfileStore.h).
  std::vector<RunResult> runBatch(const std::vector<RunOptions> &Batch,
                                  unsigned Threads = 1,
                                  std::vector<DenseCounters> *Dense = nullptr);

  const SimImage &image() const;

private:
  struct State;
  std::unique_ptr<State> S;
};

/// The address each global will be placed at (globals start at 4096,
/// 16-byte aligned, in declaration order) — the same layout the simulator
/// uses, exposed so tests and workload generators can precompute pointer
/// initializers.
std::unordered_map<std::string, uint64_t> computeGlobalLayout(const Module &M);

/// Reads a little-endian word of \p Size bytes from a kept memory image.
int64_t readMemoryWord(const RunResult &R, uint64_t Addr, unsigned Size);

} // namespace vsc

#endif // VSC_SIM_SIMULATOR_H
