//===- oracle/Interp.h - Reference IR interpreter -------------*- C++ -*-===//
///
/// \file
/// A deterministic reference interpreter for the IR — the executable
/// ground truth the differential oracle (oracle/ExecOracle.h) validates
/// every pipeline pass against. It computes values through the value core
/// it shares with the simulator's fast path (sim/ValueCore.h: the same
/// ALU, memory layout, builtins, ABI poison at calls and trap texts) but
/// carries no timing model, and it differs from the simulator in two
/// deliberate ways:
///
///  * Contract semantics at calls: the interpreter itself preserves r1,
///    r2 and r13..r31 across every call (snapshot at CALL, restore at the
///    matching RET). The simulator relies on prologs to do this, so it can
///    only execute post-prolog code faithfully; the interpreter executes
///    IR from *any* pipeline stage — which is exactly what per-pass
///    translation validation needs, since most passes run before prolog
///    insertion.
///  * Trap-on-!safe-fault speculative loads: a load marked !safe is the
///    paper's guaranteed-non-trapping speculative load, so when it faults
///    (page zero with an unreadable page zero, or an unmapped address) it
///    reads 0 and increments SpecFaults instead of trapping. A faulting
///    load without the annotation traps, as on real hardware.
///
/// Besides the behaviour fingerprint (trap status, exit code, output,
/// final-memory digest), the interpreter records the observable-effect
/// trace (volatile accesses + builtin calls, which the passes must
/// preserve exactly), cheap digests of the full store/call traces (for
/// passes that preserve them), block coverage (for coverage-guided input
/// selection) and, on demand, a full execution trace for divergence
/// reports.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_ORACLE_INTERP_H
#define VSC_ORACLE_INTERP_H

#include "ir/Module.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace vsc {

struct InterpOptions {
  std::string EntryFunction = "main";
  /// Entry arguments, placed in r3.. (at most 8).
  std::vector<int64_t> Args;
  /// Values returned by the read_int builtin, in order (0 when exhausted).
  std::vector<int64_t> Input;
  /// Step budget; exceeding it sets InterpResult::BudgetExceeded (not a
  /// trap — the oracle skips inconclusive inputs rather than comparing
  /// them).
  uint64_t MaxSteps = 2'000'000;
  uint64_t MemBytes = 1u << 20;
  /// Maximum call depth before trapping (runaway recursion net).
  unsigned MaxCallDepth = 4096;
  /// Whether loads of page zero (0..4095) read as zero, as on the paper's
  /// machine with the car(car(NIL)) page-zero mapping. Mirror of
  /// MachineModel::PageZeroReadable.
  bool PageZeroReadable = true;
  /// Record StoreTrace/CallTrace entry strings (off: only the digests are
  /// maintained, which is much cheaper).
  bool TraceMemory = false;
  /// Record ExecTrace (one line per executed instruction; capped).
  bool TraceExec = false;
  uint64_t MaxExecTrace = 200'000;
  /// When set and a function of the same name exists in the module, this
  /// body is executed instead — how the oracle runs a pre-pass snapshot
  /// against the otherwise-current module.
  const Function *Override = nullptr;
};

struct InterpResult {
  bool Trapped = false;
  std::string TrapMsg;
  bool BudgetExceeded = false;
  /// r3 at the entry function's return.
  int64_t ExitCode = 0;
  /// Bytes written by print_int / print_char.
  std::string Output;
  uint64_t Steps = 0;
  /// FNV-1a digest of the global data area after the run (same digest the
  /// simulator computes).
  uint64_t MemDigest = 0;
  /// !safe loads that faulted and read as zero.
  uint64_t SpecFaults = 0;
  /// Observable-effect trace: volatile loads/stores and builtin calls in
  /// program order. Every pass must preserve this exactly.
  std::vector<std::string> ObsTrace;
  /// Digest + count of all stores into the global data area (stack traffic
  /// excluded: prologs and spills legally add it). Entry strings only when
  /// TraceMemory.
  uint64_t StoreDigest = 0;
  uint64_t StoreCount = 0;
  std::vector<std::string> StoreTrace;
  /// Digest + count of all calls with their argument values. Entry strings
  /// only when TraceMemory.
  uint64_t CallDigest = 0;
  uint64_t CallCount = 0;
  std::vector<std::string> CallTrace;
  /// Blocks entered, as pointers into the interpreted module (or the
  /// Override function). Valid while those objects live.
  std::unordered_set<const BasicBlock *> Coverage;
  /// One line per executed instruction when TraceExec ("fn:block+idx:
  /// instr ; defs"), capped at MaxExecTrace.
  std::vector<std::string> ExecTrace;
  bool ExecTraceTruncated = false;

  /// Functional-equivalence key: trap status, exit code, output, final
  /// memory and the observable-effect trace.
  std::string fingerprint() const;
};

/// Interprets \p M starting at Opts.EntryFunction.
InterpResult interpret(const Module &M, const InterpOptions &Opts = {});

/// Precomputed per-module interpreter state (global layout, flattened
/// initializers, function name map) plus a pooled memory arena, reused
/// across runs. The oracle executes each changed function on a whole
/// input battery — 2 versions x up to MaxInputs runs — against one
/// unchanging module; a session makes those runs share the one-time work
/// instead of redoing it per run. The module must outlive the session and
/// not gain/lose globals or functions while it is in use (function
/// *bodies* may differ via InterpOptions::Override, as always).
class InterpSession {
public:
  explicit InterpSession(const Module &M);
  InterpSession(InterpSession &&) noexcept;
  InterpSession &operator=(InterpSession &&) noexcept;
  ~InterpSession();

  /// Exactly interpret(M, Opts), but against the precomputed state.
  InterpResult run(const InterpOptions &Opts = {});

  /// Implementation detail (defined in Interp.cpp); public only so the
  /// interpreter internals can name it.
  struct Impl;

private:
  std::unique_ptr<Impl> P;
};

} // namespace vsc

#endif // VSC_ORACLE_INTERP_H
