//===- analysis/MemAlias.h - Memory disambiguation ------------*- C++ -*-===//
///
/// \file
/// Memory disambiguation in the spirit of the Bulldog compiler's
/// ("enhancements of those used in [11]") as the paper uses it: accesses
/// are resolved to symbolic regions — a named global (via the "!sym"
/// annotation that corresponds to the paper's "a(r4,12)" notation), the
/// stack frame (base register r1), or unknown — and compared by region and
/// displacement range.
///
/// This header is the *syntactic tier*: it looks at one instruction at a
/// time. The flow-sensitive tier (analysis/ValueTrack.h) tracks abstract
/// base values through registers and falls back to this one; both answer
/// through the same AliasResult / AliasScope vocabulary. The header also
/// holds the memory and call ordering rule that the dependence-graph
/// builder and global hoisting share, which asks either tier.
///
/// Stack discipline: this project's front end never materialises a frame
/// address that escapes the function (no "&local" passed or stored), so
/// r1-relative accesses with distinct displacements never alias each other
/// and never alias globals. DESIGN.md §"The analysis tier" records this
/// assumption and the dynamic audit that cross-checks it.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_ANALYSIS_MEMALIAS_H
#define VSC_ANALYSIS_MEMALIAS_H

#include "ir/Instr.h"

#include <cstdint>

namespace vsc {

class Module;

enum class AliasResult { NoAlias, MustAlias, MayAlias };

/// What the *caller* guarantees about the two accesses being compared.
/// Every alias query states its scope explicitly; there is no default.
///
/// Disambiguating two accesses whose shared base register holds an
/// unknown value ("8(r41) vs 0(r41)") is only meaningful if both accesses
/// observe the same dynamic value in that base. That used to be an
/// unchecked comment-level contract ("the caller must check for
/// intervening base redefinitions"); it is now part of the query:
enum class AliasScope {
  /// Both accesses execute within one execution of the same basic block,
  /// and the caller guarantees no instruction between them redefines a
  /// base register they share. This is the dependence-builder window: the
  /// DAG builder orders an access after any redefinition of its base, so
  /// comparing two accesses on either side of such a def never reaches
  /// the alias query with this scope.
  SameExecution,
  /// No locality guarantee: the accesses may execute in different
  /// iterations of a loop or in different blocks, with base registers
  /// redefined in between. Same-register displacement reasoning is
  /// unsound here; only region-level facts (distinct globals,
  /// stack-vs-global, r1-relative slots) survive.
  CrossExecution,
};

/// How broadly a NoAlias verdict is claimed to hold — the window the
/// dynamic AliasAudit (audit/AliasAudit.h) validates it over.
enum class AliasClaimKind {
  /// The two access footprints are disjoint across the whole program run
  /// (distinct globals, provably disjoint offsets into one global,
  /// stack vs. global).
  Absolute,
  /// Disjoint within any single invocation of the containing function
  /// (r1-relative slots; values defined at most once per invocation).
  PerInvocation,
  /// Disjoint within any single execution of the containing basic block
  /// (SameExecution verdicts about unknown-but-equal base values).
  PerBlockExecution,
};

/// The symbolic storage region an access touches.
struct MemRegion {
  enum class Kind { Global, Stack, Unknown } K = Kind::Unknown;
  std::string Sym; ///< global name when K == Global
  int64_t Disp = 0;
  uint8_t Size = 0;

  static MemRegion of(const Instr &I);
};

/// Relates two memory accesses under the caller-stated \p Scope.
/// Conservative: returns MayAlias unless both regions are known and
/// provably disjoint (NoAlias) or provably identical (MustAlias).
/// Volatile accesses never disambiguate.
AliasResult alias(const Instr &A, const Instr &B, AliasScope Scope);

/// The classification core behind alias(): additionally reports through
/// \p Kind how broadly a NoAlias verdict holds. Does not touch the query
/// counters (the flow-sensitive tier calls this as its fallback and does
/// its own accounting).
AliasResult aliasClassified(const Instr &A, const Instr &B, AliasScope Scope,
                            AliasClaimKind &Kind);

/// \returns true if \p Load may be executed speculatively (when it would
/// not have executed in the original program) without trapping: stack
/// accesses, loads carrying an explicit "!safe" annotation (the paper's
/// page-zero / known-valid-pointer reasoning), and accesses to a named
/// global of \p M whose extent covers the displacement range.
bool isSafeSpeculativeLoad(const Instr &Load, const Module *M);

//===----------------------------------------------------------------------===//
// Memory and call ordering
//===----------------------------------------------------------------------===//

class AliasAnalysis;

/// \returns true for a call to an I/O builtin (print_int, print_char,
/// read_int), which neither reads nor writes user memory.
bool isMemoryInertCall(const Instr &I);

/// The memory and call ordering rule of the dependence-graph builder
/// (analysis/DepGraph.h) and of global hoisting's movable-to-top scan
/// (vliw/Schedule.cpp). \returns true if \p Later must stay after
/// \p Earlier because both are calls (I/O order, opaque side effects), one
/// is a call that may touch memory and the other a memory access, both are
/// volatile accesses, or one of two accesses is a store and they may alias
/// under \p Scope — asked of \p AA when given, else of the syntactic tier.
/// Only the last case issues an alias query. Register dependences are the
/// caller's to test.
bool memoryOrdered(const Instr &Earlier, const Instr &Later, AliasScope Scope,
                   const AliasAnalysis *AA);

//===----------------------------------------------------------------------===//
// Query accounting
//===----------------------------------------------------------------------===//

/// Process-wide disambiguation tallies: queries, incremented by both
/// tiers, and flow-sensitive analysis builds with the block-entry state
/// cells (carried slots x reachable blocks) each build allocated.
/// PassAudit snapshots them at stage boundaries to attribute them to
/// passes; bench_alias reads them for resolution rates and build counts.
struct AliasQueryCounters {
  uint64_t Queries = 0;
  uint64_t NoAlias = 0;
  uint64_t MustAlias = 0;
  uint64_t MayAlias = 0;
  uint64_t Builds = 0;
  uint64_t StateCells = 0;

  AliasQueryCounters &operator+=(const AliasQueryCounters &O) {
    Queries += O.Queries;
    NoAlias += O.NoAlias;
    MustAlias += O.MustAlias;
    MayAlias += O.MayAlias;
    Builds += O.Builds;
    StateCells += O.StateCells;
    return *this;
  }
  AliasQueryCounters operator-(const AliasQueryCounters &O) const {
    AliasQueryCounters D;
    D.Queries = Queries - O.Queries;
    D.NoAlias = NoAlias - O.NoAlias;
    D.MustAlias = MustAlias - O.MustAlias;
    D.MayAlias = MayAlias - O.MayAlias;
    D.Builds = Builds - O.Builds;
    D.StateCells = StateCells - O.StateCells;
    return D;
  }
};

/// Snapshot of the process-wide counters (thread-safe).
AliasQueryCounters aliasQueryCounters();

/// Adds one query with result \p R to the process-wide counters. Exposed
/// for the flow-sensitive tier; ordinary callers just call alias().
void countAliasQuery(AliasResult R);

/// Adds one flow-sensitive analysis build that allocated \p StateCells
/// block-entry state cells to the process-wide counters.
void countAliasBuild(uint64_t StateCells);

} // namespace vsc

#endif // VSC_ANALYSIS_MEMALIAS_H
