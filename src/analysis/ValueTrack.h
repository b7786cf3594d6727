//===- analysis/ValueTrack.h - Flow-sensitive alias analysis --*- C++ -*-===//
///
/// \file
/// The flow-sensitive memory-disambiguation tier: a per-function forward
/// dataflow over an abstract register lattice that tracks where pointer
/// values come from, so accesses through copied, incremented or
/// TOC-reloaded base registers still disambiguate.
///
/// Abstract values form the lattice
///
///     Bottom  <  Global(sym)+off  |  Stack+off  |  Value(vn)+off  <  Top
///
/// where the offset component is either a known byte offset or unknown
/// (the per-base "+⊤" element):
///
///  * Global(sym)+off — the value is &sym + off. Anchored by LTOC
///    ("rt = &sym"); add-immediates and copies keep the offset exact, a
///    register-register add (computed index) keeps the region but loses
///    the offset. Region-level facts assume the frontend's in-bounds
///    discipline (indexed accesses are range-masked), the same contract
///    the "!sym" annotation already carries — and the one the dynamic
///    AliasAudit (audit/AliasAudit.h) validates at runtime.
///  * Stack+off — the value is entry-r1 + off. r1 itself is Stack+0 at
///    entry; prologue/epilogue adjustments are tracked like any other
///    add-immediate. A computed stack-array index degrades to Stack+⊤,
///    which still never aliases a global.
///  * Value(vn)+off — an unknown base value, numbered by its defining
///    site (instruction id × defined register, or function entry ×
///    register for live-in values). Two accesses sharing a vn observe the
///    SAME dynamic base value within one execution window, so their known
///    offsets disambiguate; whether that window extends beyond one block
///    execution depends on whether the defining site can re-execute
///    (Value::Once — the defining block is outside every loop).
///  * Top — unrelatable (e.g. the sum of two pointers, or a join of
///    different regions).
///
/// The analysis runs one round-robin fixpoint over the CFG in reverse
/// postorder, then replays each block once to record the resolved
/// location of every memory access, keyed by instruction id. Queries are
/// therefore position-independent: any instruction copy that preserves
/// the id (block probes, audit snapshots) can be queried.
///
/// States are sparse. Only address registers are tracked: the base of
/// every memory access, both sources of every A (its mint decision reads
/// them), and whatever reaches those through LR, LA, AI, SI and the LU
/// base update. A tracked register that some block reads before writing
/// is *carried*: it gets a slot in the block-entry states, which sit in
/// one flat array indexed by reverse-postorder position. Every other
/// tracked register is written before it is read in each block, so it
/// lives in a scratch slot of the walk that is never copied or joined.
/// Untracked registers get no storage, and a register the function never
/// writes holds its entry value everywhere. Every def site still mints
/// its value number, in first-visit order, whether or not it defines a
/// tracked register, so the labels summarize() and str() print do not
/// depend on which registers are tracked.
///
/// Every NoAlias verdict is tagged with the AliasClaimKind window it is
/// claimed over and, when a claim sink is installed (the pipeline's
/// alias-audit mode), reported for later dynamic validation.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_ANALYSIS_VALUETRACK_H
#define VSC_ANALYSIS_VALUETRACK_H

#include "analysis/MemAlias.h"
#include "cfg/Loops.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace vsc {

class Module;

//===----------------------------------------------------------------------===//
// NoAlias claim reporting
//===----------------------------------------------------------------------===//

/// One NoAlias verdict the analysis issued: the instruction pair (ids
/// within \c Fn) and the window the disjointness is claimed over.
struct AliasClaim {
  std::string Fn;
  uint32_t IdA = 0;
  uint32_t IdB = 0;
  AliasClaimKind Kind = AliasClaimKind::Absolute;
};

/// Receiver for NoAlias claims. The pipeline's alias-audit mode installs
/// one for the duration of an optimize() run; implementations must be
/// thread-safe (parallel function workers query concurrently).
class AliasClaimSink {
public:
  virtual ~AliasClaimSink() = default;
  virtual void noAliasClaim(const AliasClaim &C) = 0;
};

/// Installs \p S as the process-wide claim sink (nullptr to clear).
/// \returns the previous sink. Claims are only recorded while a sink is
/// installed; one audited optimize() at a time.
AliasClaimSink *setAliasClaimSink(AliasClaimSink *S);

//===----------------------------------------------------------------------===//
// AliasAnalysis
//===----------------------------------------------------------------------===//

class AliasAnalysis {
public:
  /// An abstract pointer value (see the file comment for the lattice).
  struct AbsVal {
    enum class Base : uint8_t { Bottom, Global, Stack, Value, Top };
    int64_t Off = 0;
    uint64_t Vn = 0;   ///< value number (Base::Value)
    uint32_t Sym = 0;  ///< interned symbol index (Base::Global)
    Base K = Base::Bottom;
    bool Once = false; ///< Value: defining site runs <= once per invocation
    bool HasOff = false;

    bool sameBase(const AbsVal &O) const {
      if (K != O.K)
        return false;
      if (K == Base::Global)
        return Sym == O.Sym;
      if (K == Base::Value)
        return Vn == O.Vn;
      return true;
    }
    bool operator==(const AbsVal &O) const {
      return sameBase(O) && HasOff == O.HasOff && (!HasOff || Off == O.Off);
    }
    bool operator!=(const AbsVal &O) const { return !(*this == O); }
  };

  /// Builds the analysis from caller-provided CFG views. \p G and \p LI
  /// are used during construction only; no reference is retained (safe to
  /// cache this analysis independently of them).
  AliasAnalysis(const Function &F, const Cfg &G, const LoopInfo &LI);

  /// Convenience: builds its own Cfg/Dominators/LoopInfo (checkers and
  /// benches outside the pass-manager cache).
  explicit AliasAnalysis(const Function &F);

  const std::string &functionName() const { return FnName; }

  /// Resolved location of the memory access with instruction id \p Id
  /// (base value plus displacement already folded in), or null for ids
  /// this analysis never saw (e.g. bookkeeping copies minted after it was
  /// computed). ST/L/LU all resolve through their pre-update base.
  const AbsVal *location(uint32_t Id) const {
    if (Id >= Accesses.size() || Accesses[Id].K == AbsVal::Base::Bottom)
      return nullptr;
    return &Accesses[Id];
  }

  /// Abstract value of \p R at entry to \p BB — the pointsTo query. Exact
  /// for carried registers (see the file comment) and for registers the
  /// function never writes; any other register, and every register of an
  /// unreachable block, reports Top, which is sound.
  AbsVal pointsTo(Reg R, const BasicBlock *BB) const;

  /// Relates two memory accesses of this function under \p Scope: lattice
  /// reasoning over the recorded locations first, the syntactic tier
  /// (MemAlias.h) as fallback. Counts into the process-wide query
  /// counters; reports NoAlias verdicts to the installed claim sink.
  AliasResult alias(const Instr &A, const Instr &B, AliasScope Scope) const;

  /// Flow-sensitive speculative-load safety: everything the syntactic
  /// isSafeSpeculativeLoad() accepts, plus loads whose resolved location
  /// is a global with a known in-extent offset or an owned frame slot.
  bool safeSpeculativeLoad(const Instr &Load, const Module *M) const;

  /// A recorded access location with its labels made position-free (see
  /// labelFreeLocations).
  struct LabelFreeLoc {
    AbsVal::Base K = AbsVal::Base::Bottom; ///< Bottom: no recorded location
    bool Once = false;                     ///< Value only
    bool HasOff = false;
    uint32_t Rank = 0; ///< first-appearance rank of the value or symbol
    int64_t Off = 0;   ///< 0 unless HasOff

    bool operator==(const LabelFreeLoc &O) const = default;
  };

  /// Appends to \p Locs the location of each access among \p Ids (memory
  /// access instruction ids), in order, with its value number or symbol
  /// replaced by its rank of first appearance among them, and to
  /// \p SymNames the name of each symbol rank. Value numbers and symbol
  /// indices are minted in visit order, so any code motion can relabel
  /// them; two builds that give equal lists and names answer alias() and
  /// safeSpeculativeLoad() alike for every pair and every load among the
  /// accesses (given the same instructions).
  void labelFreeLocations(const std::vector<uint32_t> &Ids,
                          std::vector<LabelFreeLoc> &Locs,
                          std::vector<std::string> &SymNames) const;

  /// Renders \p V ("&g+8", "stack+⊤", "v12+0", "top") for tests and the
  /// cache checker.
  std::string str(const AbsVal &V) const;

  /// One line per recorded access, sorted by id — the recompute-and-
  /// compare currency of FunctionAnalyses::verifyCache().
  std::string summarize() const;

private:
  /// slotOf() codes for registers that own no slot.
  static constexpr uint32_t NoSlot = ~0u;        ///< never written
  static constexpr uint32_t Untracked = ~0u - 1; ///< written, no address

  void build(const Function &F, const Cfg &G, const LoopInfo &LI);
  uint32_t slotOf(Reg R) const {
    return R.isGpr() && R.id() < SlotOfGpr.size() ? SlotOfGpr[R.id()]
                                                   : NoSlot;
  }
  /// \p S points at one walk state: the carried slots, then the scratch
  /// slots of the other tracked registers.
  AbsVal get(const AbsVal *S, Reg R) const;
  AbsVal entryValue(Reg R) const;
  /// Applies \p I to \p S, minting its value numbers on the first visit.
  /// \returns true if \p I writes a tracked register or is an A, the
  /// instructions a revisit of its block has to replay.
  bool transfer(const Instr &I, AbsVal *S, bool Once);
  static AbsVal addImm(AbsVal V, int64_t Imm);
  static AbsVal join(const AbsVal &A, const AbsVal &B);
  /// Joins \p Src into the entry state of reverse-postorder block \p To.
  bool joinInto(size_t To, const AbsVal *Src);
  uint32_t intern(const std::string &Sym);

  /// Lattice verdict for two resolved locations (sizes from the instrs).
  AliasResult classify(const AbsVal &LA, uint8_t SizeA, const AbsVal &LB,
                       uint8_t SizeB, AliasScope Scope,
                       AliasClaimKind &Kind) const;

  std::string FnName;
  std::vector<std::string> Syms;
  std::unordered_map<std::string, uint32_t> SymIndex;
  /// Live-in value number per GPR id; 0 for a register nothing reads.
  std::vector<uint32_t> EntryVn;
  /// During build(): the first value number each def site (instruction
  /// id) minted, 0 before its first mint. A site's GPR defs take
  /// consecutive numbers.
  std::vector<uint32_t> SiteVn;
  uint32_t NextVn = 1;
  /// Per GPR id: a carried slot (< NumCarried), a scratch slot
  /// (< NumSlots), Untracked, or NoSlot.
  std::vector<uint32_t> SlotOfGpr;
  size_t NumCarried = 0;
  size_t NumSlots = 0;
  /// Resolved location per memory-access instruction id; Bottom marks an
  /// id that is no recorded access (reached states never hold Bottom).
  std::vector<AbsVal> Accesses;
  /// Block-entry states, NumCarried values per reverse-postorder position,
  /// and which positions the fixpoint reached.
  std::vector<AbsVal> BlockIn;
  std::vector<uint8_t> Reached;
  /// Block label -> reverse-postorder position, for pointsTo (labels are
  /// stable across the instruction-level edits that preserve this
  /// analysis).
  std::unordered_map<std::string, uint32_t> RpoOfLabel;
  /// The def buffer transfer() reuses.
  std::vector<Reg> DefBuf;
};

} // namespace vsc

#endif // VSC_ANALYSIS_VALUETRACK_H
