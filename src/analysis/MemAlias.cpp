//===- analysis/MemAlias.cpp - Memory disambiguation ------------------------===//

#include "analysis/MemAlias.h"

#include "analysis/ValueTrack.h"
#include "ir/Module.h"

#include <atomic>
#include <cassert>

using namespace vsc;

MemRegion MemRegion::of(const Instr &I) {
  assert(I.isMemAccess() && "not a memory access");
  MemRegion R;
  R.Disp = I.memDisp();
  R.Size = I.MemSize;
  // r1-based accesses are frame slots even when annotated (prolog
  // tailoring tags its spills "$csave" for the unwind checker).
  if (I.memBase() == regs::sp()) {
    R.K = Kind::Stack;
  } else if (!I.Sym.empty()) {
    R.K = Kind::Global;
    R.Sym = I.Sym;
  } else {
    R.K = Kind::Unknown;
  }
  return R;
}

namespace {

std::atomic<uint64_t> NumQueries{0};
std::atomic<uint64_t> NumNoAlias{0};
std::atomic<uint64_t> NumMustAlias{0};
std::atomic<uint64_t> NumMayAlias{0};
std::atomic<uint64_t> NumBuilds{0};
std::atomic<uint64_t> NumStateCells{0};

} // namespace

AliasQueryCounters vsc::aliasQueryCounters() {
  AliasQueryCounters C;
  C.Queries = NumQueries.load(std::memory_order_relaxed);
  C.NoAlias = NumNoAlias.load(std::memory_order_relaxed);
  C.MustAlias = NumMustAlias.load(std::memory_order_relaxed);
  C.MayAlias = NumMayAlias.load(std::memory_order_relaxed);
  C.Builds = NumBuilds.load(std::memory_order_relaxed);
  C.StateCells = NumStateCells.load(std::memory_order_relaxed);
  return C;
}

void vsc::countAliasBuild(uint64_t StateCells) {
  NumBuilds.fetch_add(1, std::memory_order_relaxed);
  NumStateCells.fetch_add(StateCells, std::memory_order_relaxed);
}

void vsc::countAliasQuery(AliasResult R) {
  NumQueries.fetch_add(1, std::memory_order_relaxed);
  switch (R) {
  case AliasResult::NoAlias:
    NumNoAlias.fetch_add(1, std::memory_order_relaxed);
    break;
  case AliasResult::MustAlias:
    NumMustAlias.fetch_add(1, std::memory_order_relaxed);
    break;
  case AliasResult::MayAlias:
    NumMayAlias.fetch_add(1, std::memory_order_relaxed);
    break;
  }
}

AliasResult vsc::aliasClassified(const Instr &A, const Instr &B,
                                 AliasScope Scope, AliasClaimKind &Kind) {
  Kind = AliasClaimKind::Absolute;
  if (A.IsVolatile || B.IsVolatile)
    return AliasResult::MayAlias;
  MemRegion RA = MemRegion::of(A);
  MemRegion RB = MemRegion::of(B);

  auto rangesDisjoint = [&] {
    return RA.Disp + RA.Size <= RB.Disp || RB.Disp + RB.Size <= RA.Disp;
  };
  auto rangesIdentical = [&] {
    return RA.Disp == RB.Disp && RA.Size == RB.Size;
  };

  using K = MemRegion::Kind;
  if (RA.K == K::Global && RB.K == K::Global) {
    if (RA.Sym != RB.Sym) {
      // The "!sym" annotation is a frontend guarantee that the access
      // stays within the named global's extent, so two differently-named
      // regions are disjoint program-wide.
      Kind = AliasClaimKind::Absolute;
      return AliasResult::NoAlias;
    }
    // Same region. The annotated displacement is only the *known part* of
    // the address: a computed-index access "0(rAddr) !g" carries Disp 0
    // while the real offset lives in rAddr. Displacement reasoning is
    // therefore only valid when both accesses go through the same base
    // register holding the same value — the SameExecution window.
    if (A.memBase() == B.memBase() && Scope == AliasScope::SameExecution) {
      if (rangesDisjoint()) {
        Kind = AliasClaimKind::PerBlockExecution;
        return AliasResult::NoAlias;
      }
      if (rangesIdentical())
        return AliasResult::MustAlias;
    }
    return AliasResult::MayAlias;
  }
  if (RA.K == K::Stack && RB.K == K::Stack) {
    // Same frame, same base register: displacement ranges decide in every
    // scope. (LU never uses r1 as base in generated code; the
    // verifier-level invariant that r1 is only adjusted in
    // prologue/epilogue keeps r1 constant across one invocation.)
    if (rangesDisjoint()) {
      Kind = AliasClaimKind::PerInvocation;
      return AliasResult::NoAlias;
    }
    if (rangesIdentical())
      return AliasResult::MustAlias;
    return AliasResult::MayAlias;
  }
  // Stack never aliases a named global (no escaping frame addresses).
  if ((RA.K == K::Stack && RB.K == K::Global) ||
      (RA.K == K::Global && RB.K == K::Stack)) {
    Kind = AliasClaimKind::Absolute;
    return AliasResult::NoAlias;
  }
  // Unknown base values: displacement reasoning needs both accesses to
  // observe the same value in the same base register, which only the
  // SameExecution scope guarantees. This used to be an unchecked
  // caller-side invariant; now the scope parameter carries it.
  if (RA.K == K::Unknown && RB.K == K::Unknown &&
      A.memBase() == B.memBase() && Scope == AliasScope::SameExecution) {
    if (rangesDisjoint()) {
      Kind = AliasClaimKind::PerBlockExecution;
      return AliasResult::NoAlias;
    }
    if (rangesIdentical())
      return AliasResult::MustAlias;
  }
  return AliasResult::MayAlias;
}

AliasResult vsc::alias(const Instr &A, const Instr &B, AliasScope Scope) {
  AliasClaimKind Kind;
  AliasResult R = aliasClassified(A, B, Scope, Kind);
  countAliasQuery(R);
  return R;
}

bool vsc::isMemoryInertCall(const Instr &I) {
  return I.isCall() && (I.Sym == "print_int" || I.Sym == "print_char" ||
                        I.Sym == "read_int");
}

bool vsc::memoryOrdered(const Instr &Earlier, const Instr &Later,
                        AliasScope Scope, const AliasAnalysis *AA) {
  auto IsOpaqueCall = [](const Instr &I) {
    return I.isCall() && !isMemoryInertCall(I);
  };
  if (Earlier.isCall() && Later.isCall())
    return true;
  if ((IsOpaqueCall(Earlier) && Later.isMemAccess()) ||
      (IsOpaqueCall(Later) && Earlier.isMemAccess()))
    return true;
  if (!Earlier.isMemAccess() || !Later.isMemAccess())
    return false;
  if (Earlier.IsVolatile && Later.IsVolatile)
    return true; // volatile order is architectural
  if (!Earlier.isStore() && !Later.isStore())
    return false;
  AliasResult R = AA ? AA->alias(Earlier, Later, Scope)
                     : alias(Earlier, Later, Scope);
  return R != AliasResult::NoAlias;
}

bool vsc::isSafeSpeculativeLoad(const Instr &Load, const Module *M) {
  if (!Load.isLoad() || Load.IsVolatile)
    return false;
  if (Load.SpecSafe)
    return true;
  MemRegion R = MemRegion::of(Load);
  if (R.K == MemRegion::Kind::Stack)
    return R.Disp >= 0; // within the owned frame
  if (R.K == MemRegion::Kind::Global && M) {
    if (const Global *G = M->findGlobal(R.Sym))
      return R.Disp >= 0 &&
             static_cast<uint64_t>(R.Disp) + R.Size <= G->Size;
  }
  return false;
}
