//===- analysis/ValueTrack.cpp - Flow-sensitive alias analysis --------------===//

#include "analysis/ValueTrack.h"

#include "cfg/Dominators.h"
#include "ir/Module.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>

using namespace vsc;

//===----------------------------------------------------------------------===//
// Claim sink
//===----------------------------------------------------------------------===//

namespace {
std::atomic<AliasClaimSink *> ClaimSink{nullptr};
} // namespace

AliasClaimSink *vsc::setAliasClaimSink(AliasClaimSink *S) {
  return ClaimSink.exchange(S);
}

//===----------------------------------------------------------------------===//
// Lattice helpers
//===----------------------------------------------------------------------===//

using AbsVal = AliasAnalysis::AbsVal;
using Base = AbsVal::Base;

AbsVal AliasAnalysis::addImm(AbsVal V, int64_t Imm) {
  if ((V.K == Base::Global || V.K == Base::Stack || V.K == Base::Value) &&
      V.HasOff)
    V.Off += Imm;
  return V;
}

AbsVal AliasAnalysis::join(const AbsVal &A, const AbsVal &B) {
  if (A.K == Base::Bottom)
    return B;
  if (B.K == Base::Bottom)
    return A;
  if (!A.sameBase(B)) {
    AbsVal T;
    T.K = Base::Top;
    return T;
  }
  AbsVal R = A;
  if (!A.HasOff || !B.HasOff || A.Off != B.Off)
    R.HasOff = false;
  return R;
}

AbsVal AliasAnalysis::entryValue(Reg R) const {
  AbsVal V;
  if (R == regs::sp()) {
    // The frame anchor: entry r1. Prologue/epilogue adjustments are
    // ordinary add-immediates on top of this.
    V.K = Base::Stack;
    V.HasOff = true;
    V.Off = 0;
    return V;
  }
  // Live-in value: numbered by (entry, reg) — id 0 never collides with an
  // instruction id (those start at 1). Entry values are set exactly once
  // per invocation.
  uint64_t Key = (uint64_t(0) << 32) |
                 (uint64_t(static_cast<uint8_t>(R.regClass())) << 30) |
                 (R.id() & 0x3fffffffu);
  auto It = ValueNumbers.find(Key);
  V.K = Base::Value;
  V.Once = true;
  V.HasOff = true;
  V.Off = 0;
  if (It != ValueNumbers.end()) {
    V.Vn = It->second;
    return V;
  }
  // entryValue is called from const context during queries, but every
  // reachable (reg, entry) pair was already interned during build(); an
  // unseen pair can only come from pointsTo() on a register the function
  // never touches. Report it as Top rather than minting state.
  V.K = Base::Top;
  V.Once = false;
  V.HasOff = false;
  return V;
}

AbsVal AliasAnalysis::freshValue(const Instr &I, Reg R, bool Once) {
  uint64_t Key = (uint64_t(I.Id) << 32) |
                 (uint64_t(static_cast<uint8_t>(R.regClass())) << 30) |
                 (R.id() & 0x3fffffffu);
  auto [It, Fresh] = ValueNumbers.try_emplace(Key, NextVn);
  if (Fresh) {
    ++NextVn;
    ValueOnce.push_back(Once);
  }
  uint64_t Vn = It->second;
  AbsVal V;
  V.K = Base::Value;
  V.Vn = Vn;
  V.Once = ValueOnce[Vn];
  V.HasOff = true;
  V.Off = 0;
  return V;
}

AbsVal AliasAnalysis::get(const AbsVal *S, Reg R) const {
  uint32_t Slot = slotOf(R);
  // A register without a slot is never written: it holds its entry value.
  return Slot == NoSlot ? entryValue(R) : S[Slot];
}

void AliasAnalysis::set(AbsVal *S, Reg R, const AbsVal &V) const {
  uint32_t Slot = slotOf(R);
  assert(Slot != NoSlot && "write to a register build() gave no slot");
  S[Slot] = V;
}

uint32_t AliasAnalysis::intern(const std::string &Sym) {
  auto It = SymIndex.find(Sym);
  if (It != SymIndex.end())
    return It->second;
  uint32_t Idx = static_cast<uint32_t>(Syms.size());
  Syms.push_back(Sym);
  SymIndex.emplace(Sym, Idx);
  return Idx;
}

//===----------------------------------------------------------------------===//
// Transfer function
//===----------------------------------------------------------------------===//

void AliasAnalysis::transfer(const Instr &I, AbsVal *S, bool Once) {
  switch (I.Op) {
  case Opcode::LR:
    if (I.Dst.isGpr())
      set(S, I.Dst, get(S, I.Src1));
    return;
  case Opcode::LTOC: {
    AbsVal V;
    V.K = Base::Global;
    V.Sym = intern(I.Sym);
    V.HasOff = true;
    V.Off = 0;
    set(S, I.Dst, V);
    return;
  }
  case Opcode::LA:
  case Opcode::AI:
    set(S, I.Dst, addImm(get(S, I.Src1), I.Imm));
    return;
  case Opcode::SI:
    set(S, I.Dst, addImm(get(S, I.Src1), -I.Imm));
    return;
  case Opcode::A: {
    // Pointer + index: keep the region, lose the offset. Anything else
    // (two pointers, two unknowns) is a fresh value.
    AbsVal V1 = get(S, I.Src1);
    AbsVal V2 = get(S, I.Src2);
    bool P1 = V1.K == Base::Global || V1.K == Base::Stack;
    bool P2 = V2.K == Base::Global || V2.K == Base::Stack;
    if (P1 != P2) {
      AbsVal R = P1 ? V1 : V2;
      R.HasOff = false;
      set(S, I.Dst, R);
    } else {
      set(S, I.Dst, freshValue(I, I.Dst, Once));
    }
    return;
  }
  case Opcode::LU: {
    // rt = mem[ra + d]; ra += d. The loaded value is fresh; the base
    // update is a tracked add-immediate.
    Reg BaseReg = I.Src1;
    AbsVal Updated = addImm(get(S, BaseReg), I.Imm);
    set(S, I.Dst, freshValue(I, I.Dst, Once));
    set(S, BaseReg, Updated);
    return;
  }
  default:
    break;
  }
  // Everything else (arithmetic, loads, call clobbers, ...): each defined
  // GPR gets a fresh value numbered by this site.
  DefBuf.clear();
  I.collectDefs(DefBuf);
  for (Reg D : DefBuf)
    if (D.isGpr())
      set(S, D, freshValue(I, D, Once));
}

//===----------------------------------------------------------------------===//
// Fixpoint
//===----------------------------------------------------------------------===//

bool AliasAnalysis::joinInto(size_t To, const AbsVal *Src) {
  AbsVal *Dst = BlockIn.data() + To * NumSlots;
  if (!Reached[To]) {
    std::copy(Src, Src + NumSlots, Dst);
    Reached[To] = true;
    return true;
  }
  bool Changed = false;
  for (size_t S = 0; S != NumSlots; ++S) {
    AbsVal New = join(Dst[S], Src[S]);
    if (New != Dst[S]) {
      Dst[S] = New;
      Changed = true;
    }
  }
  return Changed;
}

AliasAnalysis::AliasAnalysis(const Function &F, const Cfg &G,
                             const LoopInfo &LI) {
  build(F, G, LI);
}

AliasAnalysis::AliasAnalysis(const Function &F) {
  // Standalone construction for checkers/benches; Cfg wants a non-const
  // Function but only mutates nothing — the views are read-only.
  Function &MF = const_cast<Function &>(F);
  Cfg G(MF);
  Dominators Dom(G);
  LoopInfo LI(G, Dom);
  build(F, G, LI);
}

void AliasAnalysis::build(const Function &F, const Cfg &G,
                          const LoopInfo &LI) {
  FnName = F.name();
  ValueOnce.push_back(false); // value numbers start at 1

  // One walk over the function: pre-intern the entry value of every
  // register it reads (so get() never mints state from const context),
  // give every GPR it writes a slot, and size the access table.
  uint32_t MaxAccessId = 0;
  bool AnyAccess = false;
  std::vector<Reg> Regs;
  for (const auto &BB : F.blocks())
    for (const Instr &I : BB->instrs()) {
      Regs.clear();
      I.collectUses(Regs);
      for (Reg R : Regs)
        if (R.isGpr() && R != regs::sp()) {
          uint64_t Key =
              (uint64_t(0) << 32) |
              (uint64_t(static_cast<uint8_t>(R.regClass())) << 30) |
              (R.id() & 0x3fffffffu);
          if (ValueNumbers.try_emplace(Key, NextVn).second) {
            ValueOnce.push_back(true);
            ++NextVn;
          }
        }
      Regs.clear();
      I.collectDefs(Regs);
      for (Reg R : Regs) {
        if (!R.isGpr())
          continue;
        if (R.id() >= SlotOfGpr.size())
          SlotOfGpr.resize(R.id() + 1, NoSlot);
        if (SlotOfGpr[R.id()] == NoSlot)
          SlotOfGpr[R.id()] = static_cast<uint32_t>(NumSlots++);
      }
      if (I.isMemAccess()) {
        MaxAccessId = std::max(MaxAccessId, I.Id);
        AnyAccess = true;
      }
    }
  if (AnyAccess)
    Accesses.resize(size_t(MaxAccessId) + 1);

  const std::vector<BasicBlock *> &Rpo = G.rpo();
  if (Rpo.empty())
    return;

  // The CFG in reverse-postorder positions: per block its loop-freedom
  // and its successors' positions (flattened, SuccBegin-delimited).
  size_t NumBlocks = Rpo.size();
  std::vector<uint8_t> OnceAt(NumBlocks);
  std::vector<uint32_t> SuccBegin(NumBlocks + 1, 0), Succs;
  for (size_t B = 0; B != NumBlocks; ++B) {
    OnceAt[B] = LI.loopFor(Rpo[B]) == nullptr;
    for (const CfgEdge &E : G.succs(Rpo[B]))
      Succs.push_back(static_cast<uint32_t>(G.rpoIndex(E.To)));
    SuccBegin[B + 1] = static_cast<uint32_t>(Succs.size());
  }

  // Entry: every register at its entry value.
  std::vector<AbsVal> Slots(NumSlots);
  for (uint32_t Id = 0; Id != SlotOfGpr.size(); ++Id)
    if (SlotOfGpr[Id] != NoSlot)
      Slots[SlotOfGpr[Id]] = entryValue(Reg::gpr(Id));
  BlockIn.resize(NumBlocks * NumSlots);
  Reached.assign(NumBlocks, 0);
  std::copy(Slots.begin(), Slots.end(), BlockIn.begin());
  Reached[0] = true;

  // Round-robin over reverse postorder until stable. The lattice is
  // shallow (Bottom < concrete < region+⊤ < Top per register) and value
  // numbers are memoized by defining site, so this converges quickly.
  // Slots doubles as the out-state buffer.
  bool Changed = true;
  unsigned Guard = 0;
  while (Changed && Guard++ < 64) {
    Changed = false;
    for (size_t B = 0; B != NumBlocks; ++B) {
      if (!Reached[B])
        continue;
      const AbsVal *In = BlockIn.data() + B * NumSlots;
      std::copy(In, In + NumSlots, Slots.begin());
      for (const Instr &I : Rpo[B]->instrs())
        transfer(I, Slots.data(), OnceAt[B]);
      for (uint32_t E = SuccBegin[B]; E != SuccBegin[B + 1]; ++E)
        if (joinInto(Succs[E], Slots.data()))
          Changed = true;
    }
  }

  // Recording walk: replay each block once, resolving every memory
  // access's location (pre-update base for LU) keyed by instruction id.
  RpoOfLabel.reserve(NumBlocks);
  for (size_t B = 0; B != NumBlocks; ++B) {
    RpoOfLabel.emplace(Rpo[B]->label(), static_cast<uint32_t>(B));
    if (!Reached[B])
      continue;
    const AbsVal *In = BlockIn.data() + B * NumSlots;
    std::copy(In, In + NumSlots, Slots.begin());
    for (const Instr &I : Rpo[B]->instrs()) {
      if (I.isMemAccess()) {
        AbsVal L = addImm(get(Slots.data(), I.memBase()), I.memDisp());
        assert(L.K != Base::Bottom && "reached states never hold Bottom");
        Accesses[I.Id] = L;
      }
      transfer(I, Slots.data(), OnceAt[B]);
    }
  }
}

AbsVal AliasAnalysis::pointsTo(Reg R, const BasicBlock *BB) const {
  auto It = RpoOfLabel.find(BB->label());
  if (It == RpoOfLabel.end() || !Reached[It->second]) {
    AbsVal T;
    T.K = Base::Top;
    return T;
  }
  return get(BlockIn.data() + It->second * NumSlots, R);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

AliasResult AliasAnalysis::classify(const AbsVal &LA, uint8_t SizeA,
                                    const AbsVal &LB, uint8_t SizeB,
                                    AliasScope Scope,
                                    AliasClaimKind &Kind) const {
  Kind = AliasClaimKind::Absolute;

  auto offsets = [&](AliasClaimKind K) {
    if (!LA.HasOff || !LB.HasOff)
      return AliasResult::MayAlias;
    if (LA.Off + SizeA <= LB.Off || LB.Off + SizeB <= LA.Off) {
      Kind = K;
      return AliasResult::NoAlias;
    }
    if (LA.Off == LB.Off && SizeA == SizeB)
      return AliasResult::MustAlias;
    return AliasResult::MayAlias;
  };

  if (LA.K == Base::Global && LB.K == Base::Global) {
    if (LA.Sym != LB.Sym) {
      // Distinct named regions; disjoint program-wide under the frontend
      // in-bounds discipline (see the file comment in ValueTrack.h).
      Kind = AliasClaimKind::Absolute;
      return AliasResult::NoAlias;
    }
    // &sym+off addresses are absolute, so known offsets compare in any
    // scope. A lost offset (computed index) never disambiguates within
    // its own region.
    return offsets(AliasClaimKind::Absolute);
  }
  if (LA.K == Base::Stack && LB.K == Base::Stack) {
    // Frame offsets are absolute within one invocation; recursion gives
    // each invocation its own disjoint frame window, but a claim pairs
    // accesses of one function, which the audit checks per invocation.
    return offsets(AliasClaimKind::PerInvocation);
  }
  if ((LA.K == Base::Stack && LB.K == Base::Global) ||
      (LA.K == Base::Global && LB.K == Base::Stack)) {
    // The frame grows down from the top of memory; the simulator traps
    // the moment r1 descends into the data segment, so frame and global
    // regions are disjoint program-wide — even for computed Stack+⊤
    // addresses, again under the in-bounds discipline.
    Kind = AliasClaimKind::Absolute;
    return AliasResult::NoAlias;
  }
  if (LA.K == Base::Value && LB.K == Base::Value && LA.Vn == LB.Vn) {
    // Same unknown base value. Within one execution of a block both
    // accesses observe the same dynamic value, so offsets decide; across
    // executions that only holds if the defining site cannot re-execute.
    if (Scope == AliasScope::SameExecution)
      return offsets(AliasClaimKind::PerBlockExecution);
    if (LA.Once)
      return offsets(AliasClaimKind::PerInvocation);
    return AliasResult::MayAlias;
  }
  return AliasResult::MayAlias;
}

AliasResult AliasAnalysis::alias(const Instr &A, const Instr &B,
                                 AliasScope Scope) const {
  AliasResult R = AliasResult::MayAlias;
  AliasClaimKind Kind = AliasClaimKind::Absolute;
  if (A.IsVolatile || B.IsVolatile) {
    countAliasQuery(R);
    return R;
  }
  const AbsVal *LA = location(A.Id);
  const AbsVal *LB = location(B.Id);
  if (LA && LB)
    R = classify(*LA, A.MemSize, *LB, B.MemSize, Scope, Kind);
  if (R == AliasResult::MayAlias) {
    // Syntactic fallback: annotation regions and same-base-register
    // displacement reasoning can resolve pairs the lattice cannot (e.g.
    // an annotated access through a base value loaded from memory).
    AliasClaimKind FallbackKind;
    AliasResult FR = aliasClassified(A, B, Scope, FallbackKind);
    if (FR != AliasResult::MayAlias) {
      R = FR;
      Kind = FallbackKind;
    }
  }
  countAliasQuery(R);
  if (R == AliasResult::NoAlias) {
    if (AliasClaimSink *S = ClaimSink.load(std::memory_order_acquire)) {
      AliasClaim C;
      C.Fn = FnName;
      C.IdA = A.Id;
      C.IdB = B.Id;
      C.Kind = Kind;
      S->noAliasClaim(C);
    }
  }
  return R;
}

bool AliasAnalysis::safeSpeculativeLoad(const Instr &Load,
                                        const Module *M) const {
  if (isSafeSpeculativeLoad(Load, M))
    return true;
  if (!Load.isLoad() || Load.IsVolatile)
    return false;
  const AbsVal *L = location(Load.Id);
  if (!L || !L->HasOff)
    return false;
  if (L->K == Base::Stack)
    return L->Off >= 0; // within the owned frame (pre-prologue discipline)
  if (L->K == Base::Global && M) {
    if (const Global *G = M->findGlobal(Syms[L->Sym]))
      return L->Off >= 0 &&
             static_cast<uint64_t>(L->Off) + Load.MemSize <= G->Size;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string AliasAnalysis::str(const AbsVal &V) const {
  std::ostringstream OS;
  switch (V.K) {
  case Base::Bottom:
    return "bottom";
  case Base::Top:
    return "top";
  case Base::Global:
    OS << "&" << Syms[V.Sym];
    break;
  case Base::Stack:
    OS << "stack";
    break;
  case Base::Value:
    OS << "v" << V.Vn << (V.Once ? "!" : "");
    break;
  }
  if (V.HasOff)
    OS << "+" << V.Off;
  else
    OS << "+?";
  return OS.str();
}

std::string AliasAnalysis::summarize() const {
  std::ostringstream OS;
  for (uint32_t Id = 0; Id != Accesses.size(); ++Id)
    if (const AbsVal *L = location(Id))
      OS << Id << ":" << str(*L) << ";";
  return OS.str();
}
