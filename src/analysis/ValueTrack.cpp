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

static AbsVal numbered(uint32_t Vn, bool Once) {
  AbsVal V;
  V.K = Base::Value;
  V.Vn = Vn;
  V.Once = Once;
  V.HasOff = true;
  V.Off = 0;
  return V;
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
  // Live-in value, numbered by build() in first-read order. Entry values
  // are set exactly once per invocation. Only pointsTo() asks about a
  // register nothing reads; it gets Top.
  uint32_t Vn = R.isGpr() && R.id() < EntryVn.size() ? EntryVn[R.id()] : 0;
  if (!Vn) {
    V.K = Base::Top;
    return V;
  }
  return numbered(Vn, /*Once=*/true);
}

AbsVal AliasAnalysis::get(const AbsVal *S, Reg R) const {
  uint32_t Slot = slotOf(R);
  // A register without a slot is never written: it holds its entry value.
  if (Slot == NoSlot)
    return entryValue(R);
  assert(Slot != Untracked && "transfers read only tracked registers");
  return S[Slot];
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

bool AliasAnalysis::transfer(const Instr &I, AbsVal *S, bool Once) {
  // Writes V into D's slot if D is tracked; \returns whether it did.
  auto Put = [&](Reg D, const AbsVal &V) {
    uint32_t Slot = slotOf(D);
    if (Slot >= NumSlots)
      return false;
    S[Slot] = V;
    return true;
  };
  auto Tracked = [&](Reg D) { return slotOf(D) < NumSlots; };
  // The value of a site's single fresh def, minted on its first use.
  auto Fresh = [&] {
    uint32_t &Vn = SiteVn[I.Id];
    if (!Vn)
      Vn = NextVn++;
    return numbered(Vn, Once);
  };

  switch (I.Op) {
  case Opcode::LR:
    // build() tracks a copy's source whenever it tracks the destination.
    return Tracked(I.Dst) && Put(I.Dst, get(S, I.Src1));
  case Opcode::LTOC: {
    if (!Tracked(I.Dst))
      return false;
    AbsVal V;
    V.K = Base::Global;
    V.Sym = intern(I.Sym);
    V.HasOff = true;
    V.Off = 0;
    return Put(I.Dst, V);
  }
  case Opcode::LA:
  case Opcode::AI:
    return Tracked(I.Dst) && Put(I.Dst, addImm(get(S, I.Src1), I.Imm));
  case Opcode::SI:
    return Tracked(I.Dst) && Put(I.Dst, addImm(get(S, I.Src1), -I.Imm));
  case Opcode::A: {
    // Pointer + index: keep the region, lose the offset. Anything else
    // (two pointers, two unknowns) is a fresh value. Both sources are
    // tracked, so the mint decision is replayed even when the result is
    // not.
    AbsVal V1 = get(S, I.Src1);
    AbsVal V2 = get(S, I.Src2);
    bool P1 = V1.K == Base::Global || V1.K == Base::Stack;
    bool P2 = V2.K == Base::Global || V2.K == Base::Stack;
    AbsVal R;
    if (P1 != P2) {
      R = P1 ? V1 : V2;
      R.HasOff = false;
    } else {
      R = Fresh();
    }
    Put(I.Dst, R);
    return true;
  }
  case Opcode::LU: {
    // rt = mem[ra + d]; ra += d. The loaded value is fresh; the base
    // update is a tracked add-immediate.
    AbsVal Updated = addImm(get(S, I.Src1), I.Imm);
    Put(I.Dst, Fresh());
    return Put(I.Src1, Updated);
  }
  default:
    break;
  }
  // Everything else (arithmetic, loads, call clobbers, ...): each defined
  // GPR gets a fresh value numbered by this site, consecutively.
  DefBuf.clear();
  I.collectDefs(DefBuf);
  uint32_t &First = SiteVn[I.Id];
  uint32_t Vn = First ? First : NextVn;
  bool Wrote = false;
  for (Reg D : DefBuf)
    if (D.isGpr())
      Wrote |= Put(D, numbered(Vn++, Once));
  if (!First && Vn != NextVn) {
    First = NextVn;
    NextVn = Vn;
  }
  return Wrote;
}

//===----------------------------------------------------------------------===//
// Fixpoint
//===----------------------------------------------------------------------===//

bool AliasAnalysis::joinInto(size_t To, const AbsVal *Src) {
  AbsVal *Dst = BlockIn.data() + To * NumCarried;
  if (!Reached[To]) {
    std::copy(Src, Src + NumCarried, Dst);
    Reached[To] = true;
    return true;
  }
  bool Changed = false;
  for (size_t S = 0; S != NumCarried; ++S) {
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

  // One walk over the function in block order. It numbers the entry
  // value of every GPR read, first read first, and notes per GPR whether
  // it is written and whether some block reads it before writing it. It
  // seeds the tracked set with every memory base and both sources of
  // every A, collects the copy-like edges (LR, LA, AI, SI: destination ->
  // source), and sizes the per-id tables.
  enum : uint8_t { Written = 1, Exposed = 2, Tracked = 4 };
  std::vector<uint8_t> Flags;
  std::vector<uint32_t> WrittenIn; // 1 + index of the last writing block
  std::vector<uint32_t> Work;
  std::vector<std::pair<uint32_t, uint32_t>> Copies;
  auto Grow = [&](Reg R) {
    if (R.id() >= Flags.size()) {
      Flags.resize(R.id() + 1, 0);
      WrittenIn.resize(R.id() + 1, 0);
      EntryVn.resize(R.id() + 1, 0);
    }
  };
  auto Seed = [&](Reg R) {
    if (!R.isGpr())
      return;
    Grow(R);
    if (!(Flags[R.id()] & Tracked)) {
      Flags[R.id()] |= Tracked;
      Work.push_back(R.id());
    }
  };
  uint32_t MaxId = 0, MaxAccessId = 0, BlockNo = 0;
  bool AnyAccess = false;
  std::vector<Reg> Regs;
  for (const auto &BB : F.blocks()) {
    ++BlockNo;
    for (const Instr &I : BB->instrs()) {
      MaxId = std::max(MaxId, I.Id);
      Regs.clear();
      I.collectUses(Regs);
      for (Reg R : Regs) {
        if (!R.isGpr())
          continue;
        Grow(R);
        if (WrittenIn[R.id()] != BlockNo)
          Flags[R.id()] |= Exposed;
        if (R != regs::sp() && !EntryVn[R.id()])
          EntryVn[R.id()] = NextVn++;
      }
      Regs.clear();
      I.collectDefs(Regs);
      for (Reg R : Regs)
        if (R.isGpr()) {
          Grow(R);
          Flags[R.id()] |= Written;
          WrittenIn[R.id()] = BlockNo;
        }
      if (I.isMemAccess()) {
        Seed(I.memBase());
        MaxAccessId = std::max(MaxAccessId, I.Id);
        AnyAccess = true;
      }
      switch (I.Op) {
      case Opcode::A:
        Seed(I.Src1);
        Seed(I.Src2);
        break;
      case Opcode::LR:
      case Opcode::LA:
      case Opcode::AI:
      case Opcode::SI:
        if (I.Dst.isGpr() && I.Src1.isGpr())
          Copies.emplace_back(I.Dst.id(), I.Src1.id());
        break;
      default:
        break;
      }
    }
  }
  if (AnyAccess)
    Accesses.resize(size_t(MaxAccessId) + 1);

  // Close the tracked set backwards through the copies: a tracked
  // destination's value is its source's.
  std::sort(Copies.begin(), Copies.end());
  while (!Work.empty()) {
    uint32_t R = Work.back();
    Work.pop_back();
    for (auto It = std::lower_bound(Copies.begin(), Copies.end(),
                                    std::make_pair(R, 0u));
         It != Copies.end() && It->first == R; ++It)
      Seed(Reg::gpr(It->second));
  }

  // Slots: carried registers first, so a block-entry state is a prefix
  // of the walk state; then the other written tracked registers.
  const uint8_t Carried = Written | Exposed | Tracked;
  SlotOfGpr.assign(Flags.size(), NoSlot);
  for (uint32_t Id = 0; Id != Flags.size(); ++Id)
    if ((Flags[Id] & Carried) == Carried)
      SlotOfGpr[Id] = static_cast<uint32_t>(NumCarried++);
  NumSlots = NumCarried;
  for (uint32_t Id = 0; Id != Flags.size(); ++Id)
    if ((Flags[Id] & Written) && SlotOfGpr[Id] == NoSlot)
      SlotOfGpr[Id] = (Flags[Id] & Tracked)
                          ? static_cast<uint32_t>(NumSlots++)
                          : Untracked;

  const std::vector<BasicBlock *> &Rpo = G.rpo();
  size_t NumBlocks = Rpo.size();
  countAliasBuild(NumCarried * NumBlocks);
  if (Rpo.empty())
    return;

  // The CFG in reverse-postorder positions: per block its loop-freedom
  // and its successors' positions (flattened, SuccBegin-delimited).
  std::vector<uint8_t> OnceAt(NumBlocks);
  std::vector<uint32_t> SuccBegin(NumBlocks + 1, 0), Succs;
  for (size_t B = 0; B != NumBlocks; ++B) {
    OnceAt[B] = LI.loopFor(Rpo[B]) == nullptr;
    for (const CfgEdge &E : G.succs(Rpo[B]))
      Succs.push_back(static_cast<uint32_t>(G.rpoIndex(E.To)));
    SuccBegin[B + 1] = static_cast<uint32_t>(Succs.size());
  }

  // Entry: every carried register at its entry value.
  SiteVn.assign(size_t(MaxId) + 1, 0);
  std::vector<AbsVal> Slots(NumSlots);
  BlockIn.resize(NumBlocks * NumCarried);
  for (uint32_t Id = 0; Id != SlotOfGpr.size(); ++Id)
    if (SlotOfGpr[Id] < NumCarried)
      BlockIn[SlotOfGpr[Id]] = entryValue(Reg::gpr(Id));
  Reached.assign(NumBlocks, 0);
  Reached[0] = true;

  // Round-robin over reverse postorder until the carried slots are
  // stable. The lattice is shallow (Bottom < concrete < region+⊤ < Top
  // per register) and value numbers are memoized by defining site, so
  // this converges quickly. Round one walks every reachable block (each
  // has a predecessor earlier in reverse postorder) and transfers every
  // instruction, so every site mints its value numbers in first-visit
  // order, whether or not it defines a tracked register. Later visits
  // replay only the block's steps: the instructions that write a tracked
  // register, every A (its mint decision may change) and the memory
  // accesses the recording walk resolves. A tracked slot reads only
  // tracked slots, so the facts equal those of a dataflow that tracks
  // every register; once the carried slots are stable, a further round
  // would repeat this one and mint nothing. Slots doubles as the
  // out-state buffer.
  std::vector<const Instr *> Steps;
  std::vector<uint32_t> StepBegin(NumBlocks, 0), StepEnd(NumBlocks, 0);
  bool Changed = true;
  unsigned Guard = 0;
  for (; Changed && Guard < 64; ++Guard) {
    Changed = false;
    for (size_t B = 0; B != NumBlocks; ++B) {
      if (!Reached[B])
        continue;
      const AbsVal *In = BlockIn.data() + B * NumCarried;
      std::copy(In, In + NumCarried, Slots.begin());
      if (Guard == 0) {
        StepBegin[B] = static_cast<uint32_t>(Steps.size());
        for (const Instr &I : Rpo[B]->instrs())
          if (transfer(I, Slots.data(), OnceAt[B]) || I.isMemAccess())
            Steps.push_back(&I);
        StepEnd[B] = static_cast<uint32_t>(Steps.size());
      } else {
        for (uint32_t K = StepBegin[B]; K != StepEnd[B]; ++K)
          transfer(*Steps[K], Slots.data(), OnceAt[B]);
      }
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
    const AbsVal *In = BlockIn.data() + B * NumCarried;
    std::copy(In, In + NumCarried, Slots.begin());
    for (uint32_t K = StepBegin[B]; K != StepEnd[B]; ++K) {
      const Instr &I = *Steps[K];
      if (I.isMemAccess()) {
        AbsVal L = addImm(get(Slots.data(), I.memBase()), I.memDisp());
        assert(L.K != Base::Bottom && "reached states never hold Bottom");
        Accesses[I.Id] = L;
      }
      transfer(I, Slots.data(), OnceAt[B]);
    }
  }
  SiteVn = {};
}

AbsVal AliasAnalysis::pointsTo(Reg R, const BasicBlock *BB) const {
  auto It = RpoOfLabel.find(BB->label());
  uint32_t Slot = slotOf(R);
  if (It == RpoOfLabel.end() || !Reached[It->second] ||
      (Slot != NoSlot && Slot >= NumCarried)) {
    AbsVal T;
    T.K = Base::Top;
    return T;
  }
  return get(BlockIn.data() + It->second * NumCarried, R);
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

void AliasAnalysis::labelFreeLocations(
    const std::vector<uint32_t> &Ids, std::vector<LabelFreeLoc> &Locs,
    std::vector<std::string> &SymNames) const {
  // Few distinct values and symbols per list: linear rank lookups.
  std::vector<uint64_t> Vns;
  std::vector<uint32_t> SymIdx;
  auto RankOf = [](auto &Seen, auto Label) {
    auto It = std::find(Seen.begin(), Seen.end(), Label);
    if (It == Seen.end())
      It = Seen.insert(Seen.end(), Label);
    return static_cast<uint32_t>(It - Seen.begin());
  };
  for (uint32_t Id : Ids) {
    LabelFreeLoc L;
    if (const AbsVal *V = location(Id)) {
      L.K = V->K;
      L.HasOff = V->HasOff;
      L.Off = V->HasOff ? V->Off : 0;
      if (V->K == Base::Value) {
        L.Once = V->Once;
        L.Rank = RankOf(Vns, V->Vn);
      } else if (V->K == Base::Global) {
        size_t Before = SymIdx.size();
        L.Rank = RankOf(SymIdx, V->Sym);
        if (SymIdx.size() != Before)
          SymNames.push_back(Syms[V->Sym]);
      }
    }
    Locs.push_back(L);
  }
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
