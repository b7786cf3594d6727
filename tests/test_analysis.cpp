//===- tests/test_analysis.cpp - Liveness and memory disambiguation --------===//

#include "TestUtil.h"
#include "analysis/Liveness.h"
#include "analysis/MemAlias.h"
#include "analysis/ValueTrack.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

Instr memInstr(Opcode Op, Reg Base, int64_t Disp, const char *Sym,
               uint8_t Size = 4, bool Volatile = false) {
  Instr I;
  I.Op = Op;
  if (Op == Opcode::ST) {
    I.Src1 = Reg::gpr(40);
    I.Src2 = Base;
  } else {
    I.Dst = Reg::gpr(40);
    I.Src1 = Base;
  }
  I.Imm = Disp;
  I.Sym = Sym ? Sym : "";
  I.MemSize = Size;
  I.IsVolatile = Volatile;
  return I;
}

} // namespace

//===----------------------------------------------------------------------===//
// Memory disambiguation
//===----------------------------------------------------------------------===//

TEST(MemAlias, DistinctGlobalsNeverAlias) {
  Instr A = memInstr(Opcode::L, Reg::gpr(41), 0, "a");
  Instr B = memInstr(Opcode::ST, Reg::gpr(42), 0, "b");
  // A program-wide fact: holds even with no locality guarantee.
  EXPECT_EQ(alias(A, B, AliasScope::CrossExecution), AliasResult::NoAlias);
}

TEST(MemAlias, SameGlobalDisjointRanges) {
  Instr A = memInstr(Opcode::L, Reg::gpr(41), 0, "a");
  Instr B = memInstr(Opcode::ST, Reg::gpr(41), 4, "a");
  EXPECT_EQ(alias(A, B, AliasScope::SameExecution), AliasResult::NoAlias);
  Instr C = memInstr(Opcode::ST, Reg::gpr(41), 2, "a");
  EXPECT_EQ(alias(A, C, AliasScope::SameExecution),
            AliasResult::MayAlias); // [0,4) vs [2,6)
  Instr D = memInstr(Opcode::ST, Reg::gpr(41), 0, "a");
  EXPECT_EQ(alias(A, D, AliasScope::SameExecution), AliasResult::MustAlias);
  // The annotated displacement is only the known part of the address
  // (computed-index accesses carry Disp 0): without the same-execution
  // guarantee on the shared base register, same-global displacement
  // reasoning is off.
  EXPECT_EQ(alias(A, B, AliasScope::CrossExecution), AliasResult::MayAlias);
}

TEST(MemAlias, StackSlotsByDisplacement) {
  // r1 is constant across an invocation, so frame-slot displacements
  // disambiguate in every scope.
  Instr A = memInstr(Opcode::L, regs::sp(), 0, nullptr);
  Instr B = memInstr(Opcode::ST, regs::sp(), 8, nullptr);
  EXPECT_EQ(alias(A, B, AliasScope::CrossExecution), AliasResult::NoAlias);
  Instr C = memInstr(Opcode::ST, regs::sp(), 0, nullptr);
  EXPECT_EQ(alias(A, C, AliasScope::CrossExecution), AliasResult::MustAlias);
}

TEST(MemAlias, StackNeverAliasesGlobals) {
  Instr A = memInstr(Opcode::L, regs::sp(), 0, nullptr);
  Instr B = memInstr(Opcode::ST, Reg::gpr(41), 0, "a");
  EXPECT_EQ(alias(A, B, AliasScope::CrossExecution), AliasResult::NoAlias);
}

TEST(MemAlias, UnknownPointersMayAlias) {
  Instr A = memInstr(Opcode::L, Reg::gpr(41), 0, nullptr);
  Instr B = memInstr(Opcode::ST, Reg::gpr(42), 0, nullptr);
  // Different base registers: conservative even in the strongest scope.
  EXPECT_EQ(alias(A, B, AliasScope::SameExecution), AliasResult::MayAlias);
  // Unknown vs annotated global: conservative.
  Instr C = memInstr(Opcode::ST, Reg::gpr(43), 0, "a");
  EXPECT_EQ(alias(A, C, AliasScope::SameExecution), AliasResult::MayAlias);
}

TEST(MemAlias, SameUnknownBaseScopeContract) {
  Instr A = memInstr(Opcode::L, Reg::gpr(41), 0, nullptr);
  Instr B = memInstr(Opcode::ST, Reg::gpr(41), 8, nullptr);
  // "8(r41) vs 0(r41)" disambiguates only when the caller guarantees both
  // accesses observe the same dynamic value in r41.
  EXPECT_EQ(alias(A, B, AliasScope::SameExecution), AliasResult::NoAlias);
  // The historical footgun: with r41 possibly redefined in between (other
  // block, other iteration), the same displacements prove nothing.
  EXPECT_EQ(alias(A, B, AliasScope::CrossExecution), AliasResult::MayAlias);
  Instr C = memInstr(Opcode::ST, Reg::gpr(41), 3, nullptr);
  EXPECT_EQ(alias(A, C, AliasScope::SameExecution), AliasResult::MayAlias);
  Instr D = memInstr(Opcode::ST, Reg::gpr(41), 0, nullptr);
  EXPECT_EQ(alias(A, D, AliasScope::SameExecution), AliasResult::MustAlias);
  EXPECT_EQ(alias(A, D, AliasScope::CrossExecution), AliasResult::MayAlias);
}

TEST(MemAlias, VolatileDefeatsDisambiguation) {
  Instr A = memInstr(Opcode::L, Reg::gpr(41), 0, "a", 4, true);
  Instr B = memInstr(Opcode::ST, Reg::gpr(42), 0, "b");
  EXPECT_EQ(alias(A, B, AliasScope::SameExecution), AliasResult::MayAlias);
}

TEST(MemAlias, SpillTagStaysStackRegion) {
  // Prolog-tailoring spills carry "$csave" but are r1-based: they must
  // disambiguate like stack slots, not like a global named $csave.
  Instr A = memInstr(Opcode::ST, regs::sp(), 16, "$csave", 8);
  Instr B = memInstr(Opcode::L, regs::sp(), 24, "$csave", 8);
  EXPECT_EQ(alias(A, B, AliasScope::CrossExecution), AliasResult::NoAlias);
  Instr C = memInstr(Opcode::L, Reg::gpr(41), 0, "a");
  EXPECT_EQ(alias(A, C, AliasScope::CrossExecution), AliasResult::NoAlias);
}

TEST(MemAlias, ClaimKindsMatchVerdictWindows) {
  AliasClaimKind Kind;
  Instr GA = memInstr(Opcode::L, Reg::gpr(41), 0, "a");
  Instr GB = memInstr(Opcode::ST, Reg::gpr(42), 0, "b");
  EXPECT_EQ(aliasClassified(GA, GB, AliasScope::CrossExecution, Kind),
            AliasResult::NoAlias);
  EXPECT_EQ(Kind, AliasClaimKind::Absolute);
  Instr SA = memInstr(Opcode::L, regs::sp(), 0, nullptr);
  Instr SB = memInstr(Opcode::ST, regs::sp(), 8, nullptr);
  EXPECT_EQ(aliasClassified(SA, SB, AliasScope::CrossExecution, Kind),
            AliasResult::NoAlias);
  EXPECT_EQ(Kind, AliasClaimKind::PerInvocation);
  Instr UA = memInstr(Opcode::L, Reg::gpr(41), 0, nullptr);
  Instr UB = memInstr(Opcode::ST, Reg::gpr(41), 8, nullptr);
  EXPECT_EQ(aliasClassified(UA, UB, AliasScope::SameExecution, Kind),
            AliasResult::NoAlias);
  EXPECT_EQ(Kind, AliasClaimKind::PerBlockExecution);
}

TEST(MemAlias, SafeSpeculativeLoads) {
  Module M;
  M.addGlobal("a", 16);
  Instr InBounds = memInstr(Opcode::L, Reg::gpr(41), 12, "a");
  EXPECT_TRUE(isSafeSpeculativeLoad(InBounds, &M));
  Instr OutOfBounds = memInstr(Opcode::L, Reg::gpr(41), 16, "a");
  EXPECT_FALSE(isSafeSpeculativeLoad(OutOfBounds, &M));
  Instr Unknown = memInstr(Opcode::L, Reg::gpr(41), 0, nullptr);
  EXPECT_FALSE(isSafeSpeculativeLoad(Unknown, &M));
  Unknown.SpecSafe = true;
  EXPECT_TRUE(isSafeSpeculativeLoad(Unknown, &M));
  Instr StackLoad = memInstr(Opcode::L, regs::sp(), 8, nullptr);
  EXPECT_TRUE(isSafeSpeculativeLoad(StackLoad, &M));
  Instr Vol = memInstr(Opcode::L, Reg::gpr(41), 0, "a", 4, true);
  EXPECT_FALSE(isSafeSpeculativeLoad(Vol, &M));
}

TEST(MemAlias, SpeculativeLoadBoundaries) {
  Module M;
  M.addGlobal("g", 16);
  // Exact fit against the end of the extent (Disp + Size == G->Size)...
  Instr ExactEnd = memInstr(Opcode::L, Reg::gpr(41), 8, "g", 8);
  EXPECT_TRUE(isSafeSpeculativeLoad(ExactEnd, &M));
  Instr Exact4 = memInstr(Opcode::L, Reg::gpr(41), 12, "g", 4);
  EXPECT_TRUE(isSafeSpeculativeLoad(Exact4, &M));
  // ...vs one byte past it.
  Instr PastEnd = memInstr(Opcode::L, Reg::gpr(41), 9, "g", 8);
  EXPECT_FALSE(isSafeSpeculativeLoad(PastEnd, &M));
  Instr Past4 = memInstr(Opcode::L, Reg::gpr(41), 13, "g", 4);
  EXPECT_FALSE(isSafeSpeculativeLoad(Past4, &M));
  // Negative displacements read outside the named extent / owned frame.
  Instr NegGlobal = memInstr(Opcode::L, Reg::gpr(41), -4, "g", 4);
  EXPECT_FALSE(isSafeSpeculativeLoad(NegGlobal, &M));
  Instr NegStack = memInstr(Opcode::L, regs::sp(), -8, nullptr, 8);
  EXPECT_FALSE(isSafeSpeculativeLoad(NegStack, &M));
  Instr ZeroStack = memInstr(Opcode::L, regs::sp(), 0, nullptr, 8);
  EXPECT_TRUE(isSafeSpeculativeLoad(ZeroStack, &M));
  // Volatile rejection beats every other rule, including "!safe".
  Instr VolSafe = memInstr(Opcode::L, regs::sp(), 0, nullptr, 8, true);
  VolSafe.SpecSafe = true;
  EXPECT_FALSE(isSafeSpeculativeLoad(VolSafe, &M));
}

//===----------------------------------------------------------------------===//
// Flow-sensitive tier (analysis/ValueTrack.h)
//===----------------------------------------------------------------------===//

namespace {

/// The \p Nth memory access of \p F in layout order (0-based).
const Instr &memAccessAt(const Function &F, unsigned N) {
  for (const auto &BB : F.blocks())
    for (const Instr &I : BB->instrs())
      if (I.isMemAccess() && N-- == 0)
        return I;
  ADD_FAILURE() << "not enough memory accesses";
  static Instr Dummy;
  return Dummy;
}

} // namespace

TEST(ValueTrack, TracksBasesThroughCopiesAndTocReloads) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LTOC r32 = .a
  LR r33 = r32
  AI r34 = r33, 8
  L r40 = 0(r34)
  LTOC r35 = .b
  ST 0(r35) = r40
  L r41 = 0(r32)
  LR r3 = r41
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const Instr &LoadA8 = memAccessAt(F, 0); // 0(r34) = &a + 8
  const Instr &StoreB = memAccessAt(F, 1); // 0(r35) = &b + 0
  const Instr &LoadA0 = memAccessAt(F, 2); // 0(r32) = &a + 0
  ASSERT_NE(AA.location(LoadA8.Id), nullptr);
  EXPECT_EQ(AA.str(*AA.location(LoadA8.Id)), "&a+8");
  EXPECT_EQ(AA.str(*AA.location(StoreB.Id)), "&b+0");
  // Distinct globals through unannotated, copied bases — the syntactic
  // tier sees two unknown base registers here.
  EXPECT_EQ(AA.alias(LoadA8, StoreB, AliasScope::CrossExecution),
            AliasResult::NoAlias);
  // Disjoint offsets into one global, through different registers.
  EXPECT_EQ(AA.alias(LoadA8, LoadA0, AliasScope::CrossExecution),
            AliasResult::NoAlias);
  Instr SameSpot = LoadA8; // same id, same resolved location
  EXPECT_EQ(AA.alias(LoadA8, SameSpot, AliasScope::CrossExecution),
            AliasResult::MustAlias);
}

/// Label-free locations rank value numbers and symbols by first
/// appearance: a function whose labels shifted (one more def site minted
/// before the accesses) lists the same locations, while one whose two
/// accesses no longer share a base, or reach another global, does not.
TEST(ValueTrack, LabelFreeLocationsIgnoreRelabelingOnly) {
  auto Locations = [](const char *Body) {
    auto M = parseOrDie(std::string("global a : 64\nglobal b : 64\n"
                                    "func main(1) {\nentry:\n") +
                        Body +
                        "  LI r3 = 0\n  RET\n}\n");
    Function &F = *M->findFunction("main");
    AliasAnalysis AA(F);
    std::vector<uint32_t> Ids;
    for (const auto &BB : F.blocks())
      for (const Instr &I : BB->instrs())
        if (I.isMemAccess())
          Ids.push_back(I.Id);
    std::vector<AliasAnalysis::LabelFreeLoc> Locs;
    std::vector<std::string> Syms;
    AA.labelFreeLocations(Ids, Locs, Syms);
    return std::make_pair(Locs, Syms);
  };
  auto Base = Locations("  AI r33 = r3, 0\n  L r40 = 0(r33)\n"
                        "  ST 8(r33) = r40\n  LTOC r34 = .a\n"
                        "  L r41 = 0(r34)\n");
  // r5 is read first here, so r3's entry value gets the next label.
  auto Shifted = Locations("  AI r50 = r5, 1\n  AI r33 = r3, 0\n"
                           "  L r40 = 0(r33)\n  ST 8(r33) = r40\n"
                           "  LTOC r34 = .a\n  L r41 = 0(r34)\n");
  auto Split = Locations("  AI r33 = r3, 0\n  LR r35 = r4\n"
                         "  L r40 = 0(r33)\n  ST 8(r35) = r40\n"
                         "  LTOC r34 = .a\n  L r41 = 0(r34)\n");
  auto OtherGlobal = Locations("  AI r33 = r3, 0\n  L r40 = 0(r33)\n"
                               "  ST 8(r33) = r40\n  LTOC r34 = .b\n"
                               "  L r41 = 0(r34)\n");
  ASSERT_EQ(Base.first.size(), 3u);
  EXPECT_TRUE(Base == Shifted);
  EXPECT_FALSE(Base == Split);
  EXPECT_FALSE(Base == OtherGlobal);
}

TEST(ValueTrack, PointsToAtBlockEntry) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LTOC r32 = .a
  AI r33 = r32, 8
  B next
next:
  L r40 = 0(r33)
  LR r3 = r40
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const BasicBlock *Next = F.findBlock("next");
  EXPECT_EQ(AA.str(AA.pointsTo(Reg::gpr(33), Next)), "&a+8");
  // r1 is the frame base at entry everywhere.
  EXPECT_EQ(AA.str(AA.pointsTo(regs::sp(), Next)), "stack+0");
}

TEST(ValueTrack, LocationOfIdMintedAfterBuildIsNull) {
  auto M = parseOrDie(R"(
global a : 16
func main(0) {
entry:
  LTOC r32 = .a
  L r40 = 8(r32)
  LR r3 = r40
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const Instr &Load = memAccessAt(F, 0);
  ASSERT_NE(AA.location(Load.Id), nullptr);
  EXPECT_EQ(AA.str(*AA.location(Load.Id)), "&a+8");
  // A bookkeeping copy minted after the build has an id the analysis
  // never saw, past the end of its access table.
  Instr Copy = Load;
  F.assignId(Copy);
  EXPECT_EQ(AA.location(Copy.Id), nullptr);
  // Ids inside the table that are no memory access resolve to nothing.
  EXPECT_EQ(AA.location(F.blocks()[0]->instrs()[0].Id), nullptr);
  EXPECT_EQ(AA.location(0), nullptr);
}

TEST(ValueTrack, PointsToOnUnreachableBlockIsTop) {
  auto M = parseOrDie(R"(
global a : 16
func main(0) {
entry:
  LTOC r32 = .a
  LI r3 = 0
  RET
dead:
  AI r32 = r32, 4
  L r40 = 0(r32)
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const BasicBlock *Dead = F.findBlock("dead");
  EXPECT_EQ(AA.str(AA.pointsTo(Reg::gpr(32), Dead)), "top");
  EXPECT_EQ(AA.str(AA.pointsTo(regs::sp(), Dead)), "top");
  // Its access was never replayed either.
  EXPECT_EQ(AA.location(memAccessAt(F, 0).Id), nullptr);
}

// pointsTo is exact for carried registers (address registers some block
// reads before writing) and for registers the function never writes; any
// other register reads Top. Here r32 is the only carried register: the LU
// and the L read it as a base. r36, r40, r3, r4 and r12 are written but
// never feed an address, so they get no state at all.
TEST(ValueTrack, PointsToReadsBackSlottedRegisters) {
  auto M = parseOrDie(R"(
global a : 64
func main(1) {
entry:
  LTOC r32 = .a
  LI r36 = 7
  LU r40 = 8(r32)
  LR r3 = r40
  CALL print_int, 1
  B next
next:
  L r41 = 0(r32)
  LR r3 = r4
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const BasicBlock *Entry = F.findBlock("entry");
  const BasicBlock *Next = F.findBlock("next");
  auto At = [&](const BasicBlock *BB, Reg R) {
    return AA.str(AA.pointsTo(R, BB));
  };
  // Written, never an address: Top on both sides of the write.
  EXPECT_EQ(At(Entry, Reg::gpr(36)), "top");
  EXPECT_EQ(At(Next, Reg::gpr(36)), "top");
  // LU: the loaded value is untracked, the carried base moved by the
  // displacement.
  EXPECT_EQ(At(Next, Reg::gpr(40)), "top");
  EXPECT_EQ(At(Next, Reg::gpr(32)), "&a+8");
  EXPECT_EQ(AA.str(*AA.location(memAccessAt(F, 0).Id)), "&a+8");
  EXPECT_EQ(AA.str(*AA.location(memAccessAt(F, 1).Id)), "&a+8");
  // CALL clobbers feed no address: Top at entry and after the call.
  EXPECT_EQ(At(Entry, Reg::gpr(3)), "top");
  EXPECT_EQ(At(Entry, Reg::gpr(4)), "top");
  EXPECT_EQ(At(Next, Reg::gpr(3)), "top");
  EXPECT_EQ(At(Next, Reg::gpr(4)), "top");
  EXPECT_EQ(At(Next, Reg::gpr(12)), "top");
  // Never written, so the entry value everywhere: callee-saved r13 (RET
  // reads it, which numbered its live-in value), r1, and a CR, which is no
  // GPR.
  EXPECT_EQ(At(Next, Reg::gpr(13)), "v6!+0");
  EXPECT_EQ(At(Next, regs::sp()), "stack+0");
  EXPECT_EQ(At(Next, Reg::cr(0)), "top");
}

TEST(ValueTrack, LoopVaryingStackPointerDegradesToUnknownOffset) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = 4
  MTCTR r32
  LR r33 = r1
  LTOC r34 = .g
loop:
  L r40 = 0(r33)
  ST 0(r34) = r40
  AI r33 = r33, 8
  BCT loop
exit:
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const Instr &StackLoad = memAccessAt(F, 0);
  const Instr &GlobalStore = memAccessAt(F, 1);
  // The walking pointer joins Stack+0 with Stack+8k: region survives, the
  // offset does not.
  ASSERT_NE(AA.location(StackLoad.Id), nullptr);
  EXPECT_EQ(AA.str(*AA.location(StackLoad.Id)), "stack+?");
  // Stack-vs-global stays absolute even with the unknown offset.
  EXPECT_EQ(AA.alias(StackLoad, GlobalStore, AliasScope::CrossExecution),
            AliasResult::NoAlias);
}

TEST(ValueTrack, ValueNumberScopesLimitUnknownBaseClaims) {
  auto M = parseOrDie(R"(
func main(1) {
entry:
  LI r32 = 2
  MTCTR r32
loop:
  L r34 = 0(r3)
  L r40 = 0(r34)
  LR r35 = r34
  ST 16(r35) = r40
  BCT loop
exit:
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const Instr &PtrLoad = memAccessAt(F, 0);  // 0(r3)
  const Instr &Load = memAccessAt(F, 1);     // 0(r34)
  const Instr &Store = memAccessAt(F, 2);    // 16(r35), r35 copies r34
  // Same value number through the copy, disjoint offsets, different base
  // registers: only the flow-sensitive tier can prove this, and only
  // within one execution of the block (r34 is reloaded every iteration).
  EXPECT_EQ(AA.alias(Load, Store, AliasScope::SameExecution),
            AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(Load, Store, AliasScope::CrossExecution),
            AliasResult::MayAlias);
  // The pointer cell itself vs the pointee: nothing relates r3 and r34.
  EXPECT_EQ(AA.alias(PtrLoad, Load, AliasScope::SameExecution),
            AliasResult::MayAlias);
}

TEST(ValueTrack, OnceDefinedBasesClaimPerInvocation) {
  auto M = parseOrDie(R"(
func main(1) {
entry:
  L r40 = 0(r3)
  L r41 = 8(r3)
  A r42 = r40, r41
  LR r3 = r42
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  AliasAnalysis AA(F);
  const Instr &A = memAccessAt(F, 0);
  const Instr &B = memAccessAt(F, 1);
  // The base is a live-in observed once per invocation: the disjointness
  // holds even across blocks.
  EXPECT_EQ(AA.alias(A, B, AliasScope::CrossExecution), AliasResult::NoAlias);
}

TEST(ValueTrack, FlowSensitiveSpeculativeLoadSafety) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LTOC r32 = .g
  AI r33 = r32, 24
  L r40 = 0(r33)
  L r41 = 8(r33)
  LR r3 = r40
  CALL print_int, 1
  RET
}
)");
  Module &Mod = *M;
  Mod.addGlobal("g", 32);
  Function &F = *Mod.findFunction("main");
  AliasAnalysis AA(F);
  const Instr &InBounds = memAccessAt(F, 0);  // g+24, size 4: fits in 32
  const Instr &OutBounds = memAccessAt(F, 1); // g+32: one past
  // Syntactically both loads are unannotated unknown-base accesses.
  EXPECT_FALSE(isSafeSpeculativeLoad(InBounds, &Mod));
  EXPECT_TRUE(AA.safeSpeculativeLoad(InBounds, &Mod));
  EXPECT_FALSE(AA.safeSpeculativeLoad(OutBounds, &Mod));
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

TEST(Liveness, BranchySummaries) {
  auto M = parseOrDie(R"(
func main(1) {
entry:
  LI r40 = 1
  LI r41 = 2
  CI cr0 = r3, 0
  BT a, cr0.eq
b:
  LR r3 = r40
  CALL print_int, 1
  RET
a:
  LR r3 = r41
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  Cfg G(F);
  RegUniverse U(F);
  Liveness L(G, U);
  BasicBlock *A = F.findBlock("a");
  BasicBlock *B = F.findBlock("b");
  // r40 is live only into b, r41 only into a.
  EXPECT_TRUE(L.isLiveIn(B, Reg::gpr(40)));
  EXPECT_FALSE(L.isLiveIn(B, Reg::gpr(41)));
  EXPECT_TRUE(L.isLiveIn(A, Reg::gpr(41)));
  EXPECT_FALSE(L.isLiveIn(A, Reg::gpr(40)));
  // Both live out of the entry.
  EXPECT_TRUE(L.isLiveOut(F.entry(), Reg::gpr(40)));
  EXPECT_TRUE(L.isLiveOut(F.entry(), Reg::gpr(41)));
  // cr0 is consumed by the entry's own branch.
  EXPECT_FALSE(L.isLiveIn(A, Reg::cr(0)));
}

TEST(Liveness, LoopCarriedValues) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = 10
  MTCTR r32
  LI r40 = 0
loop:
  AI r40 = r40, 1
  BCT loop
exit:
  LR r3 = r40
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  Cfg G(F);
  RegUniverse U(F);
  Liveness L(G, U);
  BasicBlock *Loop = F.findBlock("loop");
  // The accumulator is live around the back edge and out of the loop.
  EXPECT_TRUE(L.isLiveIn(Loop, Reg::gpr(40)));
  EXPECT_TRUE(L.isLiveOut(Loop, Reg::gpr(40)));
  // CTR is loop state: live into the loop (BCT reads and writes it).
  EXPECT_TRUE(L.isLiveIn(Loop, Reg::ctr()));
}

TEST(Liveness, PerInstructionSets) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r40 = 1
  LI r41 = 2
  A r42 = r40, r41
  LR r3 = r42
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  Cfg G(F);
  RegUniverse U(F);
  Liveness L(G, U);
  auto Live = L.liveAtEachInstr(F.entry());
  int R40 = U.indexOf(Reg::gpr(40));
  int R42 = U.indexOf(Reg::gpr(42));
  ASSERT_GE(R40, 0);
  ASSERT_GE(R42, 0);
  // Before the A: r40 live; after it (before LR): r40 dead, r42 live.
  EXPECT_TRUE(Live[2].test(static_cast<size_t>(R40)));
  EXPECT_FALSE(Live[3].test(static_cast<size_t>(R40)));
  EXPECT_TRUE(Live[3].test(static_cast<size_t>(R42)));
}

TEST(Liveness, CallsKeepCalleeSavedAlive) {
  // r20 is callee-saved: a call does not kill it, so a def before the
  // call stays live across it.
  auto M = parseOrDie(R"(
func f(0) {
entry:
  RET
}
func main(0) {
entry:
  LI r20 = 5
  LI r6 = 6
  CALL f, 0
  LR r3 = r20
  CALL print_int, 1
  RET
}
)");
  Function &F = *M->findFunction("main");
  Cfg G(F);
  RegUniverse U(F);
  Liveness L(G, U);
  auto Live = L.liveAtEachInstr(F.entry());
  int R20 = U.indexOf(Reg::gpr(20));
  int R6 = U.indexOf(Reg::gpr(6));
  ASSERT_GE(R20, 0);
  // After "LI r6" (index 2 = before CALL f): r20 live across the call.
  EXPECT_TRUE(Live[2].test(static_cast<size_t>(R20)));
  // r6 is caller-saved and unused after: dead before the call.
  ASSERT_GE(R6, 0);
  EXPECT_FALSE(Live[2].test(static_cast<size_t>(R6)));
}

TEST(RegUniverseTest, CollectsImplicitRegisters) {
  auto M = parseOrDie(R"(
func main(0) {
entry:
  LI r32 = 3
  MTCTR r32
loop:
  BCT loop
exit:
  RET
}
)");
  RegUniverse U(*M->findFunction("main"));
  EXPECT_GE(U.indexOf(Reg::ctr()), 0);
  EXPECT_GE(U.indexOf(Reg::gpr(32)), 0);
  EXPECT_EQ(U.indexOf(Reg::gpr(55)), -1);
}
