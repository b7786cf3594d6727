//===- vliw/LoadStoreMotion.cpp - Speculative load/store motion ------------===//

#include "vliw/LoadStoreMotion.h"

#include "analysis/MemAlias.h"
#include "analysis/ValueTrack.h"
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace vsc;

namespace {

/// Builtin callees known not to touch user memory (the paper's I/O library
/// procedures with known properties), exit included.
bool isInertBuiltinCall(const Instr &I) {
  return I.isCall() && (I.Sym == "print_int" || I.Sym == "print_char" ||
                        I.Sym == "read_int" || I.Sym == "exit");
}

struct GroupKey {
  Reg Base;
  int64_t Disp;
  uint8_t Size;
  bool operator<(const GroupKey &R) const {
    return std::tie(Base, Disp, Size) < std::tie(R.Base, R.Disp, R.Size);
  }
};

struct AccessRef {
  BasicBlock *BB;
  size_t Idx;
};

/// Attempts to move one candidate group out of \p L. \returns true on
/// success (the CFG/loop structure may have changed: recompute).
bool processLoop(Function &F, const Module &M, const Cfg &G, Loop &L,
                 const AliasAnalysis *AA) {
  // Collect in-loop memory operations and calls.
  std::vector<AccessRef> MemOps;
  bool HasOpaqueCall = false;
  for (BasicBlock *BB : L.Blocks) {
    for (size_t I = 0; I != BB->size(); ++I) {
      const Instr &Ins = BB->instrs()[I];
      if (Ins.isCall() && !isInertBuiltinCall(Ins))
        HasOpaqueCall = true;
      if (Ins.isMemAccess())
        MemOps.push_back(AccessRef{BB, I});
    }
  }
  if (MemOps.empty() || HasOpaqueCall)
    return false;

  // Registers written in the loop (condition 2).
  std::unordered_map<Reg, unsigned, RegHash> DefCount;
  std::vector<Reg> Tmp;
  for (BasicBlock *BB : L.Blocks)
    for (const Instr &I : BB->instrs()) {
      Tmp.clear();
      I.collectDefs(Tmp);
      for (Reg D : Tmp)
        ++DefCount[D];
    }
  auto WrittenInLoop = [&](Reg R) {
    auto It = DefCount.find(R);
    return It != DefCount.end() && It->second > 0;
  };

  // Group candidates by (base, disp, size).
  std::map<GroupKey, std::vector<AccessRef>> Groups;
  for (const AccessRef &A : MemOps) {
    const Instr &I = A.BB->instrs()[A.Idx];
    if (I.Op != Opcode::L && I.Op != Opcode::ST)
      continue; // LU rewrites its base; leave it alone
    if (I.IsVolatile)
      continue;
    if (const Global *Gl = I.Sym.empty() ? nullptr : M.findGlobal(I.Sym))
      if (Gl->IsVolatile)
        continue;
    if (WrittenInLoop(I.memBase()))
      continue;
    Groups[GroupKey{I.memBase(), I.memDisp(), I.MemSize}].push_back(A);
  }

  for (auto &[Key, Members] : Groups) {
    const Instr &Rep = Members.front().BB->instrs()[Members.front().Idx];
    // Condition 5: safe to access unconditionally.
    Instr AsLoad = Rep;
    AsLoad.Op = Opcode::L;
    AsLoad.Dst = Reg::gpr(Reg::FirstVirtualGpr); // placeholder
    AsLoad.Src1 = Rep.memBase();
    AsLoad.Src2 = Reg();
    // AsLoad copies Rep (its Id included), so the flow-sensitive check can
    // reuse Rep's recorded location.
    if (!(AA ? AA->safeSpeculativeLoad(AsLoad, &M)
             : isSafeSpeculativeLoad(AsLoad, &M)))
      continue;
    // Condition 4: disjoint from every other memory reference in the loop.
    // CrossExecution: the group and the other reference can execute in
    // different iterations and different blocks, so no same-execution
    // locality may be assumed.
    bool Overlaps = false;
    for (const AccessRef &Other : MemOps) {
      const Instr &O = Other.BB->instrs()[Other.Idx];
      if (O.memBase() == Key.Base && O.memDisp() == Key.Disp &&
          O.MemSize == Key.Size && (O.Op == Opcode::L || O.Op == Opcode::ST))
        continue; // in the group
      if ((AA ? AA->alias(Rep, O, AliasScope::CrossExecution)
              : alias(Rep, O, AliasScope::CrossExecution)) !=
          AliasResult::NoAlias) {
        Overlaps = true;
        break;
      }
    }
    if (Overlaps)
      continue;

    // --- Apply ---
    bool HasStore = false;
    for (const AccessRef &A : Members)
      if (A.BB->instrs()[A.Idx].Op == Opcode::ST)
        HasStore = true;

    Reg Cache = F.freshGpr();
    BasicBlock *PH = ensurePreheader(F, G, L);

    // Preheader: Cache = [loc].
    Instr Ld = Rep;
    Ld.Op = Opcode::L;
    Ld.Dst = Cache;
    Ld.Src1 = Key.Base;
    Ld.Src2 = Reg();
    Ld.Imm = Key.Disp;
    Ld.MemSize = Key.Size;
    F.assignId(Ld);
    PH->instrs().insert(PH->instrs().begin() +
                            static_cast<long>(PH->firstTerminatorIdx()),
                        std::move(Ld));

    // Rewrite members as register copies.
    for (const AccessRef &A : Members) {
      Instr &I = A.BB->instrs()[A.Idx];
      Instr Copy;
      Copy.Op = Opcode::LR;
      Copy.Id = I.Id;
      if (I.Op == Opcode::L) {
        Copy.Dst = I.Dst;
        Copy.Src1 = Cache;
      } else {
        Copy.Dst = Cache;
        Copy.Src1 = I.Src1;
      }
      I = Copy;
    }

    // Store back on every exit edge.
    if (HasStore) {
      // L.Exits stay valid: the edits above rewrote loop members in place
      // and inserted into the preheader, and an edge names its branch by
      // position within the terminator suffix.
      for (const CfgEdge &E : L.Exits) {
        BasicBlock *On = splitEdge(F, E);
        Instr St;
        St.Op = Opcode::ST;
        St.Src1 = Cache;
        St.Src2 = Key.Base;
        St.Imm = Key.Disp;
        St.MemSize = Key.Size;
        St.Sym = Rep.Sym;
        F.assignId(St);
        On->instrs().insert(On->instrs().begin(), std::move(St));
      }
    }
    return true; // structure changed; caller recomputes
  }
  return false;
}

} // namespace

bool vsc::speculativeLoadStoreMotion(Function &F, const Module &M,
                                     FunctionAnalyses &FA, bool FlowAlias) {
  bool Any = false;
  bool Changed = true;
  unsigned Guard = 0;
  while (Changed && Guard++ < 64) {
    Changed = false;
    const Cfg &G = FA.cfg();
    const AliasAnalysis *AA = FlowAlias ? &FA.aliasAnalysis() : nullptr;
    // Innermost loops first (deepest first), as the paper recommends when
    // infrequently executed inner-loop accesses might slow an outer loop.
    std::vector<Loop *> Loops;
    for (const auto &L : FA.loops().loops())
      Loops.push_back(L.get());
    std::sort(Loops.begin(), Loops.end(),
              [](Loop *A, Loop *B) { return A->Depth > B->Depth; });
    for (Loop *L : Loops) {
      if (processLoop(F, M, G, *L, AA)) {
        // Motion rewrote accesses and inserted non-terminators; the edge
        // splits and preheader it may have made bumped the CFG epoch.
        FA.invalidate(PreservedAnalyses::structure());
        Changed = true;
        Any = true;
        break;
      }
    }
  }
  return Any;
}
