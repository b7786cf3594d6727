//===- opt/Inline.cpp - Function inlining --------------------------------------===//

#include "opt/Inline.h"

#include <cassert>
#include <unordered_map>

using namespace vsc;

namespace {

/// Bound on total inlined instructions per caller (growth limit).
constexpr size_t MaxGrowthPerCaller = 400;

/// \returns true if \p F calls nothing at all (not even builtins): its
/// physical argument/result registers can then be remapped wholesale.
bool isPureLeaf(const Function &F) {
  for (const auto &BB : F.blocks())
    for (const Instr &I : BB->instrs())
      if (I.isCall())
        return false;
  return true;
}

class RegRemapper {
public:
  explicit RegRemapper(Function &Caller) : Caller(Caller) {}

  Reg map(Reg R) {
    if (!R.isValid() || R == regs::sp() || R == regs::toc() || R.isCtr())
      return R;
    auto It = Map.find(R);
    if (It != Map.end())
      return It->second;
    Reg Fresh = R.isCr() ? Caller.freshCr() : Caller.freshGpr();
    Map[R] = Fresh;
    return Fresh;
  }

private:
  Function &Caller;
  std::unordered_map<Reg, Reg, RegHash> Map;
};

/// Inlines the call at \p B's instruction \p CallIdx to \p Callee.
void inlineSite(Function &F, BasicBlock *B, size_t CallIdx,
                const Function &Callee) {
  const Instr Call = B->instrs()[CallIdx];
  assert(Call.isCall() && "not a call site");
  size_t BIdx = F.indexOf(B);

  // Continuation block: the caller code after the call.
  BasicBlock *Cont = F.insertBlock(BIdx + 1, "inl.cont");
  Cont->instrs().assign(B->instrs().begin() + static_cast<long>(CallIdx) + 1,
                        B->instrs().end());
  B->instrs().erase(B->instrs().begin() + static_cast<long>(CallIdx),
                    B->instrs().end());

  RegRemapper Remap(F);

  // Copy actual arguments (in r3..rN right now) into the remapped
  // parameter registers.
  for (int64_t P = 0; P != Call.Imm; ++P) {
    Instr Copy;
    Copy.Op = Opcode::LR;
    Copy.Dst = Remap.map(regs::arg(static_cast<unsigned>(P)));
    Copy.Src1 = regs::arg(static_cast<unsigned>(P));
    F.assignId(Copy);
    B->instrs().push_back(std::move(Copy));
  }

  // Clone the callee's blocks between B and Cont.
  std::unordered_map<std::string, std::string> LabelMap;
  for (const auto &CB : Callee.blocks())
    LabelMap[CB->label()] = F.freshLabel("inl." + CB->label());

  size_t InsertAt = BIdx + 1;
  for (const auto &CB : Callee.blocks()) {
    BasicBlock *Clone = F.insertBlock(InsertAt++, "tmp");
    Clone->setLabel(LabelMap.at(CB->label()));
    for (const Instr &I : CB->instrs()) {
      Instr C = I;
      F.assignId(C);
      if (C.isRet()) {
        C = Instr();
        C.Op = Opcode::B;
        C.Target = Cont->label();
        F.assignId(C);
        Clone->instrs().push_back(std::move(C));
        continue;
      }
      const OpcodeInfo &Info = opcodeInfo(C.Op);
      if (Info.HasDst)
        C.Dst = Remap.map(C.Dst);
      if (Info.NumSrcs >= 1)
        C.Src1 = Remap.map(C.Src1);
      if (Info.NumSrcs >= 2)
        C.Src2 = Remap.map(C.Src2);
      if (C.isBranch())
        C.Target = LabelMap.at(C.Target);
      Clone->instrs().push_back(std::move(C));
    }
  }

  // The callee's result lives in its remapped r3; restore the real r3 for
  // the continuation.
  {
    Instr Copy;
    Copy.Op = Opcode::LR;
    Copy.Dst = regs::retval();
    Copy.Src1 = Remap.map(regs::retval());
    F.assignId(Copy);
    Cont->instrs().insert(Cont->instrs().begin(), std::move(Copy));
  }
}

} // namespace

unsigned vsc::inlineLeafFunctions(Module &M, const InlineOptions &Opts) {
  unsigned Inlined = 0;
  for (auto &FPtr : M.functions()) {
    Function &F = *FPtr;
    size_t Growth = 0;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t BI = 0; BI != F.blocks().size() && !Changed; ++BI) {
        BasicBlock *B = F.blocks()[BI].get();
        for (size_t I = 0; I != B->size(); ++I) {
          const Instr &Ins = B->instrs()[I];
          if (!Ins.isCall())
            continue;
          const Function *Callee = M.findFunction(Ins.Sym);
          if (!Callee || Callee == &F)
            continue;
          if (!isPureLeaf(*Callee))
            continue;
          size_t Size = Callee->instrCount();
          if (Size > Opts.MaxCalleeInstrs ||
              Growth + Size > MaxGrowthPerCaller)
            continue;
          inlineSite(F, B, I, *Callee);
          Growth += Size;
          ++Inlined;
          Changed = true;
          break;
        }
      }
    }
    F.renumber();
  }
  return Inlined;
}
