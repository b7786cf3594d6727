//===- sim/Simulator.cpp - Functional + timing simulator -------------------===//

#include "sim/Simulator.h"

#include "ir/Abi.h"
#include "sim/SimCore.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace vsc;

namespace {

using simcore::CrVal;
using simcore::RegFile;

/// Saved caller context for a call.
struct Frame {
  const Function *F = nullptr;
  size_t BlockIdx = 0;
  size_t InstrIdx = 0;
  decltype(RegFile::Virt) Virt;
  decltype(RegFile::VirtReady) VirtReady;
};

class Machine {
public:
  Machine(const Module &M, const MachineModel &Model, const RunOptions &Opts)
      : M(M), Model(Model), Opts(Opts) {
    Mem.assign(Opts.MemBytes, 0);
    GlobalBase = computeGlobalLayout(M);
    DataEnd = 4096;
    for (const Global &G : M.globals()) {
      uint64_t Addr = GlobalBase.at(G.Name);
      for (size_t I = 0; I != G.Init.size() && Addr + I < Mem.size(); ++I)
        Mem[Addr + I] = G.Init[I];
      DataEnd = std::max(DataEnd, Addr + G.Size);
    }
  }

  RunResult run() {
    RunResult R;
    const Function *F = M.findFunction(Opts.EntryFunction);
    if (!F || F->blocks().empty()) {
      R.Trapped = true;
      R.TrapMsg = "no entry function '" + Opts.EntryFunction + "'";
      return R;
    }
    Regs.gpr(1) = static_cast<int64_t>(Mem.size() - 4096); // stack top
    Regs.gpr(2) = 4096;                                    // TOC anchor
    for (size_t I = 0; I < Opts.Args.size() && I < 8; ++I)
      Regs.gpr(3 + static_cast<uint32_t>(I)) = Opts.Args[I];

    CurF = F;
    BlockIdx = 0;
    InstrIdx = 0;
    countBlock(R);

    while (true) {
      // Fallthrough across block boundaries.
      while (InstrIdx >= CurF->blocks()[BlockIdx]->size()) {
        if (BlockIdx + 1 >= CurF->blocks().size())
          return trap(R, "fell off the end of function " + CurF->name());
        countEdge(R, CurF->blocks()[BlockIdx]->label(),
                  CurF->blocks()[BlockIdx + 1]->label());
        ++BlockIdx;
        InstrIdx = 0;
        countBlock(R);
      }
      const Instr &I = CurF->blocks()[BlockIdx]->instrs()[InstrIdx];
      ++InstrIdx;
      if (++R.DynInstrs > Opts.MaxInstrs)
        return trap(R, "instruction budget exceeded");

      bool Done = false;
      if (!step(I, R, Done))
        return finish(R); // trap already recorded by step
      if (Done)
        return finish(R);
    }
  }

private:
  // --- functional helpers -------------------------------------------------

  /// [Addr, Addr + Size) lies in [4096, Mem.size()), without wrapping.
  bool mapped(uint64_t Addr, unsigned Size) const {
    return Addr >= 4096 && Size <= Mem.size() && Addr <= Mem.size() - Size;
  }

  int64_t readMem(uint64_t Addr, unsigned Size, bool &Ok, bool &PageZero) {
    PageZero = false;
    if (Addr <= 4096 - Size) {
      PageZero = true;
      return 0; // legality checked by the caller against the model
    }
    if (!mapped(Addr, Size)) {
      Ok = false;
      return 0;
    }
    uint64_t V = 0;
    for (unsigned B = 0; B != Size; ++B)
      V |= static_cast<uint64_t>(Mem[Addr + B]) << (8 * B);
    // Sign extend.
    if (Size < 8) {
      uint64_t SignBit = 1ULL << (Size * 8 - 1);
      if (V & SignBit)
        V |= ~((SignBit << 1) - 1);
    }
    return static_cast<int64_t>(V);
  }

  bool writeMem(uint64_t Addr, unsigned Size, int64_t Val) {
    if (!mapped(Addr, Size))
      return false;
    for (unsigned B = 0; B != Size; ++B)
      Mem[Addr + B] = static_cast<uint8_t>(static_cast<uint64_t>(Val) >>
                                           (8 * B));
    return true;
  }

  void countBlock(RunResult &R) {
    ++R.BlockCounts[blockCountKey(CurF->name(),
                                  CurF->blocks()[BlockIdx]->label())];
  }

  void countEdge(RunResult &R, const std::string &FromLabel,
                 const std::string &ToLabel) {
    ++R.EdgeCounts[edgeCountKey(CurF->name(), FromLabel, ToLabel)];
  }

  bool jumpTo(const std::string &Label, RunResult &R) {
    for (size_t I = 0, E = CurF->blocks().size(); I != E; ++I) {
      if (CurF->blocks()[I]->label() == Label) {
        BlockIdx = I;
        InstrIdx = 0;
        countBlock(R);
        return true;
      }
    }
    return false;
  }

  RunResult &trap(RunResult &R, const std::string &Msg) {
    R.Trapped = true;
    R.TrapMsg = Msg;
    return finish(R);
  }

  RunResult &finish(RunResult &R) {
    // FNV-1a over the global data area.
    uint64_t H = 1469598103934665603ULL;
    for (uint64_t A = 4096; A < DataEnd && A < Mem.size(); ++A) {
      H ^= Mem[A];
      H *= 1099511628211ULL;
    }
    R.MemDigest = H;
    R.Cycles = PrevIssue;
    if (Opts.KeepMemory)
      R.Memory = Mem;
    return R;
  }

  /// Executes one instruction functionally and accounts its timing.
  /// \returns false on trap (recorded in R); sets \p Done when the program
  /// finished normally.
  bool step(const Instr &I, RunResult &R, bool &Done);

  // --- timing -------------------------------------------------------------

  uint64_t operandReadyTime(const Instr &I) {
    uint64_t T = 0;
    Uses.clear();
    I.collectUses(Uses);
    for (Reg U : Uses) {
      if (U.isGpr())
        T = std::max(T, Regs.gprReady(U.id()));
      else if (U.isCr())
        T = std::max(T, Regs.crReady(U.id()));
      else if (U.isCtr())
        T = std::max(T, Regs.CtrReady);
    }
    return T;
  }

  void setDefsReady(const Instr &I, uint64_t When, uint64_t BaseWhen) {
    Defs.clear();
    I.collectDefs(Defs);
    for (Reg D : Defs) {
      uint64_t T = (I.Op == Opcode::LU && D == I.Src1) ? BaseWhen : When;
      if (D.isGpr())
        Regs.gprReady(D.id()) = T;
      else if (D.isCr())
        Regs.crReady(D.id()) = T;
      else if (D.isCtr())
        Regs.CtrReady = T;
    }
  }

  /// Finds the issue cycle for an instruction of unit class \p Unit whose
  /// operands/floors allow issue at \p Earliest, honouring issue width.
  uint64_t allocUnit(UnitKind Unit, uint64_t Earliest) {
    uint64_t C = Earliest;
    if (Unit == UnitKind::Fxu) {
      if (FxuCycle == C && FxuCount >= Model.FxuWidth)
        C = FxuCycle + 1;
      if (FxuCycle != C) {
        FxuCycle = C;
        FxuCount = 0;
      }
      ++FxuCount;
    } else if (Unit == UnitKind::Bu) {
      if (BuCycle == C && BuCount >= Model.BuWidth)
        C = BuCycle + 1;
      if (BuCycle != C) {
        BuCycle = C;
        BuCount = 0;
      }
      ++BuCount;
    }
    return C;
  }

  /// Issues \p I, returning its issue cycle. \p IsBranchTaken matters only
  /// for control instructions.
  uint64_t issue(const Instr &I, bool IsBranchTaken, RunResult &R);

  /// Kills everything the linkage convention says a call clobbers, writing
  /// the shared poison from ir/Abi.h, so code that wrongly relies on a
  /// caller-saved register surviving a call fails loudly — and identically
  /// in the reference interpreter. Argument registers still carrying live
  /// arguments (r3..r3+KeepArgs-1) are spared; ready times are left alone
  /// so the timing model is unchanged.
  void scrubCallClobbers(int64_t KeepArgs) {
    abi::forEachCallClobber([&](Reg D) {
      if (D.isGpr()) {
        if (D.id() >= 3 &&
            static_cast<int64_t>(D.id()) < 3 + std::min<int64_t>(KeepArgs, 8))
          return;
        Regs.gpr(D.id()) = abi::ClobberPoison;
      } else if (D.isCr()) {
        // All three bits set is unreachable for a real compare result,
        // which makes poisoned condition registers recognizable.
        Regs.cr(D.id()) = CrVal{true, true, true};
      } else if (D.isCtr()) {
        Regs.Ctr = abi::ClobberPoison;
      }
    });
  }

  // --- state --------------------------------------------------------------

  const Module &M;
  const MachineModel &Model;
  const RunOptions &Opts;

  std::vector<uint8_t> Mem;
  std::unordered_map<std::string, uint64_t> GlobalBase;
  uint64_t DataEnd = 4096;

  RegFile Regs;
  const Function *CurF = nullptr;
  size_t BlockIdx = 0, InstrIdx = 0;
  std::vector<Frame> CallStack;
  size_t InputPos = 0;

  // Timing.
  uint64_t PrevIssue = 0;
  uint64_t FetchFloor = 1;
  uint64_t FxuCycle = 0, BuCycle = 0;
  unsigned FxuCount = 0, BuCount = 0;
  uint64_t PendingResolve = 0;
  unsigned SpecBudget = 0;
  uint64_t LastCondResolve = 0;
  uint64_t InstrsSinceCondBranch = 1'000'000;

  std::vector<Reg> Uses, Defs;
};

uint64_t Machine::issue(const Instr &I, bool IsBranchTaken, RunResult &R) {
  uint64_t Base = std::max(PrevIssue, FetchFloor);
  uint64_t Earliest = Base;
  uint64_t OperandFloor = 0;
  if (!I.isBranch()) {
    // Branches issue before their condition resolves (predicted untaken);
    // everything else waits for operands.
    OperandFloor = operandReadyTime(I);
    Earliest = std::max(Earliest, OperandFloor);
  }
  // Limited dispatch beyond an unresolved conditional branch.
  if (Earliest < PendingResolve) {
    if (SpecBudget == 0)
      Earliest = PendingResolve;
    else
      --SpecBudget;
  }
  uint64_t C = allocUnit(Model.unitOf(I), Earliest);
  if (OperandFloor > Base)
    R.OperandStallCycles += OperandFloor - Base;

  // Branch bookkeeping.
  if (I.Op == Opcode::BT || I.Op == Opcode::BF) {
    uint64_t CrReady = Regs.crReady(I.Src1.id());
    uint64_t Resolve = std::max(C, CrReady);
    if (IsBranchTaken) {
      uint64_t NewFloor = std::max(C, CrReady + Model.TakenBranchRedirect);
      if (NewFloor > C)
        R.BranchStallCycles += NewFloor - C;
      FetchFloor = std::max(FetchFloor, NewFloor);
    } else if (Resolve > C) {
      PendingResolve = Resolve;
      SpecBudget = Model.SpecWindow;
    }
    LastCondResolve = Resolve;
    InstrsSinceCondBranch = 0;
  } else if (I.Op == Opcode::BCT) {
    uint64_t Resolve = std::max(C, Regs.CtrReady);
    FetchFloor = std::max(FetchFloor, Resolve); // branch-on-count is free
    LastCondResolve = Resolve;
    InstrsSinceCondBranch = 0;
  } else if (I.Op == Opcode::B) {
    // Free when the branch unit saw it early enough; pays the redirect when
    // it sits in the shadow of a recent conditional branch (the stall basic
    // block expansion removes).
    if (InstrsSinceCondBranch < Model.ExpansionObjective) {
      uint64_t NewFloor =
          std::max(C, LastCondResolve + Model.TakenBranchRedirect);
      if (NewFloor > C)
        R.BranchStallCycles += NewFloor - C;
      FetchFloor = std::max(FetchFloor, NewFloor);
    }
    ++InstrsSinceCondBranch;
  } else if (I.isCall() || I.isRet()) {
    FetchFloor = std::max(FetchFloor, C + Model.TakenBranchRedirect);
    R.BranchStallCycles += Model.TakenBranchRedirect;
    InstrsSinceCondBranch = 0;
  } else {
    ++InstrsSinceCondBranch;
  }

  PrevIssue = C;
  return C;
}

bool Machine::step(const Instr &I, RunResult &R, bool &Done) {
  Done = false;
  auto S1 = [&]() { return Regs.gpr(I.Src1.id()); };
  auto S2 = [&]() { return Regs.gpr(I.Src2.id()); };

  // Functional semantics first (so branch direction is known), then timing.
  bool Taken = false;
  int64_t DstVal = 0;
  bool HasDstVal = false;
  int64_t LuNewBase = 0;

  switch (I.Op) {
  case Opcode::LI:
    DstVal = I.Imm;
    HasDstVal = true;
    break;
  case Opcode::LR:
    DstVal = S1();
    HasDstVal = true;
    break;
  case Opcode::A:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) +
                                  static_cast<uint64_t>(S2()));
    HasDstVal = true;
    break;
  case Opcode::S:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) -
                                  static_cast<uint64_t>(S2()));
    HasDstVal = true;
    break;
  case Opcode::MUL:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) *
                                  static_cast<uint64_t>(S2()));
    HasDstVal = true;
    break;
  case Opcode::DIV: {
    int64_t D = S2();
    if (D == 0) {
      trap(R, "divide by zero");
      return false;
    }
    if (S1() == INT64_MIN && D == -1)
      DstVal = INT64_MIN;
    else
      DstVal = S1() / D;
    HasDstVal = true;
    break;
  }
  case Opcode::AND:
    DstVal = S1() & S2();
    HasDstVal = true;
    break;
  case Opcode::OR:
    DstVal = S1() | S2();
    HasDstVal = true;
    break;
  case Opcode::XOR:
    DstVal = S1() ^ S2();
    HasDstVal = true;
    break;
  case Opcode::SL:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1())
                                  << (S2() & 63));
    HasDstVal = true;
    break;
  case Opcode::SR:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) >>
                                  (S2() & 63));
    HasDstVal = true;
    break;
  case Opcode::SRA:
    DstVal = S1() >> (S2() & 63);
    HasDstVal = true;
    break;
  case Opcode::AI:
  case Opcode::LA:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) +
                                  static_cast<uint64_t>(I.Imm));
    HasDstVal = true;
    break;
  case Opcode::SI:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) -
                                  static_cast<uint64_t>(I.Imm));
    HasDstVal = true;
    break;
  case Opcode::MULI:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) *
                                  static_cast<uint64_t>(I.Imm));
    HasDstVal = true;
    break;
  case Opcode::ANDI:
    DstVal = S1() & I.Imm;
    HasDstVal = true;
    break;
  case Opcode::ORI:
    DstVal = S1() | I.Imm;
    HasDstVal = true;
    break;
  case Opcode::XORI:
    DstVal = S1() ^ I.Imm;
    HasDstVal = true;
    break;
  case Opcode::SLI:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1())
                                  << (I.Imm & 63));
    HasDstVal = true;
    break;
  case Opcode::SRI:
    DstVal = static_cast<int64_t>(static_cast<uint64_t>(S1()) >>
                                  (I.Imm & 63));
    HasDstVal = true;
    break;
  case Opcode::SRAI:
    DstVal = S1() >> (I.Imm & 63);
    HasDstVal = true;
    break;
  case Opcode::NEG:
    DstVal = static_cast<int64_t>(0 - static_cast<uint64_t>(S1()));
    HasDstVal = true;
    break;
  case Opcode::LTOC: {
    auto It = GlobalBase.find(I.Sym);
    if (It == GlobalBase.end()) {
      trap(R, "LTOC of unknown global '" + I.Sym + "'");
      return false;
    }
    DstVal = static_cast<int64_t>(It->second);
    HasDstVal = true;
    break;
  }
  case Opcode::L:
  case Opcode::LU: {
    uint64_t Addr = static_cast<uint64_t>(S1() + I.Imm);
    bool Ok = true, PageZero = false;
    int64_t V = readMem(Addr, I.MemSize, Ok, PageZero);
    if (PageZero && !Model.PageZeroReadable) {
      trap(R, "load from page zero at " + std::to_string(Addr));
      return false;
    }
    if (!Ok) {
      trap(R, "load from unmapped address " + std::to_string(Addr));
      return false;
    }
    DstVal = V;
    HasDstVal = true;
    LuNewBase = S1() + I.Imm;
    break;
  }
  case Opcode::ST: {
    uint64_t Addr = static_cast<uint64_t>(S2() + I.Imm);
    if (!writeMem(Addr, I.MemSize, S1())) {
      trap(R, "store to unmapped address " + std::to_string(Addr));
      return false;
    }
    break;
  }
  case Opcode::C:
  case Opcode::CI: {
    int64_t A = S1();
    int64_t B = I.Op == Opcode::C ? S2() : I.Imm;
    CrVal &Cr = Regs.cr(I.Dst.id());
    Cr.Lt = A < B;
    Cr.Gt = A > B;
    Cr.Eq = A == B;
    break;
  }
  case Opcode::MTCTR:
    Regs.Ctr = S1();
    break;
  case Opcode::B:
    Taken = true;
    break;
  case Opcode::BT:
  case Opcode::BF: {
    bool Bit = Regs.cr(I.Src1.id()).bit(I.Bit);
    Taken = (I.Op == Opcode::BT) ? Bit : !Bit;
    break;
  }
  case Opcode::BCT:
    Taken = (--Regs.Ctr != 0);
    break;
  case Opcode::CALL:
  case Opcode::RET:
    break;
  default:
    trap(R, "unimplemented opcode");
    return false;
  }

  uint64_t C = issue(I, Taken, R);

  // Commit destination values and ready times.
  if (I.Op == Opcode::LU)
    Regs.gpr(I.Src1.id()) = LuNewBase;
  if (HasDstVal && I.Dst.isGpr())
    Regs.gpr(I.Dst.id()) = DstVal;
  if (opcodeInfo(I.Op).HasDst || I.Op == Opcode::LU)
    setDefsReady(I, C + Model.latencyOf(I), C + Model.AluLatency);

  // The stack grows down from the top of memory; a stack pointer that
  // descends into the global data area would silently corrupt globals
  // (and stores through it still look "mapped" to writeMem).
  if (((HasDstVal && I.Dst.isGpr() && I.Dst.id() == 1) ||
       (I.Op == Opcode::LU && I.Src1.isGpr() && I.Src1.id() == 1)) &&
      Regs.Phys[1] < static_cast<int64_t>(DataEnd)) {
    trap(R, "stack overflow into data");
    return false;
  }

  // Control transfer.
  if (I.Op == Opcode::B || ((I.Op == Opcode::BT || I.Op == Opcode::BF ||
                             I.Op == Opcode::BCT) &&
                            Taken)) {
    countEdge(R, CurF->blocks()[BlockIdx]->label(), I.Target);
    if (!jumpTo(I.Target, R)) {
      trap(R, "branch to unknown label '" + I.Target + "'");
      return false;
    }
    return true;
  }

  if (I.Op == Opcode::CALL) {
    // Builtins. Their r3 on return is pinned in ir/Abi.h (print builtins
    // return their argument, read_int the value read); everything else in
    // the clobber set dies.
    if (abi::isBuiltin(I.Sym)) {
      int64_t A0 = Regs.gpr(3);
      scrubCallClobbers(/*KeepArgs=*/0);
      if (I.Sym == "print_int") {
        R.Output += std::to_string(A0) + "\n";
        Regs.gpr(3) = A0;
        Regs.gprReady(3) = C + Model.AluLatency;
        return true;
      }
      if (I.Sym == "print_char") {
        R.Output += static_cast<char>(A0 & 0xff);
        Regs.gpr(3) = A0;
        return true;
      }
      if (I.Sym == "read_int") {
        Regs.gpr(3) =
            InputPos < Opts.Input.size() ? Opts.Input[InputPos++] : 0;
        Regs.gprReady(3) = C + Model.AluLatency;
        return true;
      }
      // exit
      R.ExitCode = A0;
      Done = true;
      return true;
    }
    const Function *Callee = M.findFunction(I.Sym);
    if (!Callee || Callee->blocks().empty()) {
      trap(R, "call to unknown function '" + I.Sym + "'");
      return false;
    }
    scrubCallClobbers(I.Imm);
    Frame Fr;
    Fr.F = CurF;
    Fr.BlockIdx = BlockIdx;
    Fr.InstrIdx = InstrIdx;
    Fr.Virt = std::exchange(Regs.Virt, {});
    Fr.VirtReady = std::exchange(Regs.VirtReady, {});
    CallStack.push_back(std::move(Fr));
    CurF = Callee;
    BlockIdx = 0;
    InstrIdx = 0;
    countBlock(R);
    return true;
  }

  if (I.Op == Opcode::RET) {
    if (CallStack.empty()) {
      R.ExitCode = Regs.gpr(3);
      Done = true;
      return true;
    }
    Frame Fr = std::move(CallStack.back());
    CallStack.pop_back();
    CurF = Fr.F;
    BlockIdx = Fr.BlockIdx;
    InstrIdx = Fr.InstrIdx;
    Regs.Virt = std::move(Fr.Virt);
    Regs.VirtReady = std::move(Fr.VirtReady);
    return true;
  }

  return true;
}

} // namespace

uint64_t vsc::runOptionsFingerprint(const RunOptions &Opts) {
  uint64_t H = 1469598103934665603ULL;
  auto Byte = [&H](uint8_t B) {
    H ^= B;
    H *= 1099511628211ULL;
  };
  auto Word = [&Byte](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Byte(static_cast<uint8_t>(V >> (8 * I)));
  };
  for (char C : Opts.EntryFunction)
    Byte(static_cast<uint8_t>(C));
  Byte(0x01); // separator: name vs args vs input stay injective
  Word(Opts.Args.size());
  for (int64_t A : Opts.Args)
    Word(static_cast<uint64_t>(A));
  Word(Opts.Input.size());
  for (int64_t V : Opts.Input)
    Word(static_cast<uint64_t>(V));
  Word(Opts.MaxInstrs);
  Word(Opts.MemBytes);
  return H;
}

RunResult vsc::simulateLegacy(const Module &M, const MachineModel &Machine_,
                              const RunOptions &Opts) {
  Machine Mach(M, Machine_, Opts);
  return Mach.run();
}

std::string vsc::profileKeyEscape(const std::string &S) {
  if (S.find_first_of("\\:>") == std::string::npos)
    return S;
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    if (C == '\\' || C == ':' || C == '>')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string vsc::blockCountKey(const std::string &Func,
                               const std::string &Label) {
  return profileKeyEscape(Func) + ":" + profileKeyEscape(Label);
}

std::string vsc::edgeCountKey(const std::string &Func, const std::string &From,
                              const std::string &To) {
  return profileKeyEscape(Func) + ":" + profileKeyEscape(From) + "->" +
         profileKeyEscape(To);
}

std::unordered_map<std::string, uint64_t>
vsc::computeGlobalLayout(const Module &M) {
  std::unordered_map<std::string, uint64_t> Layout;
  uint64_t Addr = 4096;
  for (const Global &G : M.globals()) {
    Addr = (Addr + 15) & ~uint64_t(15);
    Layout[G.Name] = Addr;
    Addr += G.Size;
  }
  return Layout;
}

int64_t vsc::readMemoryWord(const RunResult &R, uint64_t Addr,
                            unsigned Size) {
  if (Size > R.Memory.size() || Addr > R.Memory.size() - Size)
    return 0;
  uint64_t V = 0;
  for (unsigned B = 0; B != Size; ++B)
    V |= static_cast<uint64_t>(R.Memory[Addr + B]) << (8 * B);
  if (Size < 8) {
    uint64_t SignBit = 1ULL << (Size * 8 - 1);
    if (V & SignBit)
      V |= ~((SignBit << 1) - 1);
  }
  return static_cast<int64_t>(V);
}
