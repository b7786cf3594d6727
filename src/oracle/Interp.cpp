//===- oracle/Interp.cpp - Reference IR interpreter -------------------------===//
///
/// Executes over the predecoded flat records of sim/Predecode.h
/// (predecodeFunction): branch targets are block indices, globals are
/// resolved addresses, callees are resolved pointers — the per-block label
/// scans and per-instruction symbol lookups of the original walking
/// interpreter are gone. Images are decoded per function on first entry
/// and cached in the session (the oracle runs each function on a whole
/// input battery, so the decode amortizes to nothing). Values, memory,
/// builtins, the call-clobber scrub and trap texts come from the value
/// core the simulator's fast path shares (sim/ValueCore.h); this file adds
/// what only the oracle needs: contract-preserved registers at calls,
/// trap-free !safe loads, traces, digests, coverage and budgets.
///
//===----------------------------------------------------------------------===//

#include "oracle/Interp.h"

#include "ir/Abi.h"
#include "sim/ValueCore.h"

#include <algorithm>

using namespace vsc;

namespace vsc {

/// The per-module precomputation a session carries: the data layout
/// (global addresses and initializer bytes), the function name map
/// Module::findFunction would otherwise re-derive by linear scan on every
/// call, the per-function decoded images (built on first entry), and the
/// pooled memory arena runs reuse. Sessions are single-threaded (the
/// oracle creates one per task), so the image cache needs no locking.
struct InterpSession::Impl {
  DataLayout Data;
  /// First function of each name, mirroring Module::findFunction.
  std::unordered_map<std::string, const Function *> FuncByName;
  /// Decoded images, keyed by function identity so an Override body (not
  /// in FuncByName) gets its own entry. unique_ptr values keep references
  /// stable across rehashes while frames on the call stack point at them.
  std::unordered_map<const Function *, std::unique_ptr<InterpImage>> Images;
  std::vector<uint8_t> MemPool;

  explicit Impl(const Module &M) : Data(buildDataLayout(M)) {
    for (const auto &F : M.functions())
      FuncByName.emplace(F->name(), F.get());
  }

  const InterpImage &imageFor(const Function *F) {
    auto It = Images.find(F);
    if (It == Images.end())
      It = Images
               .emplace(F, std::make_unique<InterpImage>(predecodeFunction(
                               *F, Data.GlobalBase, FuncByName)))
               .first;
    return *It->second;
  }
};

} // namespace vsc

namespace {

using simcore::FnvOffset;
using simcore::FnvPrime;
using simcore::RegValues;

inline void fnv(uint64_t &H, uint64_t V) {
  for (unsigned B = 0; B != 8; ++B) {
    H ^= (V >> (8 * B)) & 0xff;
    H *= FnvPrime;
  }
}

/// Saved caller context. Besides the virtual registers, the interpreter
/// snapshots the call-preserved physical registers and restores them at
/// the matching return — the linkage contract itself, independent of
/// whether prologs have been inserted yet (see the header comment).
struct Frame {
  const Function *F = nullptr;
  const InterpImage *Img = nullptr;
  uint32_t BlockIdx = 0;
  uint32_t InstrIdx = 0; // flat index into Img->Instrs, past the CALL
  decltype(RegValues::Virt) Virt;
  int64_t Preserved[32] = {0};
};

class Interp {
public:
  Interp(InterpSession::Impl &S, const InterpOptions &Opts,
         std::vector<uint8_t> &Mem)
      : S(S), Opts(Opts), Mem(Mem), DataEnd(S.Data.DataEnd) {
    simcore::fillMemory(Mem, Opts.MemBytes, S.Data);
  }

  InterpResult run() {
    InterpResult R;
    R.StoreDigest = FnvOffset;
    R.CallDigest = FnvOffset;
    const Function *F = resolve(Opts.EntryFunction);
    if (!F || F->blocks().empty()) {
      R.Trapped = true;
      R.TrapMsg = simcore::noEntryTrap(Opts.EntryFunction);
      return R;
    }
    simcore::setEntryRegisters(Regs, Mem.size(), Opts.Args);

    CurF = F;
    Img = &S.imageFor(F);
    BlockIdx = 0;
    InstrIdx = Img->Blocks[0].FirstInstr;
    R.Coverage.insert(Img->Blocks[0].Origin);

    while (true) {
      const DecodedBlock *B = &Img->Blocks[BlockIdx];
      while (InstrIdx >= B->FirstInstr + B->NumInstrs) {
        if (BlockIdx + 1 >= Img->Blocks.size())
          return trap(R, simcore::fellOffTrap(CurF->name()));
        ++BlockIdx;
        B = &Img->Blocks[BlockIdx];
        InstrIdx = B->FirstInstr;
        R.Coverage.insert(B->Origin);
      }
      const DecodedInstr &D = Img->Instrs[InstrIdx];
      ++InstrIdx;
      if (++R.Steps > Opts.MaxSteps) {
        R.BudgetExceeded = true;
        return finish(R);
      }

      bool Done = false;
      if (!step(D, R, Done))
        return finish(R); // trap already recorded
      if (Done)
        return finish(R);
    }
  }

private:
  /// Entry-function lookup honouring InterpOptions::Override (calls
  /// resolve through the image's cold callee table instead).
  const Function *resolve(const std::string &Name) const {
    if (Opts.Override && Opts.Override->name() == Name)
      return Opts.Override;
    auto It = S.FuncByName.find(Name);
    return It == S.FuncByName.end() ? nullptr : It->second;
  }

  InterpResult &trap(InterpResult &R, const std::string &Msg) {
    R.Trapped = true;
    R.TrapMsg = Msg;
    return finish(R);
  }

  InterpResult &finish(InterpResult &R) {
    R.MemDigest = simcore::dataDigest(Mem, DataEnd);
    return R;
  }

  void traceStore(InterpResult &R, uint64_t Addr, unsigned Size, int64_t Val,
                  bool Volatile) {
    bool Observable = Volatile;
    bool InData = Addr >= simcore::DataBase && Addr < DataEnd;
    if (InData || Observable) {
      fnv(R.StoreDigest, Addr);
      fnv(R.StoreDigest, Size);
      fnv(R.StoreDigest, static_cast<uint64_t>(Val));
      ++R.StoreCount;
      if (Opts.TraceMemory || Observable) {
        std::string E = "ST:" + std::to_string(Size) + "[" +
                        std::to_string(Addr) + "]=" + std::to_string(Val) +
                        (Volatile ? " !volatile" : "");
        if (Observable)
          R.ObsTrace.push_back(E);
        if (Opts.TraceMemory)
          R.StoreTrace.push_back(std::move(E));
      }
    }
  }

  void traceCall(InterpResult &R, const Instr &I) {
    uint64_t ArgHash = FnvOffset;
    std::string ArgsStr;
    for (int64_t A = 0; A < std::min<int64_t>(I.Imm, 8); ++A) {
      int64_t V = Regs.gpr(3 + static_cast<uint32_t>(A));
      fnv(ArgHash, static_cast<uint64_t>(V));
      if (Opts.TraceMemory || abi::isBuiltin(I.Sym))
        ArgsStr += (A ? "," : "") + std::to_string(V);
    }
    for (char Ch : I.Sym)
      fnv(R.CallDigest, static_cast<uint8_t>(Ch));
    fnv(R.CallDigest, ArgHash);
    ++R.CallCount;
    if (Opts.TraceMemory || abi::isBuiltin(I.Sym)) {
      std::string E = "CALL:" + I.Sym + "(" + ArgsStr + ")";
      if (abi::isBuiltin(I.Sym))
        R.ObsTrace.push_back(E);
      if (Opts.TraceMemory)
        R.CallTrace.push_back(std::move(E));
    }
  }

  void traceExec(InterpResult &R, const Instr &I) {
    if (!Opts.TraceExec)
      return;
    if (R.ExecTrace.size() >= Opts.MaxExecTrace) {
      R.ExecTraceTruncated = true;
      return;
    }
    const DecodedBlock &B = Img->Blocks[BlockIdx];
    std::string Line = CurF->name() + ":" + B.Origin->label() + "+" +
                       std::to_string(InstrIdx - 1 - B.FirstInstr) + ": " +
                       I.str();
    // Values written, for trace diffing.
    if (opcodeInfo(I.Op).HasDst && I.Dst.isValid()) {
      if (I.Dst.isGpr())
        Line += " ; " + I.Dst.str() + "=" + std::to_string(Regs.gpr(I.Dst.id()));
      else if (I.Dst.isCr())
        Line += " ; " + I.Dst.str() + "=" + Regs.cr(I.Dst.id()).str();
      else if (I.Dst.isCtr())
        Line += " ; ctr=" + std::to_string(Regs.Ctr);
    }
    if (I.Op == Opcode::LU)
      Line += " ; " + I.Src1.str() + "=" + std::to_string(Regs.gpr(I.Src1.id()));
    R.ExecTrace.push_back(std::move(Line));
  }

  /// Executes one decoded record. \returns false on trap; sets \p Done
  /// when the program finished normally.
  bool step(const DecodedInstr &D, InterpResult &R, bool &Done);

  InterpSession::Impl &S;
  const InterpOptions &Opts;

  std::vector<uint8_t> &Mem;
  uint64_t DataEnd = 4096;

  RegValues Regs;
  const Function *CurF = nullptr;
  const InterpImage *Img = nullptr;
  uint32_t BlockIdx = 0;
  uint32_t InstrIdx = 0; // flat index into Img->Instrs
  std::vector<Frame> CallStack;
  size_t InputPos = 0;
};

bool Interp::step(const DecodedInstr &D, InterpResult &R, bool &Done) {
  Done = false;
  // Forced inline: out of line, every operand access is a call.
  auto S1 = [&]() __attribute__((always_inline)) {
    return Regs.gpr(packedId(D.Src1));
  };
  auto S2 = [&]() __attribute__((always_inline)) {
    return Regs.gpr(packedId(D.Src2));
  };
  auto Dst = [&]() __attribute__((always_inline)) -> int64_t & {
    return Regs.gpr(packedId(D.Dst));
  };
  // Cold-table row of this record (trap symbols, trace formatting,
  // resolved callee) — only touched off the happy path.
  size_t Idx = static_cast<size_t>(&D - Img->Instrs.data());

  bool Taken = false;
  Opcode Op = static_cast<Opcode>(D.Op); // interp images are never fused

  switch (Op) {
  case Opcode::LI:
    Dst() = simcore::aluValue<Opcode::LI>(0, D.Imm);
    break;
#define VSC_ALU_RR(Name)                                                     \
  case Opcode::Name:                                                         \
    Dst() = simcore::aluValue<Opcode::Name>(S1(), S2());                     \
    break;
#define VSC_ALU_RI(Name)                                                     \
  case Opcode::Name:                                                         \
    Dst() = simcore::aluValue<Opcode::Name>(S1(), D.Imm);                    \
    break;
    VSC_ALU_RR_OPS(VSC_ALU_RR)
    VSC_ALU_RI_OPS(VSC_ALU_RI)
#undef VSC_ALU_RR
#undef VSC_ALU_RI
  case Opcode::DIV: {
    int64_t V;
    if (!simcore::divValue(S1(), S2(), V)) {
      trap(R, simcore::DivideByZeroTrap);
      return false;
    }
    Dst() = V;
    break;
  }
  case Opcode::LTOC: {
    if (!D.globalKnown()) {
      trap(R, simcore::unknownGlobalTrap(Img->Origins[Idx]->Sym));
      return false;
    }
    Dst() = D.Imm;
    break;
  }
  case Opcode::L:
  case Opcode::LU: {
    uint64_t Addr = simcore::effectiveAddress(S1(), D.Imm);
    int64_t V;
    simcore::LoadFault F =
        simcore::load(Mem, Addr, D.MemSize, Opts.PageZeroReadable, V);
    if (F != simcore::LoadFault::None) {
      // The paper's !safe loads are guaranteed non-trapping: a faulting
      // speculative load reads zero instead of killing the program.
      if (!D.specSafe()) {
        trap(R, simcore::loadFaultTrap(F, Addr));
        return false;
      }
      ++R.SpecFaults;
    }
    if (D.isVolatile())
      R.ObsTrace.push_back("L:" + std::to_string(D.MemSize) + "[" +
                           std::to_string(Addr) + "]=" + std::to_string(V) +
                           " !volatile");
    if (Op == Opcode::LU)
      Regs.gpr(packedId(D.Src1)) = static_cast<int64_t>(Addr);
    Dst() = V;
    break;
  }
  case Opcode::ST: {
    uint64_t Addr = simcore::effectiveAddress(S2(), D.Imm);
    int64_t Val = S1();
    if (!simcore::store(Mem, Addr, D.MemSize, Val)) {
      trap(R, simcore::storeFaultTrap(Addr));
      return false;
    }
    traceStore(R, Addr, D.MemSize, Val, D.isVolatile());
    break;
  }
  case Opcode::C:
  case Opcode::CI:
    Regs.cr(packedId(D.Dst)) =
        simcore::compare(S1(), Op == Opcode::C ? S2() : D.Imm);
    break;
  case Opcode::MTCTR:
    Regs.Ctr = S1();
    break;
  case Opcode::B:
    Taken = true;
    break;
  case Opcode::BT:
  case Opcode::BF: {
    bool Bit = Regs.cr(packedId(D.Src1)).bit(D.crBit());
    Taken = (Op == Opcode::BT) ? Bit : !Bit;
    break;
  }
  case Opcode::BCT:
    Taken = (--Regs.Ctr != 0);
    break;
  case Opcode::CALL:
  case Opcode::RET:
    break;
  default:
    trap(R, simcore::UnimplementedTrap);
    return false;
  }

  if (Opts.TraceExec)
    traceExec(R, *Img->Origins[Idx]);

  if (Op == Opcode::B ||
      ((Op == Opcode::BT || Op == Opcode::BF || Op == Opcode::BCT) && Taken)) {
    if (D.Target < 0) {
      trap(R, simcore::unknownLabelTrap(Img->Origins[Idx]->Target));
      return false;
    }
    BlockIdx = static_cast<uint32_t>(D.Target);
    InstrIdx = Img->Blocks[BlockIdx].FirstInstr;
    R.Coverage.insert(Img->Blocks[BlockIdx].Origin);
    return true;
  }

  if (Op == Opcode::CALL) {
    const Instr &OI = *Img->Origins[Idx];
    traceCall(R, OI);
    if (D.builtin() != SimBuiltin::None) {
      Done = simcore::runBuiltin(D.builtin(), Regs, R.Output, Opts.Input,
                                 InputPos, R.ExitCode);
      return true;
    }
    // Module-level resolution happened at decode time; the per-run
    // Override (same name, different body) is layered on top here.
    const Function *Callee =
        (Opts.Override && Opts.Override->name() == OI.Sym)
            ? Opts.Override
            : Img->Callees[Idx];
    if (!Callee || Callee->blocks().empty()) {
      trap(R, simcore::unknownCalleeTrap(OI.Sym));
      return false;
    }
    if (CallStack.size() >= Opts.MaxCallDepth) {
      trap(R, "call depth limit exceeded in '" + CurF->name() + "'");
      return false;
    }
    Frame Fr;
    Fr.F = CurF;
    Fr.Img = Img;
    Fr.BlockIdx = BlockIdx;
    Fr.InstrIdx = InstrIdx;
    Fr.Virt = std::exchange(Regs.Virt, {});
    for (uint32_t G = 0; G != 32; ++G)
      Fr.Preserved[G] = Regs.Phys[G];
    CallStack.push_back(std::move(Fr));
    simcore::scrubCallClobbers(Regs, D.Imm);
    CurF = Callee;
    Img = &S.imageFor(Callee);
    BlockIdx = 0;
    InstrIdx = Img->Blocks[0].FirstInstr;
    R.Coverage.insert(Img->Blocks[0].Origin);
    return true;
  }

  if (Op == Opcode::RET) {
    if (CallStack.empty()) {
      R.ExitCode = Regs.gpr(3);
      Done = true;
      return true;
    }
    Frame Fr = std::move(CallStack.back());
    CallStack.pop_back();
    CurF = Fr.F;
    Img = Fr.Img;
    BlockIdx = Fr.BlockIdx;
    InstrIdx = Fr.InstrIdx;
    Regs.Virt = std::move(Fr.Virt);
    // Contract semantics: the preserved registers come back regardless of
    // whether the callee had prologs yet.
    for (uint32_t G = 0; G != 32; ++G)
      if (abi::isCallPreservedGpr(G))
        Regs.Phys[G] = Fr.Preserved[G];
    return true;
  }

  return true;
}

} // namespace

std::string InterpResult::fingerprint() const {
  uint64_t ObsHash = FnvOffset;
  for (const std::string &E : ObsTrace)
    for (char Ch : E)
      fnv(ObsHash, static_cast<uint8_t>(Ch));
  return (Trapped ? "TRAP:" + TrapMsg : "ok") +
         "|exit=" + std::to_string(ExitCode) + "|out=" + Output +
         "|mem=" + std::to_string(MemDigest) +
         "|obs=" + std::to_string(ObsHash);
}

InterpSession::InterpSession(const Module &M)
    : P(std::make_unique<Impl>(M)) {}
InterpSession::InterpSession(InterpSession &&) noexcept = default;
InterpSession &InterpSession::operator=(InterpSession &&) noexcept = default;
InterpSession::~InterpSession() = default;

InterpResult InterpSession::run(const InterpOptions &Opts) {
  Interp In(*P, Opts, P->MemPool);
  return In.run();
}

InterpResult vsc::interpret(const Module &M, const InterpOptions &Opts) {
  InterpSession S(M);
  return S.run(Opts);
}
