//===- sim/ValueCore.h - Shared value semantics ---------------*- C++ -*-===//
///
/// \file
/// The value semantics of the IR, written once for the two engines that
/// execute predecoded records: the simulator's fast path (sim/FastSim.cpp,
/// sim/FastSimBody.inc) and the oracle's reference interpreter
/// (oracle/Interp.cpp). Here are every ALU op's value, the compare, the
/// bounds classes of a memory access, load and store, the memory image and
/// its digest, the entry registers, the builtins with the call-clobber
/// scrub of ir/Abi.h, and the trap texts.
///
/// Everything is inline and holds no engine state. Each engine keeps its
/// one switch with one case per opcode, expanding the ALU lists below into
/// cases that call aluValue<Op>. What differs stays in the engines: timing
/// (machine/IssueCore.h), counters, the watcher and the stack-overflow
/// trap in the fast path; contract calls, non-trapping !safe loads,
/// traces, digests and budgets in the interpreter. simulateLegacy
/// (sim/Simulator.cpp) does not include this header: its own copy is the
/// independent reference the tests hold both engines to.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_SIM_VALUECORE_H
#define VSC_SIM_VALUECORE_H

#include "ir/Abi.h"
#include "sim/Predecode.h"
#include "sim/SimCore.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace vsc {
namespace simcore {

/// Page zero is [0, DataBase); the globals start at DataBase, where r2
/// (the TOC anchor) points.
constexpr uint64_t DataBase = 4096;

/// The ALU ops by operand form; each engine expands both lists into cases
/// of its own switch. Register-register: Dst = aluValue<Op>(Src1, Src2).
#define VSC_ALU_RR_OPS(X)                                                    \
  X(A) X(S) X(MUL) X(AND) X(OR) X(XOR) X(SL) X(SR) X(SRA)
/// Register-immediate: Dst = aluValue<Op>(Src1, Imm). LR and NEG ignore
/// the immediate.
#define VSC_ALU_RI_OPS(X)                                                    \
  X(AI) X(LA) X(SI) X(MULI) X(ANDI) X(ORI) X(XORI) X(SLI) X(SRI) X(SRAI)    \
  X(LR) X(NEG)

/// The value of ALU op \p Op over \p A and \p B (see the lists above; LI
/// yields \p B). Arithmetic wraps mod 2^64 and shift counts are taken mod
/// 64.
template <Opcode Op> inline int64_t aluValue(int64_t A, int64_t B) {
  using U = uint64_t;
  if constexpr (Op == Opcode::LI)
    return B;
  else if constexpr (Op == Opcode::LR)
    return A;
  else if constexpr (Op == Opcode::NEG)
    return static_cast<int64_t>(0 - static_cast<U>(A));
  else if constexpr (Op == Opcode::A || Op == Opcode::AI || Op == Opcode::LA)
    return static_cast<int64_t>(static_cast<U>(A) + static_cast<U>(B));
  else if constexpr (Op == Opcode::S || Op == Opcode::SI)
    return static_cast<int64_t>(static_cast<U>(A) - static_cast<U>(B));
  else if constexpr (Op == Opcode::MUL || Op == Opcode::MULI)
    return static_cast<int64_t>(static_cast<U>(A) * static_cast<U>(B));
  else if constexpr (Op == Opcode::AND || Op == Opcode::ANDI)
    return A & B;
  else if constexpr (Op == Opcode::OR || Op == Opcode::ORI)
    return A | B;
  else if constexpr (Op == Opcode::XOR || Op == Opcode::XORI)
    return A ^ B;
  else if constexpr (Op == Opcode::SL || Op == Opcode::SLI)
    return static_cast<int64_t>(static_cast<U>(A) << (B & 63));
  else if constexpr (Op == Opcode::SR || Op == Opcode::SRI)
    return static_cast<int64_t>(static_cast<U>(A) >> (B & 63));
  else {
    static_assert(Op == Opcode::SRA || Op == Opcode::SRAI, "not an ALU op");
    return A >> (B & 63);
  }
}

/// aluValue for a register-immediate op known only at run time (the
/// second record of a fused load+use pair).
inline int64_t aluImmValue(Opcode Op, int64_t A, int64_t Imm) {
  switch (Op) {
#define VSC_CASE(Name)                                                       \
  case Opcode::Name:                                                         \
    return aluValue<Opcode::Name>(A, Imm);
    VSC_ALU_RI_OPS(VSC_CASE)
#undef VSC_CASE
  default:
    return 0;
  }
}

/// DIV: false on a zero divisor (the engine traps with DivideByZeroTrap),
/// else the quotient in \p Out; INT64_MIN / -1 yields INT64_MIN.
inline bool divValue(int64_t N, int64_t D, int64_t &Out) {
  if (D == 0)
    return false;
  Out = (N == INT64_MIN && D == -1) ? INT64_MIN : N / D;
  return true;
}

/// C / CI: signed compare of \p A with \p B.
inline CrVal compare(int64_t A, int64_t B) {
  return CrVal{A < B, A > B, A == B};
}

/// Base plus displacement, wrapping mod 2^64.
inline uint64_t effectiveAddress(int64_t Base, int64_t Disp) {
  return static_cast<uint64_t>(Base) + static_cast<uint64_t>(Disp);
}

enum class Access : uint8_t { Mapped, PageZero, Unmapped };

/// Where [Addr, Addr + Size) falls in a memory of \p MemBytes bytes:
/// wholly in page zero, wholly in [DataBase, MemBytes), or neither. No
/// sum is formed, so an access whose end wraps past 2^64 is unmapped.
inline Access classifyAccess(uint64_t Addr, unsigned Size,
                             uint64_t MemBytes) {
  if (Addr <= DataBase - Size)
    return Access::PageZero;
  if (Addr >= DataBase && Size <= MemBytes && Addr <= MemBytes - Size)
    return Access::Mapped;
  return Access::Unmapped;
}

enum class LoadFault : uint8_t { None, PageZero, Unmapped };

// The memory helpers take any byte buffer with size() and operator[]
// (fillMemory also assign() and data()): the oracle's interpreter keeps a
// std::vector, the fast path its own mapping.

/// Loads \p Size bytes at \p Addr into \p V, little-endian and sign-
/// extended. Page zero reads as zero when \p PageZeroReadable and faults
/// otherwise; on a fault \p V is zero.
template <typename MemBuf>
inline LoadFault load(const MemBuf &Mem, uint64_t Addr, unsigned Size,
                      bool PageZeroReadable, int64_t &V) {
  V = 0;
  switch (classifyAccess(Addr, Size, Mem.size())) {
  case Access::PageZero:
    return PageZeroReadable ? LoadFault::None : LoadFault::PageZero;
  case Access::Unmapped:
    return LoadFault::Unmapped;
  case Access::Mapped:
    break;
  }
  uint64_t W = 0;
  for (unsigned B = 0; B != Size; ++B)
    W |= static_cast<uint64_t>(Mem[Addr + B]) << (8 * B);
  if (Size < 8) {
    uint64_t SignBit = 1ULL << (Size * 8 - 1);
    if (W & SignBit)
      W |= ~((SignBit << 1) - 1);
  }
  V = static_cast<int64_t>(W);
  return LoadFault::None;
}

/// Stores the low \p Size bytes of \p V at \p Addr, little-endian.
/// \returns false, writing nothing, unless the access is mapped.
template <typename MemBuf>
inline bool store(MemBuf &Mem, uint64_t Addr, unsigned Size, int64_t V) {
  if (classifyAccess(Addr, Size, Mem.size()) != Access::Mapped)
    return false;
  for (unsigned B = 0; B != Size; ++B)
    Mem[Addr + B] = static_cast<uint8_t>(static_cast<uint64_t>(V) >> (8 * B));
  return true;
}

/// Resets \p Mem to \p Bytes zeroes with the initializers of \p Data at
/// DataBase.
template <typename MemBuf>
inline void fillMemory(MemBuf &Mem, uint64_t Bytes, const DataLayout &Data) {
  Mem.assign(Bytes, 0);
  if (!Data.DataInit.empty() && Mem.size() > DataBase) {
    size_t N = std::min<size_t>(Data.DataInit.size(), Mem.size() - DataBase);
    std::memcpy(Mem.data() + DataBase, Data.DataInit.data(), N);
  }
}

constexpr uint64_t FnvOffset = 1469598103934665603ULL;
constexpr uint64_t FnvPrime = 1099511628211ULL;

/// FNV-1a over the global data area [DataBase, DataEnd): the MemDigest of
/// a run.
template <typename MemBuf>
inline uint64_t dataDigest(const MemBuf &Mem, uint64_t DataEnd) {
  uint64_t H = FnvOffset;
  for (uint64_t A = DataBase; A < DataEnd && A < Mem.size(); ++A) {
    H ^= Mem[A];
    H *= FnvPrime;
  }
  return H;
}

/// The entry state: r1 (stack pointer) 4096 bytes below the top of a
/// memory of \p MemBytes, r2 (TOC anchor) at DataBase, and the first
/// eight \p Args in r3..r10.
inline void setEntryRegisters(RegValues &Regs, uint64_t MemBytes,
                              const std::vector<int64_t> &Args) {
  Regs.gpr(1) = static_cast<int64_t>(MemBytes - 4096);
  Regs.gpr(2) = static_cast<int64_t>(DataBase);
  for (size_t I = 0; I < Args.size() && I < 8; ++I)
    Regs.gpr(3 + static_cast<uint32_t>(I)) = Args[I];
}

/// Kills everything the linkage convention says a call clobbers, writing
/// the poison of ir/Abi.h, so code that wrongly relies on a caller-saved
/// register surviving a call fails loudly. Argument registers still
/// carrying live arguments (r3..r3+KeepArgs-1) are spared.
inline void scrubCallClobbers(RegValues &Regs, int64_t KeepArgs) {
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

/// Runs builtin \p B: print_int and print_char append to \p Output and
/// return their argument in r3, read_int returns the next of \p Input
/// (0 when exhausted), and the rest of the clobber set dies. \returns
/// true for exit, whose argument becomes \p ExitCode.
inline bool runBuiltin(SimBuiltin B, RegValues &Regs, std::string &Output,
                       const std::vector<int64_t> &Input, size_t &InputPos,
                       int64_t &ExitCode) {
  int64_t A0 = Regs.gpr(3);
  scrubCallClobbers(Regs, /*KeepArgs=*/0);
  switch (B) {
  case SimBuiltin::PrintInt:
    Output += std::to_string(A0) + "\n";
    Regs.gpr(3) = A0;
    return false;
  case SimBuiltin::PrintChar:
    Output += static_cast<char>(A0 & 0xff);
    Regs.gpr(3) = A0;
    return false;
  case SimBuiltin::ReadInt:
    Regs.gpr(3) = InputPos < Input.size() ? Input[InputPos++] : 0;
    return false;
  default: // exit
    ExitCode = A0;
    return true;
  }
}

/// The trap texts both engines print.
constexpr const char *DivideByZeroTrap = "divide by zero";
constexpr const char *UnimplementedTrap = "unimplemented opcode";

inline std::string noEntryTrap(const std::string &Fn) {
  return "no entry function '" + Fn + "'";
}
inline std::string fellOffTrap(const std::string &Fn) {
  return "fell off the end of function " + Fn;
}
inline std::string unknownLabelTrap(const std::string &Label) {
  return "branch to unknown label '" + Label + "'";
}
inline std::string unknownGlobalTrap(const std::string &Sym) {
  return "LTOC of unknown global '" + Sym + "'";
}
inline std::string unknownCalleeTrap(const std::string &Sym) {
  return "call to unknown function '" + Sym + "'";
}
inline std::string loadFaultTrap(LoadFault F, uint64_t Addr) {
  return (F == LoadFault::Unmapped ? "load from unmapped address "
                                   : "load from page zero at ") +
         std::to_string(Addr);
}
inline std::string storeFaultTrap(uint64_t Addr) {
  return "store to unmapped address " + std::to_string(Addr);
}

} // namespace simcore
} // namespace vsc

#endif // VSC_SIM_VALUECORE_H
