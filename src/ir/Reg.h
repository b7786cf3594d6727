//===- ir/Reg.h - Register model ------------------------------*- C++ -*-===//
///
/// \file
/// Registers for the POWER-flavoured IR. Three classes exist:
///
///  * GPR  — general purpose registers. Ids 0..31 are "physical" and carry
///           the RS/6000 software conventions (r1 = stack pointer, r2 = TOC,
///           r3..r10 = arguments / return value, r13..r31 = callee-saved).
///           Ids >= FirstVirtualGpr are compiler temporaries; the paper's
///           passes all run before register allocation, so temporaries are
///           unbounded.
///  * CR   — condition registers written by compares and read by BT/BF.
///           Ids 0..7 are physical, ids >= FirstVirtualCr are temporaries.
///  * CTR  — the count register used by MTCTR/BCT. A single register.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_IR_REG_H
#define VSC_IR_REG_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

namespace vsc {

enum class RegClass : uint8_t { None, Gpr, Cr, Ctr };

class Reg {
public:
  static constexpr uint32_t FirstVirtualGpr = 32;
  static constexpr uint32_t FirstVirtualCr = 8;
  /// Every register id is below this bound: the simulators pack a register
  /// into 32 bits, 2 for the class and 30 for the id (sim/Predecode.h), and
  /// the IR parser rejects larger numbers.
  static constexpr uint32_t IdLimit = 1u << 30;

  Reg() = default;
  Reg(RegClass Class, uint32_t Id) : Class(Class), Id(Id) {}

  static Reg gpr(uint32_t Id) { return Reg(RegClass::Gpr, Id); }
  static Reg cr(uint32_t Id) { return Reg(RegClass::Cr, Id); }
  static Reg ctr() { return Reg(RegClass::Ctr, 0); }

  bool isValid() const { return Class != RegClass::None; }
  bool isGpr() const { return Class == RegClass::Gpr; }
  bool isCr() const { return Class == RegClass::Cr; }
  bool isCtr() const { return Class == RegClass::Ctr; }

  bool isVirtual() const {
    if (Class == RegClass::Gpr)
      return Id >= FirstVirtualGpr;
    if (Class == RegClass::Cr)
      return Id >= FirstVirtualCr;
    return false;
  }
  bool isPhysical() const { return isValid() && !isVirtual(); }

  /// \returns true for r13..r31, the callee-saved GPRs under the RS/6000
  /// linkage convention (the registers prolog tailoring cares about).
  bool isCalleeSaved() const { return isGpr() && Id >= 13 && Id <= 31; }

  RegClass regClass() const { return Class; }
  uint32_t id() const { return Id; }

  bool operator==(const Reg &RHS) const {
    return Class == RHS.Class && Id == RHS.Id;
  }
  bool operator!=(const Reg &RHS) const { return !(*this == RHS); }
  bool operator<(const Reg &RHS) const {
    if (Class != RHS.Class)
      return Class < RHS.Class;
    return Id < RHS.Id;
  }

  /// Renders "r5", "cr0", "ctr"; virtual registers print with the same
  /// prefix and their (large) id, e.g. "r41".
  std::string str() const {
    switch (Class) {
    case RegClass::None:
      return "<noreg>";
    case RegClass::Gpr:
      return "r" + std::to_string(Id);
    case RegClass::Cr:
      return "cr" + std::to_string(Id);
    case RegClass::Ctr:
      return "ctr";
    }
    return "<bad>";
  }

private:
  RegClass Class = RegClass::None;
  uint32_t Id = 0;
};

/// Well-known physical registers under the RS/6000 software conventions.
namespace regs {
inline Reg sp() { return Reg::gpr(1); }
inline Reg toc() { return Reg::gpr(2); }
/// Argument register \p N (0-based); r3..r10.
inline Reg arg(unsigned N) {
  assert(N < 8 && "at most 8 register arguments");
  return Reg::gpr(3 + N);
}
inline Reg retval() { return Reg::gpr(3); }
} // namespace regs

struct RegHash {
  size_t operator()(const Reg &R) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(R.regClass()) << 32) |
                                 R.id());
  }
};

} // namespace vsc

#endif // VSC_IR_REG_H
