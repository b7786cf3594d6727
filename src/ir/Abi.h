//===- ir/Abi.h - POWER linkage convention --------------------*- C++ -*-===//
///
/// \file
/// The RS/6000 (POWER) linkage convention, stated once. Three consumers
/// must agree on it exactly or miscompilations slip through unnoticed:
///
///  * ir/Instr.cpp derives the implicit uses/defs of CALL and RET from it,
///    which is what every dataflow analysis and scheduler sees;
///  * sim/ValueCore.h poisons the clobbered registers at calls for both
///    engines that execute through it, the simulator's fast path and the
///    oracle's reference interpreter, so code that wrongly relies on a
///    caller-saved register surviving a call fails loudly and
///    deterministically instead of "working";
///  * sim/Simulator.cpp (simulateLegacy) applies the identical poison in
///    its own copy, the independent reference the other engines are
///    tested against, so the differential oracle never reports a spurious
///    divergence.
///
/// tests/test_oracle.cpp pins the set by running the engines over a
/// program that observes every register around a call.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_IR_ABI_H
#define VSC_IR_ABI_H

#include "ir/Reg.h"

#include <cstdint>
#include <string_view>

namespace vsc {
namespace abi {

/// Deterministic "this register died at the call" value both execution
/// engines write into clobbered GPRs (and the CTR). Recognizable in traces
/// and never produced by the bundled workloads.
constexpr int64_t ClobberPoison = static_cast<int64_t>(0x5C5C5C5C5C5C5C5CULL);

/// \returns true for GPRs a call clobbers: r0 and r3..r12 (arguments,
/// return value, environment/scratch). r1 (SP), r2 (TOC) and r13..r31 are
/// preserved.
inline bool isCallClobberedGpr(uint32_t Id) {
  return Id == 0 || (Id >= 3 && Id <= 12);
}

/// \returns true for GPRs the callee must preserve: r1, r2, r13..r31.
inline bool isCallPreservedGpr(uint32_t Id) {
  return Id == 1 || Id == 2 || (Id >= 13 && Id <= 31);
}

/// Invokes \p F once per register a CALL defines implicitly (the clobber
/// set): r0, r3..r12, cr0..cr7 and the CTR. The order is fixed; it is part
/// of what the cross-engine test pins.
template <typename Fn> void forEachCallClobber(Fn &&F) {
  F(Reg::gpr(0));
  for (uint32_t R = 3; R <= 12; ++R)
    F(Reg::gpr(R));
  for (uint32_t C = 0; C < 8; ++C)
    F(Reg::cr(C));
  F(Reg::ctr());
}

/// The simulator builtins with known linkage behaviour. All of them
/// clobber the standard set; their r3 on return is pinned here so both
/// engines agree: print_int and print_char return their argument, read_int
/// returns the value read, exit does not return.
inline bool isBuiltin(std::string_view Sym) {
  return Sym == "print_int" || Sym == "print_char" || Sym == "read_int" ||
         Sym == "exit";
}

} // namespace abi
} // namespace vsc

#endif // VSC_IR_ABI_H
