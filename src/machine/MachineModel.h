//===- machine/MachineModel.h - Target descriptions -----------*- C++ -*-===//
///
/// \file
/// Parametric descriptions of the in-order superscalar targets the paper
/// evaluates on (RS/6000 POWER, Power2, PowerPC 601). The timing simulator
/// (sim/Simulator.h) and the schedulers' cycle model interpret these
/// parameters through one set of issue rules (machine/IssueCore.h); basic
/// block expansion reads ExpansionObjective as its machine-specific copy
/// rule.
///
/// Calibration: on the rs6000() model the paper's original `xlygetvalue`
/// loop costs exactly 11 cycles per iteration (tests/sim_calibration).
///
//===----------------------------------------------------------------------===//

#ifndef VSC_MACHINE_MACHINEMODEL_H
#define VSC_MACHINE_MACHINEMODEL_H

#include "ir/Instr.h"

#include <string>

namespace vsc {

struct MachineModel {
  std::string Name;

  /// FXU-class operations (ALU, compare, load/store) issued per cycle.
  unsigned FxuWidth = 1;
  /// Branch-class operations issued per cycle.
  unsigned BuWidth = 1;

  unsigned LoadLatency = 2;
  unsigned AluLatency = 1;
  unsigned CmpLatency = 1;
  unsigned MulLatency = 5;
  unsigned DivLatency = 20;

  /// Cycles between a branch's resolution and the first issue from its
  /// redirected fetch stream (taken conditional branches, late unconditional
  /// branches, calls and returns pay this).
  unsigned TakenBranchRedirect = 3;
  /// Instructions the machine can issue beyond an unresolved conditional
  /// branch (predicted untaken) before dispatch stalls.
  unsigned SpecWindow = 3;
  /// Machine rule used by basic block expansion: number of non-branch
  /// instructions needed between a compare, a dependent (untaken)
  /// conditional branch, and an unconditional branch to avoid a stall
  /// ("4-5 instructions" on the RS/6000).
  unsigned ExpansionObjective = 4;
  /// Page zero reads return 0 instead of trapping (the paper's [5] trick
  /// that makes car(car(NIL)) speculation safe).
  bool PageZeroReadable = true;

  /// Result-availability latency of \p I (cycles after issue).
  unsigned latencyOf(const Instr &I) const {
    if (I.isLoad())
      return LoadLatency;
    switch (I.Op) {
    case Opcode::MUL:
    case Opcode::MULI:
      return MulLatency;
    case Opcode::DIV:
      return DivLatency;
    case Opcode::C:
    case Opcode::CI:
      return CmpLatency;
    default:
      return AluLatency;
    }
  }

  /// Cycles after \p I issues until its def \p D is ready. An LU's
  /// updated base is an address add, ready after AluLatency (also when the
  /// loaded value lands in the base register); every other def after
  /// latencyOf(I).
  unsigned defLatency(const Instr &I, Reg D) const {
    return I.Op == Opcode::LU && D == I.Src1 ? AluLatency : latencyOf(I);
  }

  UnitKind unitOf(const Instr &I) const { return opcodeInfo(I.Op).Unit; }
};

/// Content fingerprint of every timing/shape parameter of \p M (FNV-1a
/// over name, widths, latencies, redirect/speculation windows, page-zero
/// behaviour). Cache keys use this instead of Name so a hand-tweaked model
/// never aliases a stock one.
uint64_t machineFingerprint(const MachineModel &M);

/// The stock model registered under \p Name (rs6000, power2, ppc601,
/// vliw8), or nullptr.
const MachineModel *findMachine(const std::string &Name);

/// RS/6000 (POWER) model 580 class: single FXU, single branch unit.
MachineModel rs6000();
/// Power2 class: dual FXU.
MachineModel power2();
/// PowerPC 601 class: single FXU, shorter pipeline.
MachineModel ppc601();
/// The IBM research group's 8-ALU VLIW prototype shape ("an 8-ALU
/// hardware prototype is currently operational"): wide issue, multiway
/// branching approximated by a dual branch unit, aggressive speculation.
MachineModel vliw8();

} // namespace vsc

#endif // VSC_MACHINE_MACHINEMODEL_H
