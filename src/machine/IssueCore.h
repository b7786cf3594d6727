//===- machine/IssueCore.h - The machine's issue rules --------*- C++ -*-===//
///
/// \file
/// The in-order issue rules of a MachineModel (DESIGN.md §7), written
/// once. The predecoded simulator (sim/FastSim.cpp) issues every executed
/// instruction through an IssueCore, and the scheduler's cost model
/// (vliw/Schedule.cpp's IssueEngine) issues blocks and loop traces through
/// one, so the compiler estimates code under the rules the simulator
/// charges. The walking reference interpreter (sim/Simulator.cpp,
/// simulateLegacy) keeps its own statement of the rules on purpose: it is
/// what the differential tests hold this core to.
///
/// The core owns issue state only: the fetch floor, per-cycle unit
/// occupancy, the speculative-dispatch window and the conditional-branch
/// shadow. Register ready times stay with the caller, which hands each
/// issue its operand floor (the latest ready time among the sources) and,
/// for a conditional or count branch, the ready time of the register it
/// tests. A def's ready time is its issue cycle plus
/// MachineModel::defLatency.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_MACHINE_ISSUECORE_H
#define VSC_MACHINE_ISSUECORE_H

#include "machine/MachineModel.h"

#include <algorithm>
#include <cstdint>

namespace vsc {

class IssueCore {
public:
  explicit IssueCore(const MachineModel &MM) : MM(MM) {}

  /// Cycle of the latest issue (a finished run's cycle count).
  uint64_t lastIssue() const { return PrevIssue; }
  /// Cycles the issued instructions waited on operands.
  uint64_t operandStallCycles() const { return OperandStalls; }
  /// Cycles lost to fetch redirects: taken branches, late unconditional
  /// branches, calls and returns.
  uint64_t branchStallCycles() const { return BranchStalls; }

  /// Issues a non-control instruction (every one is FXU-class).
  uint64_t plain(uint64_t OperandFloor, UnitKind Unit = UnitKind::Fxu) {
    uint64_t C = dispatch(OperandFloor, Unit);
    ++SinceCondBranch;
    return PrevIssue = C;
  }

  /// Issues BT/BF testing a condition register ready at \p CrReady. A
  /// taken branch pays the redirect from the condition's ready time; an
  /// untaken one with a late condition opens the speculation window.
  uint64_t condBranch(uint64_t CrReady, bool Taken) {
    uint64_t C = dispatch(0, UnitKind::Bu);
    uint64_t Resolve = std::max(C, CrReady);
    if (Taken)
      redirectTo(C, CrReady + MM.TakenBranchRedirect);
    else if (Resolve > C) {
      PendingResolve = Resolve;
      SpecBudget = MM.SpecWindow;
    }
    LastCondResolve = Resolve;
    SinceCondBranch = 0;
    return PrevIssue = C;
  }

  /// Issues BCT with the count register ready at \p CtrReady. Branch on
  /// count resolves in the branch unit: no redirect, taken or not.
  uint64_t countBranch(uint64_t CtrReady) {
    uint64_t C = dispatch(0, UnitKind::Bu);
    uint64_t Resolve = std::max(C, CtrReady);
    FetchFloor = std::max(FetchFloor, Resolve);
    LastCondResolve = Resolve;
    SinceCondBranch = 0;
    return PrevIssue = C;
  }

  /// Issues B. It is free when the branch unit saw it early enough and
  /// pays the redirect when it sits in the shadow of a recent conditional
  /// branch (the stall basic block expansion removes).
  uint64_t jump() {
    uint64_t C = dispatch(0, UnitKind::Bu);
    if (SinceCondBranch < MM.ExpansionObjective)
      redirectTo(C, LastCondResolve + MM.TakenBranchRedirect);
    ++SinceCondBranch;
    return PrevIssue = C;
  }

  /// Issues CALL or RET, which always redirect fetch.
  uint64_t callOrReturn(uint64_t OperandFloor) {
    uint64_t C = dispatch(OperandFloor, UnitKind::Bu);
    FetchFloor = std::max(FetchFloor, C + MM.TakenBranchRedirect);
    BranchStalls += MM.TakenBranchRedirect;
    SinceCondBranch = 0;
    return PrevIssue = C;
  }

  /// Issues \p I, branching when \p Taken. \p Ready supplies register ready
  /// times: operandFloor(I), the latest over I's uses, and readyOf(Reg).
  /// Branches issue before their condition resolves (predicted untaken),
  /// so they wait on no operand.
  template <class ReadyTable>
  uint64_t issue(const Instr &I, bool Taken, const ReadyTable &Ready) {
    switch (I.Op) {
    case Opcode::BT:
    case Opcode::BF:
      return condBranch(Ready.readyOf(I.Src1), Taken);
    case Opcode::BCT:
      return countBranch(Ready.readyOf(Reg::ctr()));
    case Opcode::B:
      return jump();
    case Opcode::CALL:
    case Opcode::RET:
      return callOrReturn(Ready.operandFloor(I));
    default:
      return plain(Ready.operandFloor(I), MM.unitOf(I));
    }
  }

  /// The cycle issue(I, Taken, Ready) would return now, without issuing.
  template <class ReadyTable>
  uint64_t peek(const Instr &I, const ReadyTable &Ready) const {
    IssueCore Trial = *this;
    return Trial.issue(I, /*Taken=*/false, Ready);
  }

private:
  struct UnitSlot {
    uint64_t Cycle = 0; ///< cycle the unit last issued in
    unsigned Count = 0; ///< operations issued in that cycle
  };

  /// Shared front half of every issue: the fetch and operand floors, the
  /// speculation window, unit width, and operand-stall accounting.
  uint64_t dispatch(uint64_t OperandFloor, UnitKind Unit) {
    uint64_t Base = std::max(PrevIssue, FetchFloor);
    uint64_t Earliest = std::max(Base, OperandFloor);
    // Limited dispatch beyond an unresolved conditional branch.
    if (Earliest < PendingResolve) {
      if (SpecBudget == 0)
        Earliest = PendingResolve;
      else
        --SpecBudget;
    }
    uint64_t C = Earliest;
    if (Unit == UnitKind::Fxu)
      C = allocate(Fxu, MM.FxuWidth, C);
    else if (Unit == UnitKind::Bu)
      C = allocate(Bu, MM.BuWidth, C);
    if (OperandFloor > Base)
      OperandStalls += OperandFloor - Base;
    return C;
  }

  /// Takes a slot of a unit \p Width wide at cycle \p C, or the next cycle
  /// when \p C is full.
  static uint64_t allocate(UnitSlot &U, unsigned Width, uint64_t C) {
    if (U.Cycle == C && U.Count >= Width)
      ++C;
    if (U.Cycle != C) {
      U.Cycle = C;
      U.Count = 0;
    }
    ++U.Count;
    return C;
  }

  /// Holds fetch for an instruction issued at \p C until \p Target.
  void redirectTo(uint64_t C, uint64_t Target) {
    uint64_t NewFloor = std::max(C, Target);
    BranchStalls += NewFloor - C;
    FetchFloor = std::max(FetchFloor, NewFloor);
  }

  const MachineModel &MM;
  uint64_t PrevIssue = 0;
  uint64_t FetchFloor = 1;
  UnitSlot Fxu, Bu;
  uint64_t PendingResolve = 0;
  unsigned SpecBudget = 0;
  uint64_t LastCondResolve = 0;
  uint64_t SinceCondBranch = 1'000'000;
  uint64_t OperandStalls = 0, BranchStalls = 0;
};

} // namespace vsc

#endif // VSC_MACHINE_ISSUECORE_H
