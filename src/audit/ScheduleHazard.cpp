//===- audit/ScheduleHazard.cpp - Dispatch-group hazard audit ---------------===//

#include "audit/Checkers.h"

#include <unordered_map>

using namespace vsc;

namespace {

std::string opRef(const BasicBlock &BB, size_t Idx) {
  return BB.label() + "[" + std::to_string(Idx) + "] " +
         BB.instrs()[Idx].str();
}

} // namespace

void vsc::auditPacking(const Function &F, const BasicBlock &BB,
                       const std::vector<VliwWord> &Words,
                       const MachineModel &MM, AuditResult &R) {
  size_t N = BB.instrs().size();
  auto Add = [&](const std::string &Where, const std::string &Msg) {
    R.add("schedule-hazard", F.name(), Where, Msg);
  };

  // Structural validity: every instruction packed exactly once, in program
  // order (the packing only assigns cycles; it never reorders), with
  // non-decreasing cycles.
  std::vector<uint64_t> CycleOf(N, 0);
  size_t Expected = 0;
  uint64_t PrevCycle = 0;
  bool Structural = true;
  for (const VliwWord &W : Words) {
    if (!Words.empty() && &W != &Words.front() && W.Cycle < PrevCycle) {
      Add(BB.label(), "VLIW word cycles decrease (cycle " +
                          std::to_string(W.Cycle) + " after " +
                          std::to_string(PrevCycle) + ")");
      Structural = false;
    }
    PrevCycle = W.Cycle;
    unsigned Fxu = 0, Bu = 0;
    for (size_t Op : W.Ops) {
      if (Op >= N) {
        Add(BB.label(), "VLIW word references instruction index " +
                            std::to_string(Op) + " but the block has " +
                            std::to_string(N) + " instructions");
        Structural = false;
        continue;
      }
      if (Op != Expected) {
        Add(opRef(BB, Op),
            "packing skips or repeats instructions (expected index " +
                std::to_string(Expected) + ", got " + std::to_string(Op) +
                "); a packing must cover the block in program order");
        Structural = false;
      }
      Expected = Op + 1;
      CycleOf[Op] = W.Cycle;
      switch (MM.unitOf(BB.instrs()[Op])) {
      case UnitKind::Fxu:
        ++Fxu;
        break;
      case UnitKind::Bu:
        ++Bu;
        break;
      case UnitKind::None:
        break;
      }
    }
    if (Fxu > MM.FxuWidth)
      Add(BB.label() + " cycle " + std::to_string(W.Cycle),
          "dispatch group issues " + std::to_string(Fxu) +
              " FXU operations but " + MM.Name + " has FxuWidth " +
              std::to_string(MM.FxuWidth));
    if (Bu > MM.BuWidth)
      Add(BB.label() + " cycle " + std::to_string(W.Cycle),
          "dispatch group issues " + std::to_string(Bu) +
              " branch operations but " + MM.Name + " has BuWidth " +
              std::to_string(MM.BuWidth));
  }
  if (Expected != N) {
    Add(BB.label(), "packing covers " + std::to_string(Expected) + " of " +
                        std::to_string(N) + " instructions");
    Structural = false;
  }
  if (!Structural)
    return; // cycle map is unreliable; latency checking would be noise

  // Latency: no instruction may consume a result before its producer's
  // modelled latency has elapsed. Branches are exempt — the machine resolves
  // them from the bypass network (the scheduler models only the redirect
  // penalty), matching the issue engine's rules.
  std::vector<Reg> Uses, Defs;
  for (size_t Q = 0; Q != N; ++Q) {
    const Instr &Consumer = BB.instrs()[Q];
    if (Consumer.isBranch())
      continue;
    Uses.clear();
    Consumer.collectUses(Uses);
    for (Reg U : Uses) {
      // Latest producer of U before Q within the block.
      for (size_t P = Q; P-- > 0;) {
        Defs.clear();
        BB.instrs()[P].collectDefs(Defs);
        bool DefsU = false;
        for (Reg D : Defs)
          DefsU |= (D == U);
        if (!DefsU)
          continue;
        const Instr &Producer = BB.instrs()[P];
        unsigned Lat = MM.defLatency(Producer, U);
        uint64_t Ready = CycleOf[P] + Lat;
        if (CycleOf[Q] < Ready)
          Add(opRef(BB, Q),
              "consumes " + U.str() + " in cycle " +
                  std::to_string(CycleOf[Q]) + ", but its producer '" +
                  Producer.str() + "' (cycle " + std::to_string(CycleOf[P]) +
                  ", latency " + std::to_string(Lat) +
                  ") only delivers it in cycle " + std::to_string(Ready));
        break;
      }
    }
  }
}

void vsc::auditScheduleHazards(const Function &F, const MachineModel &MM,
                               AuditResult &R) {
  for (const auto &BB : F.blocks())
    auditPacking(F, *BB, packIntoVliwWords(*BB, MM), MM, R);
}
