//===- sim/SimCore.h - Shared simulator register state --------*- C++ -*-===//
///
/// \file
/// Register-file state shared by the three execution engines: the legacy
/// walking interpreter in Simulator.cpp, the predecoded fast path in
/// FastSim.cpp and the oracle's reference interpreter in
/// oracle/Interp.cpp. The state and its growth rules live in one place;
/// the value semantics the fast path and the oracle interpreter execute
/// over it are in sim/ValueCore.h (the legacy engine keeps its own copy as
/// the independent reference). The register file splits into a value half,
/// which every engine carries, and a ready-time half for the timing model,
/// which only the two simulators carry. Internal header: not part of the
/// sim/ public API.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_SIM_SIMCORE_H
#define VSC_SIM_SIMCORE_H

#include "ir/Opcode.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vsc {
namespace simcore {

struct CrVal {
  bool Lt = false, Gt = false, Eq = false;

  bool bit(CrBit B) const {
    switch (B) {
    case CrBit::Lt:
      return Lt;
    case CrBit::Gt:
      return Gt;
    case CrBit::Eq:
      return Eq;
    }
    return false;
  }
  std::string str() const {
    return std::string(Lt ? "lt" : "") + (Gt ? "gt" : "") + (Eq ? "eq" : "");
  }
};

/// Virtual registers are function-private: a call moves the caller's set
/// into its frame, leaving the callee an empty one, and the matching
/// return moves it back (see sim/Simulator.h).
template <typename GprT, typename CrT> struct VirtRegs {
  std::vector<GprT> Gpr;
  std::vector<CrT> Cr;
};

/// Architectural register values.
struct RegValues {
  int64_t Phys[32] = {0};
  CrVal PhysCr[8];
  int64_t Ctr = 0;
  VirtRegs<int64_t, CrVal> Virt;

  int64_t &gpr(uint32_t Id) {
    if (Id < 32)
      return Phys[Id];
    size_t V = Id - 32;
    if (V >= Virt.Gpr.size())
      Virt.Gpr.resize(V + 1, 0);
    return Virt.Gpr[V];
  }
  CrVal &cr(uint32_t Id) {
    if (Id < 8)
      return PhysCr[Id];
    size_t V = Id - 8;
    if (V >= Virt.Cr.size())
      Virt.Cr.resize(V + 1);
    return Virt.Cr[V];
  }
};

/// Per-register ready times for the timing model, indexed like RegValues.
struct RegReady {
  uint64_t PhysReady[32] = {0};
  uint64_t PhysCrReady[8] = {0};
  uint64_t CtrReady = 0;
  VirtRegs<uint64_t, uint64_t> VirtReady;

  uint64_t &gprReady(uint32_t Id) {
    if (Id < 32)
      return PhysReady[Id];
    size_t V = Id - 32;
    if (V >= VirtReady.Gpr.size())
      VirtReady.Gpr.resize(V + 1, 0);
    return VirtReady.Gpr[V];
  }
  uint64_t &crReady(uint32_t Id) {
    if (Id < 8)
      return PhysCrReady[Id];
    size_t V = Id - 8;
    if (V >= VirtReady.Cr.size())
      VirtReady.Cr.resize(V + 1, 0);
    return VirtReady.Cr[V];
  }
};

/// A simulator's register file: values plus ready times.
struct RegFile : RegValues, RegReady {};

} // namespace simcore
} // namespace vsc

#endif // VSC_SIM_SIMCORE_H
