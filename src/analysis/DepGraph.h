//===- analysis/DepGraph.h - Dependence graphs with distances --*- C++ -*-===//
///
/// \file
/// The one dependence-graph builder (DESIGN.md §12). The list scheduler
/// reads its distance-0 form of a block prefix; the min-II analysis and the
/// exact modulo scheduler read its loop form. Flow edges carry
/// MachineModel::defLatency, every other edge 0, and branches get none:
/// each edge is a constraint the issue engine (machine/IssueCore.h)
/// imposes.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_ANALYSIS_DEPGRAPH_H
#define VSC_ANALYSIS_DEPGRAPH_H

#include "analysis/MemAlias.h"
#include "machine/MachineModel.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace vsc {

/// Operation \p To of iteration k + Dist issues no earlier than Lat cycles
/// after operation \p From of iteration k.
struct DepEdge {
  uint32_t From = 0;
  uint32_t To = 0;
  uint32_t Lat = 0;  ///< cycles From's result needs (0 for pure ordering)
  uint32_t Dist = 0; ///< iteration distance (0 intra, 1 loop-carried)
};

struct DepGraph {
  uint32_t NumOps = 0;
  std::vector<DepEdge> Edges;
};

/// The register defs and uses of each instruction in a straight-line
/// prefix Ins[0..N), collected once, each register also numbered by a
/// dense slot (its rank among the prefix's distinct registers). Buffers
/// are kept across reset() calls, so a reused table allocates nothing once
/// it has seen its largest block.
class DefUseTable {
public:
  void reset(const std::vector<Instr> &Instrs, size_t N) {
    Ins = &Instrs;
    Regs.clear();
    Begin.clear();
    Begin.push_back(0);
    for (size_t I = 0; I != N; ++I) {
      Instrs[I].collectDefs(Regs);
      Begin.push_back(static_cast<uint32_t>(Regs.size()));
      Instrs[I].collectUses(Regs);
      Begin.push_back(static_cast<uint32_t>(Regs.size()));
    }
    Keys.resize(Regs.size());
    for (size_t K = 0; K != Regs.size(); ++K)
      Keys[K] = key(Regs[K]);
    std::sort(Keys.begin(), Keys.end());
    Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
    Slots.resize(Regs.size());
    for (size_t K = 0; K != Regs.size(); ++K)
      Slots[K] = slotOf(Regs[K]);
  }

  const Instr &instr(size_t I) const { return (*Ins)[I]; }
  std::span<const uint32_t> defSlots(size_t I) const { return slots(2 * I); }
  std::span<const uint32_t> useSlots(size_t I) const {
    return slots(2 * I + 1);
  }
  size_t numSlots() const { return Keys.size(); }
  /// Slot of a register the prefix defines or uses.
  uint32_t slotOf(Reg R) const {
    auto It = std::lower_bound(Keys.begin(), Keys.end(), key(R));
    assert(It != Keys.end() && *It == key(R) && "register not in prefix");
    return static_cast<uint32_t>(It - Keys.begin());
  }
  /// The register numbered \p Slot.
  Reg regOf(uint32_t Slot) const {
    return Reg(static_cast<RegClass>(Keys[Slot] >> 32),
               static_cast<uint32_t>(Keys[Slot]));
  }

private:
  static uint64_t key(Reg R) {
    return static_cast<uint64_t>(R.regClass()) << 32 | R.id();
  }
  std::span<const uint32_t> slots(size_t K) const {
    return {Slots.data() + Begin[K], Slots.data() + Begin[K + 1]};
  }

  const std::vector<Instr> *Ins = nullptr;
  std::vector<Reg> Regs;       ///< defs and uses, as collected
  std::vector<uint32_t> Slots; ///< the slot of each Regs entry
  std::vector<uint32_t> Begin; ///< defs of I: [2I, 2I+1), uses: [2I+1, 2I+2)
  std::vector<uint64_t> Keys;  ///< sorted distinct register keys
};

/// Instructions the memory and call ordering rule can relate.
inline bool touchesMemory(const Instr &I) {
  return I.isMemAccess() || I.isCall();
}

/// Scope of an alias query between prefix instructions \p Earlier <
/// \p Later when \p LastDef holds, per slot, the last position before
/// Later that defines it (-1 for none): SameExecution, unless both access
/// memory through one base register that an instruction between redefines.
inline AliasScope scopeBefore(const DefUseTable &T, size_t Earlier,
                              size_t Later,
                              const std::vector<int32_t> &LastDef) {
  const Instr &E = T.instr(Earlier), &L = T.instr(Later);
  return E.isMemAccess() && L.isMemAccess() && E.memBase() == L.memBase() &&
                 LastDef[T.slotOf(E.memBase())] > static_cast<int32_t>(Earlier)
             ? AliasScope::CrossExecution
             : AliasScope::SameExecution;
}

/// Builds dependence graphs into reused buffers: a builder allocates
/// nothing once it has seen its largest input.
class DepGraphBuilder {
public:
  /// Builds into \p G the distance-0 graph of Ins[0..N), plus, when
  /// \p LoopCarried, the distance-1 edges of a loop whose body it is.
  /// Alias queries go to \p AA when non-null, else to the syntactic tier:
  /// per memory or call instruction against each earlier one, then, for a
  /// loop, for each ordered pair.
  void build(const std::vector<Instr> &Ins, size_t N, const MachineModel &MM,
             const AliasAnalysis *AA, bool LoopCarried, DepGraph &G);

private:
  DefUseTable T;
  /// Per slot: the first and the last def so far, and the head of the
  /// list (through UseCells) of the uses since the last def and of the
  /// uses up to the first def.
  std::vector<int32_t> FirstDef, LastDef, FirstUse, UsesBeforeDef;
  std::vector<std::pair<uint32_t, int32_t>> UseCells; ///< (user, next)
  std::vector<uint32_t> MemOps;    ///< memory and call instructions
  std::vector<uint32_t> LatestOut; ///< per node: its latest out-edge
};

} // namespace vsc

#endif // VSC_ANALYSIS_DEPGRAPH_H
