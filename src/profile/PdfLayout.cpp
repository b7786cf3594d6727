//===- profile/PdfLayout.cpp - PDF block reordering & reversal ---------------===//

#include "profile/PdfLayout.h"

#include "cfg/CfgEdit.h"
#include "vliw/BlockExpansion.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

using namespace vsc;

namespace {

/// Full structural snapshot (labels, instructions, layout order).
struct FunctionSnapshot {
  std::vector<std::pair<std::string, std::vector<Instr>>> Blocks;

  static FunctionSnapshot take(const Function &F) {
    FunctionSnapshot S;
    for (const auto &BB : F.blocks())
      S.Blocks.push_back({BB->label(), BB->instrs()});
    return S;
  }

  void restore(Function &F) const {
    F.blocks().clear();
    for (const auto &[Label, Instrs] : Blocks) {
      BasicBlock *BB = F.addBlock(Label);
      BB->instrs() = Instrs;
    }
  }
};

/// Cycle sum of \p Battery against a fresh predecode of \p M; false when
/// any run traps.
bool batteryCycles(const Module &M, const MachineModel &MM,
                   const std::vector<RunOptions> &Battery, unsigned Threads,
                   uint64_t &Cycles) {
  SimEngine Engine(M, MM);
  Cycles = 0;
  for (const RunResult &R : Engine.runBatch(Battery, Threads)) {
    if (R.Trapped)
      return false;
    Cycles += R.Cycles;
  }
  return true;
}

} // namespace

bool vsc::pdfLayoutMeasured(Module &M, const ProfileData &P,
                            const MachineModel &MM,
                            const std::vector<RunOptions> &TrainBattery,
                            unsigned Threads) {
  std::vector<FunctionSnapshot> Snaps;
  for (const auto &F : M.functions())
    Snaps.push_back(FunctionSnapshot::take(*F));

  uint64_t Before = 0;
  if (!TrainBattery.empty() &&
      !batteryCycles(M, MM, TrainBattery, Threads, Before))
    return false;
  for (auto &F : M.functions()) {
    pdfReorderBlocks(*F, P);
    pdfReverseBranches(*F, P, MM);
  }
  if (TrainBattery.empty())
    return true;
  uint64_t After = 0;
  if (batteryCycles(M, MM, TrainBattery, Threads, After) && After < Before)
    return true;
  for (size_t I = 0; I != Snaps.size(); ++I)
    Snaps[I].restore(*M.functions()[I]);
  return false;
}

bool vsc::pdfReorderBlocks(Function &F, const ProfileData &P) {
  Cfg G(F);
  // Depth-first enumeration, most probable successor first.
  std::vector<BasicBlock *> Order;
  std::unordered_set<const BasicBlock *> Visited;
  std::vector<BasicBlock *> Stack{F.entry()};
  // Recursive DFS expressed iteratively: "assign the next number to the
  // current node ... recursively visit the most probable successor first".
  std::function<void(BasicBlock *)> Visit = [&](BasicBlock *BB) {
    if (!Visited.insert(BB).second)
      return;
    Order.push_back(BB);
    std::vector<CfgEdge> Succs = G.succs(BB);
    std::stable_sort(Succs.begin(), Succs.end(),
                     [&](const CfgEdge &A, const CfgEdge &B) {
                       return P.edgeProbability(F, A) >
                              P.edgeProbability(F, B);
                     });
    for (const CfgEdge &E : Succs)
      Visit(E.To);
  };
  Visit(F.entry());

  // Already in this order?
  bool Same = Order.size() == F.blocks().size();
  for (size_t I = 0; Same && I != Order.size(); ++I)
    Same = F.blocks()[I].get() == Order[I];
  if (Same)
    return false;

  layoutBlocks(F, Order);
  straighten(F);
  return true;
}

bool vsc::pdfReverseBranches(Function &F, const ProfileData &P,
                             const MachineModel &MM, double Threshold) {
  bool Any = false;
  for (unsigned Guard = 0; Guard < 32; ++Guard) {
    Cfg G(F);
    bool Changed = false;
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *BB = BBPtr.get();
      if (!G.isReachable(BB) || BB->empty())
        continue;
      Instr &Last = BB->instrs().back();
      if (Last.Op != Opcode::BT && Last.Op != Opcode::BF)
        continue; // only a lone conditional suffix has a fallthrough
      BasicBlock *Fall = G.fallthroughOf(BB);
      if (!Fall)
        continue;
      // Taken probability.
      double Prob = 0.0;
      for (const CfgEdge &E : G.succs(BB))
        if (E.IsTaken && &E.branch() == &Last)
          Prob = P.edgeProbability(F, E);
      if (Prob <= Threshold)
        continue;
      // Reverse: [BT X] + fallthrough Y  =>  [BF Y, B X].
      std::string X = Last.Target;
      Last.Op = Last.Op == Opcode::BT ? Opcode::BF : Opcode::BT;
      Last.Target = Fall->label();
      Instr B;
      B.Op = Opcode::B;
      B.Target = X;
      F.assignId(B);
      BB->instrs().push_back(std::move(B));
      Changed = true;
      Any = true;
      break;
    }
    if (!Changed)
      break;
  }
  if (Any) {
    FunctionAnalyses FA(F);
    expandBasicBlocks(F, MM, FA);
  }
  return Any;
}
