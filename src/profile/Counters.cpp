//===- profile/Counters.cpp - Low-overhead profiling --------------------------===//

#include "profile/Counters.h"

#include "audit/PassAudit.h" // cloneModule
#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"
#include "opt/Classical.h"
#include "vliw/LimitedCombine.h"
#include "vliw/LoadStoreMotion.h"
#include "vliw/Pipeline.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace vsc;

namespace {

const char *CounterTable = "__bbcounts";

/// Flow-conservation network: function blocks plus a virtual EXIT node;
/// edges are CFG edges plus block->EXIT for returning blocks and
/// EXIT->entry closing the circulation (so the entry count is constrained
/// by the returns).
struct FlowGraph {
  std::vector<BasicBlock *> Nodes; // index == node id; EXIT last (null)
  struct FEdge {
    int From, To;
    const BasicBlock *SrcFrom = nullptr; ///< CFG source (null for virtual)
    const BasicBlock *SrcTo = nullptr;
  };
  std::vector<FEdge> Edges;
  std::vector<std::vector<int>> In, Out;

  int exitNode() const { return static_cast<int>(Nodes.size()) - 1; }

  explicit FlowGraph(Function &F, const Cfg &G) {
    std::unordered_map<const BasicBlock *, int> Id;
    for (auto &BB : F.blocks()) {
      Id[BB.get()] = static_cast<int>(Nodes.size());
      Nodes.push_back(BB.get());
    }
    Nodes.push_back(nullptr); // EXIT
    In.assign(Nodes.size(), {});
    Out.assign(Nodes.size(), {});
    auto AddEdge = [&](int From, int To, const BasicBlock *SF,
                       const BasicBlock *ST) {
      int E = static_cast<int>(Edges.size());
      Edges.push_back(FEdge{From, To, SF, ST});
      Out[From].push_back(E);
      In[To].push_back(E);
    };
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *BB = BBPtr.get();
      if (!G.isReachable(BB))
        continue;
      const auto &Succs = G.succs(BB);
      if (Succs.empty()) {
        AddEdge(Id[BB], exitNode(), BB, nullptr);
        continue;
      }
      for (const CfgEdge &E : Succs)
        AddEdge(Id[BB], Id[E.To], BB, E.To);
    }
    AddEdge(exitNode(), Id[F.entry()], nullptr, F.entry());
  }
};

/// Generic propagation over the network. \p NodeVal / \p EdgeVal hold
/// std::optional<uint64_t>; knownness-only propagation uses value 1.
/// \returns false on an inconsistency.
bool propagate(const FlowGraph &FG,
               std::vector<std::optional<uint64_t>> &NodeVal,
               std::vector<std::optional<uint64_t>> &EdgeVal) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t N = 0; N != FG.Nodes.size(); ++N) {
      for (int Dir = 0; Dir != 2; ++Dir) {
        const std::vector<int> &Side = Dir ? FG.Out[N] : FG.In[N];
        if (Side.empty())
          continue;
        uint64_t Sum = 0;
        int UnknownIdx = -1;
        unsigned NumUnknown = 0;
        for (int E : Side) {
          if (EdgeVal[E]) {
            Sum += *EdgeVal[E];
          } else {
            ++NumUnknown;
            UnknownIdx = E;
          }
        }
        if (NumUnknown == 0) {
          if (!NodeVal[N]) {
            NodeVal[N] = Sum;
            Changed = true;
          } else if (*NodeVal[N] != Sum) {
            return false;
          }
        } else if (NumUnknown == 1 && NodeVal[N]) {
          if (*NodeVal[N] < Sum)
            return false;
          EdgeVal[UnknownIdx] = *NodeVal[N] - Sum;
          Changed = true;
        }
      }
    }
  }
  return true;
}

/// Knownness propagation: seeds the chosen blocks, \returns true when every
/// node and edge becomes determined.
bool fullyDetermined(const FlowGraph &FG,
                     const std::vector<bool> &ChosenNode,
                     std::vector<bool> *NodeKnownOut = nullptr) {
  std::vector<std::optional<uint64_t>> NodeVal(FG.Nodes.size());
  std::vector<std::optional<uint64_t>> EdgeVal(FG.Edges.size());
  for (size_t N = 0; N != FG.Nodes.size(); ++N)
    if (ChosenNode[N])
      NodeVal[N] = 1; // knownness only; values are irrelevant but must be
                      // flow-consistent, so run the unknown-counting rules
                      // manually below instead of numeric subtraction.
  // Boolean variant of propagate(): a value present means "known".
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t N = 0; N != FG.Nodes.size(); ++N) {
      for (int Dir = 0; Dir != 2; ++Dir) {
        const std::vector<int> &Side = Dir ? FG.Out[N] : FG.In[N];
        if (Side.empty())
          continue;
        unsigned NumUnknown = 0;
        int UnknownIdx = -1;
        for (int E : Side)
          if (!EdgeVal[E]) {
            ++NumUnknown;
            UnknownIdx = E;
          }
        if (NumUnknown == 0 && !NodeVal[N]) {
          NodeVal[N] = 1;
          Changed = true;
        } else if (NumUnknown == 1 && NodeVal[N]) {
          EdgeVal[UnknownIdx] = 1;
          Changed = true;
        }
      }
    }
  }
  if (NodeKnownOut) {
    NodeKnownOut->assign(FG.Nodes.size(), false);
    for (size_t N = 0; N != FG.Nodes.size(); ++N)
      (*NodeKnownOut)[N] = NodeVal[N].has_value();
  }
  for (const auto &V : NodeVal)
    if (!V)
      return false;
  for (const auto &V : EdgeVal)
    if (!V)
      return false;
  return true;
}

/// Splits parallel edges (two CFG edges between the same block pair), which
/// no block-count subset can disambiguate.
unsigned splitParallelEdges(Function &F) {
  unsigned Dummies = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Cfg G(F);
    for (auto &BBPtr : F.blocks()) {
      BasicBlock *BB = BBPtr.get();
      const auto &Succs = G.succs(BB);
      for (size_t I = 0; I + 1 < Succs.size() && !Changed; ++I)
        for (size_t J = I + 1; J < Succs.size(); ++J)
          if (Succs[I].To == Succs[J].To) {
            const CfgEdge &Victim =
                Succs[I].IsTaken ? Succs[I] : Succs[J];
            splitEdge(F, Victim);
            ++Dummies;
            Changed = true;
            break;
          }
      if (Changed)
        break;
    }
  }
  return Dummies;
}

} // namespace

CounterPlan vsc::planCounters(Function &F) {
  CounterPlan Plan;
  Plan.NumDummies = splitParallelEdges(F);

  for (unsigned Round = 0; Round < 32; ++Round) {
    Cfg G(F);
    Dominators Dom(G);
    LoopInfo LI(G, Dom);
    FlowGraph FG(F, G);

    // Candidate order: shallow loop depth first (cheap counters), then
    // layout order — deterministic.
    std::vector<int> Order;
    for (size_t N = 0; N + 1 < FG.Nodes.size(); ++N)
      if (G.isReachable(FG.Nodes[N]))
        Order.push_back(static_cast<int>(N));
    std::stable_sort(Order.begin(), Order.end(), [&](int A, int B) {
      Loop *LA = LI.loopFor(FG.Nodes[A]);
      Loop *LB = LI.loopFor(FG.Nodes[B]);
      unsigned DA = LA ? LA->Depth : 0;
      unsigned DB = LB ? LB->Depth : 0;
      return DA < DB;
    });

    std::vector<bool> Chosen(FG.Nodes.size(), false);
    bool Done = false;
    for (unsigned Picks = 0; Picks <= Order.size(); ++Picks) {
      std::vector<bool> Known;
      if (fullyDetermined(FG, Chosen, &Known)) {
        Done = true;
        break;
      }
      // Pick the first not-yet-determined candidate.
      int Pick = -1;
      for (int N : Order)
        if (!Chosen[N] && !Known[N]) {
          Pick = N;
          break;
        }
      if (Pick < 0)
        break; // all blocks known, but some edge is not: need a dummy
      Chosen[Pick] = true;
    }
    if (Done) {
      for (size_t N = 0; N + 1 < FG.Nodes.size(); ++N)
        if (Chosen[N])
          Plan.CountedBlocks.push_back(FG.Nodes[N]->label());
      return Plan;
    }
    // Some edge is undeterminable from block counts alone: create a dummy
    // block on a crossing edge (multi-successor source into multi-
    // predecessor target) and retry.
    bool Split = false;
    for (size_t EI = 0; EI != FG.Edges.size() && !Split; ++EI) {
      const FlowGraph::FEdge &E = FG.Edges[EI];
      if (!E.SrcFrom || !E.SrcTo)
        continue;
      // Re-find the CFG edge and split it. Prefer edges between blocks
      // with multiple successors and predecessors (the undeterminable
      // crossing pattern).
      if (G.succs(E.SrcFrom).size() < 2 || G.preds(E.SrcTo).size() < 2)
        continue;
      for (const CfgEdge &CE : G.succs(E.SrcFrom))
        if (CE.To == E.SrcTo) {
          splitEdge(F, CE);
          ++Plan.NumDummies;
          Split = true;
          break;
        }
    }
    if (!Split)
      break; // cannot make progress; fall through to "count everything"
  }

  // Fallback: count every block (never expected, but total).
  Plan.CountedBlocks.clear();
  for (auto &BB : F.blocks())
    Plan.CountedBlocks.push_back(BB->label());
  return Plan;
}

Instrumentation vsc::instrumentModule(Module &M, bool HoistCounters) {
  Instrumentation Info;
  // Plan first (mutates CFGs deterministically).
  for (auto &F : M.functions())
    Info.Plans[F->name()] = planCounters(*F);

  // Count total slots and create the table.
  size_t Slots = 0;
  for (auto &F : M.functions())
    Slots += Info.Plans[F->name()].CountedBlocks.size();
  M.addGlobal(CounterTable, 8 * std::max<size_t>(Slots, 1));
  Info.TableBase = computeGlobalLayout(M).at(CounterTable);

  size_t Slot = 0;
  for (auto &F : M.functions()) {
    const CounterPlan &Plan = Info.Plans[F->name()];
    if (Plan.CountedBlocks.empty())
      continue;
    // One table register per function, initialized on entry — the paper's
    // "r31 = initialized to address of global basic block counts table".
    Reg Tab = F->freshGpr();
    {
      Instr I;
      I.Op = Opcode::LTOC;
      I.Dst = Tab;
      I.Sym = CounterTable;
      F->assignId(I);
      F->entry()->instrs().insert(F->entry()->instrs().begin(),
                                  std::move(I));
    }
    for (const std::string &Label : Plan.CountedBlocks) {
      BasicBlock *BB = F->findBlock(Label);
      assert(BB && "planned block vanished");
      Reg Val = F->freshGpr();
      int64_t Disp = static_cast<int64_t>(8 * Slot);
      std::vector<Instr> Code;
      {
        Instr I;
        I.Op = Opcode::L;
        I.Dst = Val;
        I.Src1 = Tab;
        I.Imm = Disp;
        I.MemSize = 8;
        I.Sym = CounterTable;
        Code.push_back(I);
      }
      {
        Instr I;
        I.Op = Opcode::AI;
        I.Dst = Val;
        I.Src1 = Val;
        I.Imm = 1;
        Code.push_back(I);
      }
      {
        Instr I;
        I.Op = Opcode::ST;
        I.Src1 = Val;
        I.Src2 = Tab;
        I.Imm = Disp;
        I.MemSize = 8;
        I.Sym = CounterTable;
        Code.push_back(I);
      }
      // The entry block keeps the table load first.
      size_t Base = (BB == F->entry()) ? 1 : 0;
      for (size_t K = 0; K != Code.size(); ++K) {
        F->assignId(Code[K]);
        BB->instrs().insert(
            BB->instrs().begin() + static_cast<long>(Base + K), Code[K]);
      }
      Info.SlotKeys.push_back(blockCountKey(F->name(), Label));
      ++Slot;
    }
  }

  if (HoistCounters) {
    // The paper's optimization: counter cells are loop-invariant locations,
    // so speculative load/store motion register-caches them, leaving one
    // AI per counted block inside loops.
    FunctionAnalysisManager FAM(M);
    for (auto &F : M.functions())
      speculativeLoadStoreMotion(*F, M, FAM.on(*F));
    for (auto &F : M.functions()) {
      FunctionAnalyses &FA = FAM.on(*F);
      // Both rewrite non-terminators only.
      if (copyPropagate(*F))
        FA.invalidate(PreservedAnalyses::structure());
      if (localValueNumbering(*F))
        FA.invalidate(PreservedAnalyses::structure());
      deadCodeElim(*F, FA);
      classicalLicm(*F, FA);
      // Coalesce the register-cached "AI rV = rC, 1; LR rC = rV" pairs to
      // the paper's single in-loop instruction per counted block.
      limitedCombine(*F, FA);
      deadCodeElim(*F, FA);
    }
  }
  return Info;
}

std::unordered_map<std::string, uint64_t>
vsc::readCounters(const RunResult &R, const Instrumentation &Info) {
  std::unordered_map<std::string, uint64_t> Out;
  for (size_t Slot = 0; Slot != Info.SlotKeys.size(); ++Slot)
    Out[Info.SlotKeys[Slot]] = static_cast<uint64_t>(
        readMemoryWord(R, Info.TableBase + 8 * Slot, 8));
  return Out;
}

std::string vsc::inferCounts(
    Function &F, const std::unordered_map<std::string, uint64_t> &Counted,
    ProfileData &Out) {
  Cfg G(F);
  FlowGraph FG(F, G);
  std::vector<std::optional<uint64_t>> NodeVal(FG.Nodes.size());
  std::vector<std::optional<uint64_t>> EdgeVal(FG.Edges.size());
  for (size_t N = 0; N + 1 < FG.Nodes.size(); ++N) {
    auto It = Counted.find(blockCountKey(F.name(), FG.Nodes[N]->label()));
    if (It != Counted.end())
      NodeVal[N] = It->second;
  }
  // Unreachable blocks execute zero times.
  for (size_t N = 0; N + 1 < FG.Nodes.size(); ++N)
    if (!G.isReachable(FG.Nodes[N]))
      NodeVal[N] = 0;

  if (!propagate(FG, NodeVal, EdgeVal))
    return F.name() + ": inconsistent counter values";
  for (size_t N = 0; N + 1 < FG.Nodes.size(); ++N) {
    if (!NodeVal[N])
      return F.name() + ": block '" + FG.Nodes[N]->label() +
             "' undetermined";
    Out.BlockCount[blockCountKey(F.name(), FG.Nodes[N]->label())] =
        *NodeVal[N];
  }
  for (size_t E = 0; E != FG.Edges.size(); ++E) {
    const FlowGraph::FEdge &FE = FG.Edges[E];
    if (!FE.SrcFrom || !FE.SrcTo)
      continue;
    if (!EdgeVal[E])
      return F.name() + ": edge '" + FE.SrcFrom->label() + "->" +
             FE.SrcTo->label() + "' undetermined";
    Out.EdgeCount[edgeCountKey(F.name(), FE.SrcFrom->label(),
                               FE.SrcTo->label())] = *EdgeVal[E];
  }
  return "";
}

std::unique_ptr<Module> vsc::prepareForTraining(const Module &Source) {
  auto Prepared = cloneModule(Source);
  optimize(*Prepared, OptLevel::None);
  return Prepared;
}

ProfileCollector::ProfileCollector(const Module &Source,
                                   const MachineModel &Machine)
    : Instrumented(prepareForTraining(Source)),
      Info(instrumentModule(*Instrumented)),
      Engine(*Instrumented, Machine) {}

std::unordered_map<std::string, uint64_t>
ProfileCollector::counts(const std::vector<RunOptions> &Battery,
                         unsigned Threads) {
  std::vector<RunOptions> Batch = Battery;
  for (RunOptions &O : Batch)
    O.KeepMemory = true;
  std::vector<RunResult> Runs = Engine.runBatch(Batch, Threads);
  // Summed in battery order — identical at every thread count.
  std::unordered_map<std::string, uint64_t> Sum;
  for (const RunResult &R : Runs)
    for (const auto &[Key, Val] : readCounters(R, Info))
      Sum[Key] += Val;
  return Sum;
}

std::string ProfileCollector::expand(
    Module &Target,
    const std::unordered_map<std::string, uint64_t> &Counted,
    ProfileData &Out) {
  std::string FirstErr;
  for (auto &F : Target.functions()) {
    planCounters(*F); // identical flow-graph surgery as pass 1
    std::string Err = inferCounts(*F, Counted, Out);
    if (!Err.empty() && FirstErr.empty())
      FirstErr = Err;
  }
  return FirstErr;
}
