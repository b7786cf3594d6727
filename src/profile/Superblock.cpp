//===- profile/Superblock.cpp - Trace/superblock formation --------------------===//

#include "profile/Superblock.h"

#include "cfg/CfgEdit.h"
#include "cfg/Dominators.h"
#include "cfg/Loops.h"

#include <algorithm>
#include <cassert>

using namespace vsc;

namespace {

/// A trace keeps extending while the followed edge has at least this
/// probability.
constexpr double MinEdgeProbability = 0.6;
/// Blocks per trace at most.
constexpr unsigned MaxTraceBlocks = 8;

/// Grows one trace from \p Seed along most-probable successors.
std::vector<BasicBlock *> growTrace(Function &F, const Cfg &G,
                                    const LoopInfo &LI, const ProfileData &P,
                                    BasicBlock *Seed,
                                    const SuperblockOptions &Opts,
                                    const std::unordered_set<const BasicBlock *>
                                        &Taken) {
  std::vector<BasicBlock *> Trace{Seed};
  std::unordered_set<const BasicBlock *> InTrace{Seed};
  BasicBlock *Cur = Seed;
  while (Trace.size() < MaxTraceBlocks) {
    const CfgEdge *Best = nullptr;
    double BestProb = 0;
    for (const CfgEdge &E : G.succs(Cur)) {
      double Prob = P.edgeProbability(F, E);
      if (!Best || Prob > BestProb) {
        Best = &E;
        BestProb = Prob;
      }
    }
    if (!Best || BestProb < MinEdgeProbability)
      break;
    BasicBlock *Next = Best->To;
    if (InTrace.count(Next) || Taken.count(Next) || Next == F.entry())
      break;
    if (P.block(F, Next) < Opts.HotThreshold)
      break;
    // Stay within one loop level and never duplicate loop headers (the
    // trace would otherwise clone loop-entry structure).
    if (LI.loopFor(Next) != LI.loopFor(Seed))
      break;
    if (LI.loopFor(Next) && LI.loopFor(Next)->Header == Next)
      break;
    Trace.push_back(Next);
    InTrace.insert(Next);
    Cur = Next;
  }
  return Trace;
}

/// Tail-duplicates \p BB for all predecessors except \p OnTracePred.
/// \returns the clone's size, or 0 when no duplication was needed.
size_t tailDuplicate(Function &F, BasicBlock *BB, BasicBlock *OnTracePred) {
  Cfg G(F);
  std::vector<BasicBlock *> OffTrace;
  for (BasicBlock *Q : G.preds(BB))
    if (Q != OnTracePred &&
        std::find(OffTrace.begin(), OffTrace.end(), Q) == OffTrace.end())
      OffTrace.push_back(Q);
  if (OffTrace.empty())
    return 0;

  // Clone at the end of the layout; make the fallthrough explicit first.
  BasicBlock *FallTarget = G.fallthroughOf(BB);
  BasicBlock *Clone = F.insertBlock(F.blocks().size(), BB->label() + ".sb");
  for (const Instr &I : BB->instrs()) {
    Instr C = I;
    F.assignId(C);
    Clone->instrs().push_back(std::move(C));
  }
  if (FallTarget) {
    Instr Br;
    Br.Op = Opcode::B;
    Br.Target = FallTarget->label();
    F.assignId(Br);
    Clone->instrs().push_back(std::move(Br));
  }

  // Redirect every off-trace predecessor to the clone.
  for (BasicBlock *Q : OffTrace) {
    bool Redirected = false;
    for (size_t II = Q->firstTerminatorIdx(); II != Q->size(); ++II) {
      Instr &I = Q->instrs()[II];
      if (I.isBranch() && I.Target == BB->label()) {
        I.Target = Clone->label();
        Redirected = true;
      }
    }
    // A fallthrough predecessor needs an explicit branch to the clone.
    if (!Redirected) {
      assert(Q->canFallThrough() && "predecessor without an edge?");
      Instr Br;
      Br.Op = Opcode::B;
      Br.Target = Clone->label();
      F.assignId(Br);
      Q->instrs().push_back(std::move(Br));
    }
  }
  return Clone->size();
}

} // namespace

unsigned vsc::formSuperblocks(Function &F, const ProfileData &P,
                              const SuperblockOptions &Opts) {
  Cfg G(F);
  Dominators Dom(G);
  LoopInfo LI(G, Dom);

  // Seeds: hottest blocks first, deterministic tie-break by layout.
  std::vector<BasicBlock *> Seeds;
  for (BasicBlock *BB : G.rpo())
    if (P.block(F, BB) >= Opts.HotThreshold)
      Seeds.push_back(BB);
  std::stable_sort(Seeds.begin(), Seeds.end(),
                   [&](BasicBlock *A, BasicBlock *B) {
                     return P.block(F, A) > P.block(F, B);
                   });

  std::unordered_set<const BasicBlock *> Taken;
  size_t Growth = 0;
  unsigned Duplicated = 0;
  for (BasicBlock *Seed : Seeds) {
    if (Taken.count(Seed))
      continue;
    std::vector<BasicBlock *> Trace =
        growTrace(F, G, LI, P, Seed, Opts, Taken);
    if (Trace.size() < 2)
      continue;
    for (BasicBlock *BB : Trace)
      Taken.insert(BB);
    // Duplicate front to back: each duplication retargets all current
    // off-trace predecessors, including clones made for earlier trace
    // blocks.
    for (size_t I = 1; I != Trace.size(); ++I) {
      if (Growth >= Opts.MaxGrowth)
        break;
      size_t Added = tailDuplicate(F, Trace[I], Trace[I - 1]);
      if (Added) {
        Growth += Added;
        ++Duplicated;
      }
    }
    // The CFG changed; later traces recompute predecessor structure
    // through tailDuplicate's fresh Cfg, and growTrace's stale G only
    // guides trace selection (safe: selection is heuristic).
  }
  return Duplicated;
}
