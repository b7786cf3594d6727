//===- pm/Analysis.cpp - Cached per-function analyses ----------------------===//

#include "pm/Analysis.h"

#include <algorithm>
#include <sstream>

using namespace vsc;

const char *vsc::analysisKindName(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::Cfg:
    return "cfg";
  case AnalysisKind::Dominators:
    return "dominators";
  case AnalysisKind::PostDominators:
    return "postdominators";
  case AnalysisKind::Loops:
    return "loops";
  case AnalysisKind::Liveness:
    return "liveness";
  case AnalysisKind::Alias:
    return "alias";
  case AnalysisKind::MinII:
    return "minii";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// FunctionAnalyses
//===----------------------------------------------------------------------===//

void FunctionAnalyses::freshen() {
  if (Epoch == F.cfgEpoch())
    return;
  invalidateAll();
}

const Cfg &FunctionAnalyses::cfg() {
  freshen();
  count(AnalysisKind::Cfg, CfgA != nullptr);
  if (!CfgA)
    CfgA = std::make_unique<Cfg>(F);
  return *CfgA;
}

const Dominators &FunctionAnalyses::dominators() {
  freshen();
  count(AnalysisKind::Dominators, DomA != nullptr);
  if (!DomA)
    DomA = std::make_unique<Dominators>(cfg());
  return *DomA;
}

const Dominators &FunctionAnalyses::postDominators() {
  freshen();
  count(AnalysisKind::PostDominators, PostDomA != nullptr);
  if (!PostDomA)
    PostDomA = std::make_unique<Dominators>(cfg(), /*Post=*/true);
  return *PostDomA;
}

const LoopInfo &FunctionAnalyses::loops() {
  freshen();
  count(AnalysisKind::Loops, LoopsA != nullptr);
  if (!LoopsA) {
    const Cfg &G = cfg();
    LoopsA = std::make_unique<LoopInfo>(G, dominators());
  }
  return *LoopsA;
}

const RegUniverse &FunctionAnalyses::universe() {
  freshen();
  count(AnalysisKind::Liveness, UnivA != nullptr);
  if (!UnivA)
    UnivA = std::make_unique<RegUniverse>(F);
  return *UnivA;
}

const Liveness &FunctionAnalyses::liveness() {
  freshen();
  count(AnalysisKind::Liveness, LiveA != nullptr);
  if (!LiveA) {
    const Cfg &G = cfg();
    LiveA = std::make_unique<Liveness>(G, universe());
  }
  return *LiveA;
}

const AliasAnalysis &FunctionAnalyses::aliasAnalysis() {
  freshen();
  count(AnalysisKind::Alias, AliasA != nullptr);
  if (!AliasA) {
    // Cfg/LoopInfo are construction inputs only; the built analysis holds
    // no reference to them, so it caches independently.
    const Cfg &G = cfg();
    AliasA = std::make_unique<AliasAnalysis>(F, G, loops());
  }
  return *AliasA;
}

const MinIIAnalysis &FunctionAnalyses::minII(const MachineModel &MM,
                                             bool FlowAlias) {
  freshen();
  uint64_t Key = machineFingerprint(MM);
  bool Hit = MinIIA && MinIIA->machineKey() == Key &&
             MinIIA->flowAlias() == FlowAlias;
  count(AnalysisKind::MinII, Hit);
  if (!Hit) {
    const Cfg &G = cfg();
    const LoopInfo &LI = loops();
    const AliasAnalysis *AA = FlowAlias ? &aliasAnalysis() : nullptr;
    MinIIA = std::make_unique<MinIIAnalysis>(F, G, LI, AA, MM);
  }
  return *MinIIA;
}

void FunctionAnalyses::invalidate(const PreservedAnalyses &PA) {
  freshen();
  if (PA.preservesAll())
    return;

  // Dependency closure over the declared claim: Cfg feeds everything;
  // Dominators feed Loops; the RegUniverse/Liveness pair lives and dies
  // together (Liveness holds a reference into its universe).
  bool DropCfg = !PA.preserves(AnalysisKind::Cfg);
  bool DropDom = DropCfg || !PA.preserves(AnalysisKind::Dominators);
  bool DropPostDom = DropCfg || !PA.preserves(AnalysisKind::PostDominators);
  bool DropLoops = DropDom || !PA.preserves(AnalysisKind::Loops);
  bool DropLive = DropCfg || !PA.preserves(AnalysisKind::Liveness);
  // Alias tracks register contents through the loop structure: anything
  // that moves control flow, loops, or register values moves it too.
  bool DropAlias =
      DropCfg || DropLoops || DropLive || !PA.preserves(AnalysisKind::Alias);
  // MinII reads loop structure, register dependences and alias facts:
  // anything that moves any of those moves it too.
  bool DropMinII =
      DropLoops || DropAlias || !PA.preserves(AnalysisKind::MinII);

  // Destruction order: dependents first (Liveness references the
  // universe; LoopInfo holds Cfg edges).
  if (DropMinII)
    MinIIA.reset();
  if (DropAlias)
    AliasA.reset();
  if (DropLive) {
    LiveA.reset();
    UnivA.reset();
  }
  if (DropLoops)
    LoopsA.reset();
  if (DropPostDom)
    PostDomA.reset();
  if (DropDom)
    DomA.reset();
  if (DropCfg)
    CfgA.reset();
}

bool FunctionAnalyses::noteHoist(const BasicBlock *Source) {
  freshen();
  bool LiveInMoved = true;
  if (LiveA)
    LiveInMoved = LiveA->updateAfterHoist(*CfgA, Source);
  invalidate(
      PreservedAnalyses::structure().preserve(AnalysisKind::Liveness));
  return LiveInMoved;
}

void FunctionAnalyses::invalidateAll() {
  MinIIA.reset();
  AliasA.reset();
  LiveA.reset();
  UnivA.reset();
  LoopsA.reset();
  PostDomA.reset();
  DomA.reset();
  CfgA.reset();
  Epoch = F.cfgEpoch();
}

bool FunctionAnalyses::hasCached(AnalysisKind K) const {
  if (Epoch != F.cfgEpoch())
    return false;
  switch (K) {
  case AnalysisKind::Cfg:
    return CfgA != nullptr;
  case AnalysisKind::Dominators:
    return DomA != nullptr;
  case AnalysisKind::PostDominators:
    return PostDomA != nullptr;
  case AnalysisKind::Loops:
    return LoopsA != nullptr;
  case AnalysisKind::Liveness:
    return UnivA != nullptr && LiveA != nullptr;
  case AnalysisKind::Alias:
    return AliasA != nullptr;
  case AnalysisKind::MinII:
    return MinIIA != nullptr;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Debug recompute-and-compare
//===----------------------------------------------------------------------===//

namespace {

std::string summarizeCfg(const Function &F, const Cfg &G) {
  std::ostringstream OS;
  for (const auto &BBPtr : F.blocks()) {
    const BasicBlock *BB = BBPtr.get();
    OS << BB->label() << "[" << G.rpoIndex(BB) << "]:";
    for (const CfgEdge &E : G.succs(BB))
      OS << " " << E.To->label() << (E.IsTaken ? "/t" : "/f") << "@"
         << E.TermPos;
    OS << ";";
  }
  return OS.str();
}

std::string summarizeDom(const Function &F, const Dominators &D) {
  std::ostringstream OS;
  for (const auto &BBPtr : F.blocks()) {
    const BasicBlock *Idom = D.idom(BBPtr.get());
    OS << BBPtr->label() << "<-" << (Idom ? Idom->label() : "-") << ";";
  }
  return OS.str();
}

std::string summarizeLoops(const LoopInfo &LI) {
  std::ostringstream OS;
  for (const auto &LPtr : LI.loops()) {
    const Loop &L = *LPtr;
    OS << L.Header->label() << "(d" << L.Depth << ",p"
       << (L.Parent ? L.Parent->Header->label() : "-") << "){";
    for (const BasicBlock *BB : L.Blocks)
      OS << BB->label() << " ";
    OS << "|latch:";
    for (const BasicBlock *BB : L.Latches)
      OS << BB->label() << " ";
    OS << "|exit:";
    for (const CfgEdge &E : L.Exits)
      OS << E.From->label() << ">" << E.To->label()
         << (E.IsTaken ? "/t" : "/f") << "@" << E.TermPos << " ";
    OS << "};";
  }
  return OS.str();
}

std::string summarizeLiveness(const Function &F, const RegUniverse &U,
                              const Liveness &L) {
  // RegUniverse enumerates registers in instruction order, so two
  // universes over semantically identical code can index the same set
  // differently (e.g. after a legal within-block reorder). Sort the
  // names so the summary compares sets, not enumerations.
  auto Names = [&U](const BitVector &S) {
    std::vector<std::string> Rs;
    for (size_t I = 0, E = U.size(); I != E; ++I)
      if (S.test(I))
        Rs.push_back(U.regAt(I).str());
    std::sort(Rs.begin(), Rs.end());
    std::string Out;
    for (const std::string &R : Rs)
      Out += R + " ";
    return Out;
  };
  std::ostringstream OS;
  for (const auto &BBPtr : F.blocks()) {
    const BasicBlock *BB = BBPtr.get();
    OS << BB->label() << " in:" << Names(L.liveIn(BB))
       << "out:" << Names(L.liveOut(BB)) << ";";
  }
  return OS.str();
}

} // namespace

std::string FunctionAnalyses::verifyCache() {
  if (!CheckFailure.empty())
    return CheckFailure;
  // An epoch mismatch means the cache is already logically empty — the
  // next getter recomputes — so only epoch-fresh entries can lie.
  freshen();

  if (CfgA) {
    Cfg Fresh(F);
    if (summarizeCfg(F, *CfgA) != summarizeCfg(F, Fresh))
      return "stale Cfg for @" + F.name() +
             ": a pass mutated control flow but claimed to preserve Cfg";
    if (DomA && summarizeDom(F, *DomA) !=
                    summarizeDom(F, Dominators(Fresh, /*Post=*/false)))
      return "stale Dominators for @" + F.name() +
             ": a pass mutated control flow but claimed to preserve "
             "Dominators";
    if (PostDomA && summarizeDom(F, *PostDomA) !=
                        summarizeDom(F, Dominators(Fresh, /*Post=*/true)))
      return "stale PostDominators for @" + F.name() +
             ": a pass mutated control flow but claimed to preserve "
             "PostDominators";
    if (LoopsA) {
      Dominators FreshDom(Fresh, /*Post=*/false);
      if (summarizeLoops(*LoopsA) != summarizeLoops(LoopInfo(Fresh, FreshDom)))
        return "stale Loops for @" + F.name() +
               ": a pass mutated control flow but claimed to preserve Loops";
    }
    if (UnivA && LiveA) {
      RegUniverse FreshU(F);
      if (summarizeLiveness(F, *UnivA, *LiveA) !=
          summarizeLiveness(F, FreshU, Liveness(Fresh, FreshU)))
        return "stale Liveness for @" + F.name() +
               ": a pass changed register contents or control flow but "
               "claimed to preserve Liveness";
    }
  }
  // The alias analysis builds its own views, so it is checkable even when
  // Cfg itself was never cached.
  if (AliasA && AliasA->summarize() != AliasAnalysis(F).summarize())
    return "stale AliasAnalysis for @" + F.name() +
           ": a pass changed base-register contents or control flow but "
           "claimed to preserve Alias";
  if (MinIIA) {
    Cfg Fresh(F);
    Dominators FreshDom(Fresh, /*Post=*/false);
    LoopInfo FreshLI(Fresh, FreshDom);
    std::unique_ptr<AliasAnalysis> FreshAA;
    if (MinIIA->flowAlias())
      FreshAA = std::make_unique<AliasAnalysis>(F, Fresh, FreshLI);
    MinIIAnalysis FreshMin(F, Fresh, FreshLI, FreshAA.get(),
                           MinIIA->machine());
    if (MinIIA->summarize() != FreshMin.summarize())
      return "stale MinII for @" + F.name() +
             ": a pass changed loops, dependences or alias facts but "
             "claimed to preserve MinII";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// FunctionAnalysisManager
//===----------------------------------------------------------------------===//

FunctionAnalyses &FunctionAnalysisManager::on(Function &F) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Entries[&F];
  if (!Slot)
    Slot = std::make_unique<FunctionAnalyses>(F);
  return *Slot;
}

void FunctionAnalysisManager::invalidateAll() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &KV : Entries)
    KV.second->invalidateAll();
}

void FunctionAnalysisManager::refresh() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto It = Entries.begin(); It != Entries.end();) {
    bool Alive = false;
    for (const auto &F : M.functions())
      if (F.get() == It->first) {
        Alive = true;
        break;
      }
    It = Alive ? std::next(It) : Entries.erase(It);
  }
}

FunctionAnalyses::Stats FunctionAnalysisManager::totalStats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  FunctionAnalyses::Stats Total;
  for (const auto &KV : Entries) {
    const FunctionAnalyses::Stats &S = KV.second->stats();
    Total.Hits += S.Hits;
    Total.Misses += S.Misses;
    for (unsigned K = 0; K != NumAnalysisKinds; ++K)
      Total.MissesByKind[K] += S.MissesByKind[K];
  }
  return Total;
}
