//===- tests/test_dep_graph.cpp - The one dependence-graph builder --------===//
///
/// analysis/DepGraph.h builds its edges from def/use chains; the relation
/// it stands for is pairwise. This file keeps a small all-pairs reference
/// of that relation: every ordered pair of non-branch instructions is
/// ordered when they share a register one of them defines, or when
/// memoryOrdered says so (at the same-base scope within an iteration, at
/// CrossExecution across the back edge). A flow edge, with the producer's
/// latency, runs only from the def that reaches the use. The chain graph
/// must agree with it on everything its consumers read:
///
///  * the longest latency path between every pair of instructions at
///    distance 0 — the list scheduler's ready sets and heights, and the
///    exact scheduler's priorities (DESIGN.md §12);
///  * recMII of the loop form — the min-II bound (DESIGN.md §16).
///
/// Inputs: seeded random blocks (RandomBlockGen, the timing differential's
/// generator) on every machine, and every innermost chain body of
/// RandomProgram seeds 1-50, as compiled and at Classical and Vliw, under
/// both alias tiers.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/DepGraph.h"
#include "analysis/ValueTrack.h"
#include "cfg/Dominators.h"
#include "frontend/Frontend.h"
#include "pipelining/MinII.h"
#include "vliw/Pipeline.h"
#include "vliw/Rename.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace vsc;

namespace {

/// The all-pairs reference of \p Body (see the file comment).
DepGraph referenceGraph(const std::vector<Instr> &Body,
                        const MachineModel &MM, const AliasAnalysis *AA) {
  uint32_t N = static_cast<uint32_t>(Body.size());
  std::vector<std::vector<Reg>> Defs(N), Uses(N);
  for (uint32_t I = 0; I != N; ++I) {
    Body[I].collectDefs(Defs[I]);
    Body[I].collectUses(Uses[I]);
  }
  auto Has = [](const std::vector<Reg> &V, Reg R) {
    return std::find(V.begin(), V.end(), R) != V.end();
  };
  auto Shares = [&](const std::vector<Reg> &A, const std::vector<Reg> &B) {
    return std::any_of(A.begin(), A.end(), [&](Reg R) { return Has(B, R); });
  };
  /// Some instruction of Body[From..To) defines R.
  auto DefinedIn = [&](Reg R, uint32_t From, uint32_t To) {
    for (uint32_t K = From; K < To; ++K)
      if (!Body[K].isBranch() && Has(Defs[K], R))
        return true;
    return false;
  };

  DepGraph G;
  G.NumOps = N;
  for (uint32_t Dist : {0u, 1u})
    for (uint32_t I = 0; I != N; ++I)
      for (uint32_t J = Dist == 0 ? I + 1 : 0; J < N; ++J) {
        if (Body[I].isBranch() || Body[J].isBranch())
          continue;
        uint32_t Lat = 0;
        bool Flow = false;
        for (Reg R : Defs[I]) {
          if (!Has(Uses[J], R))
            continue;
          bool Reaches = Dist == 0 ? !DefinedIn(R, I + 1, J)
                                   : !DefinedIn(R, I + 1, N) &&
                                         !DefinedIn(R, 0, J);
          if (Reaches) {
            Flow = true;
            Lat = std::max(Lat, MM.defLatency(Body[I], R));
          }
        }
        // Within an iteration, displacements off one base compare only if
        // nothing between the pair redefines it.
        bool SameBase = Body[I].isMemAccess() && Body[J].isMemAccess() &&
                        Body[I].memBase() == Body[J].memBase();
        AliasScope Scope =
            Dist == 1 || (SameBase && DefinedIn(Body[I].memBase(), I + 1, J))
                ? AliasScope::CrossExecution
                : AliasScope::SameExecution;
        if (Flow || Shares(Defs[I], Uses[J]) || Shares(Uses[I], Defs[J]) ||
            Shares(Defs[I], Defs[J]) ||
            memoryOrdered(Body[I], Body[J], Scope, AA))
          G.Edges.push_back({I, J, Lat, Dist});
      }
  return G;
}

/// Longest[S][T]: the largest latency sum over distance-0 paths from S to
/// T, or -1 when there is none. Distance-0 edges run forward.
std::vector<std::vector<long>> longestPaths(const DepGraph &G) {
  std::vector<std::vector<const DepEdge *>> Out(G.NumOps);
  for (const DepEdge &E : G.Edges)
    if (E.Dist == 0) {
      EXPECT_LT(E.From, E.To);
      Out[E.From].push_back(&E);
    }
  std::vector<std::vector<long>> Longest(G.NumOps);
  for (uint32_t S = 0; S != G.NumOps; ++S) {
    std::vector<long> &L = Longest[S];
    L.assign(G.NumOps, -1);
    L[S] = 0;
    for (uint32_t V = S; V != G.NumOps; ++V)
      if (L[V] >= 0)
        for (const DepEdge *E : Out[V])
          L[E->To] = std::max(L[E->To], L[V] + static_cast<long>(E->Lat));
  }
  return Longest;
}

/// Compares the chain graphs of \p Body, at distance 0 and in loop form,
/// with the reference.
void expectMatchesReference(const std::vector<Instr> &Body,
                            const MachineModel &MM, const AliasAnalysis *AA,
                            const std::string &Context) {
  SCOPED_TRACE(Context + " on " + MM.Name + (AA ? ", flow tier" : ""));
  DepGraph Ref = referenceGraph(Body, MM, AA);
  DepGraph Block;
  DepGraphBuilder().build(Body, Body.size(), MM, AA, /*LoopCarried=*/false,
                          Block);
  for (const DepEdge &E : Block.Edges)
    ASSERT_EQ(E.Dist, 0u);
  ASSERT_EQ(longestPaths(Block), longestPaths(Ref));

  DepGraph Loop;
  DepGraphBuilder().build(Body, Body.size(), MM, AA, /*LoopCarried=*/true,
                          Loop);
  ASSERT_EQ(longestPaths(Loop), longestPaths(Ref));
  ASSERT_EQ(computeRecMII(Loop), computeRecMII(Ref));
}

/// The innermost chain bodies of \p F, each flattened in layout order.
std::vector<std::vector<Instr>> chainBodies(Function &F) {
  Cfg G(F);
  Dominators D(G);
  LoopInfo LI(G, D);
  std::vector<std::vector<Instr>> Bodies;
  for (const Loop *L : LI.innermostLoops()) {
    std::vector<BasicBlock *> Chain = loopChain(G, *L);
    if (Chain.empty())
      continue;
    Bodies.emplace_back();
    for (const BasicBlock *BB : Chain)
      for (const Instr &I : BB->instrs())
        Bodies.back().push_back(I);
  }
  return Bodies;
}

} // namespace

TEST(DepGraph, MatchesAllPairsReferenceOnRandomBlocks) {
  const uint64_t Base = fuzzBaseSeed();
  for (uint64_t K = 0; K != 100; ++K) {
    uint64_t Seed = Base + K;
    std::string Text = RandomBlockGen(Seed).generate();
    auto M = parseOrDie(Text);
    ASSERT_TRUE(M);
    const Function &F = *M->findFunction("main");
    const BasicBlock &BB = *F.blocks().front();
    std::vector<Instr> Body(BB.instrs().begin(),
                            BB.instrs().begin() +
                                static_cast<long>(BB.firstTerminatorIdx()));
    AliasAnalysis AA(F);
    const AliasAnalysis *Tiers[] = {&AA, nullptr};
    for (const MachineModel &MM : {rs6000(), power2(), ppc601()})
      for (const AliasAnalysis *Tier : Tiers)
        expectMatchesReference(Body, MM, Tier,
                               "block seed " + std::to_string(Seed) + "\n" +
                                   Text);
  }
}

TEST(DepGraph, MatchesAllPairsReferenceOnRandomProgramLoops) {
  unsigned Bodies = 0;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    for (OptLevel Level : {OptLevel::None, OptLevel::Classical,
                           OptLevel::Vliw}) {
      FrontendOptions FO;
      FO.AssumeSafeLoads = true;
      CompileResult R = compileMiniC(generateRandomMiniC(Seed), FO);
      ASSERT_TRUE(R.ok()) << R.Error;
      optimize(*R.M, Level);
      for (const auto &F : R.M->functions()) {
        AliasAnalysis AA(*F);
        const AliasAnalysis *Tiers[] = {&AA, nullptr};
        for (const std::vector<Instr> &Body : chainBodies(*F)) {
          ++Bodies;
          for (const AliasAnalysis *Tier : Tiers)
            expectMatchesReference(
                Body, rs6000(), Tier,
                "RandomProgram seed " + std::to_string(Seed) + " at " +
                    optLevelName(Level) + ", @" + F->name());
        }
      }
    }
  }
  EXPECT_GT(Bodies, 100u);
}
