//===- perfbench/BigLoops.cpp - Region-size ladder ------------------------===//
///
/// One operation is one benchmark-generated program (Programs.h),
/// compiled at Classical and at Vliw on rs6000, simulated at a small trip
/// count and checked against the interpreter. The programs sit on two
/// ladders of loop-body size, two programs per rung.
///
/// Compile time is super-linear in region size, so a near-linear pass
/// rewrite shows its gain here and only a little on paper_matrix, while
/// simulation, PDF and the service do almost nothing here.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

using namespace vsc;

namespace perfbench {
namespace {

/// One pass over the twelve programs (see passesFor).
constexpr double PassSeconds = 8.2;

class BigLoops : public Workload {
public:
  explicit BigLoops(const Options &O) : Opt(O) {}

  void setup() override {
    const std::vector<Rung> &Ladder = bigLoopLadder();
    for (size_t RI = 0; RI != Ladder.size(); ++RI) {
      const Rung &R = Ladder[RI];
      // The self-test's short run keeps the first rung of each shape.
      if (Opt.Short && RI != 0 && Ladder[RI - 1].S == R.S)
        continue;
      for (unsigned V = 0; V != (Opt.Short ? 1 : ProgramsPerRung); ++V) {
        Program P;
        P.RungIdx = RI;
        // A program the front end rejects stays without a module, and
        // every operation on it counts as failed.
        Generated G = compileGenerated(bigLoopProgram(R, V));
        P.M = std::move(G.M);
        P.Ref = std::move(G.Ref);
        Programs.push_back(std::move(P));
      }
    }
    if (Opt.PlantWrongReference)
      plantWrong(Programs.front().Ref);
    Cells.assign(Programs.size(), Cell());
    VliwSeconds.resize(Ladder.size());
    for (unsigned P = 0; P != passesFor(Opt, PassSeconds); ++P)
      for (size_t K : seededOrder(Programs.size(), Opt.Seed * 1000003 + P))
        Sequence.push_back(K);
  }

  bool runOp(size_t K) override {
    const Program &P = Programs[K];
    if (!P.M)
      return false;
    Cell &C = Cells[K];
    C = runCell(*P.M, rs6000(), LoopTripCount, P.Ref);
    VliwSeconds[P.RungIdx].push_back(C.VliwSeconds);
    IrClassical += C.InstrsC;
    IrVliw += C.InstrsV;
    AnalysisHits += C.AnalysisHits;
    AnalysisMisses += C.AnalysisMisses;
    DynInstrs += C.DynInstrs;
    return C.Ok;
  }

  void reportQuality(Results &R) const override {
    std::vector<double> Speedups, Growth;
    for (const Cell &C : Cells) {
      if (!C.Ok)
        continue;
      Speedups.push_back(C.speedup());
      Growth.push_back(C.growth());
    }
    R.set("speedup.rs6000", geomean(Speedups));
    R.set("code_growth", geomean(Growth));
  }

  void reportLayers(Results &R) const override {
    const std::vector<Rung> &Ladder = bigLoopLadder();
    std::vector<double> RungInstrs(Ladder.size(), 0.0);
    std::vector<unsigned> RungPrograms(Ladder.size(), 0);
    uint64_t FrontendInstrs = 0;
    for (const Program &P : Programs) {
      if (!P.M)
        continue;
      FrontendInstrs += P.M->instrCount();
      RungInstrs[P.RungIdx] += static_cast<double>(P.M->instrCount());
      ++RungPrograms[P.RungIdx];
    }
    for (size_t RI = 0; RI != Ladder.size(); ++RI) {
      if (!RungPrograms[RI])
        continue;
      R.set("region.ir_instrs." + rungName(Ladder[RI]),
            RungInstrs[RI] / RungPrograms[RI]);
      R.set("vliw.p50_ms." + rungName(Ladder[RI]),
            median(VliwSeconds[RI]) * 1e3);
    }
    R.set("frontend.ir_instrs", static_cast<double>(FrontendInstrs));
    R.set("opt.classical.ir_instrs", static_cast<double>(IrClassical));
    R.set("vliw.ir_instrs", static_cast<double>(IrVliw));
    R.set("pm.analysis_hits", static_cast<double>(AnalysisHits));
    R.set("pm.analysis_misses", static_cast<double>(AnalysisMisses));
    R.set("sim.dyn_instrs", static_cast<double>(DynInstrs));
  }

private:
  struct Program {
    size_t RungIdx = 0;
    std::unique_ptr<Module> M;
    Expected Ref;
  };

  Options Opt;
  std::vector<Program> Programs;
  std::vector<Cell> Cells;
  std::vector<std::vector<double>> VliwSeconds; ///< per rung
  uint64_t IrClassical = 0, IrVliw = 0;
  uint64_t AnalysisHits = 0, AnalysisMisses = 0, DynInstrs = 0;
};

} // namespace

std::unique_ptr<Workload> makeBigLoops(const Options &O) {
  return std::make_unique<BigLoops>(O);
}

} // namespace perfbench
