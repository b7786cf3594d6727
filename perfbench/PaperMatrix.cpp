//===- perfbench/PaperMatrix.cpp - The paper's own experiment -------------===//
///
/// One operation is one of:
///  * a (kernel, machine) cell: optimizedClone at Classical and at Vliw
///    from the set-up front-end module, then predecode and run both at
///    the kernel's RefScale — 11 kernels x rs6000/power2/ppc601;
///  * an rs6000 PDF experiment with the paper's counter scheme, through
///    the public stages collectPdfFeedback -> pdfBaselineCompile ->
///    pdfGuidedCompile -> pdfMeasure, training at TrainScale and
///    measuring at RefScale — one per kernel.
///
/// The modules are small (130-420 IR instructions), so the VLIW passes,
/// counter instrumentation and simulation all do real work while
/// super-linear pass cost barely shows.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "audit/PassAudit.h" // cloneModule
#include "pdf/PdfExperiment.h"
#include "workloads/Registry.h"

#include <iterator>

using namespace vsc;

namespace perfbench {
namespace {

/// One pass over the 44 operations (see passesFor).
constexpr double PassSeconds = 17.0;

constexpr size_t NumMachines = std::size(MachineNames);

class PaperMatrix : public Workload {
public:
  explicit PaperMatrix(const Options &O) : Opt(O) {}

  void setup() override {
    for (const vsc::Workload &W : workloads::allKernels()) {
      if (Opt.Short && W.Name != "li" && W.Name != "filter")
        continue;
      Kernel K;
      K.W = &W;
      {
        ScopedSpan S("frontend");
        K.M = buildWorkload(W);
      }
      FrontendInstrs += K.M->instrCount();
      K.Ref = kernelReference(W, *K.M);
      Kernels.push_back(std::move(K));
    }
    if (Opt.PlantWrongReference)
      plantWrong(Kernels.front().Ref);
    size_t Kinds = Kernels.size() * (NumMachines + 1);
    Cells.assign(Kernels.size() * NumMachines, Cell());
    Gains.assign(Kernels.size(), 0.0);
    for (unsigned P = 0; P != passesFor(Opt, PassSeconds); ++P)
      for (size_t K : seededOrder(Kinds, Opt.Seed * 1000003 + P))
        Sequence.push_back(K);
  }

  bool runOp(size_t Kind) override {
    size_t NumCells = Kernels.size() * NumMachines;
    if (Kind >= NumCells)
      return runPdf(Kind - NumCells);
    const Kernel &K = Kernels[Kind / NumMachines];
    Cell &C = Cells[Kind];
    C = runCell(*K.M, *findMachine(MachineNames[Kind % NumMachines]),
                K.W->RefScale, K.Ref);
    IrClassical += C.InstrsC;
    IrVliw += C.InstrsV;
    AnalysisHits += C.AnalysisHits;
    AnalysisMisses += C.AnalysisMisses;
    DynInstrs += C.DynInstrs;
    return C.Ok;
  }

  void reportQuality(Results &R) const override {
    for (size_t M = 0; M != NumMachines; ++M) {
      std::vector<double> Speedups;
      for (size_t K = 0; K != Kernels.size(); ++K)
        Speedups.push_back(Cells[K * NumMachines + M].speedup());
      R.set(std::string("speedup.") + MachineNames[M], geomean(Speedups));
    }
    std::vector<double> Growth;
    for (const Cell &C : Cells)
      Growth.push_back(C.growth());
    R.set("code_growth", geomean(Growth));
    R.set("pdf_gain", geomean(Gains));
  }

  void reportLayers(Results &R) const override {
    R.set("frontend.ir_instrs", static_cast<double>(FrontendInstrs));
    R.set("opt.classical.ir_instrs", static_cast<double>(IrClassical));
    R.set("vliw.ir_instrs", static_cast<double>(IrVliw));
    R.set("pm.analysis_hits", static_cast<double>(AnalysisHits));
    R.set("pm.analysis_misses", static_cast<double>(AnalysisMisses));
    R.set("sim.dyn_instrs", static_cast<double>(DynInstrs));
    R.set("pdf.layout_kept", static_cast<double>(LayoutKept));
    for (size_t K = 0; K != Kernels.size(); ++K) {
      for (size_t M = 0; M != NumMachines; ++M)
        R.set("cycles_ratio." + Kernels[K].W->Name + "." + MachineNames[M],
              Cells[K * NumMachines + M].speedup());
      R.set("pdf.gain." + Kernels[K].W->Name, Gains[K]);
    }
  }

private:
  struct Kernel {
    const vsc::Workload *W = nullptr;
    std::unique_ptr<Module> M;
    Expected Ref;
  };

  bool runPdf(size_t KernelIdx) {
    const Kernel &K = Kernels[KernelIdx];
    PdfExperimentOptions PO;
    PO.Machine = rs6000();
    PO.Threads = 1;
    PO.ProfileSource = PdfExperimentOptions::Source::Counters;
    PO.Train = {workloadInput(K.W->TrainScale)};
    PO.Test = {workloadInput(K.W->RefScale)};
    PdfExperimentResult R;
    R.Baseline = cloneModule(*K.M);
    R.Guided = cloneModule(*K.M);
    PdfFeedback F;
    {
      ScopedSpan S("pdf.feedback");
      F = collectPdfFeedback(*K.M, PO, R.Guided.get());
    }
    if (!F.ok())
      return false;
    {
      ScopedSpan S("pdf.baseline");
      pdfBaselineCompile(*R.Baseline, PO);
    }
    {
      ScopedSpan S("pdf.guided");
      R.PdfLayoutKept = pdfGuidedCompile(*R.Guided, F.Feedback, PO);
    }
    {
      ScopedSpan S("pdf.measure");
      pdfMeasure(R, PO);
    }
    if (!R.ok())
      return false;
    Gains[KernelIdx] = R.gain();
    LayoutKept += R.PdfLayoutKept == 1;
    return matches(R.BaselineRuns.front(), K.Ref) &&
           matches(R.GuidedRuns.front(), K.Ref);
  }

  Options Opt;
  std::vector<Kernel> Kernels;
  std::vector<Cell> Cells;
  std::vector<double> Gains;
  uint64_t FrontendInstrs = 0, IrClassical = 0, IrVliw = 0;
  uint64_t AnalysisHits = 0, AnalysisMisses = 0, DynInstrs = 0;
  uint64_t LayoutKept = 0;
};

} // namespace

std::unique_ptr<Workload> makePaperMatrix(const Options &O) {
  return std::make_unique<PaperMatrix>(O);
}

} // namespace perfbench
