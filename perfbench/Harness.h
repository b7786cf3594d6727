//===- perfbench/Harness.h - Shared benchmark plumbing ----------*- C++ -*-===//
///
/// \file
/// What the three workloads share: the run options, the declared metric
/// table, output references and the checks against them, and the small
/// statistics the report needs.
///
/// Every workload is a closed loop with one client thread: the next
/// operation starts when the previous one returns. A run does a fixed
/// amount of work for its seed and --seconds (whole passes over the
/// workload's operation set, or a fixed request count), so the parent
/// and a change always measure identical work.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PERFBENCH_HARNESS_H
#define VSC_PERFBENCH_HARNESS_H

#include "Programs.h"
#include "Trace.h"

#include "ir/Module.h"
#include "machine/MachineModel.h"
#include "sim/Simulator.h"
#include "vliw/Pipeline.h"
#include "workloads/Spec.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// Self-test size: one pass over a small subset of the operations.
  bool Short = false;
  /// Corrupts one reference so the self-test can see it in pass_ratio.
  bool PlantWrongReference = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string TraceOut;
};

/// The three stock machine models, in the order every table uses.
inline constexpr const char *MachineNames[] = {"rs6000", "power2", "ppc601"};

/// One declared metric. Exact metrics are deterministic functions of the
/// code and the seed; the self-test requires them to repeat bit for bit.
struct MetricDecl {
  std::string Name;
  std::string Unit;
  std::string Better; ///< "higher" / "lower"
  bool EndToEnd;
  bool Exact;
};

/// Every metric the benchmark emits: the end-to-end ones on every
/// untraced run, the per-layer ones on every traced run.
const std::vector<MetricDecl> &declaredMetrics();

/// Metric values by name; units come from the declared table.
class Results {
public:
  void set(const std::string &Name, double Value) { Values[Name] = Value; }
  const std::map<std::string, double> &values() const { return Values; }

  /// Records one operation's outcome.
  void count(bool Ok) {
    ++Attempted;
    Failed += !Ok;
  }
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  std::map<std::string, double> Values;
};

/// What a correct run of a program prints.
struct Expected {
  std::string Output;
  int64_t Exit = 0;
  /// Host references know only the printed output.
  bool HasMem = false;
  uint64_t Mem = 0;
};

/// The reference for registry kernel \p W at its RefScale: the host
/// mirror (irregularReference) for the irregular kernels, the interpreter
/// on the unoptimized module \p M for the others.
Expected kernelReference(const vsc::Workload &W, const vsc::Module &M);

/// A generated program, compiled by the front end (under a "frontend"
/// span) as buildWorkload compiles the kernels, with its interpreter
/// reference at LoopTripCount.
struct Generated {
  std::string Source;
  /// Null when the front end rejected the program; Ref then says why.
  std::unique_ptr<vsc::Module> M;
  Expected Ref;
};
Generated compileGenerated(const ProgramSpec &S);

/// True when \p R ran to completion and printed what \p E expects.
bool matches(const vsc::RunResult &R, const Expected &E);

/// Changes \p E so that no correct run matches it.
void plantWrong(Expected &E);

/// One (program, machine) cell: the module optimized at Classical and at
/// Vliw, both predecoded and run on main(Arg), both checked.
struct Cell {
  uint64_t CyclesC = 0, CyclesV = 0;
  size_t InstrsC = 0, InstrsV = 0;
  uint64_t AnalysisHits = 0, AnalysisMisses = 0, DynInstrs = 0;
  double VliwSeconds = 0;
  bool Ok = false;
  double speedup() const {
    return static_cast<double>(CyclesC) / static_cast<double>(CyclesV);
  }
  double growth() const {
    return static_cast<double>(InstrsV) / static_cast<double>(InstrsC);
  }
};

/// Runs one cell with one pipeline thread, under opt / vliw /
/// sim.predecode / sim.run spans.
Cell runCell(const vsc::Module &M, const vsc::MachineModel &Machine,
             int64_t Arg, const Expected &Ref);

/// optimizedClone with one pipeline thread, under an "opt" span at
/// Classical and a "vliw" span at Vliw.
std::unique_ptr<vsc::Module> optimize(const vsc::Module &M, vsc::OptLevel L,
                                      const vsc::MachineModel &Machine,
                                      vsc::PipelineStats *Stats = nullptr);

/// The SimEngine constructor and run on main(Arg), under sim.predecode /
/// sim.run spans.
vsc::RunResult predecodeAndRun(const vsc::Module &M,
                               const vsc::MachineModel &Machine, int64_t Arg);

/// The Harrell-Davis estimate of quantile \p P in [0, 1]: the mean of all
/// order statistics weighted by a Beta(P (N+1), (1-P) (N+1)) density,
/// whose weight lies within a few multiples of sqrt(P (1-P) N) ranks of
/// rank P N. A batch run holds two or three samples of each operation
/// kind, so any single order statistic sits on the edge between two kinds
/// and jumps when host noise swaps two samples; the weighted mean moves
/// smoothly instead.
double percentile(std::vector<double> V, double P);
/// The middle order statistic (or the mean of the middle two): one slow
/// repetition among three does not move it.
double median(std::vector<double> V);
double geomean(const std::vector<double> &V);

/// How many whole passes of about \p PassSeconds (measured on the 4-core
/// host the benchmark was sized on) make --seconds: at least one, and one
/// in the self-test's short run. Work is fixed per --seconds, not per
/// host speed, so the parent and a change measure identical work.
unsigned passesFor(const Options &O, double PassSeconds);

/// A permutation of 0..N-1 drawn from \p Seed.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// One workload: set-up, then a fixed sequence of timed operations.
class Workload {
public:
  virtual ~Workload() = default;
  /// Generates inputs, builds front-end modules and reference outputs
  /// (and whatever else must exist before the first timed operation),
  /// and fills the sequence. Called once per object.
  virtual void setup() = 0;
  /// Runs one operation of kind \p Kind; false when its output was wrong.
  virtual bool runOp(size_t Kind) = 0;
  /// The code-quality ratios, from this workload's own programs.
  virtual void reportQuality(Results &R) const = 0;
  /// Per-layer numbers from the traced sequence.
  virtual void reportLayers(Results &R) const = 0;

  /// The measured sequence: the kind (cell, program or request item) of
  /// each operation, in order.
  const std::vector<size_t> &sequence() const { return Sequence; }

protected:
  std::vector<size_t> Sequence;
};

std::unique_ptr<Workload> makePaperMatrix(const Options &O);
std::unique_ptr<Workload> makeBigLoops(const Options &O);
std::unique_ptr<Workload> makeServiceMix(const Options &O);

} // namespace perfbench

#endif // VSC_PERFBENCH_HARNESS_H
