//===- perfbench/Programs.h - Seeded loop-program generator -----*- C++ -*-===//
///
/// \file
/// The benchmark's own mini-C generator. Every program is one counted loop
/// over global arrays, with a body of a fixed number of statements:
///
///  * Straight — one long block of global loads, stores and arithmetic,
///    the region-size stress for the scheduling passes;
///  * Branchy  — the same statements, about one in four wrapped in a
///    data-dependent if/else, so the body is many small blocks.
///
/// Sizes are bounded by construction: every value is masked to 16 bits
/// before it is stored or kept, array indices are masked into range, and
/// the only loop bounds are constants or main's argument. So every
/// program terminates, traps nothing and prints a checksum whatever the
/// seed. The generator draws from its own splitmix64 stream, so a seed
/// gives the same source on every platform.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PERFBENCH_PROGRAMS_H
#define VSC_PERFBENCH_PROGRAMS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Shape { Straight, Branchy };

const char *shapeName(Shape S);

struct ProgramSpec {
  Shape S = Shape::Straight;
  unsigned Statements = 0;
  uint64_t Seed = 0;
};

/// The mini-C source for \p P; main(n) runs the loop body n times.
std::string generateLoopProgram(const ProgramSpec &P);

/// One size on a shape's ladder.
struct Rung {
  Shape S;
  unsigned Statements;
};

/// The big_loops ladders. Each step doubles the loop body; the sizes are
/// chosen so that Vliw optimization of the largest rung stays near one
/// second while the super-linear growth is already plain.
const std::vector<Rung> &bigLoopLadder();

/// "<shape>.<statements>", the rung's suffix in metric names.
std::string rungName(const Rung &R);

/// big_loops runs this many programs per rung, generated from fixed seeds:
/// the programs, and so the code-quality ratios, are the same for every
/// run seed.
constexpr unsigned ProgramsPerRung = 2;
ProgramSpec bigLoopProgram(const Rung &R, unsigned Variant);

/// The generated programs of the service_mix corpus.
const std::vector<ProgramSpec> &serviceCorpusPrograms();

/// main(n) of every generated program runs with this n: enough to run
/// each statement a few times, small enough that simulation stays a few
/// milliseconds.
constexpr int64_t LoopTripCount = 8;

/// splitmix64: the benchmark's only random source.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N), N > 0.
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

private:
  uint64_t State;
};

} // namespace perfbench

#endif // VSC_PERFBENCH_PROGRAMS_H
