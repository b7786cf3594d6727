//===- perfbench/Programs.cpp - Seeded loop-program generator -------------===//

#include "Programs.h"

#include <string>

namespace perfbench {

const char *shapeName(Shape S) {
  return S == Shape::Straight ? "straight" : "branchy";
}

const std::vector<Rung> &bigLoopLadder() {
  static const std::vector<Rung> Ladder = {
      {Shape::Straight, 40}, {Shape::Straight, 80}, {Shape::Straight, 160},
      {Shape::Branchy, 10},  {Shape::Branchy, 20},  {Shape::Branchy, 40}};
  return Ladder;
}

std::string rungName(const Rung &R) {
  return std::string(shapeName(R.S)) + "." + std::to_string(R.Statements);
}

ProgramSpec bigLoopProgram(const Rung &R, unsigned Variant) {
  return {R.S, R.Statements, Variant + 1};
}

const std::vector<ProgramSpec> &serviceCorpusPrograms() {
  // Small programs: cheap misses beside the kernels' dear ones. The
  // service keys compiled artifacts by CFG fingerprint, which hashes block
  // and edge labels but not instructions, so two programs of one
  // control-flow shape would be served each other's code. These four have
  // 0, 1, 2 and 3 ifs: four different shapes.
  static const std::vector<ProgramSpec> Corpus = {{Shape::Straight, 12, 11},
                                                  {Shape::Branchy, 4, 13},
                                                  {Shape::Branchy, 8, 14},
                                                  {Shape::Branchy, 12, 16}};
  return Corpus;
}

namespace {

const char *const Ops[] = {"+", "-", "^", "|", "&"};
const char *const Arrays[] = {"ga", "gb", "gc"};

std::string num(uint64_t V) { return std::to_string(V); }

class Writer {
public:
  explicit Writer(uint64_t Seed) : R(Seed) {}

  std::string op() { return Ops[R.below(5)]; }
  std::string array() { return Arrays[R.below(3)]; }
  std::string scalar() { return "x" + num(R.below(4)); }

  /// A masked array element indexed off the loop counter.
  std::string element() {
    static const char *const Strides[] = {"t", "t * 3", "t * 5", "t + t"};
    return array() + "[(" + Strides[R.below(4)] + " + " + num(R.below(32)) +
           ") & 31]";
  }

  /// One assignment; every right-hand side is masked to 16 bits, so no
  /// value can overflow however long the loop body is.
  std::string statement() {
    switch (R.below(5)) {
    case 0:
      return element() + " = (" + element() + " " + op() + " " + element() +
             ") & 0xffff;";
    case 1: {
      std::string X = scalar();
      return X + " = (" + X + " " + op() + " " + element() + ") & 0xffff;";
    }
    case 2:
      return "gs[" + num(R.below(8)) + "] = (gs[" + num(R.below(8)) + "] " +
             op() + " " + scalar() + ") & 0xffff;";
    case 3:
      return element() + " = (" + scalar() + " + gs[" + num(R.below(8)) +
             "] * " + num(1 + R.below(7)) + ") & 0xffff;";
    default: {
      std::string X = scalar();
      return X + " = (" + X + " * " + num(1 + R.below(7)) + " + " +
             num(R.below(1000)) + ") & 0xffff;";
    }
    }
  }

  std::string condition() {
    if (R.below(2))
      return "(" + element() + " & " + num(1 + R.below(255)) + ") > " +
             num(R.below(128));
    return scalar() + " > " + num(R.below(0x8000));
  }

  unsigned below(unsigned N) { return R.below(N); }

private:
  Rng R;
};

} // namespace

std::string generateLoopProgram(const ProgramSpec &P) {
  Writer W(P.Seed ^ (static_cast<uint64_t>(P.S) << 32) ^ P.Statements);
  std::string Body;
  for (unsigned I = 0; I != P.Statements; ++I) {
    if (P.S == Shape::Branchy && W.below(4) == 0) {
      Body += "    if (" + W.condition() + ") {\n      " + W.statement() +
              "\n    } else {\n      " + W.statement() + "\n    }\n";
      continue;
    }
    Body += "    " + W.statement() + "\n";
  }
  std::string K1 = num(W.below(256)), K2 = num(W.below(256)),
              K3 = num(W.below(256)), K4 = num(W.below(256));
  return "int ga[32];\n"
         "int gb[32];\n"
         "int gc[32];\n"
         "int gs[8];\n"
         "\n"
         "int main(int n) {\n"
         "  int x0 = 1;\n"
         "  int x1 = 3;\n"
         "  int x2 = 5;\n"
         "  int x3 = 7;\n"
         "  for (int i = 0; i < 32; i++) {\n"
         "    ga[i] = (i * 7 + " + K1 + ") & 255;\n"
         "    gb[i] = (i * 13 + " + K2 + ") & 255;\n"
         "    gc[i] = (i * 29 + " + K3 + ") & 255;\n"
         "    gs[i & 7] = i + " + K4 + ";\n"
         "  }\n"
         "  for (int t = 0; t < n; t++) {\n" +
         Body +
         "  }\n"
         "  int h = 0;\n"
         "  for (int i = 0; i < 32; i++) {\n"
         "    h = (h * 31 + ga[i] + gb[i] * 3 + gc[i] * 5 + gs[i & 7]) & "
         "0xffffff;\n"
         "  }\n"
         "  print_int(h);\n"
         "  print_int((x0 + x1 * 3 + x2 * 5 + x3 * 7) & 0xffffff);\n"
         "  return 0;\n"
         "}\n";
}

} // namespace perfbench
