//===- tests/test_compile_golden.cpp - Frozen compiled-output digests -----===//
///
/// Compile-time work must never change what the compiler emits. This suite
/// freezes FNV-1a digests (service/Artifact.h's fnv1aBytes) of printModule
/// output for
///
///  * every registry kernel x {Classical, Vliw} x {rs6000, power2, ppc601},
///    compiled through optimizedClone at Threads=1;
///  * the counter-instrumented training module,
///    instrumentModule(*prepareForTraining(M));
///  * the rs6000 counter-scheme PDF experiment's guided module, plus its
///    baseline and guided cycle sums. Its Threads defers to VSC_THREADS,
///    so running the suite at two thread counts checks the serial and the
///    parallel paths;
///  * generated loops with large bodies (a 160-statement straight block,
///    40- and 80-statement branchy regions) x {Classical, Vliw} x the
///    three machines: the block sizes at which the scheduler's dependence
///    DAG and hoisting do most of their work, far past the kernels'
///    130-420 instructions per function. The 80-statement region makes
///    tens of global-scheduling hoists per machine.
///
/// Emitted bytes only show the alias facts some pass acted on. So the
/// kernel matrix and the large-block programs also freeze a digest of
/// every fact a fresh AliasAnalysis states about each module they
/// compile, and about the front-end module they start from: summarize(),
/// the verdict of every access pair under both scopes, and
/// safeSpeculativeLoad of every load.
///
/// A change that moves any of these bytes has to update the tables on
/// purpose. On a mismatch each test prints its whole actual table in the
/// initializer syntax used below.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/ValueTrack.h"
#include "frontend/Frontend.h"
#include "pdf/PdfExperiment.h"
#include "profile/Counters.h"
#include "service/Artifact.h"
#include "vliw/Pipeline.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

using namespace vsc;

namespace {

const char *const Machines[] = {"rs6000", "power2", "ppc601"};

struct MatrixRow {
  const char *Kernel;
  uint64_t Classical[3]; ///< per Machines entry
  uint64_t Vliw[3];
};

/// Alias-fact digests (aliasFacts) of the front-end module and of each
/// compiled cell, per Machines entry.
struct AliasRow {
  const char *Kernel;
  uint64_t FrontEnd;
  uint64_t Classical[3];
  uint64_t Vliw[3];
};

struct PdfRow {
  const char *Kernel;
  uint64_t Instrumented;
  uint64_t Guided;
  uint64_t BaselineCycles;
  uint64_t GuidedCycles;
};

const MatrixRow GoldenMatrix[] = {
    {"espresso",
     {0x74e8f7e08e8259bf, 0x74e8f7e08e8259bf, 0x74e8f7e08e8259bf},
     {0xbfd231cd515d41f6, 0x9670bb5677ca7a7e, 0xf56e38a3345d957a}},
    {"li",
     {0x85812564aef78e4a, 0x85812564aef78e4a, 0x85812564aef78e4a},
     {0xa0900635249f18d1, 0x7b5bd436e4f91b50, 0x602153b68883d13d}},
    {"eqntott",
     {0x62b129e3708626af, 0x62b129e3708626af, 0x62b129e3708626af},
     {0x1f1434c48800553c, 0x921664a547fd710a, 0x8dc446fb46bbff76}},
    {"compress",
     {0x4510939a100ed5cc, 0x4510939a100ed5cc, 0x4510939a100ed5cc},
     {0x2b85fbb9fd9de0eb, 0x281095a26afbb972, 0xe1521b4ba2cecd63}},
    {"sc",
     {0x6fce395b7b40884b, 0x6fce395b7b40884b, 0x6fce395b7b40884b},
     {0x56281297471dd73d, 0x5ee6c27c39e501d2, 0xc28bb30b07ee0e23}},
    {"gcc",
     {0xee2725ee701bfe4a, 0xee2725ee701bfe4a, 0xee2725ee701bfe4a},
     {0x79ffbe5bfc1b646b, 0x07b66625d4e7eefa, 0x52f93341ec2d7347}},
    {"hashagg",
     {0x055020a33c95cf0e, 0x055020a33c95cf0e, 0x055020a33c95cf0e},
     {0x9e62724cc77751f8, 0x62739edc6a29404d, 0x142f411c6a76546e}},
    {"filter",
     {0x73d2e1254666b22d, 0x73d2e1254666b22d, 0x73d2e1254666b22d},
     {0xebb4bc7836f156e3, 0xfac287d37f2bbc07, 0x728b1988cbcab80d}},
    {"chase",
     {0x2757b5c4d77753ca, 0x2757b5c4d77753ca, 0x2757b5c4d77753ca},
     {0xe1b17d8a27233025, 0x0bac79340fe3d639, 0x66c730c65ae3f99f}},
    {"interp",
     {0x0a256fb7e89deea3, 0x0a256fb7e89deea3, 0x0a256fb7e89deea3},
     {0xb0e2a65e3ef7dee1, 0x2bfef196e8c8a378, 0xdab66155036d1068}},
    {"interp_tc",
     {0x25078106f42b10f4, 0x25078106f42b10f4, 0x25078106f42b10f4},
     {0x320ae3246ea0f255, 0x591708b52b02b2a7, 0xf9a4e4ce995295d9}},
};

const PdfRow GoldenPdf[] = {
    {"espresso", 0x18b7fdb948d53136, 0x984d764c35d107a6, 309167, 309167},
    {"li", 0x1de024ffb2eecb12, 0xf92a4f1b4b6f8cab, 876629, 783776},
    {"eqntott", 0xedeb6493b89d6ea2, 0xf876abe1f6e672ed, 107637, 93123},
    {"compress", 0x9d6e8a87ba4d877d, 0xa6ff5c4d0b7aed88, 419832, 419448},
    {"sc", 0x5fe20eb7f2ca040c, 0x82c2f70db8d6a361, 246347, 213576},
    {"gcc", 0x9151894d4a5564ac, 0x258910139cbbea33, 588250, 589298},
    {"hashagg", 0x51d126be89faaf5b, 0xa909f3c66c3b05eb, 285608, 284646},
    {"filter", 0xfc4770840b1db3e0, 0xdfb3d73009d112d5, 277315, 269931},
    {"chase", 0x27ee2ff114cb5a4d, 0x0b5327a8d9e59843, 217513, 217513},
    {"interp", 0x1ee3317382a312a6, 0x0e8cdbe27ae893ce, 117828, 81438},
    {"interp_tc", 0x1620567337b14be9, 0xf0bbfea126572c4a, 93358, 93150},
};

const MatrixRow GoldenLargeBlocks[] = {
    {"straight.160",
     {0x8c0f2c957a305cbd, 0x8c0f2c957a305cbd, 0x8c0f2c957a305cbd},
     {0x8c18d0aa29e66867, 0xbec2981a497c1602, 0x766091d02c545c9d}},
    {"branchy.40",
     {0x64fb957e7fdb57ad, 0x64fb957e7fdb57ad, 0x64fb957e7fdb57ad},
     {0x8f5a7bf0736791e2, 0x12a95ddf39acf700, 0xa67eacff3210c254}},
    {"branchy.80",
     {0x8b92409e0da98fb5, 0x8b92409e0da98fb5, 0x8b92409e0da98fb5},
     {0xd555a5f8e5419faa, 0x83a2d0edf3b93d90, 0xed5ae43060e25015}},
};

const AliasRow GoldenKernelAliasFacts[] = {
    {"espresso",
     0x0fd0a3581008612d,
     {0x942ce38511d8ea90, 0x942ce38511d8ea90, 0x942ce38511d8ea90},
     {0x0b26639fc009f663, 0xd46eb5fa3ec055d7, 0x298d4f7ea7c5d252}},
    {"li",
     0x2b7158209001165a,
     {0xb3228c476224bc93, 0xb3228c476224bc93, 0xb3228c476224bc93},
     {0x29a6ba69400ffab2, 0xebbbe69cd55aaa32, 0x5f6ff2181c452406}},
    {"eqntott",
     0x22f73a7f0d63363a,
     {0x72fe1437089e3941, 0x72fe1437089e3941, 0x72fe1437089e3941},
     {0x97bcc216a8533360, 0xc681293ed48ebe18, 0x99be786d92bd025f}},
    {"compress",
     0x96c35a74093eef6a,
     {0xb2e06e2c6167e6f7, 0xb2e06e2c6167e6f7, 0xb2e06e2c6167e6f7},
     {0x77366d319a50bd1d, 0xc662dd1eae7945a2, 0x9dabf39f2faf48a7}},
    {"sc",
     0x0f142d459b1d5926,
     {0x772481e07a310a29, 0x772481e07a310a29, 0x772481e07a310a29},
     {0x8afe08a58d73425c, 0x2817f39e870bb040, 0x5d3889aad00e254b}},
    {"gcc",
     0x159c1a9a10dbb875,
     {0xfc01fff3e5da675f, 0xfc01fff3e5da675f, 0xfc01fff3e5da675f},
     {0x4d0e8e45788c003d, 0x7f5a2df82c04c5f8, 0xeef43eb5ca33e6bb}},
    {"hashagg",
     0x37d86dccdd74f012,
     {0x8a815c22aaff7d57, 0x8a815c22aaff7d57, 0x8a815c22aaff7d57},
     {0x94eb9fa274159bb4, 0x900e2f924181f409, 0x3e01cc74299b85ea}},
    {"filter",
     0x261738608c0e1920,
     {0x1bb5da1f4594cfaf, 0x1bb5da1f4594cfaf, 0x1bb5da1f4594cfaf},
     {0x07b0e339e4e6e961, 0xaf5e5ad87bd5abc3, 0xa981b8a3d9c0c956}},
    {"chase",
     0x8222e675a54ca22c,
     {0xc5c664f58cec262f, 0xc5c664f58cec262f, 0xc5c664f58cec262f},
     {0x97230f645a4f9f24, 0x70ad6da0d34383dd, 0x52e29795dc40f14f}},
    {"interp",
     0xd4e0890f9af6d93b,
     {0x243338b7b9219433, 0x243338b7b9219433, 0x243338b7b9219433},
     {0xfffbae638af7869d, 0x17cdc3a20833127b, 0x83c87552ef5f2529}},
    {"interp_tc",
     0xb47d19f4460e5acc,
     {0x4eb40e002f4b3d03, 0x4eb40e002f4b3d03, 0x4eb40e002f4b3d03},
     {0xd03d3dd5aaeafb9d, 0xbae3955bdfd63719, 0x61cc89f20039359a}},
};

const AliasRow GoldenLargeBlockAliasFacts[] = {
    {"straight.160",
     0x1e99f3eba3961b9f,
     {0xccc869ae7fdb6b6b, 0xccc869ae7fdb6b6b, 0xccc869ae7fdb6b6b},
     {0xdf567d46a8e0cc51, 0x00a1f29850ca9d87, 0x51e139d5b3444dc8}},
    {"branchy.40",
     0x88e4699ffa9c5d68,
     {0xa855ceaec59aff82, 0xa855ceaec59aff82, 0xa855ceaec59aff82},
     {0x730d36085b2370e7, 0x79ae927920aa23a5, 0x9a9c2a892dded5d1}},
    {"branchy.80",
     0x5b4ada9a55e791f9,
     {0x162d207c8afdbcb2, 0x162d207c8afdbcb2, 0x162d207c8afdbcb2},
     {0xce7074fa670c0ac5, 0xc9792eca0d5d1783, 0x33589989d738b65e}},
};

uint64_t digest(const Module &M) {
  std::string Text = printModule(M);
  return fnv1aBytes(Text.data(), Text.size());
}

/// FNV-1a digest of every fact a fresh AliasAnalysis states about \p M:
/// per function its summarize() line, the verdict of every pair of memory
/// accesses under both scopes, and whether each load may be speculated.
uint64_t aliasFacts(const Module &M) {
  std::string Facts;
  std::vector<const Instr *> Accs;
  for (const auto &F : M.functions()) {
    if (F->blocks().empty())
      continue;
    AliasAnalysis AA(*F);
    Facts += F->name() + ":" + AA.summarize() + "\n";
    Accs.clear();
    for (const auto &BB : F->blocks())
      for (const Instr &I : BB->instrs())
        if (I.isMemAccess())
          Accs.push_back(&I);
    for (size_t A = 0; A != Accs.size(); ++A) {
      for (size_t B = A + 1; B != Accs.size(); ++B)
        for (AliasScope S :
             {AliasScope::SameExecution, AliasScope::CrossExecution})
          Facts += static_cast<char>(
              '0' + static_cast<int>(AA.alias(*Accs[A], *Accs[B], S)));
      if (Accs[A]->isLoad())
        Facts += AA.safeSpeculativeLoad(*Accs[A], &M) ? 's' : 'u';
    }
    Facts += "\n";
  }
  return fnv1aBytes(Facts.data(), Facts.size());
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

std::string render(const MatrixRow &R) {
  std::string S = std::string("    {\"") + R.Kernel + "\",\n     {";
  for (size_t I = 0; I != 3; ++I)
    S += (I ? ", " : "") + hex(R.Classical[I]);
  S += "},\n     {";
  for (size_t I = 0; I != 3; ++I)
    S += (I ? ", " : "") + hex(R.Vliw[I]);
  return S + "}},\n";
}

std::string render(const AliasRow &R) {
  std::string S = std::string("    {\"") + R.Kernel + "\",\n     " +
                  hex(R.FrontEnd) + ",\n     {";
  for (size_t I = 0; I != 3; ++I)
    S += (I ? ", " : "") + hex(R.Classical[I]);
  S += "},\n     {";
  for (size_t I = 0; I != 3; ++I)
    S += (I ? ", " : "") + hex(R.Vliw[I]);
  return S + "}},\n";
}

std::string render(const PdfRow &R) {
  return std::string("    {\"") + R.Kernel + "\", " + hex(R.Instrumented) +
         ", " + hex(R.Guided) + ", " + std::to_string(R.BaselineCycles) +
         ", " + std::to_string(R.GuidedCycles) + "},\n";
}

template <typename Row, size_t N> std::string render(const Row (&Rows)[N]) {
  std::string S;
  for (const Row &R : Rows)
    S += render(R);
  return S;
}

/// Compiles \p M at both levels on each machine into \p Row and \p Facts.
void compileCells(const Module &M, MatrixRow &Row, AliasRow &Facts) {
  Facts.FrontEnd = aliasFacts(M);
  for (size_t MI = 0; MI != 3; ++MI) {
    PipelineOptions PO;
    PO.Machine = *findMachine(Machines[MI]);
    PO.Threads = 1;
    auto C = optimizedClone(M, OptLevel::Classical, PO);
    Row.Classical[MI] = digest(*C);
    Facts.Classical[MI] = aliasFacts(*C);
    auto V = optimizedClone(M, OptLevel::Vliw, PO);
    Row.Vliw[MI] = digest(*V);
    Facts.Vliw[MI] = aliasFacts(*V);
  }
}

} // namespace

TEST(CompileGolden, KernelMatrixDigests) {
  std::string Actual, ActualFacts;
  for (const Workload &W : workloads::allKernels()) {
    auto M = buildWorkload(W);
    ASSERT_TRUE(M) << W.Name;
    MatrixRow Row{W.Name.c_str(), {}, {}};
    AliasRow Facts{W.Name.c_str(), 0, {}, {}};
    compileCells(*M, Row, Facts);
    Actual += render(Row);
    ActualFacts += render(Facts);
  }
  EXPECT_TRUE(Actual == render(GoldenMatrix))
      << "compiled output moved; actual GoldenMatrix table:\n"
      << Actual;
  EXPECT_TRUE(ActualFacts == render(GoldenKernelAliasFacts))
      << "alias facts moved; actual GoldenKernelAliasFacts table:\n"
      << ActualFacts;
}

TEST(CompileGolden, PdfModuleDigestsAndCycles) {
  std::string Actual;
  for (const Workload &W : workloads::allKernels()) {
    auto M = buildWorkload(W);
    ASSERT_TRUE(M) << W.Name;
    PdfRow Row{W.Name.c_str(), 0, 0, 0, 0};
    {
      std::unique_ptr<Module> Train = prepareForTraining(*M);
      instrumentModule(*Train);
      Row.Instrumented = digest(*Train);
    }
    PdfExperimentOptions PO;
    PO.Machine = rs6000();
    PO.ProfileSource = PdfExperimentOptions::Source::Counters;
    PO.Train = {workloadInput(W.TrainScale)};
    PO.Test = {workloadInput(W.RefScale)};
    PdfExperimentResult R = runPdfExperiment(*M, PO);
    ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
    Row.Guided = digest(*R.Guided);
    Row.BaselineCycles = R.BaselineCycles;
    Row.GuidedCycles = R.GuidedCycles;
    Actual += render(Row);
  }
  EXPECT_TRUE(Actual == render(GoldenPdf))
      << "compiled output moved; actual GoldenPdf table:\n"
      << Actual;
}

TEST(CompileGolden, LargeBlockDigests) {
  struct Program {
    const char *Name;
    unsigned Statements;
    bool Branchy;
    uint64_t Seed;
  };
  const Program Programs[] = {{"straight.160", 160, false, 7},
                              {"branchy.40", 40, true, 11},
                              {"branchy.80", 80, true, 13}};
  std::string Actual, ActualFacts;
  for (const Program &P : Programs) {
    FrontendOptions FO;
    FO.AssumeSafeLoads = true;
    CompileResult C =
        compileMiniC(largeLoopProgram(P.Statements, P.Branchy, P.Seed), FO);
    ASSERT_TRUE(C.ok()) << P.Name << ": " << C.Error;
    MatrixRow Row{P.Name, {}, {}};
    AliasRow Facts{P.Name, 0, {}, {}};
    compileCells(*C.M, Row, Facts);
    Actual += render(Row);
    ActualFacts += render(Facts);
  }
  EXPECT_TRUE(Actual == render(GoldenLargeBlocks))
      << "compiled output moved; actual GoldenLargeBlocks table:\n"
      << Actual;
  EXPECT_TRUE(ActualFacts == render(GoldenLargeBlockAliasFacts))
      << "alias facts moved; actual GoldenLargeBlockAliasFacts table:\n"
      << ActualFacts;
}
