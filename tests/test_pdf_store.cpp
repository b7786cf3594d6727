//===- tests/test_pdf_store.cpp - ProfileStore persistence -----------------===//
///
/// The pdf/ProfileStore.h contract: dense collection agrees with the
/// simulator's string-keyed ground truth, the Module and SimImage CFG
/// fingerprints agree by construction, serialized profiles round-trip
/// byte-exactly, merge is associative and commutative, stale profiles are
/// rejected by fingerprint, and corrupt or truncated images are reported
/// instead of parsed.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "pdf/ProfileStore.h"
#include "profile/Counters.h"
#include "vliw/Pipeline.h"
#include "workloads/RandomProgram.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace vsc;

namespace {

/// The named kernel as collectPdfFeedback trains on it: with its prologs
/// (prepareForTraining), so an input made by workloadInput(N) runs at
/// scale N. Preparation keeps the raw module's CFG fingerprint.
std::unique_ptr<Module> buildNamed(const char *Name) {
  if (const Workload *W = workloads::findKernel(Name))
    return prepareForTraining(*buildWorkload(*W));
  ADD_FAILURE() << "no workload " << Name;
  return nullptr;
}

DenseProfile profileAt(SimEngine &Engine, int64_t Scale) {
  std::string Err;
  DenseProfile P =
      collectDenseProfile(Engine, {workloadInput(Scale)}, 1, &Err);
  EXPECT_EQ(Err, "");
  return P;
}

std::string tempPath(const char *Leaf) {
  return ::testing::TempDir() + Leaf;
}

} // namespace

TEST(PdfStore, FingerprintAgreesModuleVsImage) {
  for (const Workload &W : workloads::allKernels()) {
    auto M = buildWorkload(W);
    SimEngine Engine(*M, rs6000());
    EXPECT_EQ(cfgFingerprint(*M), cfgFingerprint(Engine.image()))
        << W.Name;
  }
}

// Run preparation (optimize at OptLevel::None = prolog insertion) must
// not move the fingerprint: the PDF driver profiles a prepared clone and
// attaches the result to the raw source module.
TEST(PdfStore, FingerprintInvariantUnderRunPreparation) {
  for (const Workload &W : workloads::allKernels()) {
    auto Raw = buildWorkload(W);
    auto Prepared = buildWorkload(W);
    optimize(*Prepared, OptLevel::None);
    EXPECT_EQ(cfgFingerprint(*Raw), cfgFingerprint(*Prepared)) << W.Name;
  }
}

TEST(PdfStore, FingerprintDistinguishesModules) {
  auto A = buildNamed("eqntott");
  auto B = buildNamed("compress");
  EXPECT_NE(cfgFingerprint(*A), cfgFingerprint(*B));
}

TEST(PdfStore, DenseCountsMatchSimulatorGroundTruth) {
  auto M = buildNamed("eqntott");
  SimEngine Engine(*M, rs6000());
  DenseProfile P = profileAt(Engine, 2);
  ProfileData D = P.toProfileData();

  RunResult R = simulate(*M, rs6000(), workloadInput(2));
  EXPECT_EQ(D.BlockCount, R.BlockCounts);
  EXPECT_EQ(D.EdgeCount, R.EdgeCounts);
}

// The irregular kernels exercise CFG shapes the spec six do not
// (dispatch ladders, probe loops with data-dependent trip counts,
// chain walks): the dense side-table profile must still agree exactly
// with the simulator's string-keyed counters on every one of them.
TEST(PdfStore, DenseCountsMatchGroundTruthOnIrregularKernels) {
  for (const Workload &W : irregularWorkloads()) {
    auto M = prepareForTraining(*buildWorkload(W));
    SimEngine Engine(*M, rs6000());
    DenseProfile P = profileAt(Engine, W.TrainScale);
    ProfileData D = P.toProfileData();

    RunResult R = simulate(*M, rs6000(), workloadInput(W.TrainScale));
    EXPECT_EQ(D.BlockCount, R.BlockCounts) << W.Name;
    EXPECT_EQ(D.EdgeCount, R.EdgeCounts) << W.Name;
  }
}

// Persist a dispatch-kernel profile, reload it, merge in a second
// battery, and feed the result through the PDF pipeline: the reloaded
// profile must be usable (validateFor passes, layout runs) and the
// merged file byte-identical to merging in memory.
TEST(PdfStore, DispatchKernelProfileSurvivesSaveLoadMerge) {
  const Workload *W = workloads::findKernel("interp");
  ASSERT_TRUE(W);
  auto M = buildWorkload(*W);
  auto Train = prepareForTraining(*M);
  SimEngine Engine(*Train, rs6000());
  DenseProfile A = profileAt(Engine, W->TrainScale);
  DenseProfile B = profileAt(Engine, W->TrainScale + 1);

  std::string Path = tempPath("vsc_pdf_store_interp.vscp");
  ASSERT_EQ(A.saveFile(Path), "");
  DenseProfile Loaded;
  ASSERT_EQ(DenseProfile::loadFile(Path, Loaded), "");
  std::remove(Path.c_str());
  EXPECT_EQ(A.serialize(), Loaded.serialize());

  ASSERT_EQ(Loaded.merge(B), "");
  DenseProfile InMemory = A;
  ASSERT_EQ(InMemory.merge(B), "");
  EXPECT_EQ(Loaded.serialize(), InMemory.serialize());

  ASSERT_EQ(Loaded.validateFor(*M), "");
  ProfileData P = Loaded.toProfileData();
  auto Base = buildWorkload(*W);
  optimize(*Base, OptLevel::None);
  RunOptions Ref = workloadInput(W->RefScale);
  RunResult RB = simulate(*Base, rs6000(), Ref);

  PipelineOptions Opts;
  Opts.Profile = &P;
  auto Guided = buildWorkload(*W);
  optimize(*Guided, OptLevel::Vliw, Opts);
  EXPECT_EQ(verifyModule(*Guided), "");
  RunResult RG = simulate(*Guided, rs6000(), Ref);
  EXPECT_EQ(RB.fingerprint(), RG.fingerprint());
}

TEST(PdfStore, SerializeRoundTripsByteExactly) {
  auto M = buildNamed("eqntott");
  SimEngine Engine(*M, rs6000());
  DenseProfile P = profileAt(Engine, 2);

  std::vector<uint8_t> Bytes = P.serialize();
  DenseProfile Q;
  ASSERT_EQ(DenseProfile::deserialize(Bytes.data(), Bytes.size(), Q), "");
  EXPECT_EQ(P.CfgHash, Q.CfgHash);
  EXPECT_EQ(P.BlockKeys, Q.BlockKeys);
  EXPECT_EQ(P.EdgeKeys, Q.EdgeKeys);
  EXPECT_EQ(P.BlockCounts, Q.BlockCounts);
  EXPECT_EQ(P.EdgeCounts, Q.EdgeCounts);
  EXPECT_EQ(Bytes, Q.serialize());
}

TEST(PdfStore, FileRoundTrip) {
  auto M = buildNamed("li");
  SimEngine Engine(*M, rs6000());
  DenseProfile P = profileAt(Engine, 2);

  std::string Path = tempPath("vsc_pdf_store_roundtrip.vscp");
  ASSERT_EQ(P.saveFile(Path), "");
  DenseProfile Q;
  ASSERT_EQ(DenseProfile::loadFile(Path, Q), "");
  EXPECT_EQ(P.serialize(), Q.serialize());
  std::remove(Path.c_str());

  DenseProfile Missing;
  EXPECT_NE(DenseProfile::loadFile(Path, Missing), "");
}

// The command-line handoff: saveProfile with Merge creates a missing file
// and accumulates into an existing one; loadProfiles merges in order and
// names the file that fails.
TEST(PdfStore, SaveAndLoadProfilesMergeAcrossFiles) {
  auto M = buildNamed("eqntott");
  SimEngine Engine(*M, rs6000());
  DenseProfile A = profileAt(Engine, 1);
  DenseProfile B = profileAt(Engine, 2);
  DenseProfile AB = A;
  ASSERT_EQ(AB.merge(B), "");

  std::string Path = tempPath("vsc_pdf_store_handoff.vscp");
  std::remove(Path.c_str());
  ASSERT_EQ(saveProfile(A, Path, /*Merge=*/true), "");
  ASSERT_EQ(saveProfile(B, Path, /*Merge=*/true), "");
  DenseProfile Stored;
  ASSERT_EQ(DenseProfile::loadFile(Path, Stored), "");
  EXPECT_EQ(Stored.serialize(), AB.serialize());

  DenseProfile Twice;
  ASSERT_EQ(loadProfiles({Path, Path}, Twice), "");
  DenseProfile Expected = AB;
  ASSERT_EQ(Expected.merge(AB), "");
  EXPECT_EQ(Twice.serialize(), Expected.serialize());

  // Without Merge the file is overwritten.
  ASSERT_EQ(saveProfile(A, Path, /*Merge=*/false), "");
  ASSERT_EQ(DenseProfile::loadFile(Path, Stored), "");
  EXPECT_EQ(Stored.serialize(), A.serialize());

  // A profile of another module neither merges into nor loads with it.
  auto Other = buildNamed("compress");
  SimEngine OtherEngine(*Other, rs6000());
  DenseProfile C = profileAt(OtherEngine, 1);
  std::string Err = saveProfile(C, Path, /*Merge=*/true);
  EXPECT_EQ(Err.rfind(Path + ": profile merge:", 0), 0u) << Err;
  std::string OtherPath = tempPath("vsc_pdf_store_handoff_other.vscp");
  ASSERT_EQ(saveProfile(C, OtherPath, /*Merge=*/false), "");
  DenseProfile Mixed;
  Err = loadProfiles({Path, OtherPath}, Mixed);
  EXPECT_EQ(Err.rfind(OtherPath + ": profile merge:", 0), 0u) << Err;
  std::remove(Path.c_str());
  std::remove(OtherPath.c_str());

  Err = loadProfiles({Path}, Mixed);
  EXPECT_EQ(Err.rfind(Path + ": cannot open", 0), 0u) << Err;
}

TEST(PdfStore, MergeIsCommutativeAndAssociative) {
  auto M = buildNamed("eqntott");
  SimEngine Engine(*M, rs6000());
  DenseProfile A = profileAt(Engine, 1);
  DenseProfile B = profileAt(Engine, 2);
  DenseProfile C = profileAt(Engine, 3);

  DenseProfile AB = A;
  ASSERT_EQ(AB.merge(B), "");
  DenseProfile BA = B;
  ASSERT_EQ(BA.merge(A), "");
  EXPECT_EQ(AB.serialize(), BA.serialize());

  DenseProfile AB_C = AB;
  ASSERT_EQ(AB_C.merge(C), "");
  DenseProfile BC = B;
  ASSERT_EQ(BC.merge(C), "");
  DenseProfile A_BC = A;
  ASSERT_EQ(A_BC.merge(BC), "");
  EXPECT_EQ(AB_C.serialize(), A_BC.serialize());
}

TEST(PdfStore, MergeRejectsMismatchedCfg) {
  auto A = buildNamed("eqntott");
  auto B = buildNamed("compress");
  SimEngine EA(*A, rs6000()), EB(*B, rs6000());
  DenseProfile PA = profileAt(EA, 1);
  DenseProfile PB = profileAt(EB, 1);
  DenseProfile Before = PA;
  EXPECT_NE(PA.merge(PB), "");
  // A failed merge must leave the counts untouched.
  EXPECT_EQ(PA.serialize(), Before.serialize());
}

TEST(PdfStore, StaleProfileRejected) {
  auto A = buildNamed("eqntott");
  auto B = buildNamed("compress");
  SimEngine Engine(*A, rs6000());
  DenseProfile P = profileAt(Engine, 1);
  EXPECT_EQ(P.validateFor(*A), "");
  std::string Stale = P.validateFor(*B);
  EXPECT_NE(Stale, "");
  EXPECT_NE(Stale.find("stale"), std::string::npos) << Stale;
}

TEST(PdfStore, CorruptImagesAreDiagnosed) {
  auto M = buildNamed("eqntott");
  SimEngine Engine(*M, rs6000());
  DenseProfile P = profileAt(Engine, 1);
  std::vector<uint8_t> Bytes = P.serialize();
  DenseProfile Out;

  // Bad magic.
  std::vector<uint8_t> BadMagic = Bytes;
  BadMagic[0] ^= 0xff;
  EXPECT_NE(DenseProfile::deserialize(BadMagic.data(), BadMagic.size(), Out),
            "");

  // A flipped byte anywhere in the payload breaks the checksum.
  std::vector<uint8_t> Flipped = Bytes;
  Flipped[Bytes.size() / 2] ^= 0x40;
  EXPECT_NE(DenseProfile::deserialize(Flipped.data(), Flipped.size(), Out),
            "");

  // Truncation at every prefix length is an error, never a crash.
  for (size_t Len = 0; Len < Bytes.size(); Len += 7)
    EXPECT_NE(DenseProfile::deserialize(Bytes.data(), Len, Out), "")
        << "prefix " << Len;

  // Trailing garbage.
  std::vector<uint8_t> Long = Bytes;
  Long.push_back(0);
  EXPECT_NE(DenseProfile::deserialize(Long.data(), Long.size(), Out), "");

  // Unsupported future version.
  std::vector<uint8_t> Future = Bytes;
  Future[4] = 0x7f;
  EXPECT_NE(DenseProfile::deserialize(Future.data(), Future.size(), Out),
            "");
}

TEST(PdfStore, FuzzRoundTripOverRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    CompileResult C = compileMiniC(generateRandomMiniC(Seed));
    ASSERT_TRUE(C.ok()) << C.Error;
    SimEngine Engine(*C.M, rs6000());
    EXPECT_EQ(cfgFingerprint(*C.M), cfgFingerprint(Engine.image()))
        << "seed " << Seed;

    std::string Err;
    DenseProfile P = collectDenseProfile(Engine, {RunOptions()}, 1, &Err);
    EXPECT_EQ(Err, "") << "seed " << Seed;
    std::vector<uint8_t> Bytes = P.serialize();
    DenseProfile Q;
    ASSERT_EQ(DenseProfile::deserialize(Bytes.data(), Bytes.size(), Q), "")
        << "seed " << Seed;
    EXPECT_EQ(Bytes, Q.serialize()) << "seed " << Seed;

    // Dense counts agree with the simulator's string-keyed ground truth.
    ProfileData D = P.toProfileData();
    RunResult R = simulate(*C.M, rs6000());
    EXPECT_EQ(D.BlockCount, R.BlockCounts) << "seed " << Seed;
    EXPECT_EQ(D.EdgeCount, R.EdgeCounts) << "seed " << Seed;
  }
}

// Counters are 64-bit end to end: a long profiling campaign (or a merged
// fleet of training runs) pushes block counts past 2^32, and any 32-bit
// truncation in accumulate / merge / the ProfileData adapter / the VSCP
// wire format would wrap them silently. Forced-overflow regression:
// synthetic dense counters above 2^32 must survive every hop exactly.
TEST(PdfStore, CountsAbove32BitsSurviveAccumulateMergeAndSerialize) {
  auto M = buildNamed("eqntott");
  SimEngine Engine(*M, rs6000());
  DenseProfile P = DenseProfile::forImage(Engine.image());
  ASSERT_FALSE(P.BlockKeys.empty());
  ASSERT_FALSE(P.EdgeKeys.empty());

  const uint64_t Big = (uint64_t(1) << 32) + 12345;   // > UINT32_MAX
  const uint64_t Huge = (uint64_t(1) << 40) + 67890;  // > 2^32 after any wrap

  DenseCounters C;
  C.BlockHits.assign(P.BlockCounts.size(), Big);
  C.EdgeHits.assign(P.EdgeCounts.size(), Big);
  P.accumulate(C);
  EXPECT_EQ(P.BlockCounts.front(), Big);
  EXPECT_EQ(P.EdgeCounts.front(), Big);

  DenseProfile Q = DenseProfile::forImage(Engine.image());
  DenseCounters D;
  D.BlockHits.assign(Q.BlockCounts.size(), Huge);
  D.EdgeHits.assign(Q.EdgeCounts.size(), Huge);
  Q.accumulate(D);

  ASSERT_EQ(P.merge(Q), "");
  const uint64_t Sum = Big + Huge; // needs 41 bits
  for (uint64_t N : P.BlockCounts)
    EXPECT_EQ(N, Sum);
  for (uint64_t N : P.EdgeCounts)
    EXPECT_EQ(N, Sum);

  // The adapter sums slots sharing one interned key; every materialized
  // count must be an exact multiple of Sum (and far beyond 32 bits).
  ProfileData PD = P.toProfileData();
  ASSERT_FALSE(PD.BlockCount.empty());
  for (const auto &[Key, N] : PD.BlockCount)
    EXPECT_EQ(N % Sum, 0u) << Key;
  for (const auto &[Key, N] : PD.EdgeCount)
    EXPECT_EQ(N % Sum, 0u) << Key;

  // VSCP wire format round trip, byte-exact.
  std::vector<uint8_t> Bytes = P.serialize();
  DenseProfile R;
  ASSERT_EQ(DenseProfile::deserialize(Bytes.data(), Bytes.size(), R), "");
  EXPECT_EQ(R.BlockCounts, P.BlockCounts);
  EXPECT_EQ(R.EdgeCounts, P.EdgeCounts);
  EXPECT_EQ(R.serialize(), Bytes);
}
