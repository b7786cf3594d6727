//===- pdf/ProfileStore.h - Persistent, mergeable profiles ----*- C++ -*-===//
///
/// \file
/// The profile subsystem behind profile-directed feedback: profiles as
/// first-class artifacts that outlive one process, instead of in-memory
/// string-keyed maps rebuilt per experiment.
///
///  * Dense collection — a DenseProfile is recorded straight from
///    SimEngine's interned block/edge counter slots (SimEngine::run with a
///    DenseCounters out-parameter): slot-indexed count vectors plus the
///    predecode key table, with no per-run string-map materialization.
///    ProfileData consumers (superblock formation, the PDF layout gate,
///    the profile scheduling heuristic) read the dense form through the
///    toProfileData() adapter, built once per profile.
///
///  * Persistence — a versioned binary format (magic, format version,
///    module CFG fingerprint, key table, counter payload, trailing
///    checksum) with save/load. Loading validates structure and checksum;
///    validateFor() compares the stored CFG fingerprint against the module
///    about to consume the profile, so a stale profile is reported instead
///    of silently mis-attributing counts.
///
///  * Accumulation — merge() adds two profiles of the same CFG
///    (associative and commutative, so multi-input training runs can
///    accumulate in any grouping); loadProfiles() and saveProfile() are
///    the merge-aware file handoff the command-line tools share.
///
/// The CFG fingerprint hashes exactly the interned profiling-key sequence
/// the predecoder builds (blocks in layout order, fallthrough and taken
/// edges in decode order), and is computable both from a SimImage and
/// directly from a Module — the two agree by construction (enforced by
/// tests/test_pdf_store.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef VSC_PDF_PROFILESTORE_H
#define VSC_PDF_PROFILESTORE_H

#include "profile/ProfileData.h"
#include "sim/Predecode.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vsc {

/// Fingerprint of a module's profiling-relevant CFG structure: function
/// names, block labels in layout order, and every counter-carrying edge
/// (fallthrough + branch targets) in predecode order. Profiles only
/// attach to modules with an equal fingerprint.
uint64_t cfgFingerprint(const Module &M);

/// Same value, computed from a predecoded image's interned key tables.
uint64_t cfgFingerprint(const SimImage &Img);

/// A module profile in dense slot-indexed form. Slots mirror the
/// predecoded image's interned key tables: BlockCounts[i] counts the block
/// whose profiling key is BlockKeys[i], likewise for edges. Distinct edge
/// slots may intern the same key (a taken branch and a fallthrough to the
/// same successor); the adapter sums them, exactly like the legacy
/// string-map materialization.
class DenseProfile {
public:
  static constexpr uint32_t FormatVersion = 1;

  uint64_t CfgHash = 0;
  std::vector<std::string> BlockKeys;
  std::vector<std::string> EdgeKeys;
  std::vector<uint64_t> BlockCounts;
  std::vector<uint64_t> EdgeCounts;

  bool empty() const { return BlockKeys.empty() && EdgeKeys.empty(); }

  /// A zero-count profile shaped after \p Img (key tables + fingerprint).
  static DenseProfile forImage(const SimImage &Img);

  /// Adds one run's dense slot counters (from SimEngine::runBatch's
  /// \p Dense output against the image this profile was shaped after).
  void accumulate(const DenseCounters &C);

  /// Adds \p O into this profile. \returns "" on success, else a
  /// diagnostic (CFG fingerprint or shape mismatch; counts untouched).
  std::string merge(const DenseProfile &O);

  /// Thin adapter for ProfileData consumers: materializes the string-keyed
  /// maps once per profile (summing slots that intern the same key)
  /// instead of once per simulation run.
  ProfileData toProfileData() const;

  /// \returns "" when \p M 's CFG fingerprint matches, else a "stale
  /// profile" diagnostic naming both fingerprints.
  std::string validateFor(const Module &M) const;

  // --- persistence --------------------------------------------------------

  /// Versioned binary image: magic "VSCP", u32 format version, u64 CFG
  /// fingerprint, key tables, counter payload, trailing FNV-1a checksum.
  std::vector<uint8_t> serialize() const;

  /// Parses \p Size bytes at \p Data into \p Out. \returns "" on success,
  /// else a diagnostic (bad magic / unsupported version / truncation /
  /// checksum mismatch); \p Out is unspecified on failure.
  static std::string deserialize(const uint8_t *Data, size_t Size,
                                 DenseProfile &Out);

  /// \returns "" on success, else an I/O or format diagnostic.
  std::string saveFile(const std::string &Path) const;
  static std::string loadFile(const std::string &Path, DenseProfile &Out);
};

/// Loads every file of \p Paths and merges them, in order, into \p Out.
/// \returns "" on success, else "FILE: diagnostic" naming the first file
/// that failed to load or to merge.
std::string loadProfiles(const std::vector<std::string> &Paths,
                         DenseProfile &Out);

/// Saves \p P to \p Path. With \p Merge, \p P is first added to the
/// profile already stored there; a file that cannot be opened counts as
/// empty, so the first of several processes creates it. \returns "" on
/// success, else a diagnostic.
std::string saveProfile(const DenseProfile &P, const std::string &Path,
                        bool Merge);

/// Collects a ground-truth dense profile: runs every element of \p Train
/// against \p Engine's image (fanning out over \p Threads workers; 0
/// defers to VSC_THREADS) and accumulates the dense counters in battery
/// order — deterministic and byte-identical at every thread count.
/// \p Err receives a diagnostic when a training run traps (the profile
/// still contains every non-trapping run's counts).
DenseProfile collectDenseProfile(SimEngine &Engine,
                                 const std::vector<RunOptions> &Train,
                                 unsigned Threads = 0,
                                 std::string *Err = nullptr);

} // namespace vsc

#endif // VSC_PDF_PROFILESTORE_H
