//===- pdf/ProfileStore.cpp - Persistent, mergeable profiles ----------------===//

#include "pdf/ProfileStore.h"

#include <algorithm>
#include <cstring>
#include <fstream>

using namespace vsc;

namespace {

constexpr char Magic[4] = {'V', 'S', 'C', 'P'};

/// FNV-1a, the digest already used for memory images (sim/FastSim.cpp).
class Fnv {
public:
  void bytes(const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    for (size_t I = 0; I != N; ++I) {
      H ^= B[I];
      H *= 1099511628211ULL;
    }
  }
  void str(const std::string &S) {
    bytes(S.data(), S.size());
    uint8_t Sep = 0x01; // keys never contain raw control bytes
    bytes(&Sep, 1);
  }
  void mark(uint8_t M) { bytes(&M, 1); }
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ULL;
};

uint64_t hashKeyTables(const std::vector<std::string> &BlockKeys,
                       const std::vector<std::string> &EdgeKeys) {
  Fnv H;
  for (const std::string &K : BlockKeys)
    H.str(K);
  H.mark(0x02);
  for (const std::string &K : EdgeKeys)
    H.str(K);
  return H.value();
}

/// Reproduces the predecoder's interned key sequence straight from the IR:
/// blocks in layout order; per block first the fallthrough edge (all but a
/// function's last block), then a taken edge per branch instruction in
/// instruction order — exactly sim/Predecode.cpp.
void collectKeyTables(const Module &M, std::vector<std::string> &BlockKeys,
                      std::vector<std::string> &EdgeKeys) {
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      BlockKeys.push_back(blockCountKey(F->name(), BB->label()));
  for (const auto &F : M.functions()) {
    const auto &Blocks = F->blocks();
    for (size_t BI = 0; BI != Blocks.size(); ++BI) {
      const BasicBlock &BB = *Blocks[BI];
      if (BI + 1 != Blocks.size())
        EdgeKeys.push_back(edgeCountKey(F->name(), BB.label(),
                                        Blocks[BI + 1]->label()));
      for (const Instr &I : BB.instrs())
        if (I.Op == Opcode::B || I.Op == Opcode::BT ||
            I.Op == Opcode::BF || I.Op == Opcode::BCT)
          EdgeKeys.push_back(edgeCountKey(F->name(), BB.label(), I.Target));
    }
  }
}

// --- little-endian serialization helpers ----------------------------------

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putStr(std::vector<uint8_t> &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

/// Bounds-checked cursor over the serialized image.
struct Reader {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;

  bool need(size_t N) {
    if (!Ok || Size - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return "";
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }
};

} // namespace

uint64_t vsc::cfgFingerprint(const Module &M) {
  std::vector<std::string> BlockKeys, EdgeKeys;
  collectKeyTables(M, BlockKeys, EdgeKeys);
  return hashKeyTables(BlockKeys, EdgeKeys);
}

uint64_t vsc::cfgFingerprint(const SimImage &Img) {
  return hashKeyTables(Img.BlockKeys, Img.EdgeKeys);
}

DenseProfile DenseProfile::forImage(const SimImage &Img) {
  DenseProfile P;
  P.CfgHash = cfgFingerprint(Img);
  P.BlockKeys = Img.BlockKeys;
  P.EdgeKeys = Img.EdgeKeys;
  P.BlockCounts.assign(P.BlockKeys.size(), 0);
  P.EdgeCounts.assign(P.EdgeKeys.size(), 0);
  return P;
}

void DenseProfile::accumulate(const DenseCounters &C) {
  size_t NB = std::min(BlockCounts.size(), C.BlockHits.size());
  for (size_t I = 0; I != NB; ++I)
    BlockCounts[I] += C.BlockHits[I];
  size_t NE = std::min(EdgeCounts.size(), C.EdgeHits.size());
  for (size_t I = 0; I != NE; ++I)
    EdgeCounts[I] += C.EdgeHits[I];
}

std::string DenseProfile::merge(const DenseProfile &O) {
  if (CfgHash != O.CfgHash)
    return "profile merge: CFG fingerprint mismatch (" +
           std::to_string(CfgHash) + " vs " + std::to_string(O.CfgHash) +
           ") — the profiles were collected from different modules";
  if (BlockCounts.size() != O.BlockCounts.size() ||
      EdgeCounts.size() != O.EdgeCounts.size())
    return "profile merge: slot-table shape mismatch";
  for (size_t I = 0; I != BlockCounts.size(); ++I)
    BlockCounts[I] += O.BlockCounts[I];
  for (size_t I = 0; I != EdgeCounts.size(); ++I)
    EdgeCounts[I] += O.EdgeCounts[I];
  return "";
}

ProfileData DenseProfile::toProfileData() const {
  ProfileData P;
  for (size_t I = 0; I != BlockCounts.size(); ++I)
    if (BlockCounts[I])
      P.BlockCount[BlockKeys[I]] += BlockCounts[I];
  for (size_t I = 0; I != EdgeCounts.size(); ++I)
    if (EdgeCounts[I])
      P.EdgeCount[EdgeKeys[I]] += EdgeCounts[I];
  return P;
}

std::string DenseProfile::validateFor(const Module &M) const {
  uint64_t H = cfgFingerprint(M);
  if (H == CfgHash)
    return "";
  return "stale profile: module CFG fingerprint " + std::to_string(H) +
         " does not match the profile's " + std::to_string(CfgHash) +
         " — recollect the profile against this module";
}

std::vector<uint8_t> DenseProfile::serialize() const {
  std::vector<uint8_t> Out;
  Out.insert(Out.end(), Magic, Magic + 4);
  putU32(Out, FormatVersion);
  putU64(Out, CfgHash);
  putU64(Out, BlockKeys.size());
  putU64(Out, EdgeKeys.size());
  for (const std::string &K : BlockKeys)
    putStr(Out, K);
  for (const std::string &K : EdgeKeys)
    putStr(Out, K);
  for (uint64_t C : BlockCounts)
    putU64(Out, C);
  for (uint64_t C : EdgeCounts)
    putU64(Out, C);
  Fnv H;
  H.bytes(Out.data(), Out.size());
  putU64(Out, H.value());
  return Out;
}

std::string DenseProfile::deserialize(const uint8_t *Data, size_t Size,
                                      DenseProfile &Out) {
  if (Size < 4 + 4 + 8 + 8 + 8 + 8)
    return "profile image truncated (header incomplete)";
  if (std::memcmp(Data, Magic, 4) != 0)
    return "not a profile file (bad magic)";
  // Checksum covers everything before the trailing digest.
  Fnv H;
  H.bytes(Data, Size - 8);
  Reader Tail{Data, Size, Size - 8, true};
  if (H.value() != Tail.u64())
    return "profile image corrupt (checksum mismatch)";

  Reader R{Data, Size - 8, 4, true};
  uint32_t Version = R.u32();
  if (Version != FormatVersion)
    return "unsupported profile format version " + std::to_string(Version) +
           " (this build reads version " + std::to_string(FormatVersion) +
           ")";
  Out = DenseProfile();
  Out.CfgHash = R.u64();
  uint64_t NB = R.u64(), NE = R.u64();
  // Each key costs at least its 4-byte length prefix; reject sizes the
  // remaining bytes cannot possibly hold before reserving anything
  // (division avoids overflow on corrupt huge counts).
  uint64_t Left = R.Size - R.Pos;
  if (!R.Ok || NB > Left / 4 || NE > Left / 4 || NB + NE > Left / 4)
    return "profile image truncated (key table)";
  Out.BlockKeys.reserve(NB);
  for (uint64_t I = 0; I != NB && R.Ok; ++I)
    Out.BlockKeys.push_back(R.str());
  Out.EdgeKeys.reserve(NE);
  for (uint64_t I = 0; I != NE && R.Ok; ++I)
    Out.EdgeKeys.push_back(R.str());
  if (!R.Ok)
    return "profile image truncated (key table)";
  if ((NB + NE) * 8 != R.Size - R.Pos)
    return "profile image truncated (counter payload)";
  Out.BlockCounts.reserve(NB);
  for (uint64_t I = 0; I != NB; ++I)
    Out.BlockCounts.push_back(R.u64());
  Out.EdgeCounts.reserve(NE);
  for (uint64_t I = 0; I != NE; ++I)
    Out.EdgeCounts.push_back(R.u64());
  return "";
}

std::string DenseProfile::saveFile(const std::string &Path) const {
  std::vector<uint8_t> Bytes = serialize();
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return "cannot open '" + Path + "' for writing";
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  if (!Out.flush())
    return "write to '" + Path + "' failed";
  return "";
}

std::string DenseProfile::loadFile(const std::string &Path,
                                   DenseProfile &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "cannot open '" + Path + "'";
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  if (In.bad())
    return "read from '" + Path + "' failed";
  return deserialize(Bytes.data(), Bytes.size(), Out);
}

std::string vsc::loadProfiles(const std::vector<std::string> &Paths,
                              DenseProfile &Out) {
  for (size_t I = 0; I != Paths.size(); ++I) {
    DenseProfile One;
    std::string Err = DenseProfile::loadFile(Paths[I], One);
    if (Err.empty() && I)
      Err = Out.merge(One);
    else if (Err.empty())
      Out = std::move(One);
    if (!Err.empty())
      return Paths[I] + ": " + Err;
  }
  return "";
}

std::string vsc::saveProfile(const DenseProfile &P, const std::string &Path,
                             bool Merge) {
  if (Merge) {
    DenseProfile Old;
    std::string Err = DenseProfile::loadFile(Path, Old);
    if (Err.empty())
      Err = Old.merge(P);
    if (Err.empty())
      return Old.saveFile(Path);
    if (Err.rfind("cannot open", 0) != 0)
      return Path + ": " + Err;
  }
  return P.saveFile(Path);
}

DenseProfile vsc::collectDenseProfile(SimEngine &Engine,
                                      const std::vector<RunOptions> &Train,
                                      unsigned Threads, std::string *Err) {
  DenseProfile P = DenseProfile::forImage(Engine.image());
  std::vector<DenseCounters> Dense;
  std::vector<RunResult> Runs = Engine.runBatch(Train, Threads, &Dense);
  for (size_t I = 0; I != Runs.size(); ++I) {
    if (Runs[I].Trapped) {
      if (Err && Err->empty())
        *Err = "training run " + std::to_string(I) +
               " trapped: " + Runs[I].TrapMsg;
      continue;
    }
    // Battery order, not completion order: merging stays byte-identical
    // at every thread count.
    P.accumulate(Dense[I]);
  }
  return P;
}
