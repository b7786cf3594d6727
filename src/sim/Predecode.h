//===- sim/Predecode.h - Predecoded module image --------------*- C++ -*-===//
///
/// \file
/// One-time decode to flat execution records, shared by the simulator fast
/// path (sim/FastSim.cpp) and the oracle's reference interpreter
/// (oracle/Interp.cpp). The walking engines re-resolve branch labels, call
/// targets and global symbols by string and build "func:label" map keys on
/// every executed block; predecode does all of that exactly once:
///
///  * every branch target becomes a block index,
///  * every LTOC/global symbol becomes its final address,
///  * every block and every control-flow edge becomes a dense counter
///    slot (the string-keyed BlockCounts/EdgeCounts maps are materialized
///    once at the end of a run from interned, escape-unambiguous keys),
///  * every instruction becomes one 32-byte hot record carrying exactly
///    what the execution loop touches; everything it does not (the Instr
///    origin for trap messages and watcher callbacks, resolved callee
///    pointers for the interpreter) lives in cold side tables indexed in
///    parallel.
///
/// The hot record is deliberately ≤ 32 bytes — half a cache line, a third
/// of the original layout — so the gcc image's working set stays cache
/// resident. Adjacent records the fast path can execute as one fused
/// superinstruction (compare+branch, LTOC+load, load+use) are marked at
/// decode time by rewriting the first record's op byte to a SimOp beyond
/// the architectural opcode range; the second record of a pair keeps its
/// architectural opcode and is only ever reached through the first (branch
/// targets are block heads, never mid-block).
///
/// The image is immutable and independent of RunOptions, so one image
/// serves a whole batch of runs (SimEngine::runBatch). Predecode
/// also asserts profiling-key uniqueness: duplicate block labels within a
/// function (or duplicate function names) would merge counters.
///
//===----------------------------------------------------------------------===//

#ifndef VSC_SIM_PREDECODE_H
#define VSC_SIM_PREDECODE_H

#include "ir/Module.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace vsc {

/// Calls the simulator implements natively (ir/Abi.h builtins).
enum class SimBuiltin : int8_t {
  None = -1,
  PrintInt,
  PrintChar,
  ReadInt,
  Exit,
};

/// Execution opcode: the architectural Opcode values, followed by the
/// fused superinstructions the predecoder may substitute on the first
/// record of an adjacent pair. The fast path switches on SimOp; the
/// dispatch-completeness test runs every value against the legacy
/// interpreter.
enum : uint8_t {
  /// C/CI immediately followed by a BT/BF reading the compare's Dst cr.
  SimOpFuseCmpB = static_cast<uint8_t>(Opcode::NumOpcodes),
  /// LTOC of a known global immediately followed by a plain L through the
  /// loaded base register.
  SimOpFuseLtocL,
  /// Plain L immediately followed by a register-immediate ALU op (or CI)
  /// over the loaded value.
  SimOpFuseLdAlu,
  NumSimOps
};

/// Registers packed to 4 bytes: class in the top 2 bits, id in the low 30
/// (ids stay below Reg::IdLimit; predecode asserts). An invalid Reg packs
/// to 0 (RegClass::None, id 0).
using PackedReg = uint32_t;

inline PackedReg packReg(Reg R) {
  return (static_cast<uint32_t>(R.regClass()) << 30) | R.id();
}
inline RegClass packedClass(PackedReg P) {
  return static_cast<RegClass>(P >> 30);
}
inline uint32_t packedId(PackedReg P) { return P & (Reg::IdLimit - 1); }

/// DecodedInstr::Flags bits. CrBit occupies bits 5..6.
enum : uint8_t {
  DIFlagGlobalKnown = 1u << 2, ///< LTOC: Imm holds the resolved address
  DIFlagSpecSafe = 1u << 3,    ///< Instr::SpecSafe (oracle semantics)
  DIFlagVolatile = 1u << 4,    ///< Instr::IsVolatile (oracle semantics)
  DIFlagCrBitShift = 5,
  DIFlagCrBitMask = 0x3u << DIFlagCrBitShift,
};

/// One flat, fully resolved instruction record — the hot half. Cold
/// per-instruction state (the originating Instr for trap messages and
/// watcher callbacks, resolved interpreter callees) lives in side tables
/// indexed in parallel with SimImage::Instrs / InterpImage::Instrs.
struct DecodedInstr {
  /// SimOp: the architectural opcode, or a fused superinstruction on the
  /// first record of a fused pair (module images only; see fusion notes in
  /// the file comment).
  uint8_t Op;
  /// DIFlag bits plus the BT/BF/C/CI condition bit in bits 5..6.
  uint8_t Flags;
  uint8_t MemSize;
  /// Result-availability latency under the image's machine model (the
  /// largest stock latency, DivLatency = 20, fits comfortably). Zero in
  /// interpreter images, which carry no timing model.
  uint8_t Latency;
  PackedReg Dst, Src1, Src2;
  /// Immediate / displacement. LTOC (which has no architectural
  /// immediate) reuses this for the resolved global address when
  /// DIFlagGlobalKnown is set.
  int64_t Imm;
  /// Branches: target block index (global for module images, function-
  /// local for interpreter images), or -1 for a label that does not
  /// resolve (both engines trap at execution time).
  /// CALL: callee function index into SimImage::Funcs, or
  /// -2 - SimBuiltin for a builtin, or -1 for an unresolved callee.
  /// (Interpreter images resolve callees through a cold pointer table and
  /// only use the builtin / unresolved encodings.)
  int32_t Target;
  /// Branches: edge counter slot for the taken transfer. Exists even when
  /// Target is -1, because the edge is counted before the trap.
  int32_t TakenEdge;

  CrBit crBit() const {
    return static_cast<CrBit>((Flags & DIFlagCrBitMask) >> DIFlagCrBitShift);
  }
  bool globalKnown() const { return Flags & DIFlagGlobalKnown; }
  bool specSafe() const { return Flags & DIFlagSpecSafe; }
  bool isVolatile() const { return Flags & DIFlagVolatile; }
  unsigned latency() const { return Latency; }
  /// CALL: the builtin encoded in Target, or SimBuiltin::None.
  SimBuiltin builtin() const {
    return Target <= -2 ? static_cast<SimBuiltin>(-2 - Target)
                        : SimBuiltin::None;
  }
};

static_assert(sizeof(DecodedInstr) <= 32,
              "hot record must stay within half a cache line");

struct DecodedBlock {
  /// [FirstInstr, FirstInstr + NumInstrs) into the image's Instrs. Blocks
  /// of one function are contiguous and in layout order, so falling
  /// through means advancing to the next block record.
  uint32_t FirstInstr;
  uint32_t NumInstrs;
  /// Edge counter slot for falling through into the next block, or -1 for
  /// a function's last block. The block's own counter slot is its index.
  int32_t FallEdge;
  /// The original block, reported to RunOptions::Watcher on entry and
  /// used for interpreter coverage — never consulted on the hot path when
  /// no watcher is installed.
  const BasicBlock *Origin;
};

struct DecodedFunction {
  const Function *F;
  /// [FirstBlock, FirstBlock + NumBlocks) into SimImage::Blocks.
  uint32_t FirstBlock;
  uint32_t NumBlocks;
};

/// A module's global data: each global's address (computeGlobalLayout),
/// the end of the data area, and the initializers flattened to one byte
/// image for addresses [4096, 4096 + DataInit.size()).
struct DataLayout {
  std::unordered_map<std::string, uint64_t> GlobalBase;
  uint64_t DataEnd = 4096;
  std::vector<uint8_t> DataInit;
};

/// Builds \p M's data layout; predecode and the oracle interpreter's
/// session both start from it.
DataLayout buildDataLayout(const Module &M);

/// The immutable predecoded image of one (module, machine model) pair.
/// The model is copied in (so a temporary like rs6000() is fine); the
/// module must outlive the image.
struct SimImage {
  const Module *M = nullptr;
  MachineModel Model;

  std::vector<DecodedFunction> Funcs;
  std::vector<DecodedBlock> Blocks;
  std::vector<DecodedInstr> Instrs;
  /// Cold side table, parallel to Instrs: the originating Instr, for trap
  /// messages (unknown label/global/function symbols) and watcher
  /// callbacks — never consulted on the hot path.
  std::vector<const Instr *> Origins;

  /// First function of each name, mirroring Module::findFunction.
  std::unordered_map<std::string, uint32_t> FuncByName;

  /// Interned profiling keys: BlockKeys[b] is blockCountKey for block slot
  /// b; EdgeKeys[e] is edgeCountKey for edge slot e. Distinct slots may
  /// share a key (a taken branch and a fallthrough to the same successor);
  /// materialization sums them, exactly as the legacy map does.
  std::vector<std::string> BlockKeys;
  std::vector<std::string> EdgeKeys;

  DataLayout Data;

  /// Fused superinstruction pairs formed at decode time (statistics /
  /// bench reporting; the records themselves carry the fusion).
  uint64_t FusedPairs = 0;
};

/// Builds the predecoded image. Asserts that block labels are unique per
/// function and function names unique per module (collisions would merge
/// profiling counters). \p Fuse controls superinstruction formation
/// (default on; the differential tests exercise both states).
SimImage predecode(const Module &M, const MachineModel &Model,
                   bool Fuse = true);

/// Per-function flat decode for the oracle's reference interpreter: the
/// same hot records (timing fields zeroed, no fusion), with branch targets
/// as function-local block indices and callees resolved once through cold
/// side tables. The function, the module functions behind Callees and the
/// referenced Instrs must outlive the image.
struct InterpImage {
  std::vector<DecodedBlock> Blocks;
  std::vector<DecodedInstr> Instrs;
  /// Cold, parallel to Instrs: originating Instr (trap messages, traces).
  std::vector<const Instr *> Origins;
  /// Cold, parallel to Instrs: CALL records resolve their callee through
  /// this table (module resolution; InterpOptions::Override is layered on
  /// top per run). Null for non-calls, builtins and unknown callees.
  std::vector<const Function *> Callees;
};

InterpImage
predecodeFunction(const Function &F,
                  const std::unordered_map<std::string, uint64_t> &GlobalBase,
                  const std::unordered_map<std::string, const Function *>
                      &FuncByName);

} // namespace vsc

#endif // VSC_SIM_PREDECODE_H
