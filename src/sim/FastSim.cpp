//===- sim/FastSim.cpp - Predecoded simulator fast path ---------------------===//
///
/// The execution engine behind vsc::simulate and SimEngine:
/// runs the functional+timing loop over the packed 32-byte records of a
/// SimImage (sim/Predecode.h). The loop body, one switch over the record's
/// opcode, lives in FastSimBody.inc; values come from sim/ValueCore.h
/// (shared with the oracle's interpreter), timing from machine/IssueCore.h
/// (shared with the scheduler's cost model). Fused superinstruction records
/// (SimOpFuse*) execute both constituents in one handler, charging the
/// instruction budget and issuing each constituent exactly where the
/// unfused sequence would.
///
/// Must stay bit-identical to the walking interpreter in Simulator.cpp
/// (simulateLegacy) — tests/test_sim_fastpath.cpp and
/// tests/test_sim_dispatch.cpp enforce that, so any semantic change must
/// be made in the value core and in simulateLegacy's own copy.
///
//===----------------------------------------------------------------------===//

#include "machine/IssueCore.h"
#include "sim/Predecode.h"
#include "sim/Simulator.h"
#include "sim/ValueCore.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>

#include <sys/mman.h>

using namespace vsc;

namespace {

using simcore::CrVal;
using simcore::RegFile;

/// Saved caller context for a call (fast-path flavour of the legacy
/// Frame: indices instead of Function/block pointers).
struct FastFrame {
  const DecodedFunction *F = nullptr;
  uint32_t Block = 0;
  uint32_t Instr = 0; // global instruction index, already past the CALL
  decltype(RegFile::Virt) Virt;
  decltype(RegFile::VirtReady) VirtReady;
};

/// A run's memory image in an anonymous mapping of its own. From the
/// malloc heap, a freed 4 MB image could stay pinned behind a small later
/// allocation once glibc had raised its mmap threshold, so the resident
/// size depended on allocation order. A fresh mapping is already zero; a
/// reused one of the same size is cleared in place.
class MappedMemory {
public:
  MappedMemory() = default;
  MappedMemory(const MappedMemory &) = delete;
  MappedMemory &operator=(const MappedMemory &) = delete;
  ~MappedMemory() { unmap(); }

  /// Resets the image to \p Bytes copies of \p Fill (always zero).
  void assign(size_t Bytes, uint8_t Fill) {
    assert(Fill == 0 && "a run's memory starts zeroed");
    if (Bytes != Size) {
      unmap();
      if (Bytes) {
        void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (P == MAP_FAILED)
          throw std::bad_alloc();
        Base = static_cast<uint8_t *>(P);
        Size = Bytes;
      }
      return;
    }
    std::memset(Base, Fill, Size);
  }

  size_t size() const { return Size; }
  uint8_t *data() { return Base; }
  const uint8_t *data() const { return Base; }
  uint8_t &operator[](size_t I) { return Base[I]; }
  uint8_t operator[](size_t I) const { return Base[I]; }

private:
  void unmap() {
    if (Base)
      munmap(Base, Size);
    Base = nullptr;
    Size = 0;
  }

  uint8_t *Base = nullptr;
  size_t Size = 0;
};

/// Storage pooled across the runs of a batch: the memory image, the dense
/// counter vectors and the call stack keep their capacity between runs.
/// The counter slots are 64-bit end to end — the per-run vectors here, the
/// DenseCounters export, and the materialized RunResult maps — so
/// high-trip-count batch runs cannot wrap (see test_sim_fastpath's
/// counter-width regression).
struct Arena {
  MappedMemory Mem;
  std::vector<uint64_t> BlockHits;
  std::vector<uint64_t> EdgeHits;
  std::vector<FastFrame> CallStack;
};

static_assert(sizeof(Arena::BlockHits[0]) == 8 &&
                  sizeof(Arena::EdgeHits[0]) == 8 &&
                  sizeof(DenseCounters::BlockHits[0]) == 8,
              "per-run counters must be 64-bit end to end");

class FastMachine {
public:
  FastMachine(const SimImage &Img, const RunOptions &Opts, Arena &A,
              DenseCounters *DenseOut = nullptr)
      : Img(Img), Model(Img.Model), Opts(Opts), Mem(A.Mem),
        BlockHits(A.BlockHits), EdgeHits(A.EdgeHits),
        CallStack(A.CallStack), DenseOut(DenseOut), W(Opts.Watcher),
        Core(Model) {}

  RunResult run() {
    RunResult R;
    auto It = Img.FuncByName.find(Opts.EntryFunction);
    const DecodedFunction *F =
        It == Img.FuncByName.end() ? nullptr : &Img.Funcs[It->second];
    if (!F || F->NumBlocks == 0) {
      R.Trapped = true;
      R.TrapMsg = simcore::noEntryTrap(Opts.EntryFunction);
      return R; // like the legacy engine: no digest, no counters
    }

    simcore::fillMemory(Mem, Opts.MemBytes, Img.Data);
    BlockHits.assign(Img.Blocks.size(), 0);
    EdgeHits.assign(Img.EdgeKeys.size(), 0);
    CallStack.clear();
    simcore::setEntryRegisters(Regs, Mem.size(), Opts.Args);

    CurF = F;
    Blk = F->FirstBlock;
    ++BlockHits[Blk];
    if (W) {
      W->enterFunction(CurF->F);
      W->enterBlock(Img.Blocks[Blk].Origin);
    }

    exec(R);
    return R;
  }

private:
  // The execution loop (FastSimBody.inc). Every return path inside has
  // called trap()/finish().
  void exec(RunResult &R);

  // --- functional helpers -------------------------------------------------

  /// Loads a gpr by packed operand. By-value on purpose: gpr() references
  /// can dangle across another gpr() call (virtual-register growth).
  [[gnu::always_inline]] int64_t gprVal(PackedReg P) {
    return Regs.gpr(packedId(P));
  }

  RunResult &trap(RunResult &R, const std::string &Msg) {
    R.Trapped = true;
    R.TrapMsg = Msg;
    return finish(R);
  }

  RunResult &finish(RunResult &R) {
    if (Finished)
      return R;
    Finished = true;
    R.MemDigest = simcore::dataDigest(Mem, Img.Data.DataEnd);
    R.Cycles = Core.lastIssue();
    R.OperandStallCycles = Core.operandStallCycles();
    R.BranchStallCycles = Core.branchStallCycles();
    if (Opts.KeepMemory)
      R.Memory.assign(Mem.data(), Mem.data() + Mem.size());
    if (DenseOut) {
      // Dense export: hand the slot vectors to the caller untouched (the
      // arena keeps its capacity — copy, don't move) and skip the string-
      // map materialization round-trip entirely.
      DenseOut->BlockHits = BlockHits;
      DenseOut->EdgeHits = EdgeHits;
      return R;
    }
    // Materialize the string-keyed counter maps from the dense slots.
    // Distinct slots may intern the same key (taken branch + fallthrough
    // to the same successor), so sum rather than assign.
    for (size_t S = 0; S != BlockHits.size(); ++S)
      if (BlockHits[S])
        R.BlockCounts[Img.BlockKeys[S]] += BlockHits[S];
    for (size_t S = 0; S != EdgeHits.size(); ++S)
      if (EdgeHits[S])
        R.EdgeCounts[Img.EdgeKeys[S]] += EdgeHits[S];
    return R;
  }

  // --- operand / def plumbing ---------------------------------------------
  // The legacy engine derives use/def sets per instruction; the packed
  // records carry no pools, so each handler states its operand floor and
  // commits inline through these class-dispatched helpers (forced inline:
  // every handler calls them, and out of line each operand is a call).

  [[gnu::always_inline]] uint64_t readyOf(PackedReg P) {
    switch (packedClass(P)) {
    case RegClass::Gpr:
      return Regs.gprReady(packedId(P));
    case RegClass::Cr:
      return Regs.crReady(packedId(P));
    case RegClass::Ctr:
      return Regs.CtrReady;
    default:
      return 0;
    }
  }

  [[gnu::always_inline]] void setReadyOf(PackedReg P, uint64_t T) {
    switch (packedClass(P)) {
    case RegClass::Gpr:
      Regs.gprReady(packedId(P)) = T;
      break;
    case RegClass::Cr:
      Regs.crReady(packedId(P)) = T;
      break;
    case RegClass::Ctr:
      Regs.CtrReady = T;
      break;
    default:
      break;
    }
  }

  /// Commits a value-producing instruction: value write (gprs only, like
  /// the legacy HasDstVal path), def-ready time, and the stack-overflow
  /// check when the destination is the stack pointer. False means trapped.
  bool commitAlu(const DecodedInstr &D, int64_t V, uint64_t C,
                 RunResult &R) {
    if (packedClass(D.Dst) == RegClass::Gpr) {
      uint32_t Id = packedId(D.Dst);
      Regs.gpr(Id) = V;
      Regs.gprReady(Id) = C + D.latency();
      // The stack grows down from the top of memory; a stack pointer that
      // descends into the global data area would silently corrupt globals
      // (and stores through it still look "mapped" to writeMem).
      if (Id == 1 && Regs.Phys[1] < static_cast<int64_t>(Img.Data.DataEnd))
        return trap(R, "stack overflow into data"), false;
    } else {
      setReadyOf(D.Dst, C + D.latency());
    }
    return true;
  }

  /// Commits a load-with-update: base register update, loaded value, and
  /// the legacy def-ready order (Dst first — BaseWhen when Dst aliases the
  /// base — then the base at BaseWhen). False means trapped.
  bool commitLu(const DecodedInstr &D, int64_t V, int64_t NewBase,
                uint64_t C, RunResult &R) {
    Regs.gpr(packedId(D.Src1)) = NewBase;
    if (packedClass(D.Dst) == RegClass::Gpr)
      Regs.gpr(packedId(D.Dst)) = V;
    uint64_t When = C + D.latency();
    uint64_t BaseWhen = C + Model.AluLatency;
    setReadyOf(D.Dst, D.Dst == D.Src1 ? BaseWhen : When);
    setReadyOf(D.Src1, BaseWhen);
    if ((D.Src1 == packReg(regs::sp()) ||
         (packedClass(D.Dst) == RegClass::Gpr && packedId(D.Dst) == 1)) &&
        Regs.Phys[1] < static_cast<int64_t>(Img.Data.DataEnd))
      return trap(R, "stack overflow into data"), false;
    return true;
  }

  /// Operand floor of a CALL: argument registers, the stack pointer and
  /// the TOC anchor (the legacy collectUses set for calls).
  uint64_t callFloor(int64_t ArgCount) {
    uint64_t T = std::max(Regs.gprReady(1), Regs.gprReady(2));
    for (int64_t I = 0; I < ArgCount; ++I)
      T = std::max(T, Regs.gprReady(3 + static_cast<uint32_t>(I)));
    return T;
  }

  /// Operand floor of a RET: the result register, the call-preserved set
  /// and the stack pointer (the legacy collectUses set for returns).
  uint64_t retFloor() {
    uint64_t T = std::max(Regs.gprReady(3), Regs.gprReady(1));
    for (uint32_t I = 13; I <= 31; ++I)
      T = std::max(T, Regs.gprReady(I));
    return T;
  }

  // --- state --------------------------------------------------------------

  const SimImage &Img;
  const MachineModel &Model;
  const RunOptions &Opts;

  MappedMemory &Mem;
  std::vector<uint64_t> &BlockHits;
  std::vector<uint64_t> &EdgeHits;
  std::vector<FastFrame> &CallStack;
  DenseCounters *DenseOut = nullptr;
  MemAccessWatcher *W = nullptr;

  RegFile Regs;
  const DecodedFunction *CurF = nullptr;
  uint32_t Blk = 0; // global block index
  size_t InputPos = 0;

  IssueCore Core;
  bool Finished = false;
};

void FastMachine::exec(RunResult &R) {
#include "FastSimBody.inc"
}

} // namespace

struct SimEngine::State {
  SimImage Img;
  Arena A;
};

SimEngine::SimEngine(const Module &M, const MachineModel &Machine)
    : S(std::make_unique<State>()) {
  S->Img = predecode(M, Machine);
}

SimEngine::SimEngine(SimEngine &&) noexcept = default;
SimEngine &SimEngine::operator=(SimEngine &&) noexcept = default;
SimEngine::~SimEngine() = default;

RunResult SimEngine::run(const RunOptions &Opts) {
  FastMachine FM(S->Img, Opts, S->A);
  return FM.run();
}

std::vector<RunResult>
SimEngine::runBatch(const std::vector<RunOptions> &Batch, unsigned Threads,
                    std::vector<DenseCounters> *Dense) {
  unsigned T = Threads ? std::min(Threads, 64u)
                       : ThreadPool::defaultThreadCount();
  std::vector<RunResult> Out(Batch.size());
  if (Dense)
    Dense->assign(Batch.size(), DenseCounters{});
  if (T <= 1 || Batch.size() <= 1) {
    // The pre-threaded shape: every run shares the engine's pooled arena.
    for (size_t I = 0; I != Batch.size(); ++I) {
      FastMachine FM(S->Img, Batch[I], S->A,
                     Dense ? &(*Dense)[I] : nullptr);
      Out[I] = FM.run();
    }
    return Out;
  }

  // Parallel fan-out: results are stored positionally, so the output is
  // schedule-independent. Arenas are pooled through a free list — a task
  // borrows one for the duration of its run, so at most min(T, |Batch|)
  // arenas ever exist and their capacity is reused across the batch.
  std::mutex Mu;
  std::vector<std::unique_ptr<Arena>> FreeArenas;
  ThreadPool Pool(T);
  Pool.parallelFor(Batch.size(), [&](size_t I) {
    std::unique_ptr<Arena> A;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!FreeArenas.empty()) {
        A = std::move(FreeArenas.back());
        FreeArenas.pop_back();
      }
    }
    if (!A)
      A = std::make_unique<Arena>();
    FastMachine FM(S->Img, Batch[I], *A, Dense ? &(*Dense)[I] : nullptr);
    Out[I] = FM.run();
    std::lock_guard<std::mutex> Lock(Mu);
    FreeArenas.push_back(std::move(A));
  });
  return Out;
}

const SimImage &SimEngine::image() const { return S->Img; }

RunResult vsc::simulate(const Module &M, const MachineModel &Machine,
                        const RunOptions &Opts) {
  SimImage Img = predecode(M, Machine);
  Arena A;
  FastMachine FM(Img, Opts, A);
  return FM.run();
}
