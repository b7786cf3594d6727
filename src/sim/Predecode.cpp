//===- sim/Predecode.cpp - Predecoded module image --------------------------===//

#include "sim/Predecode.h"

#include "ir/Abi.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <cassert>

using namespace vsc;

namespace {

SimBuiltin classifyBuiltin(const std::string &Sym) {
  if (!abi::isBuiltin(Sym))
    return SimBuiltin::None;
  if (Sym == "print_int")
    return SimBuiltin::PrintInt;
  if (Sym == "print_char")
    return SimBuiltin::PrintChar;
  if (Sym == "read_int")
    return SimBuiltin::ReadInt;
  return SimBuiltin::Exit;
}

PackedReg pack(Reg R) {
  assert(R.id() < Reg::IdLimit && "register id overflows the packed encoding");
  return packReg(R);
}

/// Fills the fields every record carries regardless of image flavour:
/// opcode, flag bits, operands, immediate (for LTOC, the resolved global
/// address) and, for module images, the latency. Target/TakenEdge
/// resolution is the caller's job.
DecodedInstr
decodeCore(const Instr &I, const MachineModel *Model,
           const std::unordered_map<std::string, uint64_t> &GlobalBase) {
  DecodedInstr D;
  D.Op = static_cast<uint8_t>(I.Op);
  D.Flags = static_cast<uint8_t>(static_cast<uint8_t>(I.Bit)
                                 << DIFlagCrBitShift);
  if (I.SpecSafe)
    D.Flags |= DIFlagSpecSafe;
  if (I.IsVolatile)
    D.Flags |= DIFlagVolatile;
  D.MemSize = I.MemSize;
  D.Latency = 0;
  if (Model) {
    unsigned Lat = Model->latencyOf(I);
    assert(Lat < 256 && "latency overflows the record's latency byte");
    D.Latency = static_cast<uint8_t>(Lat);
  }
  D.Dst = pack(I.Dst);
  D.Src1 = pack(I.Src1);
  D.Src2 = pack(I.Src2);
  D.Imm = I.Imm;
  if (I.Op == Opcode::LTOC) {
    auto It = GlobalBase.find(I.Sym);
    if (It != GlobalBase.end()) {
      D.Imm = static_cast<int64_t>(It->second);
      D.Flags |= DIFlagGlobalKnown;
    }
  }
  D.Target = -1;
  D.TakenEdge = -1;
  return D;
}

/// Second record of a load+use pair: a register-immediate ALU op over the
/// loaded value.
bool isRegImmAlu(uint8_t Op) {
  switch (static_cast<Opcode>(Op)) {
  case Opcode::AI:
  case Opcode::SI:
  case Opcode::MULI:
  case Opcode::ANDI:
  case Opcode::ORI:
  case Opcode::XORI:
  case Opcode::SLI:
  case Opcode::SRI:
  case Opcode::SRAI:
    return true;
  default:
    return false;
  }
}

/// Marks fusable adjacent pairs within [First, First + Num) by rewriting
/// the first record's op byte to the fused SimOp. Greedy left-to-right;
/// the second record keeps its architectural opcode (it is only ever
/// reached through the first — branch targets are block heads). Returns
/// the number of pairs formed.
uint64_t fuseBlock(DecodedInstr *Instrs, uint32_t First, uint32_t Num) {
  uint64_t Pairs = 0;
  for (uint32_t I = First; I + 1 < First + Num;) {
    DecodedInstr &D1 = Instrs[I];
    const DecodedInstr &D2 = Instrs[I + 1];
    bool Fused = false;
    switch (static_cast<Opcode>(D1.Op)) {
    case Opcode::C:
    case Opcode::CI:
      // Compare + conditional branch on the freshly written cr. The
      // handler discriminates the C/CI form by Src2's class, so require
      // the canonical shapes.
      if (packedClass(D1.Dst) == RegClass::Cr &&
          packedClass(D1.Src1) == RegClass::Gpr &&
          packedClass(D1.Src2) == (static_cast<Opcode>(D1.Op) == Opcode::C
                                       ? RegClass::Gpr
                                       : RegClass::None) &&
          (static_cast<Opcode>(D2.Op) == Opcode::BT ||
           static_cast<Opcode>(D2.Op) == Opcode::BF) &&
          D2.Src1 == D1.Dst) {
        D1.Op = SimOpFuseCmpB;
        Fused = true;
      }
      break;
    case Opcode::LTOC:
      // Address materialization + plain load through it.
      if (D1.globalKnown() && packedClass(D1.Dst) == RegClass::Gpr &&
          static_cast<Opcode>(D2.Op) == Opcode::L && D2.Src1 == D1.Dst) {
        D1.Op = SimOpFuseLtocL;
        Fused = true;
      }
      break;
    case Opcode::L:
      // Plain load + register-immediate ALU over the loaded value.
      if (packedClass(D1.Dst) == RegClass::Gpr && isRegImmAlu(D2.Op) &&
          D2.Src1 == D1.Dst) {
        D1.Op = SimOpFuseLdAlu;
        Fused = true;
      }
      break;
    default:
      break;
    }
    if (Fused) {
      ++Pairs;
      I += 2;
    } else {
      ++I;
    }
  }
  return Pairs;
}

} // namespace

DataLayout vsc::buildDataLayout(const Module &M) {
  DataLayout L;
  L.GlobalBase = computeGlobalLayout(M);
  for (const Global &G : M.globals()) {
    uint64_t Addr = L.GlobalBase.at(G.Name);
    L.DataEnd = std::max(L.DataEnd, Addr + G.Size);
    if (!G.Init.empty() && L.DataInit.size() < Addr - 4096 + G.Init.size())
      L.DataInit.resize(Addr - 4096 + G.Init.size(), 0);
    for (size_t I = 0; I != G.Init.size(); ++I)
      L.DataInit[Addr - 4096 + I] = G.Init[I];
  }
  return L;
}

SimImage vsc::predecode(const Module &M, const MachineModel &Model,
                        bool Fuse) {
  SimImage Img;
  Img.M = &M;
  Img.Model = Model;

  Img.Data = buildDataLayout(M);

  // Function and block index assignment (blocks contiguous per function,
  // in layout order), plus the per-function label map branch resolution
  // uses. Key uniqueness is asserted here: a duplicate function name or a
  // duplicate label within one function would merge profiling counters.
  struct FnInfo {
    std::unordered_map<std::string, uint32_t> BlockByLabel;
  };
  std::vector<FnInfo> Infos(M.functions().size());
  for (size_t FI = 0; FI != M.functions().size(); ++FI) {
    const Function &F = *M.functions()[FI];
    DecodedFunction DF;
    DF.F = &F;
    DF.FirstBlock = static_cast<uint32_t>(Img.Blocks.size());
    DF.NumBlocks = static_cast<uint32_t>(F.blocks().size());
    bool NewName =
        Img.FuncByName.emplace(F.name(), static_cast<uint32_t>(FI)).second;
    assert(NewName && "duplicate function name merges profiling counters");
    (void)NewName;
    for (const auto &BB : F.blocks()) {
      uint32_t Idx = static_cast<uint32_t>(Img.Blocks.size());
      bool NewLabel =
          Infos[FI].BlockByLabel.emplace(BB->label(), Idx).second;
      assert(NewLabel && "duplicate block label merges profiling counters");
      (void)NewLabel;
      Img.Blocks.push_back(DecodedBlock{0, 0, -1, BB.get()});
      Img.BlockKeys.push_back(blockCountKey(F.name(), BB->label()));
    }
    Img.Funcs.push_back(DF);
  }

  auto newEdge = [&](const std::string &Fn, const std::string &From,
                     const std::string &To) {
    Img.EdgeKeys.push_back(edgeCountKey(Fn, From, To));
    return static_cast<int32_t>(Img.EdgeKeys.size() - 1);
  };

  // Instruction decode.
  for (size_t FI = 0; FI != M.functions().size(); ++FI) {
    const Function &F = *M.functions()[FI];
    const DecodedFunction &DF = Img.Funcs[FI];
    for (size_t BI = 0; BI != F.blocks().size(); ++BI) {
      const BasicBlock &BB = *F.blocks()[BI];
      DecodedBlock &DB = Img.Blocks[DF.FirstBlock + BI];
      DB.FirstInstr = static_cast<uint32_t>(Img.Instrs.size());
      DB.NumInstrs = static_cast<uint32_t>(BB.instrs().size());
      if (BI + 1 != F.blocks().size())
        DB.FallEdge =
            newEdge(F.name(), BB.label(), F.blocks()[BI + 1]->label());

      for (const Instr &I : BB.instrs()) {
        DecodedInstr D = decodeCore(I, &Model, Img.Data.GlobalBase);

        switch (I.Op) {
        case Opcode::B:
        case Opcode::BT:
        case Opcode::BF:
        case Opcode::BCT: {
          auto It = Infos[FI].BlockByLabel.find(I.Target);
          if (It != Infos[FI].BlockByLabel.end())
            D.Target = static_cast<int32_t>(It->second);
          // The legacy engine counts the edge before discovering the
          // label doesn't resolve, so unknown targets get a slot too.
          D.TakenEdge = newEdge(F.name(), BB.label(), I.Target);
          break;
        }
        case Opcode::CALL: {
          assert(I.Imm >= 0 && I.Imm <= 8 &&
                 "call argument count exceeds the register convention");
          SimBuiltin Builtin = classifyBuiltin(I.Sym);
          if (Builtin != SimBuiltin::None) {
            D.Target = -2 - static_cast<int32_t>(Builtin);
          } else {
            // Mirrors Module::findFunction (first match) plus the
            // engines' blocks-nonempty check.
            auto It = Img.FuncByName.find(I.Sym);
            if (It != Img.FuncByName.end() &&
                Img.Funcs[It->second].NumBlocks != 0)
              D.Target = static_cast<int32_t>(It->second);
          }
          break;
        }
        default:
          break;
        }

        Img.Instrs.push_back(D);
        Img.Origins.push_back(&I);
      }
    }
  }

  if (Fuse)
    for (const DecodedBlock &B : Img.Blocks)
      Img.FusedPairs += fuseBlock(Img.Instrs.data(), B.FirstInstr,
                                  B.NumInstrs);

  return Img;
}

InterpImage vsc::predecodeFunction(
    const Function &F,
    const std::unordered_map<std::string, uint64_t> &GlobalBase,
    const std::unordered_map<std::string, const Function *> &FuncByName) {
  InterpImage Img;
  Img.Blocks.reserve(F.blocks().size());

  std::unordered_map<std::string, uint32_t> BlockByLabel;
  for (size_t BI = 0; BI != F.blocks().size(); ++BI)
    BlockByLabel.emplace(F.blocks()[BI]->label(),
                         static_cast<uint32_t>(BI));

  for (const auto &BB : F.blocks()) {
    DecodedBlock DB;
    DB.FirstInstr = static_cast<uint32_t>(Img.Instrs.size());
    DB.NumInstrs = static_cast<uint32_t>(BB->instrs().size());
    DB.FallEdge = -1;
    DB.Origin = BB.get();

    for (const Instr &I : BB->instrs()) {
      DecodedInstr D = decodeCore(I, /*Model=*/nullptr, GlobalBase);
      const Function *Callee = nullptr;

      switch (I.Op) {
      case Opcode::B:
      case Opcode::BT:
      case Opcode::BF:
      case Opcode::BCT: {
        auto It = BlockByLabel.find(I.Target);
        if (It != BlockByLabel.end())
          D.Target = static_cast<int32_t>(It->second);
        break;
      }
      case Opcode::CALL: {
        SimBuiltin Builtin = classifyBuiltin(I.Sym);
        if (Builtin != SimBuiltin::None) {
          D.Target = -2 - static_cast<int32_t>(Builtin);
        } else {
          auto It = FuncByName.find(I.Sym);
          if (It != FuncByName.end())
            Callee = It->second;
        }
        break;
      }
      default:
        break;
      }

      Img.Instrs.push_back(D);
      Img.Origins.push_back(&I);
      Img.Callees.push_back(Callee);
    }
    Img.Blocks.push_back(DB);
  }

  return Img;
}
