//===- ir/Parser.cpp - Textual IR parser ----------------------------------===//

#include "ir/Parser.h"

#include "ir/Module.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <map>

using namespace vsc;

namespace {

/// Cursor over one line of input.
class LineCursor {
public:
  explicit LineCursor(std::string_view Text) : Text(Text) {}

  void skipSpace() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t'))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  char peek() {
    skipSpace();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  /// Identifiers may contain letters, digits, '_', '.', and '$' (labels in
  /// the paper look like "CL.0").
  std::string ident() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '.' || Text[Pos] == '$'))
      ++Pos;
    return std::string(Text.substr(Start, Pos - Start));
  }

  bool integer(int64_t &Out) {
    skipSpace();
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    size_t DigitsStart = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == DigitsStart) {
      Pos = Start;
      return false;
    }
    Out = std::strtoll(std::string(Text.substr(Start, Pos - Start)).c_str(),
                       nullptr, 10);
    return true;
  }

private:
  std::string_view Text;
  size_t Pos = 0;
};

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  std::unique_ptr<Module> run(std::string *Err) {
    auto M = std::make_unique<Module>();
    Function *F = nullptr;
    BasicBlock *BB = nullptr;

    size_t LineNo = 0;
    size_t Pos = 0;
    while (Pos <= Text.size()) {
      size_t Eol = Text.find('\n', Pos);
      if (Eol == std::string_view::npos)
        Eol = Text.size();
      std::string_view Line = Text.substr(Pos, Eol - Pos);
      Pos = Eol + 1;
      ++LineNo;

      // Strip comments.
      size_t CPos = Line.find("//");
      if (CPos != std::string_view::npos)
        Line = Line.substr(0, CPos);
      CPos = Line.find(';');
      if (CPos != std::string_view::npos)
        Line = Line.substr(0, CPos);
      // Trim.
      while (!Line.empty() && (Line.back() == ' ' || Line.back() == '\t' ||
                               Line.back() == '\r'))
        Line.remove_suffix(1);
      while (!Line.empty() && (Line.front() == ' ' || Line.front() == '\t'))
        Line.remove_prefix(1);
      if (Line.empty()) {
        if (Pos > Text.size())
          break;
        continue;
      }

      std::string E = parseLine(Line, *M, F, BB);
      if (!E.empty()) {
        if (Err)
          *Err = "line " + std::to_string(LineNo) + ": " + E;
        return nullptr;
      }
      if (Pos > Text.size())
        break;
    }
    if (F) {
      if (Err)
        *Err = "unterminated function '" + F->name() + "'";
      return nullptr;
    }
    return M;
  }

private:
  std::string parseLine(std::string_view Line, Module &M, Function *&F,
                        BasicBlock *&BB) {
    // Block label?
    if (Line.back() == ':') {
      if (!F)
        return "label outside a function";
      std::string L(Line.substr(0, Line.size() - 1));
      if (F->findBlock(L))
        return "duplicate label '" + L + "'";
      BB = F->addBlock(L);
      return "";
    }

    LineCursor C(Line);
    std::string Word = C.ident();

    if (Word == "global") {
      if (F)
        return "global inside a function";
      std::string Name = C.ident();
      if (Name.empty())
        return "expected global name";
      if (!C.consume(':'))
        return "expected ':' after global name";
      int64_t Size = 0;
      if (!C.integer(Size) || Size < 0)
        return "expected global size";
      Global &G = M.addGlobal(Name, static_cast<uint64_t>(Size));
      if (C.consume('=')) {
        if (!C.consume('['))
          return "expected '[' in global initializer";
        while (!C.consume(']')) {
          int64_t Byte = 0;
          if (!C.integer(Byte))
            return "expected byte value in initializer";
          G.Init.push_back(static_cast<uint8_t>(Byte));
          C.consume(',');
        }
      }
      if (C.peek() == 'v' && C.ident() == "volatile")
        G.IsVolatile = true;
      return "";
    }

    if (Word == "func") {
      if (F)
        return "nested function";
      std::string Name = C.ident();
      if (Name.empty())
        return "expected function name";
      int64_t NArgs = 0;
      if (!C.consume('(') || !C.integer(NArgs) || !C.consume(')'))
        return "expected '(numargs)' after function name";
      if (!C.consume('{'))
        return "expected '{'";
      F = M.addFunction(Name, static_cast<unsigned>(NArgs));
      BB = nullptr;
      return "";
    }

    if (Word.empty() && Line == "}") {
      if (!F)
        return "unmatched '}'";
      F->renumber();
      F = nullptr;
      BB = nullptr;
      return "";
    }

    // Otherwise: an instruction.
    if (!F)
      return "instruction outside a function";
    if (!BB)
      BB = F->addBlock("entry");
    Instr I;
    std::string E = parseInstr(Word, C, I);
    if (!E.empty())
      return E;
    F->assignId(I);
    F->reserveRegsFrom(I);
    BB->instrs().push_back(std::move(I));
    return "";
  }

  static Opcode lookupOpcode(const std::string &Name, bool &Ok) {
    for (size_t OpIdx = 0;
         OpIdx != static_cast<size_t>(Opcode::NumOpcodes); ++OpIdx) {
      Opcode Op = static_cast<Opcode>(OpIdx);
      if (opcodeName(Op) == Name) {
        Ok = true;
        return Op;
      }
    }
    Ok = false;
    return Opcode::LI;
  }

  /// Parses the register number \p Digits: decimal digits only, and below
  /// Reg::IdLimit.
  static bool parseRegId(std::string_view Digits, uint32_t &Id) {
    const char *End = Digits.data() + Digits.size();
    auto [Ptr, Ec] = std::from_chars(Digits.data(), End, Id);
    return Ec == std::errc() && Ptr == End && Id < Reg::IdLimit;
  }

  static bool parseReg(LineCursor &C, Reg &Out) {
    std::string W = C.ident();
    std::string_view V = W;
    uint32_t Id;
    if (W == "ctr")
      Out = Reg::ctr();
    else if (V.substr(0, 2) == "cr" && parseRegId(V.substr(2), Id))
      Out = Reg::cr(Id);
    else if (V.substr(0, 1) == "r" && parseRegId(V.substr(1), Id))
      Out = Reg::gpr(Id);
    else
      return false;
    return true;
  }

  static bool parseCrBit(const std::string &W, CrBit &Out) {
    if (W == "lt")
      Out = CrBit::Lt;
    else if (W == "gt")
      Out = CrBit::Gt;
    else if (W == "eq")
      Out = CrBit::Eq;
    else
      return false;
    return true;
  }

  /// Parses "disp(base)[:size] [!sym] [!volatile]".
  static std::string parseMem(LineCursor &C, Reg &Base, Instr &I) {
    if (!C.integer(I.Imm))
      return "expected displacement";
    if (!C.consume('('))
      return "expected '('";
    if (!parseReg(C, Base))
      return "expected base register";
    if (!C.consume(')'))
      return "expected ')'";
    if (C.consume(':')) {
      int64_t Size = 0;
      if (!C.integer(Size) ||
          (Size != 1 && Size != 2 && Size != 4 && Size != 8))
        return "bad access size";
      I.MemSize = static_cast<uint8_t>(Size);
    }
    return "";
  }

  /// Parses trailing "!sym" / "!volatile" annotations.
  static void parseAnnotations(LineCursor &C, Instr &I) {
    while (C.consume('!')) {
      std::string A = C.ident();
      if (A == "volatile")
        I.IsVolatile = true;
      else if (A == "safe")
        I.SpecSafe = true;
      else
        I.Sym = A;
    }
  }

  static std::string parseInstr(const std::string &Mnemonic, LineCursor &C,
                                Instr &I) {
    bool Ok = false;
    I.Op = lookupOpcode(Mnemonic, Ok);
    if (!Ok)
      return "unknown mnemonic '" + Mnemonic + "'";
    const OpcodeInfo &Info = opcodeInfo(I.Op);

    switch (I.Op) {
    case Opcode::LTOC: {
      if (!parseReg(C, I.Dst) || !C.consume('=') || !C.consume('.'))
        return "expected 'LTOC rX = .sym'";
      I.Sym = C.ident();
      if (I.Sym.empty())
        return "expected symbol";
      return "";
    }
    case Opcode::L:
    case Opcode::LU: {
      if (!parseReg(C, I.Dst) || !C.consume('='))
        return "expected 'rX ='";
      std::string E = parseMem(C, I.Src1, I);
      if (!E.empty())
        return E;
      parseAnnotations(C, I);
      return "";
    }
    case Opcode::ST: {
      std::string E = parseMem(C, I.Src2, I);
      if (!E.empty())
        return E;
      // Annotations may appear before or after "= rX".
      parseAnnotations(C, I);
      if (!C.consume('=') || !parseReg(C, I.Src1))
        return "expected '= rX'";
      parseAnnotations(C, I);
      return "";
    }
    case Opcode::B:
    case Opcode::BCT: {
      I.Target = C.ident();
      if (I.Target.empty())
        return "expected branch target";
      return "";
    }
    case Opcode::BT:
    case Opcode::BF: {
      I.Target = C.ident();
      if (I.Target.empty())
        return "expected branch target";
      if (!C.consume(','))
        return "expected ','";
      // "crN.bit" parses as one identifier (idents may contain dots, as in
      // the label CL.0); split it here.
      std::string CrAndBit = C.ident();
      size_t Dot = CrAndBit.find('.');
      if (Dot == std::string::npos)
        return "expected 'crN.bit'";
      std::string_view CrName = std::string_view(CrAndBit).substr(0, Dot);
      uint32_t CrId;
      if (CrName.substr(0, 2) != "cr" || !parseRegId(CrName.substr(2), CrId))
        return "expected condition register";
      I.Src1 = Reg::cr(CrId);
      if (!parseCrBit(CrAndBit.substr(Dot + 1), I.Bit))
        return "bad condition bit '" + CrAndBit.substr(Dot + 1) + "'";
      return "";
    }
    case Opcode::CALL: {
      I.Sym = C.ident();
      if (I.Sym.empty())
        return "expected callee";
      if (!C.consume(',') || !C.integer(I.Imm))
        return "expected ', numargs'";
      return "";
    }
    case Opcode::RET:
      return "";
    case Opcode::MTCTR: {
      // Accept both "MTCTR ctr = rX" (printer form) and "MTCTR rX" (sugar).
      Reg R;
      if (!parseReg(C, R))
        return "expected register";
      I.Dst = Reg::ctr();
      if (R.isGpr()) {
        I.Src1 = R;
        return "";
      }
      if (!C.consume('=') || !parseReg(C, I.Src1))
        return "expected '= rX'";
      return "";
    }
    default:
      break;
    }

    // Generic forms: "OP dst = src1[, src2|imm]" and "LI dst = imm".
    if (!parseReg(C, I.Dst) || !C.consume('='))
      return "expected 'dst ='";
    if (Info.NumSrcs == 0) {
      if (!C.integer(I.Imm))
        return "expected immediate";
      return "";
    }
    if (!parseReg(C, I.Src1))
      return "expected source register";
    if (Info.NumSrcs == 1 && !Info.HasImm)
      return "";
    if (!C.consume(','))
      return "expected ','";
    if (Info.HasImm) {
      if (!C.integer(I.Imm))
        return "expected immediate";
      return "";
    }
    if (!parseReg(C, I.Src2))
      return "expected second source register";
    return "";
  }

  std::string_view Text;
};

} // namespace

std::unique_ptr<Module> vsc::parseModule(std::string_view Text,
                                         std::string *Err) {
  return Parser(Text).run(Err);
}
