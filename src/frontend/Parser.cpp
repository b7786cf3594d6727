//===- frontend/Parser.cpp - mini-C parser ------------------------------------===//

#include "frontend/Parser.h"

#include <cassert>

using namespace vsc;

namespace {

class MiniCParser {
public:
  MiniCParser(std::vector<Token> Tokens, Program &Out)
      : Toks(std::move(Tokens)), Out(Out) {}

  bool run(std::string &Err) {
    while (!at(TokKind::Eof)) {
      if (!parseTopLevel()) {
        Err = Error;
        return false;
      }
    }
    return true;
  }

private:
  // --- token helpers ------------------------------------------------------

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind K) const { return peek().Kind == K; }
  Token take() { return Toks[Pos < Toks.size() - 1 ? Pos++ : Pos]; }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    take();
    return true;
  }
  bool expect(TokKind K, const char *What) {
    if (accept(K))
      return true;
    return fail(std::string("expected ") + What);
  }
  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = "line " + std::to_string(peek().Line) + ": " + Msg;
    return false;
  }

  /// One level of nesting, held for the scope of a statement, a unary
  /// operand (which every parenthesis, call argument and index passes
  /// through) or an assignment's right-hand side. Every recursive path of
  /// the grammar takes one, so MaxDepth bounds the native stack the parser
  /// and the code generator walking its tree can use: a deeper input is an
  /// error, not a stack overflow.
  class Nesting {
  public:
    explicit Nesting(MiniCParser &P) : P(P) { ++P.Depth; }
    ~Nesting() { --P.Depth; }
    Nesting(const Nesting &) = delete;
    Nesting &operator=(const Nesting &) = delete;
    bool ok() {
      return P.Depth <= MaxDepth ||
             P.fail("nesting deeper than " + std::to_string(MaxDepth) +
                    " levels");
    }

  private:
    MiniCParser &P;
  };

  std::unique_ptr<Expr> makeExpr(Expr::Kind K) {
    auto E = std::make_unique<Expr>();
    E->K = K;
    E->Line = peek().Line;
    return E;
  }

  // --- declarations -------------------------------------------------------

  bool parseTopLevel() {
    bool Volatile = accept(TokKind::KwVolatile);
    bool IsVoid = false;
    if (accept(TokKind::KwVoid))
      IsVoid = true;
    else if (!expect(TokKind::KwInt, "'int' or 'void'"))
      return false;
    bool Pointer = accept(TokKind::Star);
    if (!at(TokKind::Ident))
      return fail("expected identifier");
    std::string Name = take().Text;

    if (at(TokKind::LParen)) {
      if (Volatile)
        return fail("functions cannot be volatile");
      return parseFunction(Name, IsVoid, Pointer);
    }
    if (IsVoid)
      return fail("void is only a return type");

    GlobalDecl G;
    G.Name = Name;
    G.IsVolatile = Volatile;
    G.IsPointer = Pointer;
    G.Line = peek().Line;
    if (accept(TokKind::LBracket)) {
      if (!at(TokKind::Number))
        return fail("expected array size");
      G.IsArray = true;
      G.NumElems = take().Value;
      if (!expect(TokKind::RBracket, "']'"))
        return false;
    }
    if (accept(TokKind::Assign)) {
      if (accept(TokKind::LBrace)) {
        while (!accept(TokKind::RBrace)) {
          int64_t Sign = accept(TokKind::Minus) ? -1 : 1;
          if (!at(TokKind::Number))
            return fail("expected numeric initializer");
          G.Init.push_back(Sign * take().Value);
          accept(TokKind::Comma);
        }
      } else {
        int64_t Sign = accept(TokKind::Minus) ? -1 : 1;
        if (!at(TokKind::Number))
          return fail("expected numeric initializer");
        G.Init.push_back(Sign * take().Value);
      }
    }
    if (!expect(TokKind::Semi, "';'"))
      return false;
    Out.Globals.push_back(std::move(G));
    return true;
  }

  bool parseFunction(std::string Name, bool IsVoid, bool RetPointer) {
    (void)RetPointer; // pointers are ints at the IR level
    FuncDecl F;
    F.Name = std::move(Name);
    F.ReturnsVoid = IsVoid;
    F.Line = peek().Line;
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!accept(TokKind::RParen)) {
      if (accept(TokKind::KwVoid)) {
        if (!expect(TokKind::RParen, "')'"))
          return false;
      } else {
        do {
          if (!expect(TokKind::KwInt, "'int'"))
            return false;
          ParamDecl P;
          P.IsPointer = accept(TokKind::Star);
          if (!at(TokKind::Ident))
            return fail("expected parameter name");
          P.Name = take().Text;
          F.Params.push_back(std::move(P));
        } while (accept(TokKind::Comma));
        if (!expect(TokKind::RParen, "')'"))
          return false;
      }
    }
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    while (!accept(TokKind::RBrace)) {
      auto S = parseStmt();
      if (!S)
        return false;
      F.Body.push_back(std::move(S));
    }
    Out.Functions.push_back(std::move(F));
    return true;
  }

  // --- statements ---------------------------------------------------------

  std::unique_ptr<Stmt> makeStmt(Stmt::Kind K) {
    auto S = std::make_unique<Stmt>();
    S->K = K;
    S->Line = peek().Line;
    return S;
  }

  std::unique_ptr<Stmt> parseStmt() {
    Nesting N(*this);
    if (!N.ok())
      return nullptr;
    if (at(TokKind::KwInt))
      return parseDecl();
    if (at(TokKind::LBrace)) {
      take();
      auto S = makeStmt(Stmt::Kind::Block);
      while (!accept(TokKind::RBrace)) {
        auto Sub = parseStmt();
        if (!Sub)
          return nullptr;
        S->Body.push_back(std::move(Sub));
      }
      return S;
    }
    if (accept(TokKind::KwIf)) {
      auto S = makeStmt(Stmt::Kind::If);
      if (!expect(TokKind::LParen, "'('"))
        return nullptr;
      S->Cond = parseExpr();
      if (!S->Cond || !expect(TokKind::RParen, "')'"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      if (accept(TokKind::KwElse)) {
        S->Else = parseStmt();
        if (!S->Else)
          return nullptr;
      }
      return S;
    }
    if (accept(TokKind::KwWhile)) {
      auto S = makeStmt(Stmt::Kind::While);
      if (!expect(TokKind::LParen, "'('"))
        return nullptr;
      S->Cond = parseExpr();
      if (!S->Cond || !expect(TokKind::RParen, "')'"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      return S;
    }
    if (accept(TokKind::KwDo)) {
      auto S = makeStmt(Stmt::Kind::DoWhile);
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      if (!expect(TokKind::KwWhile, "'while'") ||
          !expect(TokKind::LParen, "'('"))
        return nullptr;
      S->Cond = parseExpr();
      if (!S->Cond || !expect(TokKind::RParen, "')'") ||
          !expect(TokKind::Semi, "';'"))
        return nullptr;
      return S;
    }
    if (accept(TokKind::KwFor)) {
      auto S = makeStmt(Stmt::Kind::For);
      if (!expect(TokKind::LParen, "'('"))
        return nullptr;
      if (!at(TokKind::Semi)) {
        if (at(TokKind::KwInt))
          S->InitS = parseDecl();
        else {
          auto E = makeStmt(Stmt::Kind::ExprStmt);
          E->E = parseExpr();
          if (!E->E)
            return nullptr;
          if (!expect(TokKind::Semi, "';'"))
            return nullptr;
          S->InitS = std::move(E);
        }
        if (!S->InitS)
          return nullptr;
      } else {
        take();
      }
      if (!at(TokKind::Semi)) {
        S->Cond = parseExpr();
        if (!S->Cond)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      if (!at(TokKind::RParen)) {
        S->Inc = parseExpr();
        if (!S->Inc)
          return nullptr;
      }
      if (!expect(TokKind::RParen, "')'"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      return S;
    }
    if (accept(TokKind::KwReturn)) {
      auto S = makeStmt(Stmt::Kind::Return);
      if (!at(TokKind::Semi)) {
        S->E = parseExpr();
        if (!S->E)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return S;
    }
    if (accept(TokKind::KwBreak)) {
      auto S = makeStmt(Stmt::Kind::Break);
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return S;
    }
    if (accept(TokKind::KwContinue)) {
      auto S = makeStmt(Stmt::Kind::Continue);
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return S;
    }
    // Expression statement.
    auto S = makeStmt(Stmt::Kind::ExprStmt);
    S->E = parseExpr();
    if (!S->E || !expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }

  std::unique_ptr<Stmt> parseDecl() {
    if (!expect(TokKind::KwInt, "'int'"))
      return nullptr;
    auto S = makeStmt(Stmt::Kind::Decl);
    S->IsPointer = accept(TokKind::Star);
    if (!at(TokKind::Ident)) {
      fail("expected variable name");
      return nullptr;
    }
    S->Name = take().Text;
    if (accept(TokKind::LBracket)) {
      if (!at(TokKind::Number)) {
        fail("expected array size");
        return nullptr;
      }
      S->IsArray = true;
      S->ArraySize = take().Value;
      if (!expect(TokKind::RBracket, "']'"))
        return nullptr;
    }
    if (accept(TokKind::Assign)) {
      if (S->IsArray) {
        fail("local arrays cannot have initializers");
        return nullptr;
      }
      S->E = parseExpr();
      if (!S->E)
        return nullptr;
    }
    if (!expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }

  // --- expressions --------------------------------------------------------

  std::unique_ptr<Expr> parseExpr() { return parseAssign(); }

  std::unique_ptr<Expr> parseAssign() {
    auto L = parseBinary(0);
    if (!L)
      return nullptr;
    if (at(TokKind::Assign) || at(TokKind::PlusAssign) ||
        at(TokKind::MinusAssign)) {
      TokKind Op = take().Kind;
      Nesting N(*this);
      if (!N.ok())
        return nullptr;
      auto R = parseAssign();
      if (!R)
        return nullptr;
      if (Op != TokKind::Assign) {
        // x += e  =>  x = x + e (x re-parsed is not possible; clone? the
        // lvalue is duplicated structurally by deep copy).
        auto Clone = cloneExpr(*L);
        auto Bin = makeExpr(Expr::Kind::Binary);
        Bin->Op = Op == TokKind::PlusAssign ? TokKind::Plus : TokKind::Minus;
        Bin->Lhs = std::move(Clone);
        Bin->Rhs = std::move(R);
        R = std::move(Bin);
      }
      auto A = makeExpr(Expr::Kind::Assign);
      A->Lhs = std::move(L);
      A->Rhs = std::move(R);
      return A;
    }
    return L;
  }

  static std::unique_ptr<Expr> cloneExpr(const Expr &E) {
    auto C = std::make_unique<Expr>();
    C->K = E.K;
    C->Value = E.Value;
    C->Name = E.Name;
    C->Op = E.Op;
    C->Line = E.Line;
    if (E.Lhs)
      C->Lhs = cloneExpr(*E.Lhs);
    if (E.Rhs)
      C->Rhs = cloneExpr(*E.Rhs);
    for (const auto &A : E.Args)
      C->Args.push_back(cloneExpr(*A));
    return C;
  }

  static int precedenceOf(TokKind K) {
    switch (K) {
    case TokKind::PipePipe:
      return 1;
    case TokKind::AmpAmp:
      return 2;
    case TokKind::Pipe:
      return 3;
    case TokKind::Caret:
      return 4;
    case TokKind::Amp:
      return 5;
    case TokKind::EqEq:
    case TokKind::NotEq:
      return 6;
    case TokKind::Lt:
    case TokKind::Gt:
    case TokKind::Le:
    case TokKind::Ge:
      return 7;
    case TokKind::Shl:
    case TokKind::Shr:
      return 8;
    case TokKind::Plus:
    case TokKind::Minus:
      return 9;
    case TokKind::Star:
    case TokKind::Slash:
    case TokKind::Percent:
      return 10;
    default:
      return -1;
    }
  }

  std::unique_ptr<Expr> parseBinary(int MinPrec) {
    auto L = parseUnary();
    if (!L)
      return nullptr;
    while (true) {
      int Prec = precedenceOf(peek().Kind);
      if (Prec < 0 || Prec < MinPrec)
        return L;
      TokKind Op = take().Kind;
      auto R = parseBinary(Prec + 1);
      if (!R)
        return nullptr;
      auto B = makeExpr(Expr::Kind::Binary);
      B->Op = Op;
      B->Lhs = std::move(L);
      B->Rhs = std::move(R);
      L = std::move(B);
    }
  }

  std::unique_ptr<Expr> parseUnary() {
    Nesting N(*this);
    if (!N.ok())
      return nullptr;
    if (at(TokKind::Minus) || at(TokKind::Tilde) || at(TokKind::Bang)) {
      TokKind Op = take().Kind;
      auto E = parseUnary();
      if (!E)
        return nullptr;
      auto U = makeExpr(Expr::Kind::Unary);
      U->Op = Op;
      U->Lhs = std::move(E);
      return U;
    }
    if (accept(TokKind::Star)) {
      auto E = parseUnary();
      if (!E)
        return nullptr;
      auto D = makeExpr(Expr::Kind::Deref);
      D->Lhs = std::move(E);
      return D;
    }
    if (accept(TokKind::Amp)) {
      auto E = parseUnary();
      if (!E)
        return nullptr;
      if (E->K != Expr::Kind::Var && E->K != Expr::Kind::Index) {
        fail("'&' applies to variables and array elements only");
        return nullptr;
      }
      auto A = makeExpr(Expr::Kind::AddrOf);
      A->Lhs = std::move(E);
      return A;
    }
    if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
      // ++x => x = x + 1
      TokKind Op = take().Kind;
      auto E = parseUnary();
      if (!E)
        return nullptr;
      return makeIncDec(std::move(E), Op == TokKind::PlusPlus);
    }
    return parsePostfix();
  }

  std::unique_ptr<Expr> makeIncDec(std::unique_ptr<Expr> L, bool Inc) {
    auto One = makeExpr(Expr::Kind::Num);
    One->Value = 1;
    auto Bin = makeExpr(Expr::Kind::Binary);
    Bin->Op = Inc ? TokKind::Plus : TokKind::Minus;
    Bin->Lhs = cloneExpr(*L);
    Bin->Rhs = std::move(One);
    auto A = makeExpr(Expr::Kind::Assign);
    A->Lhs = std::move(L);
    A->Rhs = std::move(Bin);
    return A;
  }

  std::unique_ptr<Expr> parsePostfix() {
    auto E = parsePrimary();
    if (!E)
      return nullptr;
    while (true) {
      if (accept(TokKind::LBracket)) {
        auto Idx = parseExpr();
        if (!Idx || !expect(TokKind::RBracket, "']'"))
          return nullptr;
        auto I = makeExpr(Expr::Kind::Index);
        I->Lhs = std::move(E);
        I->Rhs = std::move(Idx);
        E = std::move(I);
        continue;
      }
      if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
        // Postfix inc/dec: value semantics approximated as pre-inc (the
        // workloads only use it in statement position). Documented
        // deviation from C.
        TokKind Op = take().Kind;
        E = makeIncDec(std::move(E), Op == TokKind::PlusPlus);
        continue;
      }
      return E;
    }
  }

  std::unique_ptr<Expr> parsePrimary() {
    if (at(TokKind::Number)) {
      auto E = makeExpr(Expr::Kind::Num);
      E->Value = take().Value;
      return E;
    }
    if (at(TokKind::Ident)) {
      std::string Name = take().Text;
      if (accept(TokKind::LParen)) {
        auto C = makeExpr(Expr::Kind::Call);
        C->Name = std::move(Name);
        if (!accept(TokKind::RParen)) {
          do {
            auto A = parseExpr();
            if (!A)
              return nullptr;
            C->Args.push_back(std::move(A));
          } while (accept(TokKind::Comma));
          if (!expect(TokKind::RParen, "')'"))
            return nullptr;
        }
        return C;
      }
      auto V = makeExpr(Expr::Kind::Var);
      V->Name = std::move(Name);
      return V;
    }
    if (accept(TokKind::LParen)) {
      auto E = parseExpr();
      if (!E || !expect(TokKind::RParen, "')'"))
        return nullptr;
      return E;
    }
    fail("expected expression");
    return nullptr;
  }

  static constexpr unsigned MaxDepth = 1000;

  std::vector<Token> Toks;
  Program &Out;
  size_t Pos = 0;
  unsigned Depth = 0;
  std::string Error;
};

} // namespace

bool vsc::parseMiniC(const std::string &Source, Program &Out,
                     std::string &Err) {
  std::vector<Token> Toks;
  if (!lex(Source, Toks, Err))
    return false;
  MiniCParser P(std::move(Toks), Out);
  return P.run(Err);
}
