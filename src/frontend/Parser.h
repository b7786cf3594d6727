//===- frontend/Parser.h - mini-C parser ----------------------*- C++ -*-===//
///
/// \file
/// Recursive-descent parser for mini-C. Grammar sketch:
///
///   program   := (global | function)*
///   global    := ["volatile"] "int" ["*"] ident ["[" num "]"]
///                ["=" init] ";"
///   function  := ("int"|"void") ident "(" params ")" block
///   stmt      := decl | block | if | while | do-while | for | return
///                | break ";" | continue ";" | expr ";"
///   expr      := assignment with C precedence: || && | ^ & ==/!= rel
///                shift add mul unary postfix primary
///
//===----------------------------------------------------------------------===//

#ifndef VSC_FRONTEND_PARSER_H
#define VSC_FRONTEND_PARSER_H

#include "frontend/Ast.h"

namespace vsc {

/// Parses mini-C source. On failure returns false and fills \p Err with a
/// "line N: message" diagnostic. Input nested more than 1000 levels deep
/// (statements, unary operands, assignment right-hand sides) is such a
/// failure, so no input can overflow the parser's stack.
bool parseMiniC(const std::string &Source, Program &Out, std::string &Err);

} // namespace vsc

#endif // VSC_FRONTEND_PARSER_H
