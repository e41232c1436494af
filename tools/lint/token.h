// A dependency-free C++ tokenizer for dynvote_lint's symbol pass
// (RunAnalyze in lint/lint.h). Produces a flat token stream —
// identifiers/keywords, numbers, string and char literals (raw strings
// included), and punctuation — with 1-based line numbers. Comments are skipped;
// preprocessor directives are skipped whole (with backslash
// continuations honored), because the scan layer (lint/scan.h) already
// exposes #include targets per line and the analyzer reads those there.
//
// This is a lexer, not a compiler front end: it never needs to be fed
// valid C++, it just has to agree with one on where tokens begin and
// end. That is enough to build the class/member/function model the
// analyzer's rules run on.

#pragma once

#include <string>
#include <vector>

namespace dynvote {
namespace lint {

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // numeric literal (coarse: one blob incl. suffixes)
  kString,   // string literal, full text including quotes/prefix
  kChar,     // char literal, full text including quotes
  kPunct,    // one operator/punctuator; "::" and "->" are single tokens
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based physical line of the token's first character
};

/// Tokenizes `content`. Unterminated constructs at end of input are
/// closed implicitly (a lexer for a linter must never fail).
std::vector<Token> Tokenize(const std::string& content);

}  // namespace lint
}  // namespace dynvote
