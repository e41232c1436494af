#include "lint/token.h"

#include <cstddef>

namespace dynvote {
namespace lint {
namespace {

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentChar(char c) {
  return IsIdentStart(c) || (c >= '0' && c <= '9');
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// True when the identifier `text` is a string-literal prefix and the
/// next character opens that literal.
bool IsStringPrefix(const std::string& text) {
  return text == "R" || text == "u8R" || text == "uR" || text == "LR" ||
         text == "UR" || text == "u8" || text == "u" || text == "L" ||
         text == "U";
}

}  // namespace

std::vector<Token> Tokenize(const std::string& content) {
  std::vector<Token> tokens;
  const std::size_t n = content.size();
  std::size_t i = 0;
  int line = 1;

  auto at = [&](std::size_t pos) -> char {
    return pos < n ? content[pos] : '\0';
  };

  while (i < n) {
    char c = content[i];

    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }

    // Line comment (handles backslash continuation).
    if (c == '/' && at(i + 1) == '/') {
      i += 2;
      while (i < n) {
        if (content[i] == '\n') {
          bool spliced = i > 0 && content[i - 1] == '\\';
          ++line;
          ++i;
          if (!spliced) break;
        } else {
          ++i;
        }
      }
      continue;
    }

    // Block comment.
    if (c == '/' && at(i + 1) == '*') {
      i += 2;
      while (i < n && !(content[i] == '*' && at(i + 1) == '/')) {
        if (content[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }

    // Preprocessor directive: only at the start of a (logical) line.
    // Skip the whole directive including continuation lines.
    if (c == '#') {
      bool line_start = true;
      for (std::size_t back = i; back-- > 0;) {
        char b = content[back];
        if (b == '\n') break;
        if (b != ' ' && b != '\t') {
          line_start = false;
          break;
        }
      }
      if (line_start) {
        while (i < n) {
          if (content[i] == '\n') {
            bool spliced = i > 0 && content[i - 1] == '\\';
            ++line;
            ++i;
            if (!spliced) break;
          } else {
            ++i;
          }
        }
        continue;
      }
      tokens.push_back({TokKind::kPunct, "#", line});
      ++i;
      continue;
    }

    // Identifier / keyword — possibly a literal prefix.
    if (IsIdentStart(c)) {
      int start_line = line;
      std::size_t start = i;
      while (i < n && IsIdentChar(content[i])) ++i;
      std::string text = content.substr(start, i - start);

      if (i < n && (content[i] == '"' || content[i] == '\'') &&
          IsStringPrefix(text)) {
        // Fall through to literal scanning with the prefix attached.
        c = content[i];
        bool raw = !text.empty() && text.back() == 'R';
        if (c == '"' && raw) {
          // Raw string: R"delim( ... )delim"
          std::size_t open = content.find('(', i + 1);
          if (open == std::string::npos) {
            tokens.push_back({TokKind::kIdent, text, start_line});
            continue;
          }
          std::string closer = ")";
          closer.append(content, i + 1, open - i - 1);
          closer.push_back('"');
          std::size_t close = content.find(closer, open + 1);
          std::size_t lit_end =
              close == std::string::npos ? n : close + closer.size();
          for (std::size_t p = i; p < lit_end; ++p) {
            if (content[p] == '\n') ++line;
          }
          tokens.push_back({TokKind::kString,
                            content.substr(start, lit_end - start),
                            start_line});
          i = lit_end;
          continue;
        }
        // Prefixed ordinary literal: scan it below as if unprefixed,
        // then splice the prefix back on.
        char quote = c;
        std::size_t lit_start = i;
        ++i;
        while (i < n && content[i] != quote) {
          if (content[i] == '\\') ++i;
          if (i < n) {
            if (content[i] == '\n') ++line;
            ++i;
          }
        }
        if (i < n) ++i;  // closing quote
        tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                          text + content.substr(lit_start, i - lit_start),
                          start_line});
        continue;
      }
      tokens.push_back({TokKind::kIdent, std::move(text), start_line});
      continue;
    }

    // Number (coarse: digits, idents, quotes-as-separators, exponent
    // signs and dots in one blob).
    if (IsDigit(c) || (c == '.' && IsDigit(at(i + 1)))) {
      int start_line = line;
      std::size_t start = i;
      ++i;
      while (i < n) {
        char d = content[i];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') &&
                   (content[i - 1] == 'e' || content[i - 1] == 'E' ||
                    content[i - 1] == 'p' || content[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      tokens.push_back(
          {TokKind::kNumber, content.substr(start, i - start), start_line});
      continue;
    }

    // String / char literal.
    if (c == '"' || c == '\'') {
      int start_line = line;
      std::size_t start = i;
      char quote = c;
      ++i;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\') ++i;
        if (i < n) {
          if (content[i] == '\n') ++line;
          ++i;
        }
      }
      if (i < n) ++i;  // closing quote
      tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                        content.substr(start, i - start), start_line});
      continue;
    }

    // Punctuation. "::" and "->" matter to the analyzer as units; every
    // other operator tokenizes character by character (the rules never
    // look at compound operators, and `>>` must stay two `>` so template
    // argument nesting closes correctly).
    if (c == ':' && at(i + 1) == ':') {
      tokens.push_back({TokKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && at(i + 1) == '>') {
      tokens.push_back({TokKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }

  return tokens;
}

}  // namespace lint
}  // namespace dynvote
