// Shared scanning layer for dynvote_lint's line pass (lint.cc) and
// symbol pass (analyze.cc): path classification, the comment/string-aware
// line splitter, and the `dynvote-lint: allow()` suppression grammar.
// Both passes see the exact same view of a source file — a suppression
// that silences a line rule silences a symbol rule through the identical
// code path.
//
// The line splitter understands //, /* */, string and char literals,
// C++ raw string literals (R"(...)", including custom delimiters and
// multi-line bodies) and backslash line-continuations (which splice the
// next physical line into a string or // comment).

#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dynvote {
namespace lint {

/// Where a file sits in the repo layout; drives rule scoping.
struct PathInfo {
  bool in_src = false;
  bool in_bench = false;
  bool in_tools = false;
  bool in_docs = false;
  bool is_header = false;
  bool is_code = false;      // .h/.hpp/.cc/.cpp
  bool is_markdown = false;  // .md
  std::string src_dir;       // "core", "util", ... when in_src
  std::string filename;      // last component
};

bool EndsWith(std::string_view s, std::string_view suffix);

/// Classifies `raw_path`. The last `src/`, `bench/`, `tools/` or
/// `docs/` path component wins, so absolute checkout prefixes (which may
/// themselves contain "src") never misclassify.
PathInfo ClassifyPath(const std::string& raw_path);

/// One physical source line with derived views.
struct Line {
  std::string raw;
  std::string code;        // comments stripped, string/char contents blanked
  std::string include;     // include target when the line is an #include
  bool include_angle = false;
  std::set<std::string> allows;   // rules suppressed on this line
  bool pure_suppression = false;  // comment-only line carrying an allow()
};

/// Splits `content` into lines, stripping comments and blanking string
/// and char literal contents in `code` (so tokens mentioned in comments,
/// docstrings or messages never trip a rule). Tracks /* */ blocks, raw
/// string literals and backslash line-continuations across lines.
std::vector<Line> SplitLines(const std::string& content);

/// True when `rule` is suppressed at `index`: an allow() on the line
/// itself, or a comment-only allow() line directly above.
bool IsAllowed(const std::vector<Line>& lines, std::size_t index,
               const std::string& rule);

/// Appends `value` as a JSON string literal (quotes + escaping).
void AppendJsonString(std::string_view value, std::string* out);

}  // namespace lint
}  // namespace dynvote
