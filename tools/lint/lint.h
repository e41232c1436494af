// dynvote_lint: project-rule static checks too repo-specific for a
// general linter (no compiler or libclang dependency, so the tool runs
// in well under a second and anywhere the tree checks out). One input
// set goes through two passes that fill one RunResult:
//
// The line pass (RunLint, lint.cc) holds data-driven line/token rules:
//   nondeterminism      banned RNG/time sources in src/ and bench/
//   wall-clock          std::chrono::system_clock outside src/obs
//   unordered-container std::unordered_{map,set} in result-affecting dirs
//   iostream-header     #include <iostream> in a header (fixable)
//   raw-mutex           std::mutex & friends outside thread_annotations.h
//   layering            inter-directory include DAG violations in src/
//   schema-docs         dynvote-*-vN strings must match source <-> docs
//
// The symbol pass (RunAnalyze, analyze.cc) tokenizes the tree
// (lint/token.h) and builds an include graph and a class/member/function
// model for the properties that keep the parallel paths deterministic
// and deadlock-free:
//   lock-order          the mutex-acquisition graph built from MutexLock
//                       nesting and DYNVOTE_ACQUIRE/REQUIRES annotations
//                       must be acyclic; the hierarchy exports as DOT
//   guarded-by          mutable non-atomic members of a Mutex-owning
//                       class in util/ obs/ check/ stats/ need
//                       DYNVOTE_GUARDED_BY or a proof suppression
//   lock-hygiene        no throw, stream I/O / logging, or virtual
//                       dispatch through a TraceSink while a lock is held
//   schema-fields       the TraceEvent struct, the JSONL encoder, the
//                       binary codec and the docs field tables agree
//                       field by field
//
// See docs/static_analysis.md for the full catalog. Suppression: append
// `// dynvote-lint: allow(<rule>[, <rule>...])` to the offending line,
// or place that comment alone on the line above.

#pragma once

#include <map>
#include <string>
#include <vector>

namespace dynvote {
namespace lint {

/// JSON output schema identifier (--json); bump on field changes.
inline constexpr const char kLintSchema[] = "dynvote-lint-v2";

/// One file to scan. `path` drives rule scoping (src/core vs bench vs
/// docs); it may be absolute or repo-relative — classification keys off
/// the last `src/`, `bench/`, `tools/` or `docs/` path component.
struct FileInput {
  std::string path;
  std::string content;
};

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;  // 1-based
  std::string message;
  bool fixable = false;
};

struct Options {
  /// Rewrite fixable findings (the include rules) instead of reporting
  /// them; fixed contents land in RunResult::fixes.
  bool apply_fixes = false;
};

/// One directed acquisition: `to` was locked while `from` was held, at
/// file:line (the first site observed, in input order).
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
};

/// The global mutex-acquisition graph. Nodes are canonical mutex names
/// (`Class::member`); sorted, deduplicated, deterministic for a fixed
/// input order.
struct LockGraph {
  std::vector<std::string> nodes;
  std::vector<LockEdge> edges;
  bool acyclic = true;
  /// Human-readable cycle descriptions when !acyclic ("A -> B -> A").
  std::vector<std::string> cycles;
};

struct RunResult {
  /// Remaining findings: the line pass's in input-file then line order,
  /// the symbol pass's by rule family then input order.
  std::vector<Finding> findings;
  int files_scanned = 0;
  int fixes_applied = 0;
  /// path -> full replacement content for files --fix rewrote.
  std::map<std::string, std::string> fixes;
  /// Filled by the symbol pass; empty and acyclic after the line pass.
  LockGraph lock_graph;
};

/// All dynvote-*-vN schema tokens appearing in `content`, deduplicated,
/// in first-sighting order — the exact pattern the schema-docs rule
/// matches, exposed so release tooling (the `dynvote --version` schema
/// registry) can be cross-checked against the source tree.
std::vector<std::string> CollectSchemaTokens(const std::string& content);

/// The line pass: every line/token rule over `files`. The schema-docs
/// cross-check only runs when the input contains at least one markdown
/// file and one source file (linting a lone .cc must not demand the docs
/// be re-passed).
RunResult RunLint(const std::vector<FileInput>& files, const Options& opts);

/// The symbol pass: the four symbol rules and the lock graph. Like
/// schema-docs, the schema-fields cross-check only activates when the
/// inputs contain all of its participants (the TraceEvent struct, the
/// JSONL encoder, the binary codec and at least one markdown field
/// table).
RunResult RunAnalyze(const std::vector<FileInput>& files);

/// Renders the result as dynvote-lint-v2 JSON (stable key order).
std::string ToJson(const RunResult& result);

/// Renders findings as `file:line: [rule] message` lines + a summary.
std::string ToText(const RunResult& result);

/// Renders the lock-acquisition graph as Graphviz DOT (sorted nodes and
/// edges: byte-stable for identical inputs).
std::string ToDot(const LockGraph& graph);

struct RuleInfo {
  std::string name;
  std::string summary;
};

/// The catalog of all eleven rules, for --list-rules and the tests.
std::vector<RuleInfo> Rules();

}  // namespace lint
}  // namespace dynvote
