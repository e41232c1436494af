#include "lint/lint.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <regex>
#include <set>
#include <string_view>
#include <utility>

#include "lint/scan.h"

namespace dynvote {
namespace lint {
namespace {

// Path classification, comment/string-aware line splitting and the
// allow() suppression grammar live in lint/scan.h, shared with the
// symbol pass (analyze.cc).

// ---------------------------------------------------------------------------
// Token rules (data-driven)

enum class Scope {
  kSrcAndBench,        // all of src/ + bench/
  kSrcExceptObsBench,  // src/ except src/obs, plus bench/
  kResultAffecting,    // src/core, src/sim, src/repl, src/stats
  kAllCode,            // src/ + bench/ + tools/
};

struct TokenRuleSpec {
  const char* rule;
  const char* pattern;
  Scope scope;
  const char* message;  // "%s" is replaced with the matched token
};

const TokenRuleSpec kTokenRules[] = {
    {"nondeterminism",
     R"((std::s?rand\b|\bsrand\s*\(|std::random_device\b)"
     R"(|\btime\s*\(\s*(nullptr|NULL|0)\s*\)))",
     Scope::kSrcAndBench,
     "banned nondeterminism source `%s`: results must be a pure function "
     "of the seed; use the seeded RNGs in util/rng.h"},
    {"wall-clock", R"(\bsystem_clock\b)", Scope::kSrcExceptObsBench,
     "wall-clock `%s` outside src/obs breaks replay determinism; use "
     "steady_clock for durations or SimTime for simulated time"},
    {"unordered-container",
     R"(std::unordered_(map|set|multimap|multiset)\b)",
     Scope::kResultAffecting,
     "`%s` in a result-affecting path: iteration order is unspecified "
     "and can leak into outputs; use a sorted container, or audit every "
     "use and suppress with a proof comment"},
    {"raw-mutex",
     R"(std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex)"
     R"(|shared_mutex|shared_timed_mutex|condition_variable)"
     R"(|condition_variable_any)\b)",
     Scope::kAllCode,
     "raw `%s` outside util/thread_annotations.h: use dynvote::Mutex / "
     "MutexLock / CondVar so clang thread-safety analysis can see it"},
};

bool InScope(const TokenRuleSpec& spec, const PathInfo& info) {
  if (!info.is_code) return false;
  switch (spec.scope) {
    case Scope::kSrcAndBench:
      return info.in_src || info.in_bench;
    case Scope::kSrcExceptObsBench:
      return (info.in_src && info.src_dir != "obs") || info.in_bench;
    case Scope::kResultAffecting:
      return info.in_src &&
             (info.src_dir == "core" || info.src_dir == "sim" ||
              info.src_dir == "repl" || info.src_dir == "stats");
    case Scope::kAllCode:
      return info.in_src || info.in_bench || info.in_tools;
  }
  return false;
}

std::string FormatMessage(const char* format, const std::string& token) {
  std::string out = format;
  std::size_t pos = out.find("%s");
  if (pos != std::string::npos) out.replace(pos, 2, token);
  return out;
}

// ---------------------------------------------------------------------------
// Layering rule: the include DAG between src/ directories. A directory
// may include only the listed directories (itself always included).
// Keep in sync with the diagram in docs/static_analysis.md.

const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"util", {"util"}},
      {"obs", {"obs", "util"}},
      {"repl", {"repl", "util"}},
      {"net", {"net", "obs", "util"}},
      {"sim", {"sim", "obs", "util"}},
      {"core", {"core", "net", "obs", "repl", "util"}},
      {"stats", {"stats", "sim", "obs", "util"}},
      {"kv", {"kv", "core", "net", "obs", "util"}},
      {"model",
       {"model", "core", "net", "obs", "repl", "sim", "stats", "util"}},
      {"check", {"check", "core", "kv", "net", "obs", "repl", "util"}},
  };
  return kDeps;
}

std::string JoinSet(const std::set<std::string>& s) {
  std::string out;
  for (const std::string& e : s) {
    if (!out.empty()) out += ", ";
    out += e;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Schema rule

const std::regex kSchemaRe(R"(dynvote-[a-z0-9]+(-[a-z0-9]+)*-v[0-9]+)");

struct SchemaSighting {
  std::string file;
  int line = 0;
};

void CollectSchemas(const std::vector<Line>& lines, const std::string& path,
                    std::map<std::string, SchemaSighting>* out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (IsAllowed(lines, i, "schema-docs")) continue;
    const std::string& raw = lines[i].raw;
    auto begin = std::sregex_iterator(raw.begin(), raw.end(), kSchemaRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      std::string token = it->str();
      if (out->find(token) == out->end()) {
        (*out)[token] = {path, static_cast<int>(i + 1)};
      }
    }
  }
}

/// Appends `items` as a one-line JSON array of strings.
void AppendJsonStrings(const std::vector<std::string>& items,
                       std::string* out) {
  out->push_back('[');
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendJsonString(items[i], out);
  }
  out->push_back(']');
}

}  // namespace

std::vector<std::string> CollectSchemaTokens(const std::string& content) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Line& line : SplitLines(content)) {
    auto begin =
        std::sregex_iterator(line.raw.begin(), line.raw.end(), kSchemaRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      std::string token = it->str();
      if (seen.insert(token).second) out.push_back(token);
    }
  }
  return out;
}

RunResult RunLint(const std::vector<FileInput>& files, const Options& opts) {
  RunResult result;
  result.files_scanned = static_cast<int>(files.size());

  std::map<std::string, SchemaSighting> code_schemas;
  std::map<std::string, SchemaSighting> doc_schemas;
  bool saw_code = false;
  bool saw_markdown = false;

  std::vector<std::regex> token_regexes;
  token_regexes.reserve(std::size(kTokenRules));
  for (const TokenRuleSpec& spec : kTokenRules) {
    token_regexes.emplace_back(spec.pattern);
  }

  for (const FileInput& file : files) {
    PathInfo info = ClassifyPath(file.path);
    std::vector<Line> lines = SplitLines(file.content);

    if (info.is_markdown) {
      saw_markdown = true;
      CollectSchemas(lines, file.path, &doc_schemas);
      continue;
    }
    if (!info.is_code) continue;
    if (info.in_src || info.in_bench || info.in_tools) {
      saw_code = true;
      CollectSchemas(lines, file.path, &code_schemas);
    }

    bool fixed_any = false;
    std::vector<std::string> fixed_lines;
    fixed_lines.reserve(lines.size());

    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Line& line = lines[i];
      std::string fixed_line = line.raw;

      // Token rules.
      const bool exempt_annotations_header =
          info.in_src && info.src_dir == "util" &&
          info.filename == "thread_annotations.h";
      for (std::size_t r = 0; r < std::size(kTokenRules); ++r) {
        const TokenRuleSpec& spec = kTokenRules[r];
        if (!InScope(spec, info)) continue;
        if (spec.rule == std::string_view("raw-mutex") &&
            exempt_annotations_header) {
          continue;
        }
        std::smatch m;
        if (!std::regex_search(line.code, m, token_regexes[r])) continue;
        if (IsAllowed(lines, i, spec.rule)) continue;
        result.findings.push_back({spec.rule, file.path,
                                   static_cast<int>(i + 1),
                                   FormatMessage(spec.message, m.str()),
                                   false});
      }

      // Include rules.
      if (!line.include.empty()) {
        if (line.include_angle && line.include == "iostream" &&
            info.is_header &&
            (info.in_src || info.in_bench || info.in_tools) &&
            !IsAllowed(lines, i, "iostream-header")) {
          std::size_t pos = fixed_line.find("<iostream>");
          if (opts.apply_fixes && pos != std::string::npos) {
            fixed_line.replace(pos, 10, "<iosfwd>");
            fixed_any = true;
            ++result.fixes_applied;
          } else {
            result.findings.push_back(
                {"iostream-header", file.path, static_cast<int>(i + 1),
                 "<iostream> in a header drags static stream initializers "
                 "into every includer; use <iosfwd>/<ostream> and move the "
                 "heavy include to the .cc",
                 true});
          }
        }
        if (!line.include_angle && info.in_src && !info.src_dir.empty()) {
          auto dir_it = AllowedDeps().find(info.src_dir);
          std::size_t slash = line.include.find('/');
          if (dir_it != AllowedDeps().end() && slash != std::string::npos) {
            std::string dep = line.include.substr(0, slash);
            if (AllowedDeps().count(dep) == 0) {
              if (!IsAllowed(lines, i, "layering")) {
                result.findings.push_back(
                    {"layering", file.path, static_cast<int>(i + 1),
                     "include of unknown src directory `" + dep +
                         "`; add it to the layering table in "
                         "tools/lint/lint.cc and docs/static_analysis.md",
                     false});
              }
            } else if (dir_it->second.count(dep) == 0 &&
                       !IsAllowed(lines, i, "layering")) {
              result.findings.push_back(
                  {"layering", file.path, static_cast<int>(i + 1),
                   "src/" + info.src_dir + " must not include src/" + dep +
                       " (allowed: " + JoinSet(dir_it->second) + ")",
                   false});
            }
          }
        }
      }

      fixed_lines.push_back(std::move(fixed_line));
    }

    if (fixed_any) {
      std::string fixed;
      fixed.reserve(file.content.size());
      for (std::size_t i = 0; i < fixed_lines.size(); ++i) {
        fixed += fixed_lines[i];
        // Preserve the original trailing-newline shape.
        if (i + 1 < fixed_lines.size() ||
            (!file.content.empty() && file.content.back() == '\n')) {
          fixed += '\n';
        }
      }
      result.fixes[file.path] = std::move(fixed);
    }
  }

  // Schema cross-check: only meaningful when both sides were scanned.
  if (saw_code && saw_markdown) {
    for (const auto& [token, where] : code_schemas) {
      if (doc_schemas.find(token) == doc_schemas.end()) {
        result.findings.push_back(
            {"schema-docs", where.file, where.line,
             "schema string `" + token +
                 "` appears in source but in none of the scanned docs; "
                 "document it (or retire it)",
             false});
      }
    }
    for (const auto& [token, where] : doc_schemas) {
      if (code_schemas.find(token) == code_schemas.end()) {
        result.findings.push_back(
            {"schema-docs", where.file, where.line,
             "schema string `" + token +
                 "` appears in docs but nowhere in the scanned source; "
                 "fix the doc (stale version?)",
             false});
      }
    }
  }

  return result;
}

std::string ToJson(const RunResult& result) {
  std::string out;
  out.append("{\n  \"schema\": \"");
  out.append(kLintSchema);
  out.append("\",\n  \"files_scanned\": ");
  out.append(std::to_string(result.files_scanned));
  out.append(",\n  \"fixes_applied\": ");
  out.append(std::to_string(result.fixes_applied));
  out.append(",\n  \"findings\": [");
  bool first = true;
  for (const Finding& f : result.findings) {
    out.append(first ? "\n    {" : ",\n    {");
    first = false;
    out.append("\"rule\": ");
    AppendJsonString(f.rule, &out);
    out.append(", \"file\": ");
    AppendJsonString(f.file, &out);
    out.append(", \"line\": ");
    out.append(std::to_string(f.line));
    out.append(", \"message\": ");
    AppendJsonString(f.message, &out);
    out.append(", \"fixable\": ");
    out.append(f.fixable ? "true" : "false");
    out.push_back('}');
  }
  out.append(first ? "]" : "\n  ]");
  const LockGraph& graph = result.lock_graph;
  out.append(",\n  \"lock_graph\": {\n    \"acyclic\": ");
  out.append(graph.acyclic ? "true" : "false");
  out.append(",\n    \"nodes\": ");
  AppendJsonStrings(graph.nodes, &out);
  out.append(",\n    \"edges\": [");
  first = true;
  for (const LockEdge& e : graph.edges) {
    out.append(first ? "\n      {" : ",\n      {");
    first = false;
    out.append("\"from\": ");
    AppendJsonString(e.from, &out);
    out.append(", \"to\": ");
    AppendJsonString(e.to, &out);
    out.append(", \"file\": ");
    AppendJsonString(e.file, &out);
    out.append(", \"line\": ");
    out.append(std::to_string(e.line));
    out.push_back('}');
  }
  out.append(first ? "]" : "\n    ]");
  out.append(",\n    \"cycles\": ");
  AppendJsonStrings(graph.cycles, &out);
  out.append("\n  }\n}\n");
  return out;
}

std::string ToText(const RunResult& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  const LockGraph& graph = result.lock_graph;
  out += std::to_string(result.findings.size()) + " finding(s) in " +
         std::to_string(result.files_scanned) + " file(s) analyzed";
  if (result.fixes_applied > 0) {
    out += ", " + std::to_string(result.fixes_applied) + " fix(es) applied";
  }
  out += "; lock graph: " + std::to_string(graph.nodes.size()) +
         " mutex(es), " + std::to_string(graph.edges.size()) + " edge(s), ";
  if (graph.acyclic) {
    out += "acyclic.\n";
  } else {
    out += "CYCLIC:\n";
    for (const std::string& cycle : graph.cycles) {
      out += "  " + cycle + "\n";
    }
  }
  return out;
}

std::string ToDot(const LockGraph& graph) {
  std::string out;
  out.append("digraph lock_order {\n");
  out.append("  rankdir=LR;\n");
  out.append("  node [shape=box];\n");
  std::set<std::string> with_edges;
  for (const LockEdge& e : graph.edges) {
    with_edges.insert(e.from);
    with_edges.insert(e.to);
  }
  for (const std::string& node : graph.nodes) {
    if (with_edges.count(node) != 0) continue;
    out.append("  \"" + node + "\";\n");
  }
  for (const LockEdge& e : graph.edges) {
    out.append("  \"" + e.from + "\" -> \"" + e.to + "\" [label=\"" +
               e.file + ":" + std::to_string(e.line) + "\"];\n");
  }
  out.append("}\n");
  return out;
}

std::vector<RuleInfo> Rules() {
  std::vector<RuleInfo> rules;
  for (const TokenRuleSpec& spec : kTokenRules) {
    rules.push_back({spec.rule, FormatMessage(spec.message, "<token>")});
  }
  rules.push_back({"iostream-header",
                   "#include <iostream> in a header under src/, bench/ or "
                   "tools/ (fixable: rewrites to <iosfwd>)"});
  rules.push_back({"layering",
                   "inter-directory includes in src/ must follow the "
                   "layering DAG (util < obs < {net,sim,repl} < core < "
                   "{kv,stats} < {model,check})"});
  rules.push_back({"schema-docs",
                   "every dynvote-*-vN schema string must appear in both "
                   "the source and the scanned docs"});
  rules.push_back({"lock-order",
                   "the global mutex-acquisition graph (MutexLock nesting "
                   "+ DYNVOTE_ACQUIRE/REQUIRES annotations) must be "
                   "acyclic"});
  rules.push_back({"guarded-by",
                   "mutable non-atomic members of Mutex-owning classes in "
                   "threaded dirs (util/ obs/ check/ stats/) need "
                   "DYNVOTE_GUARDED_BY or a proof suppression"});
  rules.push_back({"lock-hygiene",
                   "no throw, stream I/O / logging, or virtual dispatch "
                   "through a trace sink while a lock is held"});
  rules.push_back({"schema-fields",
                   "TraceEvent struct fields, the JSONL encoder, the binary "
                   "codec and the docs field tables must agree field by "
                   "field"});
  return rules;
}

}  // namespace lint
}  // namespace dynvote
