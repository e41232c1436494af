// Command-line entry point for the project's static analysis. Exit
// codes: 0 clean, 1 findings remain (a lock-order cycle is one), 2
// usage/IO error.
//
//   dynvote_lint [--json] [--fix] [--dot <file>] [--list-rules]
//                <files-or-dirs>...
//
// Directories are walked recursively for .h/.hpp/.cc/.cpp/.md files in
// sorted order, so output is stable for stable trees. Markdown inputs
// participate only in the schema-docs and schema-fields cross-checks —
// pass the docs alongside the source to enable them (CI does). --dot
// writes the mutex acquisition hierarchy as Graphviz DOT (use `-` for
// stdout).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.h"

namespace {

namespace fs = std::filesystem;
using dynvote::lint::FileInput;

int Usage() {
  std::cerr << "usage: dynvote_lint [--json] [--fix] [--dot <file>] "
               "[--list-rules] <paths>...\n"
               "  --json        machine-readable output (dynvote-lint-v2)\n"
               "  --fix         rewrite fixable findings in place\n"
               "  --dot <file>  write the lock hierarchy as Graphviz DOT "
               "(`-` = stdout)\n"
               "  --list-rules  print the rule catalog and exit\n";
  return 2;
}

bool WantedExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".md";
}

bool ReadFileInto(const fs::path& path, std::vector<FileInput>* files) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "dynvote_lint: cannot read " << path.string() << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  files->push_back({path.generic_string(), buffer.str()});
  return true;
}

/// Appends `arg` (file or directory) to `files`; prints an error and
/// returns false when it is unreadable or missing.
bool CollectPath(const std::string& arg, std::vector<FileInput>* files) {
  fs::path path(arg);
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> found;
    for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
      if (entry.is_regular_file() && WantedExtension(entry.path())) {
        found.push_back(entry.path());
      }
    }
    std::sort(found.begin(), found.end());
    for (const fs::path& p : found) {
      if (!ReadFileInto(p, files)) return false;
    }
    return true;
  }
  if (fs::is_regular_file(path, ec)) return ReadFileInto(path, files);
  std::cerr << "dynvote_lint: no such file or directory: " << arg << "\n";
  return false;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "dynvote_lint: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool fix = false;
  std::string dot_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--dot") {
      if (i + 1 >= argc) return Usage();
      dot_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& rule : dynvote::lint::Rules()) {
        std::cout << rule.name << "\n    " << rule.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dynvote_lint: unknown flag " << arg << "\n";
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return Usage();

  std::vector<FileInput> files;
  for (const std::string& path : paths) {
    if (!CollectPath(path, &files)) return 2;
  }

  // Both passes read the files as given; --fix rewrites only after.
  dynvote::lint::Options options;
  options.apply_fixes = fix;
  dynvote::lint::RunResult result = dynvote::lint::RunLint(files, options);
  dynvote::lint::RunResult symbols = dynvote::lint::RunAnalyze(files);
  result.findings.insert(result.findings.end(), symbols.findings.begin(),
                         symbols.findings.end());
  result.lock_graph = std::move(symbols.lock_graph);

  for (const auto& [path, content] : result.fixes) {
    if (!WriteFile(path, content)) return 2;
  }
  if (!dot_path.empty()) {
    const std::string dot = dynvote::lint::ToDot(result.lock_graph);
    if (dot_path == "-") {
      std::cout << dot;
    } else if (!WriteFile(dot_path, dot)) {
      return 2;
    }
  }

  if (json) {
    std::cout << dynvote::lint::ToJson(result);
  } else {
    std::cout << dynvote::lint::ToText(result);
  }
  return result.findings.empty() ? 0 : 1;
}
