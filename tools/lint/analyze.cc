#include "lint/lint.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/scan.h"
#include "lint/token.h"

namespace dynvote {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Symbol model
// ---------------------------------------------------------------------------

struct MemberInfo {
  std::string name;
  int line = 0;
  bool is_static = false;    // static / constexpr: no instance state
  bool is_const = false;     // const non-pointer: immutable after init
  bool is_atomic = false;
  bool is_mutex = false;     // dynvote::Mutex
  bool is_mutex_ref = false;  // Mutex& / Mutex*: borrowed, not owned
  bool is_condvar = false;   // dynvote::CondVar (synchronization, not data)
  bool is_sink = false;      // TraceSink / TracePageSink (virtual dispatch)
  std::string guarded_by;    // DYNVOTE_GUARDED_BY argument, "" when absent
};

struct ClassInfo {
  std::string name;
  int file_index = -1;
  int line = 0;
  bool has_mutex = false;
  std::vector<MemberInfo> members;

  const MemberInfo* FindMutexMember(const std::string& member) const {
    for (const MemberInfo& m : members) {
      if (m.is_mutex && m.name == member) return &m;
    }
    return nullptr;
  }
};

/// Token range of a class body within one file, for innermost-enclosing
/// class lookup during the rules walk.
struct ClassRange {
  int class_index;       // into Model::classes
  std::size_t begin;     // token index of '{'
  std::size_t end;       // token index of matching '}'
};

/// A skipped in-class function body whose declaration carried
/// DYNVOTE_REQUIRES / DYNVOTE_ACQUIRE: the named mutexes are held for
/// the whole body starting at token `lbrace`.
struct InlineSeed {
  std::size_t lbrace;
  int class_index;
  std::vector<std::string> args;  // raw annotation arguments
};

struct ParsedFile {
  const FileInput* input = nullptr;
  PathInfo info;
  std::vector<Line> lines;
  std::vector<Token> toks;
  std::vector<ClassRange> ranges;
  std::vector<InlineSeed> inline_seeds;
};

struct Model {
  std::vector<ParsedFile> files;
  std::vector<ClassInfo> classes;
  std::map<std::string, std::vector<int>> classes_by_name;
  // Mutex member name -> indices of classes declaring such a member.
  std::map<std::string, std::vector<int>> mutex_owners;
  // "Class::Function" -> mutexes named by DYNVOTE_REQUIRES/ACQUIRE.
  std::map<std::string, std::vector<std::string>> fn_held;
  // Names of members whose declared type mentions a trace sink.
  std::set<std::string> sink_members;
  // Per file: indices of files reachable through #include (incl. self).
  std::vector<std::set<int>> closure;
};

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// Index of the punct matching `open_text` at `open`, scanning forward.
/// Clamps at end of input (a lexer-level tool must never fail).
std::size_t MatchForward(const std::vector<Token>& toks, std::size_t open,
                         const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == open_text) {
      ++depth;
    } else if (toks[i].text == close_text) {
      if (--depth == 0) return i;
    }
  }
  return toks.empty() ? 0 : toks.size() - 1;
}

bool IsBasicType(const std::string& s) {
  static const std::set<std::string> kBasic = {
      "void",  "bool",   "char", "int",    "unsigned", "signed",
      "short", "long",   "float", "double", "auto",     "wchar_t",
  };
  return kBasic.count(s) != 0;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// Class / member extraction
// ---------------------------------------------------------------------------

/// Parses one member/method statement of a class body starting at `i`
/// (first token after the previous statement). Appends to `cls`,
/// records annotation-held mutexes for methods, and returns the index
/// one past the statement (function bodies skipped).
std::size_t ParseMemberStatement(ParsedFile* pf, int class_index,
                                 ClassInfo* cls, std::size_t i, Model* m) {
  const std::vector<Token>& toks = pf->toks;
  std::vector<Token> stmt;
  std::string prev_text;  // last consumed token incl. skipped groups
  bool body_skipped = false;
  std::size_t body_lbrace = 0;
  int paren = 0;

  while (i < toks.size()) {
    const Token& t = toks[i];
    if (IsPunct(t, "(")) {
      ++paren;
      stmt.push_back(t);
      prev_text = t.text;
      ++i;
      continue;
    }
    if (IsPunct(t, ")")) {
      --paren;
      stmt.push_back(t);
      prev_text = t.text;
      ++i;
      continue;
    }
    if (paren == 0 && IsPunct(t, ";")) {
      ++i;
      break;
    }
    if (paren == 0 && IsPunct(t, "}")) break;  // end of class body
    if (paren == 0 && IsPunct(t, "{")) {
      // Function body, or a member's brace-initializer? A body follows
      // the declarator's ')' (possibly via const/noexcept/override/...)
      // or a ctor-init-list entry; an initializer follows the member
      // name, '=' or a template '>'.
      const bool fn_body =
          prev_text == ")" || prev_text == "}" || prev_text == "const" ||
          prev_text == "noexcept" || prev_text == "override" ||
          prev_text == "final" || prev_text == "try";
      std::size_t close = MatchForward(toks, i, "{", "}");
      if (fn_body) {
        body_skipped = true;
        body_lbrace = i;
        i = close + 1;
        if (i < toks.size() && IsPunct(toks[i], ";")) ++i;
        break;
      }
      prev_text = "}";
      i = close + 1;
      continue;
    }
    stmt.push_back(t);
    prev_text = t.text;
    ++i;
  }
  if (stmt.empty()) return i;

  // Strip annotation macros, remembering their names and arguments.
  std::vector<std::pair<std::string, std::string>> annotations;
  std::vector<Token> decl;
  for (std::size_t k = 0; k < stmt.size();) {
    if (stmt[k].kind == TokKind::kIdent &&
        StartsWith(stmt[k].text, "DYNVOTE_")) {
      std::string macro = stmt[k].text;
      std::string arg;
      ++k;
      if (k < stmt.size() && IsPunct(stmt[k], "(")) {
        std::size_t close = MatchForward(stmt, k, "(", ")");
        for (std::size_t a = k + 1; a < close; ++a) {
          if (!arg.empty() && stmt[a].kind == TokKind::kIdent &&
              stmt[a - 1].kind == TokKind::kIdent) {
            arg.push_back(' ');
          }
          arg.append(stmt[a].text);
        }
        k = close + 1;
      }
      annotations.emplace_back(std::move(macro), std::move(arg));
      continue;
    }
    decl.push_back(stmt[k]);
    ++k;
  }
  if (decl.empty()) return i;

  // Function or data member? Scan at top nesting level: the first
  // identifier directly followed by '(' (before any top-level '=') is a
  // declarator; `operator` always means a function.
  int angle = 0, nest = 0;
  bool is_function = false;
  std::string fn_name;
  for (std::size_t k = 0; k < decl.size(); ++k) {
    const Token& t = decl[k];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[") ++nest;
      if (t.text == ")" || t.text == "]") --nest;
      if (nest == 0 && angle == 0 && t.text == "=") break;  // initializer
      if (t.text == "<" && k > 0 &&
          (decl[k - 1].kind == TokKind::kIdent || decl[k - 1].text == ">")) {
        ++angle;
      } else if (t.text == ">" && angle > 0) {
        --angle;
      }
      continue;
    }
    if (nest != 0 || angle != 0 || t.kind != TokKind::kIdent) continue;
    if (t.text == "operator") {
      is_function = true;
      break;
    }
    if (k + 1 < decl.size() && IsPunct(decl[k + 1], "(") &&
        !IsBasicType(t.text)) {
      is_function = true;
      fn_name = t.text;
      break;
    }
  }

  if (is_function) {
    std::vector<std::string> held;
    for (const auto& [macro, arg] : annotations) {
      if (macro == "DYNVOTE_REQUIRES" || macro == "DYNVOTE_ACQUIRE" ||
          macro == "DYNVOTE_ACQUIRE_SHARED" ||
          macro == "DYNVOTE_REQUIRES_SHARED") {
        if (!arg.empty()) held.push_back(arg);
      }
    }
    if (!held.empty()) {
      if (!fn_name.empty()) {
        auto& dest = m->fn_held[cls->name + "::" + fn_name];
        dest.insert(dest.end(), held.begin(), held.end());
      }
      if (body_skipped) {
        pf->inline_seeds.push_back({body_lbrace, class_index, held});
      }
    }
    return i;
  }

  // Data member: the name is the last top-level identifier.
  MemberInfo member;
  member.line = decl.front().line;
  angle = nest = 0;
  bool has_const = false, has_ptr = false, has_ref = false;
  std::vector<std::string> top_idents;
  for (std::size_t k = 0; k < decl.size(); ++k) {
    const Token& t = decl[k];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[") ++nest;
      if (t.text == ")" || t.text == "]") --nest;
      if (nest == 0 && angle == 0 && t.text == "=") break;
      if (nest == 0 && angle == 0 && t.text == "*") has_ptr = true;
      if (nest == 0 && angle == 0 && t.text == "&") has_ref = true;
      if (t.text == "<" && k > 0 &&
          (decl[k - 1].kind == TokKind::kIdent || decl[k - 1].text == ">")) {
        ++angle;
      } else if (t.text == ">" && angle > 0) {
        --angle;
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "static" || t.text == "constexpr") member.is_static = true;
    if (t.text == "const") has_const = true;
    // Type properties may hide inside template arguments
    // (std::vector<TraceSink*>), so inspect identifiers at every depth.
    if (t.text == "atomic") member.is_atomic = true;
    if (t.text == "CondVar") member.is_condvar = true;
    if (t.text == "TraceSink" || t.text == "TracePageSink") {
      member.is_sink = true;
    }
    if (nest == 0 && angle == 0) top_idents.push_back(t.text);
  }
  if (top_idents.empty()) return i;
  member.name = top_idents.back();
  if (member.name == "mutable" || IsBasicType(member.name) ||
      member.name == "const" || top_idents.size() < 2) {
    return i;  // not a recognizable member declaration
  }
  // `Mutex` must name the member's own type (top level), not a template
  // argument or the target of a pointer.
  for (std::size_t k = 0; k + 1 < top_idents.size(); ++k) {
    if (top_idents[k] == "Mutex") member.is_mutex = true;
  }
  member.is_mutex_ref = member.is_mutex && (has_ref || has_ptr);
  member.is_const = has_const && !has_ptr && !member.is_mutex;
  for (const auto& [macro, arg] : annotations) {
    if (macro == "DYNVOTE_GUARDED_BY" || macro == "DYNVOTE_PT_GUARDED_BY") {
      member.guarded_by = arg.empty() ? "<unnamed>" : arg;
    }
  }
  if (member.is_mutex && !member.is_mutex_ref) {
    cls->has_mutex = true;
    m->mutex_owners[member.name].push_back(class_index);
  }
  if (member.is_sink) m->sink_members.insert(member.name);
  cls->members.push_back(std::move(member));
  return i;
}

std::size_t ParseClassAt(ParsedFile* pf, int file_index, std::size_t i,
                         Model* m);

/// Parses a class body starting at the '{' at `lbrace`; returns the
/// index one past the matching '}'.
std::size_t ParseClassBody(ParsedFile* pf, int file_index, int class_index,
                           std::size_t lbrace, Model* m) {
  const std::vector<Token>& toks = pf->toks;
  std::size_t end = MatchForward(toks, lbrace, "{", "}");
  std::size_t i = lbrace + 1;
  while (i < end) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kIdent) {
      if ((t.text == "public" || t.text == "private" ||
           t.text == "protected") &&
          i + 1 < end && IsPunct(toks[i + 1], ":")) {
        i += 2;
        continue;
      }
      if (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
          t.text == "static_assert") {
        // A friend may be defined inline: the brace body ends the
        // declaration (no trailing ';').
        while (i < end && !IsPunct(toks[i], ";")) {
          if (IsPunct(toks[i], "(")) {
            i = MatchForward(toks, i, "(", ")");
          } else if (IsPunct(toks[i], "{")) {
            i = MatchForward(toks, i, "{", "}") + 1;
            break;
          }
          ++i;
        }
        if (i < end && IsPunct(toks[i], ";")) ++i;
        continue;
      }
      if (t.text == "template" && i + 1 < end && IsPunct(toks[i + 1], "<")) {
        i = MatchForward(toks, i + 1, "<", ">") + 1;
        continue;
      }
      if (t.text == "enum") {
        while (i < end && !IsPunct(toks[i], ";")) {
          if (IsPunct(toks[i], "{")) {
            i = MatchForward(toks, i, "{", "}");
          }
          ++i;
        }
        ++i;
        continue;
      }
      if (t.text == "class" || t.text == "struct") {
        i = ParseClassAt(pf, file_index, i, m);
        continue;
      }
    }
    // m->classes may reallocate while nested classes parse, so re-index.
    std::size_t next =
        ParseMemberStatement(pf, class_index, &m->classes[class_index], i, m);
    // Guarantee progress on any token sequence the statement parser
    // declines (stray '}' from a construct it skipped imprecisely).
    i = next > i ? next : i + 1;
  }
  return end + 1;
}

/// Parses a class/struct introduction at token `i` (the keyword).
/// Handles forward declarations; returns the index one past the
/// construct.
std::size_t ParseClassAt(ParsedFile* pf, int file_index, std::size_t i,
                         Model* m) {
  const std::vector<Token>& toks = pf->toks;
  std::size_t j = i + 1;
  std::string name;
  // The name is the first identifier that is not an annotation macro
  // (DYNVOTE_CAPABILITY("mutex"), DYNVOTE_SCOPED_CAPABILITY) and not a
  // contextual keyword.
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (IsPunct(t, "[")) {  // [[attribute]]
      j = MatchForward(toks, j, "[", "]") + 1;
      continue;
    }
    if (t.kind == TokKind::kIdent) {
      if (StartsWith(t.text, "DYNVOTE_") || t.text == "final" ||
          t.text == "alignas") {
        ++j;
        if (j < toks.size() && IsPunct(toks[j], "(")) {
          j = MatchForward(toks, j, "(", ")") + 1;
        }
        continue;
      }
      name = t.text;
      ++j;
      break;
    }
    break;  // '{' (anonymous), ';', ':', ...
  }
  // Find the body or the terminating ';' (skipping the base clause).
  while (j < toks.size() && !IsPunct(toks[j], "{") && !IsPunct(toks[j], ";")) {
    if (IsPunct(toks[j], "(")) {
      j = MatchForward(toks, j, "(", ")");
    }
    ++j;
  }
  if (j >= toks.size() || IsPunct(toks[j], ";")) return j + 1;
  if (name.empty()) return MatchForward(toks, j, "{", "}") + 1;

  int class_index = static_cast<int>(m->classes.size());
  ClassInfo cls;
  cls.name = name;
  cls.file_index = file_index;
  cls.line = toks[i].line;
  m->classes.push_back(std::move(cls));
  m->classes_by_name[name].push_back(class_index);
  std::size_t end = MatchForward(toks, j, "{", "}");
  pf->ranges.push_back({class_index, j, end});
  return ParseClassBody(pf, file_index, class_index, j, m);
}

void ParseClasses(ParsedFile* pf, int file_index, Model* m) {
  const std::vector<Token>& toks = pf->toks;
  std::size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (IsIdent(t, "template") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "<")) {
      i = MatchForward(toks, i + 1, "<", ">") + 1;
      continue;
    }
    if (IsIdent(t, "enum")) {
      while (i < toks.size() && !IsPunct(toks[i], ";")) {
        if (IsPunct(toks[i], "{")) i = MatchForward(toks, i, "{", "}");
        ++i;
      }
      ++i;
      continue;
    }
    if (IsIdent(t, "class") || IsIdent(t, "struct")) {
      i = ParseClassAt(pf, file_index, i, m);
      continue;
    }
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Include closure
// ---------------------------------------------------------------------------

void BuildClosure(Model* m) {
  const std::size_t n = m->files.size();
  std::vector<std::vector<int>> direct(n);
  for (std::size_t f = 0; f < n; ++f) {
    for (const Line& line : m->files[f].lines) {
      if (line.include.empty()) continue;
      for (std::size_t g = 0; g < n; ++g) {
        const std::string& path = m->files[g].input->path;
        if (path == line.include ||
            EndsWith(path, "/" + line.include)) {
          direct[f].push_back(static_cast<int>(g));
        }
      }
    }
  }
  m->closure.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    std::vector<int> stack = {static_cast<int>(f)};
    while (!stack.empty()) {
      int cur = stack.back();
      stack.pop_back();
      if (!m->closure[f].insert(cur).second) continue;
      for (int next : direct[cur]) stack.push_back(next);
    }
  }
}

// ---------------------------------------------------------------------------
// Lock-order + lock-hygiene walk
// ---------------------------------------------------------------------------

struct HeldLock {
  std::string mutex;
  int depth = 0;  // brace depth at the acquisition site
  int line = 0;
  bool annotated = false;  // seeded from REQUIRES/ACQUIRE, no real site
};

struct EdgeCollector {
  std::vector<LockEdge> edges;
  std::set<std::pair<std::string, std::string>> seen;

  void Add(const std::string& from, const std::string& to,
           const std::string& file, int line) {
    if (seen.insert({from, to}).second) {
      edges.push_back({from, to, file, line});
    }
  }
};

/// The innermost class whose body token range contains token `i`.
int EnclosingClass(const ParsedFile& pf, std::size_t i) {
  int best = -1;
  std::size_t best_span = 0;
  for (const ClassRange& r : pf.ranges) {
    if (i <= r.begin || i >= r.end) continue;
    std::size_t span = r.end - r.begin;
    if (best < 0 || span < best_span) {
      best = r.class_index;
      best_span = span;
    }
  }
  return best;
}

/// Canonical name for the mutex identifier `name` acquired in `pf` at
/// token `tok_index` with out-of-line class context `fn_class` (-1 when
/// none). Resolution: enclosing class member, then a unique owner in
/// the include closure, then a unique owner globally, else `?::name`.
std::string ResolveMutex(const Model& m, const ParsedFile& pf,
                         int file_index, std::size_t tok_index,
                         int fn_class, const std::string& name) {
  int ctx = fn_class >= 0 ? fn_class : EnclosingClass(pf, tok_index);
  if (ctx >= 0 && m.classes[ctx].FindMutexMember(name) != nullptr) {
    return m.classes[ctx].name + "::" + name;
  }
  auto it = m.mutex_owners.find(name);
  if (it != m.mutex_owners.end()) {
    std::vector<int> visible;
    const std::set<int>& closure = m.closure[file_index];
    for (int cls : it->second) {
      if (closure.count(m.classes[cls].file_index)) visible.push_back(cls);
    }
    if (visible.size() == 1) return m.classes[visible[0]].name + "::" + name;
    if (it->second.size() == 1) {
      return m.classes[it->second[0]].name + "::" + name;
    }
  }
  return "?::" + name;
}

/// Extracts the mutex identifier from a MutexLock argument list:
/// the last identifier inside the parens (`&shards_[i].mutex` ->
/// `mutex`).
std::string LockArgName(const std::vector<Token>& toks, std::size_t open,
                        std::size_t close) {
  std::string name;
  for (std::size_t k = open + 1; k < close; ++k) {
    if (toks[k].kind == TokKind::kIdent) name = toks[k].text;
  }
  return name;
}

/// Verifies that the `(` at `open` (following `Class::Name`) begins a
/// function *definition*, i.e. a balanced parameter list followed —
/// possibly via qualifiers, annotations and a constructor init list —
/// by a body `{`. Returns the token index of the body brace, or 0.
std::size_t FindDefinitionBody(const std::vector<Token>& toks,
                               std::size_t open) {
  std::size_t j = MatchForward(toks, open, "(", ")") + 1;
  bool init_list = false;
  std::string prev = ")";
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (IsPunct(t, ";") || IsPunct(t, "=")) return 0;  // declaration
    if (IsPunct(t, "{")) {
      // In an init list, `name{...}` is a member initializer; a `{`
      // after `)` / `}` / `,`-free position is the body.
      if (init_list && (prev != ")" && prev != "}" && prev != ",")) {
        j = MatchForward(toks, j, "{", "}");
        prev = "}";
        ++j;
        continue;
      }
      return j;
    }
    if (IsPunct(t, ":")) {
      init_list = true;
      prev = t.text;
      ++j;
      continue;
    }
    if (IsPunct(t, "(")) {
      j = MatchForward(toks, j, "(", ")") + 1;
      prev = ")";
      continue;
    }
    if (t.kind == TokKind::kIdent || IsPunct(t, ",") || IsPunct(t, "::") ||
        IsPunct(t, "&") || IsPunct(t, "*") || IsPunct(t, "->") ||
        IsPunct(t, "<") || IsPunct(t, ">") || t.kind == TokKind::kNumber ||
        t.kind == TokKind::kString) {
      prev = t.text;
      ++j;
      continue;
    }
    return 0;  // unexpected token: an expression, not a definition
  }
  return 0;
}

void WalkLocks(const Model& m, int file_index, EdgeCollector* edges,
               std::vector<Finding>* hygiene_findings,
               std::set<std::string>* nodes) {
  const ParsedFile& pf = m.files[file_index];
  const std::vector<Token>& toks = pf.toks;
  const std::string& path = pf.input->path;

  int brace_depth = 0;
  std::vector<HeldLock> held;
  int fn_class = -1;
  int fn_body_depth = -1;
  // Pending annotation seeds keyed by the token index of the body '{'.
  std::map<std::size_t, std::pair<int, std::vector<std::string>>> pending;
  for (const InlineSeed& seed : pf.inline_seeds) {
    pending[seed.lbrace] = {seed.class_index, seed.args};
  }

  auto push_seeds = [&](int cls, const std::vector<std::string>& args,
                        std::size_t tok_index, int line) {
    for (const std::string& raw : args) {
      // The annotation argument may be an expression (`&mu_`, `mu`);
      // resolve its trailing identifier like a lock site.
      std::string name;
      for (const Token& t : Tokenize(raw)) {
        if (t.kind == TokKind::kIdent) name = t.text;
      }
      if (name.empty()) continue;
      std::string canonical =
          cls >= 0 && m.classes[cls].FindMutexMember(name) != nullptr
              ? m.classes[cls].name + "::" + name
              : ResolveMutex(m, pf, file_index, tok_index, cls, name);
      held.push_back({canonical, brace_depth, line, true});
    }
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    if (IsPunct(t, "{")) {
      ++brace_depth;
      auto it = pending.find(i);
      if (it != pending.end()) {
        push_seeds(it->second.first, it->second.second, i, t.line);
        pending.erase(it);
      }
      continue;
    }
    if (IsPunct(t, "}")) {
      --brace_depth;
      while (!held.empty() && held.back().depth > brace_depth) {
        held.pop_back();
      }
      if (fn_body_depth >= 0 && brace_depth < fn_body_depth) {
        fn_class = -1;
        fn_body_depth = -1;
      }
      continue;
    }

    // Out-of-line definition: `Class::Name(...) ... {` establishes the
    // class context and the annotation-held seeds for the body.
    if (fn_body_depth < 0 && t.kind == TokKind::kIdent &&
        i + 3 < toks.size() && IsPunct(toks[i + 1], "::") &&
        toks[i + 2].kind == TokKind::kIdent && IsPunct(toks[i + 3], "(")) {
      auto by_name = m.classes_by_name.find(t.text);
      if (by_name != m.classes_by_name.end()) {
        std::size_t body = FindDefinitionBody(toks, i + 3);
        if (body != 0) {
          int cls = -1;
          for (int candidate : by_name->second) {
            if (m.closure[file_index].count(
                    m.classes[candidate].file_index)) {
              cls = candidate;
              break;
            }
          }
          if (cls < 0) cls = by_name->second.front();
          fn_class = cls;
          fn_body_depth = brace_depth + 1;
          auto fn = m.fn_held.find(t.text + "::" + toks[i + 2].text);
          if (fn != m.fn_held.end()) {
            pending[body] = {cls, fn->second};
          }
        }
      }
    }

    // Lock acquisition: `MutexLock guard(expr);` (brace form included).
    if (IsIdent(t, "MutexLock") && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent &&
        (IsPunct(toks[i + 2], "(") || IsPunct(toks[i + 2], "{"))) {
      const char* open = toks[i + 2].text == "(" ? "(" : "{";
      const char* close = toks[i + 2].text == "(" ? ")" : "}";
      std::size_t end = MatchForward(toks, i + 2, open, close);
      std::string name = LockArgName(toks, i + 2, end);
      if (!name.empty()) {
        std::string canonical =
            ResolveMutex(m, pf, file_index, i, fn_class, name);
        nodes->insert(canonical);
        const bool allowed =
            IsAllowed(pf.lines, static_cast<std::size_t>(t.line - 1),
                      "lock-order");
        if (!allowed) {
          for (const HeldLock& h : held) {
            edges->Add(h.mutex, canonical, path, t.line);
          }
        }
        held.push_back({canonical, brace_depth, t.line, false});
      }
      i = end;
      continue;
    }

    // Hygiene: nothing slow, throwing or re-entrant while a lock is
    // held.
    if (held.empty()) continue;
    const HeldLock& innermost = held.back();
    auto hygiene = [&](const std::string& what) {
      if (IsAllowed(pf.lines, static_cast<std::size_t>(t.line - 1),
                    "lock-hygiene")) {
        return;
      }
      std::string msg = what + " while holding " + innermost.mutex;
      if (innermost.annotated) {
        msg += " (held per annotation)";
      } else {
        msg += " (locked at line " + std::to_string(innermost.line) + ")";
      }
      msg +=
          "; locks must not cover throws, stream I/O or sink dispatch "
          "— move the work outside the critical section";
      hygiene_findings->push_back({"lock-hygiene", path, t.line, msg, false});
    };

    if (IsIdent(t, "throw")) {
      hygiene("throw-expression");
      continue;
    }
    if (IsIdent(t, "DYNVOTE_LOG")) {
      hygiene("stream logging (DYNVOTE_LOG)");
      continue;
    }
    if (t.kind == TokKind::kIdent &&
        (t.text == "cout" || t.text == "cerr" || t.text == "clog") &&
        i >= 2 && IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std")) {
      hygiene("std::" + t.text + " I/O");
      continue;
    }
    if (t.kind == TokKind::kIdent && m.sink_members.count(t.text) != 0 &&
        i + 3 < toks.size() &&
        (IsPunct(toks[i + 1], "->") || IsPunct(toks[i + 1], ".")) &&
        toks[i + 2].kind == TokKind::kIdent && IsPunct(toks[i + 3], "(")) {
      hygiene("virtual dispatch through trace sink `" + t.text + "`");
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Cycle detection (iterative Tarjan SCC)
// ---------------------------------------------------------------------------

void DetectCycles(LockGraph* graph, std::vector<Finding>* findings) {
  const std::size_t n = graph->nodes.size();
  std::map<std::string, int> index_of;
  for (std::size_t i = 0; i < n; ++i) {
    index_of[graph->nodes[i]] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> adj(n);
  for (const LockEdge& e : graph->edges) {
    adj[index_of[e.from]].push_back(index_of[e.to]);
  }

  std::vector<int> order(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int counter = 0;
  std::vector<std::vector<int>> sccs;

  struct Frame {
    int v;
    std::size_t child;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (order[root] != -1) continue;
    std::vector<Frame> frames = {{static_cast<int>(root), 0}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      int v = f.v;
      if (f.child == 0) {
        order[v] = low[v] = counter++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      if (f.child < adj[v].size()) {
        int w = adj[v][f.child++];
        if (order[w] == -1) {
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], order[w]);
        }
      } else {
        if (low[v] == order[v]) {
          std::vector<int> scc;
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == v) break;
          }
          sccs.push_back(std::move(scc));
        }
        frames.pop_back();
        if (!frames.empty()) {
          int parent = frames.back().v;
          low[parent] = std::min(low[parent], low[v]);
        }
      }
    }
  }

  for (const std::vector<int>& scc : sccs) {
    bool cyclic = scc.size() > 1;
    if (!cyclic) {
      for (int w : adj[scc[0]]) {
        if (w == scc[0]) cyclic = true;
      }
    }
    if (!cyclic) continue;
    graph->acyclic = false;
    std::vector<std::string> names;
    for (auto it = scc.rbegin(); it != scc.rend(); ++it) {
      names.push_back(graph->nodes[*it]);
    }
    std::string cycle;
    for (const std::string& name : names) {
      if (!cycle.empty()) cycle += " -> ";
      cycle += name;
    }
    cycle += " -> " + names.front();
    graph->cycles.push_back(cycle);
    // Anchor the finding at the first recorded edge inside the SCC.
    std::set<std::string> in_scc(names.begin(), names.end());
    for (const LockEdge& e : graph->edges) {
      if (in_scc.count(e.from) != 0 && in_scc.count(e.to) != 0) {
        findings->push_back(
            {"lock-order", e.file, e.line,
             "lock acquisition cycle (potential deadlock): " + cycle +
                 "; impose a global order or collapse to one mutex",
             false});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GUARDED_BY coverage
// ---------------------------------------------------------------------------

bool InThreadedDir(const PathInfo& info) {
  return info.in_src &&
         (info.src_dir == "util" || info.src_dir == "obs" ||
          info.src_dir == "check" || info.src_dir == "stats");
}

void CheckGuardedBy(const Model& m, std::vector<Finding>* findings) {
  for (const ClassInfo& cls : m.classes) {
    if (!cls.has_mutex) continue;
    const ParsedFile& pf = m.files[cls.file_index];
    if (!InThreadedDir(pf.info)) continue;
    for (const MemberInfo& member : cls.members) {
      if (member.is_static || member.is_const || member.is_atomic ||
          member.is_mutex || member.is_condvar) {
        continue;
      }
      if (!member.guarded_by.empty()) continue;
      if (IsAllowed(pf.lines, static_cast<std::size_t>(member.line - 1),
                    "guarded-by")) {
        continue;
      }
      findings->push_back(
          {"guarded-by", pf.input->path, member.line,
           "mutable member `" + member.name + "` of Mutex-owning class `" +
               cls.name +
               "` has no DYNVOTE_GUARDED_BY annotation; annotate it or "
               "carry a proof suppression explaining why unsynchronized "
               "access is safe",
           false});
    }
  }
}

// ---------------------------------------------------------------------------
// Schema-fields cross-check
// ---------------------------------------------------------------------------

struct KeySite {
  std::string file;
  int line = 0;
};

/// Wire key(s) a TraceEvent field serializes to. Unlisted fields use
/// their own name.
const std::map<std::string, std::vector<std::string>>& FieldAliases() {
  static const std::map<std::string, std::vector<std::string>> kAliases = {
      {"type", {"ev"}},         {"replication", {"rep"}},
      {"generation", {"gen"}},  {"latency_ms", {"lat_ms"}},
      {"set_r", {"R"}},         {"set_q", {"Q"}},
      {"set_s", {"S"}},         {"set_t", {"T"}},
      {"set_pm", {"Pm"}},
  };
  return kAliases;
}

std::vector<std::string> KeysForField(const std::string& field) {
  auto it = FieldAliases().find(field);
  if (it != FieldAliases().end()) return it->second;
  return {field};
}

void CheckSchemaFields(const Model& m, std::vector<Finding>* findings) {
  // The record struct.
  const ClassInfo* record = nullptr;
  auto it = m.classes_by_name.find("TraceEvent");
  if (it != m.classes_by_name.end()) record = &m.classes[it->second.front()];

  // JSONL encoder keys: `\"key\":` inside string literals. A file
  // participates only if it emits the discriminator key `ev` — stray
  // JSON renderers (metrics, reports) never qualify.
  static const std::regex kKeyRe(R"re(\\"([A-Za-z_][A-Za-z0-9_]*)\\":)re");
  std::map<std::string, KeySite> encoder_keys;
  std::set<int> encoder_files;
  for (std::size_t f = 0; f < m.files.size(); ++f) {
    const ParsedFile& pf = m.files[f];
    if (!pf.info.is_code) continue;
    std::map<std::string, KeySite> local;
    for (const Token& t : pf.toks) {
      if (t.kind != TokKind::kString) continue;
      auto begin = std::sregex_iterator(t.text.begin(), t.text.end(), kKeyRe);
      for (auto match = begin; match != std::sregex_iterator(); ++match) {
        const std::string key = (*match)[1].str();
        local.emplace(key, KeySite{pf.input->path, t.line});
      }
    }
    if (local.count("ev") == 0) continue;
    encoder_files.insert(static_cast<int>(f));
    for (auto& [key, site] : local) encoder_keys.emplace(key, site);
  }

  // Binary codec field references: `event.field` / `event->field` in
  // the codec translation units.
  std::set<std::string> codec_refs;
  bool codec_present = false;
  for (const ParsedFile& pf : m.files) {
    const std::string& base = pf.info.filename;
    if (base != "binary_trace.cc" && base != "binary_trace.h") continue;
    codec_present = true;
    const std::vector<Token>& toks = pf.toks;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (IsIdent(toks[i], "event") &&
          (IsPunct(toks[i + 1], ".") || IsPunct(toks[i + 1], "->")) &&
          toks[i + 2].kind == TokKind::kIdent) {
        codec_refs.insert(toks[i + 2].text);
      }
    }
  }

  // Documented keys: first-column backticked identifiers of
  // `| field | type | meaning |` tables in the trace-schema docs.
  static const std::regex kTickRe(R"re(`([A-Za-z_][A-Za-z0-9_]*)`)re");
  std::map<std::string, KeySite> doc_keys;
  for (const ParsedFile& pf : m.files) {
    if (!pf.info.is_markdown) continue;
    if (pf.input->content.find("dynvote-trace-v1") == std::string::npos) {
      continue;
    }
    bool in_table = false;
    for (std::size_t idx = 0; idx < pf.lines.size(); ++idx) {
      const std::string& raw = pf.lines[idx].raw;
      std::string squeezed;
      for (char c : raw) {
        if (c != ' ' && c != '\t') squeezed.push_back(c);
      }
      if (squeezed == "|field|type|meaning|") {
        in_table = true;
        continue;
      }
      if (!in_table) continue;
      if (raw.empty() || raw[0] != '|') {
        in_table = false;
        continue;
      }
      std::size_t second_bar = raw.find('|', 1);
      if (second_bar == std::string::npos) continue;
      const std::string cell = raw.substr(1, second_bar - 1);
      if (cell.find("---") != std::string::npos) continue;
      auto begin = std::sregex_iterator(cell.begin(), cell.end(), kTickRe);
      for (auto match = begin; match != std::sregex_iterator(); ++match) {
        doc_keys.emplace((*match)[1].str(),
                         KeySite{pf.input->path,
                                 static_cast<int>(idx + 1)});
      }
    }
  }

  // Like the lint's schema-docs rule: every participant must be in the
  // input set, otherwise the cross-check is silently inactive.
  if (record == nullptr || encoder_files.empty() || !codec_present ||
      doc_keys.empty()) {
    return;
  }

  static const std::set<std::string> kIgnoredKeys = {"schema", "seed"};
  const ParsedFile& record_file = m.files[record->file_index];
  std::set<std::string> field_keys;  // keys reachable from struct fields

  for (const MemberInfo& member : record->members) {
    if (member.is_static) continue;
    const std::vector<std::string> keys = KeysForField(member.name);
    for (const std::string& key : keys) field_keys.insert(key);
    const bool allowed = IsAllowed(
        record_file.lines, static_cast<std::size_t>(member.line - 1),
        "schema-fields");
    bool encoded = false;
    for (const std::string& key : keys) {
      if (encoder_keys.count(key) != 0) encoded = true;
    }
    if (!encoded && !allowed) {
      findings->push_back(
          {"schema-fields", record_file.input->path, member.line,
           "TraceEvent field `" + member.name +
               "` is never emitted by the JSONL encoder (expected key `" +
               keys.front() + "`); emit it or drop the field",
           false});
    }
    if (codec_refs.count(member.name) == 0 && !allowed) {
      findings->push_back(
          {"schema-fields", record_file.input->path, member.line,
           "TraceEvent field `" + member.name +
               "` is not referenced by the binary codec "
               "(binary_trace.cc); the binary and JSONL traces would "
               "diverge",
           false});
    }
  }

  for (const auto& [key, site] : encoder_keys) {
    if (kIgnoredKeys.count(key) != 0) continue;
    const ParsedFile* pf = nullptr;
    for (const ParsedFile& candidate : m.files) {
      if (candidate.input->path == site.file) pf = &candidate;
    }
    const bool allowed =
        pf != nullptr &&
        IsAllowed(pf->lines, static_cast<std::size_t>(site.line - 1),
                  "schema-fields");
    if (field_keys.count(key) == 0 && !allowed) {
      findings->push_back(
          {"schema-fields", site.file, site.line,
           "JSONL key `" + key +
               "` does not correspond to any TraceEvent field; stale "
               "encoder code or a missing struct field",
           false});
    }
    if (doc_keys.count(key) == 0 && !allowed) {
      findings->push_back(
          {"schema-fields", site.file, site.line,
           "JSONL key `" + key +
               "` is undocumented: add it to the field tables in the "
               "trace-schema docs",
           false});
    }
  }

  for (const auto& [key, site] : doc_keys) {
    if (kIgnoredKeys.count(key) != 0) continue;
    if (encoder_keys.count(key) != 0) continue;
    findings->push_back(
        {"schema-fields", site.file, site.line,
         "documented trace key `" + key +
             "` is never emitted by the JSONL encoder; the docs have "
             "drifted from the schema",
         false});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

RunResult RunAnalyze(const std::vector<FileInput>& files) {
  Model m;
  m.files.resize(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    ParsedFile& pf = m.files[f];
    pf.input = &files[f];
    pf.info = ClassifyPath(files[f].path);
    pf.lines = SplitLines(files[f].content);
    if (pf.info.is_code) pf.toks = Tokenize(files[f].content);
  }
  BuildClosure(&m);
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (m.files[f].info.is_code) {
      ParseClasses(&m.files[f], static_cast<int>(f), &m);
    }
  }

  RunResult result;
  result.files_scanned = static_cast<int>(files.size());

  // Every Mutex member is a node even when never locked: the DOT export
  // is the full hierarchy, not just the exercised part.
  std::set<std::string> nodes;
  for (const ClassInfo& cls : m.classes) {
    for (const MemberInfo& member : cls.members) {
      if (member.is_mutex && !member.is_mutex_ref) {
        nodes.insert(cls.name + "::" + member.name);
      }
    }
  }

  EdgeCollector edges;
  std::vector<Finding> order_findings;
  std::vector<Finding> hygiene_findings;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const PathInfo& info = m.files[f].info;
    if (!info.is_code) continue;
    if (!info.in_src && !info.in_bench && !info.in_tools) continue;
    WalkLocks(m, static_cast<int>(f), &edges, &hygiene_findings, &nodes);
  }
  for (const LockEdge& e : edges.edges) {
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  result.lock_graph.nodes.assign(nodes.begin(), nodes.end());
  result.lock_graph.edges = edges.edges;
  std::sort(result.lock_graph.edges.begin(), result.lock_graph.edges.end(),
            [](const LockEdge& a, const LockEdge& b) {
              return std::tie(a.from, a.to) < std::tie(b.from, b.to);
            });
  DetectCycles(&result.lock_graph, &order_findings);

  std::vector<Finding> guarded;
  CheckGuardedBy(m, &guarded);
  std::vector<Finding> schema;
  CheckSchemaFields(m, &schema);

  // Rule-family order, stable within each family.
  for (auto* family : {&order_findings, &guarded, &hygiene_findings,
                       &schema}) {
    result.findings.insert(result.findings.end(), family->begin(),
                           family->end());
  }
  return result;
}

}  // namespace lint
}  // namespace dynvote
