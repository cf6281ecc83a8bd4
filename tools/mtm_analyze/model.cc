#include <cctype>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/mtm_analyze/mtm_analyze.h"

namespace mtm::analyze {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) {
    return "";
  }
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Lexical path normalization: collapses "." and ".." components.
std::string NormalizePath(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) {
      end = path.size();
    }
    std::string part = path.substr(start, end - start);
    if (part == "..") {
      if (!parts.empty()) {
        parts.pop_back();
      }
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    start = end + 1;
  }
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) {
      out += '/';
    }
    out += part;
  }
  return out;
}

std::string DirName(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

const std::set<std::string>& ExportBlocklist() {
  static const std::set<std::string> kBlock = {"std", "mtm", "override", "final",
                                              "const", "noexcept", "operator"};
  return kBlock;
}

bool IsKeyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",    "switch",  "return",   "sizeof",  "decltype",
      "alignof",  "alignas",  "catch",    "throw",   "new",      "delete",  "static_assert",
      "template", "typename", "public",   "private", "protected", "virtual", "explicit",
      "inline",   "static",   "constexpr", "friend",  "auto",     "void",    "bool",
      "char",     "int",      "unsigned", "long",    "short",    "float",   "double",
      "default",  "case",     "else",     "do",      "try",      "operator"};
  return kKeywords.count(t) > 0;
}

// Extracts declared symbols from the token stream: macros are handled by
// the caller (from directive lines); this walks declarative scopes
// (namespace / class bodies), skipping function bodies and initializers.
// Namespace-scope declarations additionally land in `attributable`.
void ExtractDeclarations(const std::vector<Token>& tokens, std::set<std::string>* exported,
                         std::set<std::string>* attributable) {
  enum class Scope { kNamespace, kClass, kEnum, kSkip };
  std::vector<Scope> stack;
  int skip_depth = 0;
  int class_depth = 0;

  enum class Pending { kNone, kNamespace, kClass, kEnum, kTypedef };
  Pending pending = Pending::kNone;
  bool pending_named = false;   // the pending decl's name was captured
  std::string typedef_last;     // last identifier seen in a typedef
  std::string prev;             // previous significant token

  auto extracting = [&] {
    return skip_depth == 0 &&
           (stack.empty() || stack.back() == Scope::kNamespace || stack.back() == Scope::kClass);
  };
  auto declare = [&](const std::string& name) {
    exported->insert(name);
    if (class_depth == 0) {
      attributable->insert(name);
    }
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    const std::string* next = i + 1 < tokens.size() ? &tokens[i + 1].text : nullptr;

    if (t == "{") {
      Scope kind;
      if (pending == Pending::kEnum) {
        kind = Scope::kEnum;
      } else if (pending == Pending::kNamespace) {
        kind = Scope::kNamespace;
      } else if (pending == Pending::kClass) {
        kind = Scope::kClass;
      } else {
        // Function body, initializer, or brace-init: nothing declarative.
        kind = Scope::kSkip;
      }
      stack.push_back(kind);
      if (kind == Scope::kSkip) {
        ++skip_depth;
      } else if (kind == Scope::kClass) {
        ++class_depth;
      }
      pending = Pending::kNone;
      pending_named = false;
      prev = t;
      continue;
    }
    if (t == "}") {
      if (!stack.empty()) {
        if (stack.back() == Scope::kSkip) {
          --skip_depth;
        } else if (stack.back() == Scope::kClass) {
          --class_depth;
        }
        stack.pop_back();
      }
      prev = t;
      continue;
    }

    if (!extracting() && !(skip_depth == 0 && !stack.empty() && stack.back() == Scope::kEnum)) {
      prev = t;
      continue;
    }

    // Enumerator names: identifiers at enum-body depth following '{' or ','.
    if (skip_depth == 0 && !stack.empty() && stack.back() == Scope::kEnum) {
      if (IsIdentStart(t[0]) && (prev == "{" || prev == ",")) {
        declare(t);
      }
      prev = t;
      continue;
    }

    if (t == ";") {
      if (pending == Pending::kTypedef && !typedef_last.empty()) {
        declare(typedef_last);
      }
      pending = Pending::kNone;
      pending_named = false;
      typedef_last.clear();
      prev = t;
      continue;
    }

    if (t == "namespace") {
      pending = Pending::kNamespace;
      pending_named = false;
    } else if (t == "class" || t == "struct" || t == "union") {
      if (pending != Pending::kEnum) {  // "enum class" keeps its enum pending
        pending = Pending::kClass;
        pending_named = false;
      }
    } else if (t == "enum") {
      pending = Pending::kEnum;
      pending_named = false;
    } else if (t == "typedef") {
      pending = Pending::kTypedef;
      typedef_last.clear();
    } else if (t == "using") {
      // `using X = ...;` exports X; using-declarations/directives don't.
      if (next != nullptr && IsIdentStart((*next)[0]) && i + 2 < tokens.size() &&
          tokens[i + 2].text == "=") {
        declare(*next);
      }
      // Consume to ';' so alias right-hand sides aren't misparsed.
      while (i + 1 < tokens.size() && tokens[i + 1].text != ";" && tokens[i + 1].text != "}") {
        ++i;
      }
    } else if (IsIdentStart(t[0])) {
      if (pending == Pending::kTypedef) {
        typedef_last = t;
      } else if ((pending == Pending::kClass || pending == Pending::kEnum) && !pending_named) {
        if (ExportBlocklist().count(t) == 0 && !IsKeyword(t)) {
          declare(t);
          pending_named = true;
        }
      } else if (pending == Pending::kNamespace) {
        // namespace names are not symbols
      } else if (next != nullptr && !IsKeyword(t) && ExportBlocklist().count(t) == 0) {
        // Function names (ident followed by '(') and variables/constants
        // (ident followed by ';', '=', '{', or '[') at declarative scope.
        if (*next == "(" || *next == ";" || *next == "=" || *next == "{" || *next == "[") {
          declare(t);
        }
      }
    }
    prev = t;
  }
}

void ParseFile(const std::string& rel, const std::string& contents, SourceFile* file) {
  file->path = rel;
  file->raw = SplitLines(contents);
  std::string stripped = StripCommentsAndStrings(contents);
  file->code = SplitLines(stripped);

  // Includes come from raw lines (string contents are blanked in the
  // stripped view). Quoted includes are project candidates; angle-bracket
  // includes are kept so they can be resolved against the database's
  // include directories and classified by the system-include check.
  for (std::size_t i = 0; i < file->raw.size(); ++i) {
    std::string line = Trim(file->raw[i]);
    if (line.rfind("#", 0) != 0) {
      continue;
    }
    std::string after = Trim(line.substr(1));
    if (after.rfind("include", 0) != 0) {
      continue;
    }
    std::string spec = Trim(after.substr(7));
    if (spec.size() >= 2 && (spec[0] == '"' || spec[0] == '<')) {
      char close_ch = spec[0] == '"' ? '"' : '>';
      std::size_t close = spec.find(close_ch, 1);
      if (close != std::string::npos) {
        IncludeEdge edge;
        edge.target = spec.substr(1, close - 1);
        edge.line = static_cast<int>(i + 1);
        edge.angle = spec[0] == '<';
        file->includes.push_back(edge);
      }
    }
  }

  // Usage tokens: identifiers anywhere in stripped code except include
  // directives; macro bodies count as usage. Macro names are exported.
  bool in_define = false;
  for (std::size_t li = 0; li < file->code.size(); ++li) {
    const std::string& line = file->code[li];
    std::string trimmed = Trim(line);
    bool is_directive = !in_define && !trimmed.empty() && trimmed[0] == '#';
    std::string scan = line;
    if (is_directive) {
      std::string after = Trim(trimmed.substr(1));
      if (after.rfind("include", 0) == 0) {
        scan.clear();  // include targets are not usage
      } else if (after.rfind("define", 0) == 0) {
        std::string rest = Trim(after.substr(6));
        std::size_t j = 0;
        while (j < rest.size() && IsIdentChar(rest[j])) {
          ++j;
        }
        if (j > 0) {
          file->exported.insert(rest.substr(0, j));
          file->attributable.insert(rest.substr(0, j));
        }
      }
    }
    in_define = !line.empty() && line.back() == '\\' && (is_directive || in_define);
    std::size_t i = 0;
    while (i < scan.size()) {
      if (IsIdentStart(scan[i])) {
        std::size_t j = i;
        while (j < scan.size() && IsIdentChar(scan[j])) {
          ++j;
        }
        file->tokens.emplace(scan.substr(i, j - i), static_cast<int>(li + 1));
        i = j;
      } else {
        ++i;
      }
    }
  }

  ExtractDeclarations(TokenizeCode(file->code), &file->exported, &file->attributable);
  BuildFunctionModel(file);
}

}  // namespace

Project Project::Load(const std::string& root, const std::vector<std::string>& seeds,
                      const std::vector<std::string>& include_dirs) {
  Project project;
  std::deque<std::string> queue(seeds.begin(), seeds.end());
  while (!queue.empty()) {
    std::string rel = NormalizePath(queue.front());
    queue.pop_front();
    if (rel.empty() || project.files_.count(rel) > 0) {
      continue;
    }
    std::string contents;
    if (!ReadFile(root + "/" + rel, &contents)) {
      continue;
    }
    SourceFile file;
    ParseFile(rel, contents, &file);
    for (IncludeEdge& edge : file.includes) {
      // Quoted project includes are root-relative by convention, with an
      // includer-relative fallback for trees that use local includes.
      // Angle includes resolve only through the database's include dirs:
      // a <...> include that lands inside the tree is a project include.
      std::vector<std::string> candidates;
      if (!edge.angle) {
        candidates.push_back(NormalizePath(edge.target));
        candidates.push_back(NormalizePath(DirName(rel) + "/" + edge.target));
      }
      for (const std::string& dir : include_dirs) {
        candidates.push_back(NormalizePath(dir.empty() ? edge.target : dir + "/" + edge.target));
      }
      std::string probe;
      for (const std::string& c : candidates) {
        std::ifstream in(root + "/" + c);
        if (in) {
          probe = c;
          break;
        }
      }
      if (!probe.empty()) {
        edge.target = probe;
        edge.resolved = true;
        queue.push_back(probe);
      }
    }
    project.files_.emplace(rel, std::move(file));
  }
  return project;
}

const SourceFile* Project::Find(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

std::set<std::string> Project::IncludeClosure(const std::string& path) const {
  std::set<std::string> closure;
  std::deque<std::string> queue;
  queue.push_back(path);
  while (!queue.empty()) {
    const SourceFile* file = Find(queue.front());
    queue.pop_front();
    if (file == nullptr) {
      continue;
    }
    for (const IncludeEdge& edge : file->includes) {
      if (edge.resolved && closure.insert(edge.target).second) {
        queue.push_back(edge.target);
      }
    }
  }
  closure.erase(path);
  return closure;
}

bool ParseConfig(const std::string& text, Config* config, std::string* error) {
  std::string section;
  int line_no = 0;
  for (const std::string& raw_line : SplitLines(text)) {
    ++line_no;
    std::string line = raw_line;
    // Strip full-line and trailing comments (no '#' inside our values).
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[' && line.back() == ']') {
      section = Trim(line.substr(1, line.size() - 2));
      continue;
    }
    std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      *error = "layers.toml:" + std::to_string(line_no) + ": expected key = value";
      return false;
    }
    std::string key = Trim(line.substr(0, eq));
    if (key.size() >= 2 && key.front() == '"' && key.back() == '"') {
      key = key.substr(1, key.size() - 2);
    }
    std::string value = Trim(line.substr(eq + 1));
    if (value.empty() || value.front() != '[' || value.back() != ']') {
      *error = "layers.toml:" + std::to_string(line_no) + ": value must be a [\"...\"] array";
      return false;
    }
    std::vector<std::string> items;
    std::string inner = value.substr(1, value.size() - 2);
    std::size_t pos = 0;
    while ((pos = inner.find('"', pos)) != std::string::npos) {
      std::size_t close = inner.find('"', pos + 1);
      if (close == std::string::npos) {
        *error = "layers.toml:" + std::to_string(line_no) + ": unterminated string";
        return false;
      }
      items.push_back(inner.substr(pos + 1, close - pos - 1));
      pos = close + 1;
    }
    if (section == "layers") {
      config->layers[key] = items;
    } else if (section == "determinism") {
      if (key == "wallclock_allow") {
        config->wallclock_allow = items;
      } else if (key == "random_allow") {
        config->random_allow = items;
      } else {
        *error = "layers.toml:" + std::to_string(line_no) + ": unknown determinism key " + key;
        return false;
      }
    } else if (section == "error_discipline") {
      if (key == "status_paths") {
        config->status_paths = items;
      } else if (key == "fallible_verbs") {
        config->fallible_verbs = items;
      } else {
        *error = "config:" + std::to_string(line_no) + ": unknown error_discipline key " + key;
        return false;
      }
    } else {
      *error = "layers.toml:" + std::to_string(line_no) + ": unknown section [" + section + "]";
      return false;
    }
  }
  return true;
}

namespace {

// Collects every JSON string value keyed `key` ("file", "command", ...).
std::vector<std::string> JsonStringValues(const std::string& text, const std::string& key) {
  std::vector<std::string> values;
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    while (pos < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[pos])) != 0 || text[pos] == ':')) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] != '"') {
      continue;
    }
    std::string value;
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        ++pos;
      }
      value.push_back(text[pos]);
      ++pos;
    }
    values.push_back(value);
  }
  return values;
}

}  // namespace

std::vector<std::string> ParseCompileCommands(const std::string& text) {
  return ParseCompileDb(text).files;
}

CompileDb ParseCompileDb(const std::string& text) {
  CompileDb db;
  db.files = JsonStringValues(text, "file");
  std::set<std::string> seen;
  for (const std::string& command : JsonStringValues(text, "command")) {
    std::size_t i = 0;
    while (i < command.size()) {
      std::size_t end = command.find(' ', i);
      if (end == std::string::npos) {
        end = command.size();
      }
      std::string word = command.substr(i, end - i);
      std::string dir;
      if (word.rfind("-I", 0) == 0 && word.size() > 2) {
        dir = word.substr(2);
      } else if (word == "-I" || word == "-isystem") {
        std::size_t next = command.find_first_not_of(' ', end);
        if (next != std::string::npos) {
          std::size_t next_end = command.find(' ', next);
          dir = command.substr(next, (next_end == std::string::npos ? command.size() : next_end) -
                                         next);
          end = next_end == std::string::npos ? command.size() : next_end;
        }
      } else if (word.rfind("-isystem", 0) == 0 && word.size() > 8) {
        dir = word.substr(8);
      }
      if (!dir.empty() && seen.insert(dir).second) {
        db.include_dirs.push_back(dir);
      }
      i = end + 1;
    }
  }
  return db;
}

}  // namespace mtm::analyze
