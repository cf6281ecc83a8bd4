// Per-file function model and the error-discipline pass.
//
// The model is built from the stripped token stream: function definitions
// and declarations at namespace/class scope (name, qualified name, return
// type), lambdas nested in bodies (attributed to their enclosing function),
// and Status/Result flow events. It is a syntactic approximation — no
// overload resolution, no type inference — and the pass documents the
// resulting false-negative envelope in DESIGN.md §12.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/mtm_analyze/mtm_analyze.h"

namespace mtm::analyze {
namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "if",        "for",       "while",     "switch",   "return",    "sizeof",
      "decltype",  "alignof",   "alignas",   "catch",    "throw",     "new",
      "delete",    "template",  "typename",  "public",   "private",   "protected",
      "virtual",   "explicit",  "inline",    "static",   "constexpr", "friend",
      "auto",      "void",      "bool",      "char",     "int",       "unsigned",
      "long",      "short",     "float",     "double",   "default",   "case",
      "else",      "do",        "try",       "operator", "const",     "noexcept",
      "override",  "final",     "mutable",   "this",     "nullptr",   "true",
      "false",     "static_assert",          "static_cast",           "const_cast",
      "dynamic_cast",           "reinterpret_cast",      "co_await",  "co_return",
      "goto",      "break",     "continue",  "using",    "namespace", "class",
      "struct",    "union",     "enum",      "typedef",  "extern",    "thread_local"};
  return kKeywords;
}

// Specifier tokens stripped when canonicalizing a return type.
bool IsSpecifier(const std::string& t) {
  return t == "static" || t == "inline" || t == "constexpr" || t == "virtual" ||
         t == "explicit" || t == "friend" || t == "extern" || t == "nodiscard" ||
         t == "maybe_unused" || t == "[" || t == "]";
}

// Index one past the token matching `open_tok` at tokens[i]; npos on bail.
std::size_t MatchForward(const std::vector<Token>& toks, std::size_t i, const char* open_tok,
                         const char* close_tok) {
  int depth = 0;
  for (std::size_t k = i; k < toks.size(); ++k) {
    if (toks[k].text == open_tok) {
      ++depth;
    } else if (toks[k].text == close_tok) {
      if (--depth == 0) {
        return k + 1;
      }
    }
  }
  return std::string::npos;
}

// Matches a '<...>' template-argument group starting at tokens[i] == "<";
// bails (npos) on tokens that cannot appear inside one.
std::size_t MatchAngles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < toks.size(); ++k) {
    const std::string& t = toks[k].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) {
        return k + 1;
      }
    } else if (t == ";" || t == "{" || t == "}") {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

class ModelBuilder {
 public:
  explicit ModelBuilder(SourceFile* file) : file_(file), toks_(TokenizeCode(file->code)) {}

  void Build() {
    WalkScope(0, toks_.size(), /*class_name=*/"");
    file_->functions = std::move(fns_);
  }

 private:
  const std::string& Text(std::size_t i) const {
    static const std::string kEnd = "";
    return i < toks_.size() ? toks_[i].text : kEnd;
  }
  int Line(std::size_t i) const { return i < toks_.size() ? toks_[i].line : 0; }

  // ---- declarative scopes (namespace / class bodies) ----

  // Walks tokens[begin, end) as a declarative scope; `class_name` qualifies
  // member functions.
  void WalkScope(std::size_t begin, std::size_t end, const std::string& class_name) {
    std::size_t decl_start = begin;
    std::size_t i = begin;
    while (i < end) {
      const std::string& t = Text(i);
      if (t == ";") {
        decl_start = ++i;
        continue;
      }
      if (t == ":" && Text(i + 1) != ":" && Text(i - 1) != ":") {
        // Access specifier label (public:/private:/...) restarts the decl.
        decl_start = ++i;
        continue;
      }
      if (t == "namespace") {
        std::size_t k = i + 1;
        while (k < end && Text(k) != "{" && Text(k) != ";" && Text(k) != "=") {
          ++k;
        }
        if (Text(k) == "{") {
          std::size_t close = MatchForward(toks_, k, "{", "}");
          if (close == std::string::npos) {
            return;
          }
          WalkScope(k + 1, close - 1, "");
          i = decl_start = close;
          continue;
        }
        i = decl_start = k + 1;  // namespace alias or malformed
        continue;
      }
      if (t == "class" || t == "struct" || t == "union" || t == "enum") {
        bool is_enum = t == "enum";
        std::size_t k = i + 1;
        if (is_enum && (Text(k) == "class" || Text(k) == "struct")) {
          ++k;
        }
        std::string name;
        while (k < end && Text(k) != "{" && Text(k) != ";" && Text(k) != ":" && Text(k) != "(") {
          if (std::isalpha(static_cast<unsigned char>(Text(k)[0])) != 0 || Text(k)[0] == '_') {
            name = Text(k);
          }
          ++k;
        }
        if (Text(k) == ":") {  // base-class list / enum underlying type
          while (k < end && Text(k) != "{" && Text(k) != ";") {
            ++k;
          }
        }
        if (Text(k) == "{") {
          std::size_t close = MatchForward(toks_, k, "{", "}");
          if (close == std::string::npos) {
            return;
          }
          if (!is_enum) {
            WalkScope(k + 1, close - 1, name);
          }
          i = close;
          // The decl may continue ("} g_instance;"): keep decl_start so a
          // trailing variable of an anonymous struct is still seen.
          continue;
        }
        i = decl_start = (Text(k) == ";" ? k + 1 : k);
        continue;
      }
      if (t == "template" && Text(i + 1) == "<") {
        std::size_t after = MatchAngles(toks_, i + 1);
        if (after == std::string::npos) {
          return;
        }
        i = after;
        continue;
      }
      if (t == "{") {
        // Brace not owned by a recognized construct (a brace-init of a
        // namespace-scope variable, say): skipped wholesale.
        std::size_t close = MatchForward(toks_, i, "{", "}");
        if (close == std::string::npos) {
          return;
        }
        i = decl_start = close;
        continue;
      }
      if (t == "using" || t == "typedef") {
        while (i < end && Text(i) != ";") {
          ++i;
        }
        decl_start = ++i;
        continue;
      }
      // Function candidate: identifier (possibly A::B-qualified) followed
      // by '(' — unless an '=' already appeared in this declaration
      // (then it is an initializer call, not a declarator).
      if ((std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_') &&
          Keywords().count(t) == 0 && Text(i - 1) != "~") {
        bool saw_eq = false;
        for (std::size_t k = decl_start; k < i; ++k) {
          if (Text(k) == "=") {
            saw_eq = true;
            break;
          }
        }
        std::size_t chain_end = i;  // last ident of the qualified chain
        std::vector<std::string> chain = {t};
        while (Text(chain_end + 1) == ":" && Text(chain_end + 2) == ":") {
          const std::string& next = Text(chain_end + 3);
          if (next.empty() ||
              (std::isalpha(static_cast<unsigned char>(next[0])) == 0 && next[0] != '_') ||
              Keywords().count(next) > 0) {
            break;
          }
          chain.push_back(next);
          chain_end += 3;
        }
        if (!saw_eq && Text(chain_end + 1) == "(") {
          std::size_t resume;
          if (TryParseFunction(decl_start, i, chain, chain_end + 1, class_name, &resume)) {
            i = decl_start = resume;
            continue;
          }
        }
      }
      ++i;
    }
  }

  // Parses a function declarator whose parameter list opens at `paren`.
  // On success records a FunctionInfo (and parses the body when present)
  // and sets *resume to the first token after the declaration.
  bool TryParseFunction(std::size_t decl_start, std::size_t name_start,
                        const std::vector<std::string>& chain, std::size_t paren,
                        const std::string& class_name, std::size_t* resume) {
    std::size_t after_params = MatchForward(toks_, paren, "(", ")");
    if (after_params == std::string::npos) {
      return false;
    }
    // Scan declarator suffix: qualifiers, trailing return, init list.
    std::size_t k = after_params;
    bool has_body = false;
    std::size_t body_open = 0;
    for (int guard = 0; guard < 64 && k < toks_.size(); ++guard) {
      const std::string& t = Text(k);
      if (t == "{") {
        has_body = true;
        body_open = k;
        break;
      }
      if (t == ";") {
        break;
      }
      if (t == "=") {
        // "= default;", "= delete;", or "= 0;" (number tokens are dropped,
        // leaving "= ;"): all declarations without a body.
        if (Text(k + 1) == "default" || Text(k + 1) == "delete" || Text(k + 1) == ";") {
          k += 1;
          continue;
        }
        return false;
      }
      if (t == ":" && Text(k + 1) != ":") {
        // Constructor initializer list: ident followed by (...) or {...}
        // groups, comma-separated, until the body brace.
        ++k;
        while (k < toks_.size()) {
          if (Text(k) == "{" && !(k > 0 && (std::isalpha(static_cast<unsigned char>(
                                                Text(k - 1)[0])) != 0 ||
                                            Text(k - 1)[0] == '_'))) {
            break;
          }
          if (Text(k) == "(") {
            k = MatchForward(toks_, k, "(", ")");
          } else if (Text(k) == "{") {
            k = MatchForward(toks_, k, "{", "}");
          } else {
            ++k;
          }
          if (k == std::string::npos) {
            return false;
          }
        }
        continue;
      }
      if (t == "<") {
        std::size_t after = MatchAngles(toks_, k);
        if (after == std::string::npos) {
          return false;
        }
        k = after;
        continue;
      }
      if (t == "const" || t == "noexcept" || t == "override" || t == "final" || t == "&" ||
          t == "*" || t == "-" || t == ">" || t == "(" || t == ")" ||
          (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_')) {
        if (t == "(") {
          k = MatchForward(toks_, k, "(", ")");
          if (k == std::string::npos) {
            return false;
          }
          continue;
        }
        ++k;
        continue;
      }
      return false;
    }
    if (!has_body && Text(k) != ";") {
      return false;
    }

    FunctionInfo fn;
    fn.name = chain.back();
    if (chain.size() > 1) {
      std::string q;
      for (const std::string& part : chain) {
        q += (q.empty() ? "" : "::") + part;
      }
      fn.qualified = q;
    } else if (!class_name.empty()) {
      fn.qualified = class_name + "::" + fn.name;
    } else {
      fn.qualified = fn.name;
    }
    fn.line = Line(name_start);
    fn.has_body = has_body;
    // Canonical return type: declaration tokens before the name, minus
    // template heads, specifiers, and attributes. Constructors (name ==
    // enclosing class, empty prefix) end up with an empty return type.
    std::size_t rt = decl_start;
    std::string return_type;
    while (rt < name_start) {
      if (Text(rt) == "template" && Text(rt + 1) == "<") {
        std::size_t after = MatchAngles(toks_, rt + 1);
        if (after == std::string::npos) {
          break;
        }
        rt = after;
        continue;
      }
      if (!IsSpecifier(Text(rt))) {
        return_type += (return_type.empty() ? "" : " ") + Text(rt);
      }
      ++rt;
    }
    fn.return_type = return_type;

    fns_.push_back(std::move(fn));
    std::size_t fn_index = fns_.size() - 1;
    if (has_body) {
      *resume = ParseBody(body_open, fn_index);
    } else {
      *resume = (Text(k) == ";") ? k + 1 : k;
    }
    return true;
  }

  // ---- function bodies ----

  // Walks a body starting at tokens[open] == "{" attributing var events to
  // fns_[fn_index]; returns the index past the matching closing brace.
  std::size_t ParseBody(std::size_t open, std::size_t fn_index) {
    int depth = 0;
    std::size_t i = open + 1;
    ++depth;
    while (i < toks_.size()) {
      const std::string& t = Text(i);
      const std::string& prev = Text(i - 1);

      if (t == "{") {
        ++depth;
        ++i;
        continue;
      }
      if (t == "}") {
        if (--depth == 0) {
          return i + 1;
        }
        ++i;
        continue;
      }
      if (t == "[") {
        std::size_t resume;
        if (Text(i + 1) != "[" && IsLambdaPosition(prev) && TryParseLambda(i, fn_index, &resume)) {
          i = resume;
          continue;
        }
        ++i;
        continue;
      }
      if (t == "*") {
        // Prefix dereference of a Result variable: *res at an expression
        // start position.
        if (prev == "(" || prev == "=" || prev == "," || prev == "return" || prev == ";" ||
            prev == "{" || prev == "<") {
          const std::string& v = Text(i + 1);
          if (!v.empty() && (std::isalpha(static_cast<unsigned char>(v[0])) != 0 || v[0] == '_') &&
              Keywords().count(v) == 0) {
            fns_[fn_index].var_events.push_back(
                {VarEvent::Kind::kUnwrap, v, "", Line(i + 1)});
          }
        }
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_') {
        if (t == "Result" && Text(i + 1) == "<") {
          std::size_t after = MatchAngles(toks_, i + 1);
          if (after != std::string::npos) {
            const std::string& v = Text(after);
            if (!v.empty() &&
                (std::isalpha(static_cast<unsigned char>(v[0])) != 0 || v[0] == '_')) {
              fns_[fn_index].var_events.push_back(
                  {VarEvent::Kind::kResultDecl, v, "", Line(after)});
            }
          }
        } else if (t == "auto") {
          RecordAutoCallDecl(i, fn_index);
        } else if (Keywords().count(t) == 0) {
          HandleIdent(i, fn_index);
        }
      }
      ++i;
    }
    return toks_.size();
  }

  static bool IsLambdaPosition(const std::string& prev) {
    return prev.empty() || prev == "(" || prev == "," || prev == "=" || prev == "{" ||
           prev == ";" || prev == "return" || prev == ":" || prev == "?" || prev == "&" ||
           prev == "|" || prev == "!" || prev == "<" || prev == ">";
  }

  // auto v = [chain.]Callee(...) — records a kAutoCallDecl event so the
  // pass can mark v as a Result variable when Callee returns Result.
  void RecordAutoCallDecl(std::size_t i, std::size_t fn_index) {
    const std::string& var = Text(i + 1);
    if (var.empty() || (std::isalpha(static_cast<unsigned char>(var[0])) == 0 && var[0] != '_') ||
        Keywords().count(var) > 0) {
      return;
    }
    if (Text(i + 2) != "=") {
      return;
    }
    std::string callee;
    for (std::size_t k = i + 3; k < toks_.size() && k < i + 24; ++k) {
      const std::string& t = Text(k);
      if (t == ";" || t == "[") {
        break;
      }
      if (t == "(") {
        if (!callee.empty()) {
          fns_[fn_index].var_events.push_back(
              {VarEvent::Kind::kAutoCallDecl, var, callee, Line(i + 1)});
        }
        return;
      }
      if (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_') {
        callee = t;
      } else if (t != "." && t != "-" && t != ">" && t != ":" && t != "&" && t != "*") {
        break;
      }
    }
  }

  // Parses a lambda whose intro bracket is at tokens[i]; returns false when
  // the bracket turns out to be a subscript.
  bool TryParseLambda(std::size_t i, std::size_t enclosing, std::size_t* resume) {
    std::size_t after_capture = MatchForward(toks_, i, "[", "]");
    if (after_capture == std::string::npos) {
      return false;
    }
    std::size_t k = after_capture;
    if (Text(k) == "(") {
      k = MatchForward(toks_, k, "(", ")");
      if (k == std::string::npos) {
        return false;
      }
    }
    for (int guard = 0; guard < 24; ++guard) {
      const std::string& t = Text(k);
      if (t == "{") {
        break;
      }
      if (t == "mutable" || t == "noexcept" || t == "-" || t == ">" || t == ":" || t == "*" ||
          t == "&" ||
          (!t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_'))) {
        ++k;
        continue;
      }
      if (t == "<") {
        std::size_t after = MatchAngles(toks_, k);
        if (after == std::string::npos) {
          return false;
        }
        k = after;
        continue;
      }
      return false;
    }
    if (Text(k) != "{") {
      return false;
    }

    FunctionInfo lambda;
    lambda.is_lambda = true;
    lambda.has_body = true;
    lambda.line = Line(i);
    // `auto name = [...]` names the lambda; otherwise it stays anonymous.
    if (Text(i - 1) == "=" && !Text(i - 2).empty() &&
        (std::isalpha(static_cast<unsigned char>(Text(i - 2)[0])) != 0 || Text(i - 2)[0] == '_')) {
      lambda.name = Text(i - 2);
    } else {
      lambda.name = "<lambda>";
    }
    lambda.qualified = fns_[enclosing].qualified + "::" + lambda.name;
    fns_.push_back(std::move(lambda));
    std::size_t lambda_index = fns_.size() - 1;
    *resume = ParseBody(k, lambda_index);
    return true;
  }

  // A non-keyword identifier inside a body: ok()/value() events on a
  // variable, and value() unwraps of a call's temporary result.
  void HandleIdent(std::size_t i, std::size_t fn_index) {
    const std::string& t = Text(i);
    FunctionInfo& fn = fns_[fn_index];
    if (Text(i + 1) == "(") {
      // Chained unwrap of a temporary: Callee(...).value().
      std::size_t close = MatchForward(toks_, i + 1, "(", ")");
      if (close != std::string::npos && Text(close) == "." && Text(close + 1) == "value" &&
          Text(close + 2) == "(") {
        fn.var_events.push_back({VarEvent::Kind::kUnwrap, "", t, Line(close + 1)});
      }
    }
    if (Text(i + 1) == "." && Text(i + 2) == "ok" && Text(i + 3) == "(") {
      fn.var_events.push_back({VarEvent::Kind::kOkCheck, t, "", Line(i)});
    } else if (Text(i + 1) == "." && Text(i + 2) == "value" && Text(i + 3) == "(") {
      fn.var_events.push_back({VarEvent::Kind::kUnwrap, t, "", Line(i)});
    }
  }

  SourceFile* file_;
  std::vector<Token> toks_;
  std::vector<FunctionInfo> fns_;
};

// ---------------------------------------------------- error-discipline ----

struct ReturnKinds {
  bool any_status = false;  // some decl/def with this name returns Status
  bool any_result = false;  // ... returns Result<T>
  bool any_other = false;   // ... returns something else
};

bool TypeMentions(const std::string& return_type, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = return_type.find(word, pos)) != std::string::npos) {
    bool left = pos == 0 || return_type[pos - 1] == ' ';
    std::size_t after = pos + word.size();
    bool right = after == return_type.size() || return_type[after] == ' ';
    if (left && right) {
      return true;
    }
    pos = after;
  }
  return false;
}

std::map<std::string, ReturnKinds> BuildReturnTable(const Project& project) {
  std::map<std::string, ReturnKinds> table;
  for (const auto& [path, file] : project.files()) {
    for (const FunctionInfo& fn : file.functions) {
      if (fn.is_lambda || fn.return_type.empty()) {
        continue;
      }
      ReturnKinds& kinds = table[fn.name];
      if (TypeMentions(fn.return_type, "Status")) {
        kinds.any_status = true;
      } else if (TypeMentions(fn.return_type, "Result")) {
        kinds.any_result = true;
      } else {
        kinds.any_other = true;
      }
    }
  }
  return table;
}

bool HasPathPrefix(const std::string& path, const std::string& prefix) {
  if (prefix.empty() || path.size() < prefix.size() ||
      path.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

bool UnderAny(const std::string& path, const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) { return HasPathPrefix(path, p); });
}

// "Try" matches "TryLock" and "Try" but not "Trying": the character after
// the verb must not be lowercase.
bool StartsWithVerb(const std::string& name, const std::string& verb) {
  if (name.size() < verb.size() || name.compare(0, verb.size(), verb) != 0) {
    return false;
  }
  if (name.size() == verb.size()) {
    return true;
  }
  return std::islower(static_cast<unsigned char>(name[verb.size()])) == 0;
}

}  // namespace

void BuildFunctionModel(SourceFile* file) { ModelBuilder(file).Build(); }

std::vector<Finding> RunErrorDisciplinePass(const Project& project, const Config& config) {
  std::vector<Finding> findings;
  const std::map<std::string, ReturnKinds> table = BuildReturnTable(project);

  auto result_only = [&](const std::string& name) {
    auto it = table.find(name);
    return it != table.end() && it->second.any_result && !it->second.any_other &&
           !it->second.any_status;
  };

  for (const auto& [path, file] : project.files()) {
    for (const FunctionInfo& fn : file.functions) {
      // unchecked-result-unwrap: replay the Status/Result flow events.
      std::set<std::string> result_vars;
      std::set<std::string> checked;
      for (const VarEvent& ev : fn.var_events) {
        switch (ev.kind) {
          case VarEvent::Kind::kResultDecl:
            result_vars.insert(ev.var);
            checked.erase(ev.var);
            break;
          case VarEvent::Kind::kAutoCallDecl:
            if (result_only(ev.callee)) {
              result_vars.insert(ev.var);
              checked.erase(ev.var);
            }
            break;
          case VarEvent::Kind::kOkCheck:
            checked.insert(ev.var);
            break;
          case VarEvent::Kind::kUnwrap:
            if (ev.var.empty()) {
              if (result_only(ev.callee)) {
                findings.push_back({"unchecked-result-unwrap", path, ev.line,
                                    "unwrap of temporary Result from '" + ev.callee +
                                        "()' without an ok() check",
                                    ev.callee});
              }
            } else if (result_vars.count(ev.var) > 0 && checked.count(ev.var) == 0) {
              findings.push_back({"unchecked-result-unwrap", path, ev.line,
                                  "unwrap of Result '" + ev.var +
                                      "' is not dominated by an ok() check on the same variable",
                                  ev.var});
            }
            break;
        }
      }

      // raw-error-return: fallible-verb functions on status-discipline
      // paths must not signal failure through bool/int.
      if (fn.has_body && !fn.is_lambda && UnderAny(path, config.status_paths) &&
          (fn.return_type == "bool" || fn.return_type == "int")) {
        for (const std::string& verb : config.fallible_verbs) {
          if (StartsWithVerb(fn.name, verb)) {
            findings.push_back({"raw-error-return", path, fn.line,
                                "'" + fn.qualified + "' returns raw " + fn.return_type +
                                    " on a fallible path; return Status (or Result<T>) so "
                                    "callers can propagate and retry",
                                fn.qualified});
            break;
          }
        }
      }
    }
  }
  return findings;
}

}  // namespace mtm::analyze
