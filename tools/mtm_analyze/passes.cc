#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/mtm_analyze/mtm_analyze.h"

namespace mtm::analyze {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// The associated header of "src/x/y.cc" is "src/x/y.h".
std::string OwnHeader(const std::string& path) {
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || IsHeader(path)) {
    return "";
  }
  return path.substr(0, dot) + ".h";
}

// Distinctive symbols anchor the transitive-include check: type-like
// CamelCase names, MACRO_NAMES, and kConstants. Lowercase identifiers
// (members, locals, parameters) are too ambiguous to attribute.
bool IsDistinctive(const std::string& symbol) {
  if (symbol.empty()) {
    return false;
  }
  if (std::isupper(static_cast<unsigned char>(symbol[0])) != 0) {
    return true;
  }
  return symbol.size() >= 2 && symbol[0] == 'k' &&
         std::isupper(static_cast<unsigned char>(symbol[1])) != 0;
}

bool HasPathPrefix(const std::string& path, const std::string& prefix) {
  if (prefix.empty() || path.size() < prefix.size() ||
      path.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

bool InAllowlist(const std::string& path, const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (HasPathPrefix(path, prefix)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------- include graph --

void FindCycles(const Project& project, std::vector<Finding>* findings) {
  // Iterative DFS with tri-color marking; a back edge to a gray node closes
  // a cycle. Each cycle is reported once, keyed by its member set.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::set<std::string> reported;
  for (const auto& [start, unused] : project.files()) {
    if (color[start] != 0) {
      continue;
    }
    std::vector<std::pair<std::string, std::size_t>> stack;  // (node, next edge)
    std::vector<std::string> path;
    stack.emplace_back(start, 0);
    while (!stack.empty()) {
      auto& [node, edge_index] = stack.back();
      const SourceFile* file = project.Find(node);
      if (edge_index == 0) {
        color[node] = 1;
        path.push_back(node);
      }
      bool descended = false;
      while (file != nullptr && edge_index < file->includes.size()) {
        const IncludeEdge& edge = file->includes[edge_index++];
        if (!edge.resolved) {
          continue;
        }
        int target_color = color[edge.target];
        if (target_color == 1) {
          auto cycle_start = std::find(path.begin(), path.end(), edge.target);
          std::vector<std::string> cycle(cycle_start, path.end());
          std::vector<std::string> key = cycle;
          std::sort(key.begin(), key.end());
          std::string key_text;
          for (const std::string& k : key) {
            key_text += k + "|";
          }
          if (reported.insert(key_text).second) {
            std::string chain;
            for (const std::string& c : cycle) {
              chain += c + " -> ";
            }
            chain += edge.target;
            findings->push_back({"include-cycle", node, edge.line, "include cycle: " + chain, ""});
          }
        } else if (target_color == 0) {
          stack.emplace_back(edge.target, 0);
          descended = true;
          break;
        }
      }
      if (!descended && (file == nullptr || edge_index >= file->includes.size())) {
        color[node] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
  }
}

// Marker symbols for common standard headers: a file whose tokens contain
// none of a header's markers does not use that header. The table is
// deliberately conservative — headers not listed are never flagged, and a
// single marker hit keeps the include.
const std::map<std::string, std::vector<std::string>>& SystemHeaderMarkers() {
  static const std::map<std::string, std::vector<std::string>> kMarkers = {
      {"algorithm",
       {"sort", "stable_sort", "find", "find_if", "min", "max", "min_element", "max_element",
        "lower_bound", "upper_bound", "count", "count_if", "any_of", "all_of", "none_of", "copy",
        "transform", "remove", "remove_if", "unique", "reverse", "fill", "accumulate", "clamp",
        "shuffle", "partition", "nth_element", "binary_search", "equal", "swap", "for_each"}},
      {"array", {"array"}},
      {"atomic", {"atomic", "atomic_flag", "memory_order_relaxed", "memory_order_seq_cst"}},
      {"cctype", {"isalnum", "isalpha", "isdigit", "isspace", "isupper", "islower", "toupper",
                  "tolower", "ispunct", "isxdigit"}},
      {"chrono", {"chrono", "steady_clock", "system_clock", "high_resolution_clock",
                  "milliseconds", "nanoseconds", "microseconds", "seconds", "duration_cast"}},
      {"cmath", {"sqrt", "pow", "fabs", "abs", "ceil", "floor", "round", "log", "log2", "log10",
                 "exp", "isnan", "isinf", "fmod", "lround", "llround"}},
      {"condition_variable", {"condition_variable", "cv_status"}},
      {"cstdint", {"uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t",
                   "int64_t", "uintptr_t", "intptr_t", "size_t", "UINT64_MAX", "INT64_MAX",
                   "UINT32_MAX", "UINT64_C"}},
      {"cstdio", {"printf", "fprintf", "snprintf", "sprintf", "fopen", "fclose", "fread",
                  "fwrite", "stderr", "stdout", "FILE", "fgets", "puts", "remove", "rename"}},
      {"cstdlib", {"malloc", "free", "calloc", "realloc", "exit", "abort", "getenv", "atoi",
                   "atol", "strtol", "strtoul", "strtoull", "strtod", "EXIT_FAILURE",
                   "EXIT_SUCCESS", "rand", "srand", "system"}},
      {"cstring", {"memcpy", "memset", "memmove", "memcmp", "strlen", "strcmp", "strncmp",
                   "strcpy", "strncpy", "strchr", "strstr", "strerror"}},
      {"deque", {"deque"}},
      {"filesystem", {"filesystem"}},
      {"fstream", {"ifstream", "ofstream", "fstream"}},
      {"functional", {"function", "bind", "ref", "cref", "hash", "reference_wrapper"}},
      {"iomanip", {"setw", "setprecision", "setfill", "fixed", "hex", "dec", "quoted"}},
      {"iostream", {"cout", "cerr", "cin", "clog", "endl"}},
      {"iterator", {"back_inserter", "inserter", "distance", "advance", "next", "prev",
                    "make_move_iterator", "begin", "end"}},
      {"limits", {"numeric_limits"}},
      {"map", {"map", "multimap"}},
      {"memory", {"unique_ptr", "shared_ptr", "weak_ptr", "make_unique", "make_shared",
                  "enable_shared_from_this", "allocator", "addressof"}},
      {"mutex", {"mutex", "lock_guard", "unique_lock", "scoped_lock", "once_flag", "call_once"}},
      {"numeric", {"accumulate", "iota", "reduce", "inner_product", "partial_sum", "gcd", "lcm"}},
      {"optional", {"optional", "nullopt", "make_optional"}},
      {"queue", {"queue", "priority_queue"}},
      {"random", {"mt19937", "mt19937_64", "random_device", "uniform_int_distribution",
                  "uniform_real_distribution", "normal_distribution", "bernoulli_distribution",
                  "discrete_distribution", "seed_seq"}},
      {"set", {"set", "multiset"}},
      {"sstream", {"stringstream", "istringstream", "ostringstream"}},
      {"string", {"string", "to_string", "stoi", "stol", "stoul", "stoull", "stod", "getline",
                  "char_traits"}},
      {"string_view", {"string_view"}},
      {"thread", {"thread", "this_thread", "hardware_concurrency"}},
      {"tuple", {"tuple", "make_tuple", "tie", "get", "tuple_size", "apply"}},
      {"type_traits", {"enable_if", "is_same", "decay", "remove_reference", "is_integral",
                       "is_floating_point", "conditional", "underlying_type", "declval",
                       "is_trivially_copyable", "invoke_result"}},
      {"unordered_map", {"unordered_map", "unordered_multimap"}},
      {"unordered_set", {"unordered_set", "unordered_multiset"}},
      {"utility", {"move", "forward", "pair", "make_pair", "swap", "exchange", "in_place"}},
      {"variant", {"variant", "visit", "holds_alternative", "get_if", "monostate"}},
      {"vector", {"vector"}},
  };
  return kMarkers;
}

}  // namespace

std::vector<Finding> RunIncludeGraphPass(const Project& project, const Config& config) {
  std::vector<Finding> findings;

  // Map each distinctive symbol to the headers that declare it; symbols
  // owned by exactly one header can be attributed for the transitive check.
  std::map<std::string, std::vector<std::string>> owners;
  for (const auto& [path, file] : project.files()) {
    if (!IsHeader(path)) {
      continue;
    }
    for (const std::string& symbol : file.attributable) {
      if (IsDistinctive(symbol)) {
        owners[symbol].push_back(path);
      }
    }
  }

  for (const auto& [path, file] : project.files()) {
    std::string own = OwnHeader(path);
    std::set<std::string> direct;
    for (const IncludeEdge& edge : file.includes) {
      if (edge.resolved) {
        direct.insert(edge.target);
      }
    }
    // A .cc may rely on its associated header's includes (they are part of
    // its interface); fold them into the effective direct set.
    std::set<std::string> effective = direct;
    if (!own.empty() && project.Find(own) != nullptr) {
      effective.insert(own);
      for (const IncludeEdge& edge : project.Find(own)->includes) {
        if (edge.resolved) {
          effective.insert(edge.target);
        }
      }
    }

    // unused-include: a direct project include none of whose exported
    // symbols the file references.
    for (const IncludeEdge& edge : file.includes) {
      if (!edge.resolved || edge.target == own) {
        continue;
      }
      const SourceFile* header = project.Find(edge.target);
      if (header == nullptr || header->exported.empty()) {
        continue;  // nothing attributable: stay silent, not wrong
      }
      bool used = false;
      for (const std::string& symbol : header->exported) {
        if (file.tokens.count(symbol) > 0) {
          used = true;
          break;
        }
      }
      if (!used) {
        findings.push_back({"unused-include", path, edge.line,
                            "include \"" + edge.target +
                                "\" is unused: no symbol it declares is referenced here",
                            edge.target});
      }
    }

    // dead-system-include: an angle-bracket include of a known standard
    // header none of whose marker symbols appears in the file. Opt-in
    // (--check-system-includes): the marker table is a heuristic.
    if (config.check_system_includes) {
      for (const IncludeEdge& edge : file.includes) {
        if (!edge.angle || edge.resolved) {
          continue;
        }
        auto it = SystemHeaderMarkers().find(edge.target);
        if (it == SystemHeaderMarkers().end()) {
          continue;
        }
        bool used = false;
        for (const std::string& marker : it->second) {
          if (file.tokens.count(marker) > 0) {
            used = true;
            break;
          }
        }
        if (!used) {
          findings.push_back({"dead-system-include", path, edge.line,
                              "include <" + edge.target +
                                  "> appears dead: none of its marker symbols is used here",
                              edge.target});
        }
      }
    }

    // transitive-include: a symbol used here whose only declaring header is
    // reachable transitively but not included directly.
    std::set<std::string> closure = project.IncludeClosure(path);
    for (const auto& [token, first_line] : file.tokens) {
      if (!IsDistinctive(token) || file.exported.count(token) > 0) {
        continue;
      }
      auto it = owners.find(token);
      if (it == owners.end() || it->second.size() != 1) {
        continue;
      }
      const std::string& owner = it->second.front();
      if (owner == path || owner == own || effective.count(owner) > 0 ||
          closure.count(owner) == 0) {
        continue;
      }
      bool provided_directly = false;
      for (const std::string& dep : effective) {
        const SourceFile* dep_file = project.Find(dep);
        if (dep_file != nullptr && dep_file->exported.count(token) > 0) {
          provided_directly = true;
          break;
        }
      }
      if (!provided_directly) {
        findings.push_back({"transitive-include", path, first_line,
                            "'" + token + "' is declared in \"" + owner +
                                "\", which is only included transitively; include it directly",
                            owner});
      }
    }
  }

  FindCycles(project, &findings);
  return findings;
}

// --------------------------------------------------------------- layering --

namespace {

// Longest declared prefix containing `path`, or "" if none.
std::string ModuleOf(const std::string& path, const Config& config) {
  std::string best;
  for (const auto& [prefix, unused] : config.layers) {
    if (HasPathPrefix(path, prefix) && prefix.size() > best.size()) {
      best = prefix;
    }
  }
  return best;
}

}  // namespace

std::vector<Finding> RunLayeringPass(const Project& project, const Config& config) {
  std::vector<Finding> findings;
  for (const auto& [path, file] : project.files()) {
    std::string module = ModuleOf(path, config);
    if (module.empty()) {
      continue;
    }
    const std::vector<std::string>& allowed = config.layers.at(module);
    if (std::find(allowed.begin(), allowed.end(), "*") != allowed.end()) {
      continue;
    }
    for (const IncludeEdge& edge : file.includes) {
      if (!edge.resolved) {
        continue;
      }
      std::string target_module = ModuleOf(edge.target, config);
      if (target_module.empty() || target_module == module) {
        continue;
      }
      if (std::find(allowed.begin(), allowed.end(), target_module) == allowed.end()) {
        std::string allowed_text;
        for (const std::string& a : allowed) {
          allowed_text += (allowed_text.empty() ? "" : ", ") + a;
        }
        findings.push_back({"layering", path, edge.line,
                            module + " may not include " + target_module + " (allowed: " +
                                (allowed_text.empty() ? "none" : allowed_text) + ")",
                            ""});
      }
    }
  }
  return findings;
}

// ------------------------------------------------------------ determinism --

namespace {

// Matches balanced '<...>' starting at text[open] == '<'; returns the index
// one past the closing '>' or npos.
std::size_t SkipAngles(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') {
      ++depth;
    } else if (text[i] == '>') {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (text[i] == ';' || text[i] == '{') {
      return std::string::npos;  // ran off the declaration
    }
  }
  return std::string::npos;
}

std::size_t SkipBalanced(const std::string& text, std::size_t open, char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_ch) {
      ++depth;
    } else if (text[i] == close_ch) {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string::npos;
}

int LineOfOffset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<long>(offset), '\n'));
}

// Variables declared with an unordered container type, project-wide. The
// declaring file is irrelevant: members are declared in headers and
// iterated in .cc files.
std::set<std::string> CollectUnorderedNames(const Project& project) {
  static const char* kTypes[] = {"unordered_map", "unordered_set", "unordered_multimap",
                                 "unordered_multiset"};
  std::set<std::string> names;
  for (const auto& [path, file] : project.files()) {
    std::string text;
    for (const std::string& line : file.code) {
      text += line;
      text += '\n';
    }
    for (const char* type : kTypes) {
      std::size_t pos = 0;
      std::string needle = type;
      while ((pos = text.find(needle, pos)) != std::string::npos) {
        std::size_t after = pos + needle.size();
        if ((pos > 0 && IsIdentChar(text[pos - 1])) ||
            (after < text.size() && IsIdentChar(text[after]))) {
          pos = after;
          continue;
        }
        std::size_t open = text.find_first_not_of(" \t\n", after);
        if (open == std::string::npos || text[open] != '<') {
          pos = after;
          continue;
        }
        std::size_t end = SkipAngles(text, open);
        if (end == std::string::npos) {
          pos = after;
          continue;
        }
        // Skip refs/pointers, then take the declared name (a following '('
        // means a constructor call or function return type, not a variable).
        std::size_t name_start = end;
        while (name_start < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[name_start])) != 0 ||
                text[name_start] == '&' || text[name_start] == '*')) {
          ++name_start;
        }
        std::size_t name_end = name_start;
        while (name_end < text.size() && IsIdentChar(text[name_end])) {
          ++name_end;
        }
        if (name_end > name_start) {
          names.insert(text.substr(name_start, name_end - name_start));
        }
        pos = after;
      }
    }
  }
  return names;
}

// The trailing identifier of an expression like "profiler_->counts_".
std::string TrailingName(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1])) != 0) {
    --end;
  }
  // Tolerate a trailing call: "Foo(x).items()" has no name to attribute.
  std::size_t start = end;
  while (start > 0 && IsIdentChar(expr[start - 1])) {
    --start;
  }
  return expr.substr(start, end - start);
}

// True if the loop body writes to something another run could observe:
// an `out`/`output` object, a stream, an Emit/Write/Print-style call, or
// the metrics registry.
bool ReachesOutputSink(const std::string& body) {
  static const char* kDotSinks[] = {"out", "output"};
  static const char* kStreamSinks[] = {"os", "oss", "ofs", "cout", "cerr", "stream", "out"};
  static const char* kCallPrefixes[] = {"Emit", "Write", "Print", "Append", "Record", "Report"};
  static const char* kWordSinks[] = {"metrics", "registry", "entries"};

  for (std::size_t i = 0; i < body.size(); ++i) {
    if (!IsIdentChar(body[i]) || (i > 0 && IsIdentChar(body[i - 1]))) {
      continue;
    }
    std::size_t j = i;
    while (j < body.size() && IsIdentChar(body[j])) {
      ++j;
    }
    std::string word = body.substr(i, j - i);
    std::size_t next = body.find_first_not_of(" \t\n", j);
    char next_ch = next == std::string::npos ? '\0' : body[next];
    for (const char* sink : kDotSinks) {
      if (word == sink && next_ch == '.') {
        return true;
      }
    }
    for (const char* sink : kStreamSinks) {
      if (word == sink && next_ch == '<' && next + 1 < body.size() && body[next + 1] == '<') {
        return true;
      }
    }
    for (const char* prefix : kCallPrefixes) {
      if (word.rfind(prefix, 0) == 0 && next_ch == '(') {
        return true;
      }
    }
    for (const char* sink : kWordSinks) {
      if (word == sink) {
        return true;
      }
    }
    i = j - 1;
  }
  return false;
}

void CheckUnorderedIteration(const SourceFile& file, const std::set<std::string>& unordered,
                             std::vector<Finding>* findings) {
  std::string text;
  for (const std::string& line : file.code) {
    text += line;
    text += '\n';
  }
  std::size_t pos = 0;
  while ((pos = text.find("for", pos)) != std::string::npos) {
    std::size_t start = pos;
    pos += 3;
    if ((start > 0 && IsIdentChar(text[start - 1])) ||
        (start + 3 < text.size() && IsIdentChar(text[start + 3]))) {
      continue;
    }
    std::size_t open = text.find_first_not_of(" \t\n", start + 3);
    if (open == std::string::npos || text[open] != '(') {
      continue;
    }
    std::size_t close = SkipBalanced(text, open, '(', ')');
    if (close == std::string::npos) {
      continue;
    }
    std::string head = text.substr(open + 1, close - open - 2);

    std::string container;
    // Ranged-for: the range expression follows the top-level ':' (skip
    // '::' scope separators).
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      char c = head[i];
      if (c == '(' || c == '<' || c == '[') {
        ++depth;
      } else if (c == ')' || c == '>' || c == ']') {
        --depth;
      } else if (c == ':' && depth == 0) {
        if ((i + 1 < head.size() && head[i + 1] == ':') || (i > 0 && head[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon != std::string::npos) {
      container = TrailingName(head.substr(colon + 1));
    } else {
      // Iterator loop: for (auto it = X.begin(); ...).
      std::size_t begin_call = head.find(".begin");
      if (begin_call != std::string::npos) {
        container = TrailingName(head.substr(0, begin_call));
      }
    }
    if (container.empty() || unordered.count(container) == 0) {
      continue;
    }

    std::size_t body_start = text.find_first_not_of(" \t\n", close);
    if (body_start == std::string::npos) {
      continue;
    }
    std::size_t body_end;
    if (text[body_start] == '{') {
      body_end = SkipBalanced(text, body_start, '{', '}');
    } else {
      body_end = text.find(';', body_start);
    }
    if (body_end == std::string::npos) {
      continue;
    }
    if (ReachesOutputSink(text.substr(body_start, body_end - body_start))) {
      findings->push_back(
          {"unordered-iteration", file.path, LineOfOffset(text, start),
           "iteration over unordered container '" + container +
               "' reaches an output sink; hash order leaks into output — use an ordered "
               "container or emit in sorted order",
           ""});
    }
  }
}

}  // namespace

std::vector<Finding> RunDeterminismPass(const Project& project, const Config& config) {
  std::vector<Finding> findings;
  std::set<std::string> unordered = CollectUnorderedNames(project);

  static const char* kWallClock[] = {"steady_clock",  "system_clock",       "high_resolution_clock",
                                     "gettimeofday",  "clock_gettime",      "mach_absolute_time"};
  static const char* kRandom[] = {"rand", "srand", "random_device"};

  for (const auto& [path, file] : project.files()) {
    CheckUnorderedIteration(file, unordered, &findings);

    if (!InAllowlist(path, config.wallclock_allow)) {
      for (std::size_t i = 0; i < file.code.size(); ++i) {
        for (const char* token : kWallClock) {
          if (ContainsWord(file.code[i], token)) {
            findings.push_back({"wall-clock", path, static_cast<int>(i + 1),
                                std::string("wall-clock read ('") + token +
                                    "') outside sanctioned sites; simulation code must use "
                                    "SimNanos virtual time",
                                ""});
            break;
          }
        }
      }
    }

    if (!InAllowlist(path, config.random_allow)) {
      for (std::size_t i = 0; i < file.code.size(); ++i) {
        const std::string& line = file.code[i];
        for (const char* token : kRandom) {
          if (!ContainsWord(line, token)) {
            continue;
          }
          // rand/srand must be calls; random_device matches as a word.
          if (token != std::string("random_device")) {
            std::size_t at = line.find(token);
            std::size_t after = line.find_first_not_of(" \t", at + std::string(token).size());
            if (after == std::string::npos || line[after] != '(') {
              continue;
            }
          }
          findings.push_back({"raw-random", path, static_cast<int>(i + 1),
                              std::string("'") + token +
                                  "' outside src/common/rng; use the seeded project Rng for "
                                  "reproducible runs",
                              ""});
          break;
        }
      }
    }
  }
  return findings;
}

// ----------------------------------------------- suppression + dispatcher --

namespace {

std::string PassOf(const std::string& check) {
  if (check == "unused-include" || check == "transitive-include" || check == "include-cycle" ||
      check == "dead-system-include") {
    return "include-graph";
  }
  if (check == "layering") {
    return "layering";
  }
  if (check == "raw-error-return" || check == "unchecked-result-unwrap") {
    return "error-discipline";
  }
  return "determinism";
}

// Applies `// mtm-analyze: allow(<name>) <justification>` suppressions on
// the finding line or the line above. A matching suppression without a
// justification converts the finding instead of hiding it.
void ApplySuppressions(const Project& project, std::vector<Finding>* findings) {
  static const std::string kMarker = "mtm-analyze: allow(";
  std::vector<Finding> kept;
  for (const Finding& finding : *findings) {
    const SourceFile* file = project.Find(finding.file);
    bool suppressed = false;
    bool needs_justification = false;
    if (file != nullptr) {
      for (int line : {finding.line, finding.line - 1}) {
        if (line < 1 || line > static_cast<int>(file->raw.size())) {
          continue;
        }
        const std::string& raw = file->raw[static_cast<std::size_t>(line - 1)];
        std::size_t at = raw.find(kMarker);
        if (at == std::string::npos) {
          continue;
        }
        std::size_t name_start = at + kMarker.size();
        std::size_t close = raw.find(')', name_start);
        if (close == std::string::npos) {
          continue;
        }
        std::string name = raw.substr(name_start, close - name_start);
        if (name != finding.check && name != PassOf(finding.check)) {
          continue;
        }
        std::string justification = raw.substr(close + 1);
        std::size_t first = justification.find_first_not_of(" \t");
        if (first == std::string::npos) {
          needs_justification = true;
        } else {
          suppressed = true;
        }
        break;
      }
    }
    if (needs_justification) {
      kept.push_back({"suppression", finding.file, finding.line,
                      "suppression for '" + finding.check + "' is missing a justification",
                      ""});
    } else if (!suppressed) {
      kept.push_back(finding);
    }
  }
  *findings = std::move(kept);
}

}  // namespace

const std::set<std::string>& KnownChecks() {
  static const std::set<std::string> kChecks = {
      // include-graph
      "unused-include", "transitive-include", "include-cycle", "dead-system-include",
      // layering
      "layering",
      // determinism
      "unordered-iteration", "wall-clock", "raw-random",
      // error-discipline
      "raw-error-return", "unchecked-result-unwrap",
      // pass names double as suppression targets
      "include-graph", "determinism", "error-discipline",
      // emitted for a suppression missing its justification
      "suppression"};
  return kChecks;
}

std::vector<Finding> Analyze(const Project& project, const Config& config) {
  return Analyze(project, config, nullptr);
}

std::vector<Finding> Analyze(const Project& project, const Config& config, AnalyzeStats* stats) {
  std::vector<Finding> findings = RunIncludeGraphPass(project, config);
  for (auto* pass : {RunLayeringPass, RunDeterminismPass, RunErrorDisciplinePass}) {
    std::vector<Finding> more = pass(project, config);
    findings.insert(findings.end(), more.begin(), more.end());
  }
  ApplySuppressions(project, &findings);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.check < b.check;
  });
  if (stats != nullptr) {
    stats->files_checked = project.files().size();
    for (const Finding& finding : findings) {
      ++stats->findings_by_check[finding.check];
    }
  }
  return findings;
}

}  // namespace mtm::analyze
