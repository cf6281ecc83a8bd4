// mtm_analyze: compile_commands-driven static analysis for the MTM tree.
//
// A deliberately small, dependency-free analyzer (no libclang): a lexer
// that strips comments/strings, an include-graph builder seeded from
// build/compile_commands.json, a per-file function model (functions,
// lambdas, Status/Result flow events), and four passes over the result:
//
//   include-graph    unused direct project includes (IWYU-lite), reliance
//                    on transitive includes for symbols a file uses,
//                    include cycles, and (behind --check-system-includes)
//                    dead angle-bracket system includes.
//   layering         the module DAG declared in tools/mtm_analyze/layers.toml
//                    is enforced: a module may only include modules listed
//                    as its allowed dependencies.
//   determinism      iteration over unordered containers whose loop body
//                    reaches an output sink, wall-clock reads outside
//                    sanctioned sites, and rand()/random_device outside the
//                    project RNG.
//   error-discipline fallible operations return Status/Result<T>: raw
//                    bool/int error codes on fallible paths, and Result
//                    unwraps not dominated by an ok() check. (A discarded
//                    Status/Result is a compiler error: both are
//                    [[nodiscard]] and CI builds with -Werror.)
//
// Findings can be suppressed inline with
//   // mtm-analyze: allow(<check-or-pass>) <justification>
// on the finding line or the line above; a suppression without a
// justification is itself reported.
//
// --fix rewrites machine-applicable include-graph findings in place (delete
// dead includes, promote transitive includes to direct, reorder include
// blocks per the mtm_lint include-order rule); --fix --check verifies the
// tree is already fix-clean without writing.
//
// The tool exits 0 when the tree is clean and 1 otherwise; --json writes a
// machine-readable report in the same schema as tools/mtm_lint.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mtm::analyze {

// ------------------------------------------------------------------ lexer --

// Returns `text` with comments and string/char literals blanked out
// (newlines preserved, so line numbers survive). Raw strings are handled
// for any delimiter (R"(...)" as well as R"x(...)x"), and backslash line
// continuations inside literals and // comments keep the newline count
// intact so token line numbers never desync.
std::string StripCommentsAndStrings(const std::string& text);

// Splits stripped text into lines.
std::vector<std::string> SplitLines(const std::string& text);

// True if `line` contains identifier `word` with word boundaries.
bool ContainsWord(const std::string& line, const std::string& word);

// A stripped-code token: an identifier or a single punctuation character.
// Numeric literals and preprocessor directive lines are omitted.
struct Token {
  std::string text;
  int line = 0;
};

// Tokenizes stripped code lines into Tokens.
std::vector<Token> TokenizeCode(const std::vector<std::string>& code);

// ------------------------------------------------------------------ model --

struct IncludeEdge {
  std::string target;  // repo-relative path when resolved, raw text otherwise
  int line = 0;
  bool resolved = false;  // target exists inside the project root
  bool angle = false;     // spelled <...> rather than "..."
};

// Status/Result flow events inside a function body, in source order. The
// error-discipline pass replays them per variable.
struct VarEvent {
  enum class Kind {
    kResultDecl,    // Result<...> var
    kAutoCallDecl,  // auto var = Callee(...)
    kOkCheck,       // var.ok()
    kUnwrap,        // var.value() / *var / var-> (var empty: Callee(...).value())
  };
  Kind kind = Kind::kOkCheck;
  std::string var;     // variable name; empty for chained temporary unwraps
  std::string callee;  // for kAutoCallDecl and chained kUnwrap
  int line = 0;
};

struct FunctionInfo {
  std::string name;         // unqualified name ("Run", "scan_shard", "<lambda>")
  std::string qualified;    // "Class::Run", "Outer::scan_shard", ...
  int line = 0;             // declaration line
  std::string return_type;  // specifier-stripped tokens, space-joined; empty for
                            // constructors/destructors/lambdas
  bool has_body = false;
  bool is_lambda = false;
  std::vector<VarEvent> var_events;
};

struct SourceFile {
  std::string path;               // repo-relative, forward slashes
  std::vector<std::string> raw;   // raw lines (suppression comments live here)
  std::vector<std::string> code;  // comment/string-stripped lines
  std::vector<IncludeEdge> includes;

  // Identifier tokens used in stripped code (excluding include directives),
  // mapped to the first line they appear on.
  std::map<std::string, int> tokens;

  // Symbols this file declares at namespace/class scope: macros, type
  // names, using-aliases, enumerators, functions, variables/constants.
  std::set<std::string> exported;

  // The subset of `exported` declared at namespace scope (plus macros).
  // Only these anchor transitive-include attribution: class members and
  // methods are reached through an object whose type carries its own
  // attribution, so counting them would misattribute usage.
  std::set<std::string> attributable;

  // Functions and lambdas defined or declared in this file, in source order
  // (lambdas follow their enclosing function).
  std::vector<FunctionInfo> functions;
};

// Builds `functions` for a parsed file. Exposed for unit tests;
// Project::Load calls it for every file.
void BuildFunctionModel(SourceFile* file);

// A set of source files closed under project-include resolution.
class Project {
 public:
  // `root` is the absolute project root; `seeds` are root-relative paths.
  // `include_dirs` are root-relative -I/-isystem directories used to resolve
  // angle-bracket includes into the tree ("" means the root itself). Files
  // named by unresolvable includes are silently treated as external.
  static Project Load(const std::string& root, const std::vector<std::string>& seeds,
                      const std::vector<std::string>& include_dirs = {});

  const std::map<std::string, SourceFile>& files() const { return files_; }
  const SourceFile* Find(const std::string& path) const;

  // Transitive closure of resolved includes, excluding `path` itself.
  std::set<std::string> IncludeClosure(const std::string& path) const;

 private:
  std::map<std::string, SourceFile> files_;
};

// ----------------------------------------------------------------- config --

struct Config {
  // Module prefix -> allowed dependency prefixes. The entry "*" in the
  // value list means the module may include anything.
  std::map<std::string, std::vector<std::string>> layers;
  // Path prefixes where wall-clock reads / raw randomness are sanctioned.
  std::vector<std::string> wallclock_allow;
  std::vector<std::string> random_allow;

  // [error_discipline] — path prefixes where bool/int-returning functions
  // named with a fallible verb must return Status instead, and the verbs.
  std::vector<std::string> status_paths;
  std::vector<std::string> fallible_verbs;

  // Enables the dead-system-include check (--check-system-includes).
  bool check_system_includes = false;
};

// Parses the TOML subset used by layers.toml ([section], key = ["a", "b"]).
// Merges into `config`. Returns false and fills `error` on malformed input.
bool ParseConfig(const std::string& text, Config* config, std::string* error);

// Extracts the "file" entries of a compile_commands.json database.
std::vector<std::string> ParseCompileCommands(const std::string& text);

// "file" entries plus every -I / -isystem directory mentioned in "command"
// entries (absolute, as written in the database).
struct CompileDb {
  std::vector<std::string> files;
  std::vector<std::string> include_dirs;
};
CompileDb ParseCompileDb(const std::string& text);

// ----------------------------------------------------------------- passes --

struct Finding {
  std::string check;
  std::string file;
  int line = 0;
  std::string message;
  // Machine-applicable payload for the fix engine (e.g. the include path to
  // delete or insert); not serialized into reports.
  std::string subject;
};

std::vector<Finding> RunIncludeGraphPass(const Project& project, const Config& config);
std::vector<Finding> RunLayeringPass(const Project& project, const Config& config);
std::vector<Finding> RunDeterminismPass(const Project& project, const Config& config);
std::vector<Finding> RunErrorDisciplinePass(const Project& project, const Config& config);

// Every check name the tool can emit, plus the pass names (both are valid
// suppression targets). Keep tools/mtm_lint/mtm_lint.py's
// VALID_SUPPRESSION_TARGETS in sync with this list.
const std::set<std::string>& KnownChecks();

// Aggregate counters for --stats.
struct AnalyzeStats {
  std::size_t files_checked = 0;
  // Post-suppression finding counts keyed by check name (zero-count checks
  // are omitted).
  std::map<std::string, std::size_t> findings_by_check;
};

// Runs all passes, applies inline suppressions, and returns the surviving
// findings sorted by (file, line, check).
std::vector<Finding> Analyze(const Project& project, const Config& config);
// Overload used by --stats.
std::vector<Finding> Analyze(const Project& project, const Config& config,
                             AnalyzeStats* stats);

// ------------------------------------------------------------------- fix --

// Computes the machine-applicable rewrites for the given findings (delete
// unused/dead includes, insert directly-included headers for transitive
// reliance) plus include-block reordering per the mtm_lint include-order
// rule. Returns new file contents keyed by repo-relative path, only for
// files that change. Running the result through Analyze+ComputeFixedContents
// again yields an empty map (idempotence; covered by tests).
std::map<std::string, std::string> ComputeFixedContents(const Project& project,
                                                        const std::vector<Finding>& findings);

// ----------------------------------------------------------------- report --

// One finding per line, mtm_lint style: "file:line: [check] message".
std::string FormatText(const std::vector<Finding>& findings);

// JSON report matching the mtm_lint schema:
//   {"files_checked": N, "findings": [...], "ok": bool}
std::string FormatJson(const std::vector<Finding>& findings, std::size_t files_checked);

// Human-readable --stats block: files analyzed and per-check finding counts.
std::string FormatStats(const AnalyzeStats& stats);

}  // namespace mtm::analyze
