// Unit tests for tools/mtm_analyze: each pass has at least one true
// positive and one rejected near-miss in the fixture tree under
// tools/mtm_analyze/testdata/, plus a golden --json report and a --fix
// before/after golden with an idempotence round-trip.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "tools/mtm_analyze/mtm_analyze.h"

namespace mtm::analyze {
namespace {

std::string TestdataRoot() { return MTM_ANALYZE_TESTDATA; }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> FixtureSeeds() {
  return {
      "proj/liba/unused_inc.cc", "proj/liba/transitive.cc", "proj/liba/upward.cc",
      "proj/liba/cycle_x.h",     "proj/det/sink_loop.cc",   "proj/det/mutate_loop.cc",
      "proj/det/clock.cc",       "proj/det/sim_clock.cc",   "proj/det/seed.cc",
      "proj/det/seeded_ok.cc",   "proj/det/suppressed.cc",  "proj/det/nojust.cc",
      "proj/err/unwrap.cc",      "proj/err/rawret.cc",
  };
}

class AnalyzeFixtureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(ParseConfig(ReadFileOrDie(TestdataRoot() + "/layers.toml"), &config_, &error))
        << error;
    project_ = Project::Load(TestdataRoot(), FixtureSeeds());
    findings_ = Analyze(project_, config_);
  }

  bool HasFinding(const std::string& check, const std::string& file) const {
    for (const Finding& f : findings_) {
      if (f.check == check && f.file == file) {
        return true;
      }
    }
    return false;
  }

  bool AnyFindingIn(const std::string& file) const {
    for (const Finding& f : findings_) {
      if (f.file == file) {
        return true;
      }
    }
    return false;
  }

  // Lines of every `check` finding in `file`, in report order.
  std::vector<int> FindingLines(const std::string& check, const std::string& file) const {
    std::vector<int> lines;
    for (const Finding& f : findings_) {
      if (f.check == check && f.file == file) {
        lines.push_back(f.line);
      }
    }
    return lines;
  }

  Config config_;
  Project project_;
  std::vector<Finding> findings_;
};

// ------------------------------------------------------ include-graph pass

TEST_F(AnalyzeFixtureTest, FlagsUnusedDirectInclude) {
  EXPECT_TRUE(HasFinding("unused-include", "proj/liba/unused_inc.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagUsedInclude) {
  // unused_inc.cc's only finding is the unused extra.h; the used base.h
  // include stays silent.
  int count = 0;
  for (const Finding& f : findings_) {
    if (f.file == "proj/liba/unused_inc.cc") {
      ++count;
      EXPECT_EQ(f.check, "unused-include");
      EXPECT_NE(f.message.find("extra.h"), std::string::npos);
    }
  }
  EXPECT_EQ(count, 1);
}

TEST_F(AnalyzeFixtureTest, FlagsTransitiveIncludeReliance) {
  EXPECT_TRUE(HasFinding("transitive-include", "proj/liba/transitive.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagDirectUseAsUnusedOrTransitive) {
  // transitive.cc uses ExtraThing directly: extra.h is neither unused nor
  // a transitive-reliance target.
  for (const Finding& f : findings_) {
    if (f.file == "proj/liba/transitive.cc") {
      EXPECT_EQ(f.check, "transitive-include");
      EXPECT_NE(f.message.find("BaseThing"), std::string::npos);
    }
  }
  EXPECT_FALSE(HasFinding("unused-include", "proj/liba/transitive.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsIncludeCycleOnce) {
  int cycles = 0;
  for (const Finding& f : findings_) {
    if (f.check == "include-cycle") {
      ++cycles;
      EXPECT_NE(f.message.find("cycle_x.h"), std::string::npos);
      EXPECT_NE(f.message.find("cycle_y.h"), std::string::npos);
    }
  }
  EXPECT_EQ(cycles, 1);
}

// ----------------------------------------------------------- layering pass

TEST_F(AnalyzeFixtureTest, FlagsUpwardLayerEdge) {
  EXPECT_TRUE(HasFinding("layering", "proj/liba/upward.cc"));
}

TEST_F(AnalyzeFixtureTest, AllowsDeclaredDownwardEdge) {
  EXPECT_FALSE(AnyFindingIn("proj/libb/top.h"));
}

// -------------------------------------------------------- determinism pass

TEST_F(AnalyzeFixtureTest, FlagsUnorderedIterationReachingSink) {
  EXPECT_TRUE(HasFinding("unordered-iteration", "proj/det/sink_loop.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagMutateOnlyUnorderedLoop) {
  EXPECT_FALSE(AnyFindingIn("proj/det/mutate_loop.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsWallClockOutsideSanctionedSites) {
  EXPECT_TRUE(HasFinding("wall-clock", "proj/det/clock.cc"));
}

TEST_F(AnalyzeFixtureTest, AllowsSanctionedWallClockSite) {
  EXPECT_FALSE(AnyFindingIn("proj/det/sim_clock.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsRandomDevice) {
  EXPECT_TRUE(HasFinding("raw-random", "proj/det/seed.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagRandSubstrings) {
  EXPECT_FALSE(AnyFindingIn("proj/det/seeded_ok.cc"));
}

// --------------------------------------------------- error-discipline pass

TEST_F(AnalyzeFixtureTest, FlagsUncheckedResultUnwraps) {
  // Both the never-checked variable unwrap and the temporary unwrap are
  // flagged; CheckedUnwrap's ok()-dominated unwrap is not.
  EXPECT_EQ(FindingLines("unchecked-result-unwrap", "proj/err/unwrap.cc"),
            (std::vector<int>{10, 13}));
}

TEST_F(AnalyzeFixtureTest, FlagsRawErrorReturnOnFallibleVerb) {
  // Only bool TryReserve trips: the Status variant, Trylock (verb is a
  // prefix fragment only), and IsReady (no verb) are near-misses.
  EXPECT_EQ(FindingLines("raw-error-return", "proj/err/rawret.cc"), (std::vector<int>{9}));
  int total = 0;
  for (const Finding& f : findings_) {
    if (f.file == "proj/err/rawret.cc") {
      ++total;
    }
  }
  EXPECT_EQ(total, 1);
}

// ------------------------------------------------------------------ stats

// Named for the call-edge counters it also checked before the whole-program
// call graph was removed; the name is kept so the test id stays stable.
TEST_F(AnalyzeFixtureTest, StatsCountFilesAndCallEdges) {
  AnalyzeStats stats;
  Analyze(project_, config_, &stats);
  EXPECT_EQ(stats.files_checked, project_.files().size());
  ASSERT_EQ(stats.findings_by_check.count("raw-error-return"), 1u);
  EXPECT_EQ(stats.findings_by_check.at("raw-error-return"), 1u);
  std::string text = FormatStats(stats);
  EXPECT_NE(text.find("files analyzed:"), std::string::npos);
  EXPECT_NE(text.find("raw-error-return: 1"), std::string::npos);
}

// ------------------------------------------------------ discarded-status
//
// A dropped Status or Result is caught by the compiler, not by a pass:
// both types are [[nodiscard]] and the project builds with warnings as
// errors. These probes compile snippets against src/common/status.h with
// the project's compiler so the attribute cannot silently go missing.

// True when `body`, placed after an include of src/common/status.h inside
// namespace mtm, compiles without a single warning.
bool CompilesWarningFree(const std::string& name, const std::string& body) {
  namespace fs = std::filesystem;
  const fs::path source = fs::temp_directory_path() /
                          ("mtm_nodiscard_" + name + "_" + std::to_string(getpid()) + ".cc");
  {
    std::ofstream out(source);
    out << "#include \"src/common/status.h\"\nnamespace mtm {\n" << body << "\n}\n";
  }
  const std::string command = std::string("\"") + MTM_CXX_COMPILER +
                              "\" -std=c++17 -fsyntax-only -Werror -I\"" + MTM_SOURCE_ROOT +
                              "\" \"" + source.string() + "\" 2>/dev/null";
  const int rc = std::system(command.c_str());
  fs::remove(source);
  return rc == 0;
}

TEST_F(AnalyzeFixtureTest, FlagsDiscardedStatusCall) {
  // True positives: the Status / Result is dropped on the floor.
  EXPECT_FALSE(CompilesWarningFree("status", "Status SubmitOrder(int);\n"
                                             "void FireAndForget() { SubmitOrder(1); }"));
  EXPECT_FALSE(CompilesWarningFree("result", "Result<int> Look(int);\n"
                                             "void Peek() { Look(1); }"));
  // Near-miss: naming the Status and branching on it is the sanctioned
  // shape and must stay silent.
  EXPECT_TRUE(CompilesWarningFree("named", "Status SubmitOrder(int);\n"
                                           "int CountSubmitted() {\n"
                                           "  Status status = SubmitOrder(2);\n"
                                           "  if (!status.ok()) { return 0; }\n"
                                           "  return 1;\n"
                                           "}"));
}

// ----------------------------------------------------------- suppressions

TEST_F(AnalyzeFixtureTest, JustifiedSuppressionSilencesFinding) {
  EXPECT_FALSE(AnyFindingIn("proj/det/suppressed.cc"));
}

TEST_F(AnalyzeFixtureTest, UnjustifiedSuppressionIsReported) {
  EXPECT_TRUE(HasFinding("suppression", "proj/det/nojust.cc"));
  EXPECT_FALSE(HasFinding("unordered-iteration", "proj/det/nojust.cc"));
}

// ----------------------------------------------------------------- report

TEST_F(AnalyzeFixtureTest, JsonReportMatchesGolden) {
  EXPECT_EQ(FormatJson(findings_, project_.files().size()),
            ReadFileOrDie(TestdataRoot() + "/golden_report.json"));
}

TEST_F(AnalyzeFixtureTest, TextReportUsesLintFormat) {
  std::string text = FormatText(findings_);
  EXPECT_NE(text.find("proj/liba/upward.cc:2: [layering]"), std::string::npos);
}

// ------------------------------------------------------------- fix engine

class FixProjTest : public ::testing::Test {
 protected:
  void SetUp() override {
    project_ = Project::Load(TestdataRoot(), {"fixproj/order.cc"});
    config_.check_system_includes = true;
    findings_ = RunIncludeGraphPass(project_, config_);
  }

  Config config_;
  Project project_;
  std::vector<Finding> findings_;
};

TEST_F(FixProjTest, DeadSystemIncludeIsOptInAndSpecific) {
  // <vector> is dead, <cstring> is alive through strlen; the check only
  // exists behind check_system_includes.
  int dead = 0;
  for (const Finding& f : findings_) {
    if (f.check == "dead-system-include") {
      ++dead;
      EXPECT_EQ(f.subject, "vector");
    }
  }
  EXPECT_EQ(dead, 1);

  Config off;
  for (const Finding& f : RunIncludeGraphPass(project_, off)) {
    EXPECT_NE(f.check, "dead-system-include");
  }
}

TEST_F(FixProjTest, FixOutputMatchesGolden) {
  // One pass repairs all three defects: dead <vector> deleted, <cstring>
  // hoisted above the quoted block, base.h promoted to a direct include.
  std::map<std::string, std::string> fixed = ComputeFixedContents(project_, findings_);
  ASSERT_EQ(fixed.size(), 1u);
  ASSERT_EQ(fixed.begin()->first, "fixproj/order.cc");
  EXPECT_EQ(fixed.begin()->second, ReadFileOrDie(TestdataRoot() + "/fixproj/order.cc.golden"));
}

TEST_F(FixProjTest, FixIsIdempotent) {
  // Applying the fixed contents and re-running the analysis+fixer yields
  // no further edits: --fix twice == --fix once.
  std::map<std::string, std::string> fixed = ComputeFixedContents(project_, findings_);
  ASSERT_EQ(fixed.size(), 1u);

  namespace fs = std::filesystem;
  fs::path tmp = fs::path(::testing::TempDir()) / "mtm_analyze_fixproj";
  fs::create_directories(tmp / "fixproj");
  for (const char* header : {"fixproj/order.h", "fixproj/dep.h", "fixproj/base.h"}) {
    fs::copy_file(fs::path(TestdataRoot()) / header, tmp / header,
                  fs::copy_options::overwrite_existing);
  }
  std::ofstream out(tmp / "fixproj/order.cc", std::ios::binary);
  out << fixed.begin()->second;
  out.close();

  Project reloaded = Project::Load(tmp.string(), {"fixproj/order.cc"});
  std::vector<Finding> refindings = RunIncludeGraphPass(reloaded, config_);
  EXPECT_TRUE(ComputeFixedContents(reloaded, refindings).empty());
}

// ----------------------------------------------------- function model unit

SourceFile ParseSnippet(const std::string& text) {
  SourceFile f;
  f.path = "snippet.cc";
  f.raw = SplitLines(text);
  f.code = SplitLines(StripCommentsAndStrings(text));
  BuildFunctionModel(&f);
  return f;
}

TEST(FunctionModelTest, QualifiesMembersAndRecordsReturnTypes) {
  SourceFile f = ParseSnippet("Status Engine::Submit(Order o) { return OkStatus(); }\n");
  ASSERT_EQ(f.functions.size(), 1u);
  EXPECT_EQ(f.functions[0].qualified, "Engine::Submit");
  EXPECT_EQ(f.functions[0].return_type, "Status");
  EXPECT_TRUE(f.functions[0].has_body);
}

TEST(FunctionModelTest, AttributesLambdaToCallbackCallee) {
  // A lambda passed as a callback argument is its own function, nested in
  // its enclosing one: the Result flow inside it belongs to the lambda.
  SourceFile f = ParseSnippet(
      "void Engine::Run() {\n"
      "  Visit(2, [&](int s) {\n"
      "    Result<int> r = Look(s);\n"
      "    if (r.ok()) { hits_ += r.value(); }\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 2u);
  EXPECT_TRUE(f.functions[0].var_events.empty());
  const FunctionInfo& lambda = f.functions[1];
  EXPECT_TRUE(lambda.is_lambda);
  EXPECT_TRUE(lambda.has_body);
  EXPECT_EQ(lambda.name, "<lambda>");
  EXPECT_EQ(lambda.qualified, "Engine::Run::<lambda>");
  EXPECT_EQ(lambda.line, 2);
  std::vector<VarEvent::Kind> kinds;
  for (const VarEvent& ev : lambda.var_events) {
    kinds.push_back(ev.kind);
  }
  EXPECT_EQ(kinds, (std::vector<VarEvent::Kind>{VarEvent::Kind::kResultDecl,
                                                VarEvent::Kind::kOkCheck,
                                                VarEvent::Kind::kUnwrap}));
}

TEST(FunctionModelTest, RecordsDiscardedWholeStatementCallsOnly) {
  // Only a call dropped as a whole statement is flagged; the compiler
  // accepts a named result, a result tested in a condition, and the
  // sanctioned (void) cast.
  EXPECT_FALSE(CompilesWarningFree("whole", "Status Submit(int);\n"
                                            "void F() { Submit(1); }"));
  EXPECT_TRUE(CompilesWarningFree("used", "Status Submit(int);\n"
                                          "bool G() {\n"
                                          "  Status s = Submit(1);\n"
                                          "  if (Submit(2).ok()) { return false; }\n"
                                          "  (void)Submit(3);  // dropped on purpose\n"
                                          "  return s.ok();\n"
                                          "}"));
}

TEST(FunctionModelTest, ReplaysResultFlowEvents) {
  SourceFile f = ParseSnippet(
      "int F() {\n"
      "  Result<int> r = Look(1);\n"
      "  if (!r.ok()) { return 0; }\n"
      "  return r.value();\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 1u);
  std::vector<VarEvent::Kind> kinds;
  for (const VarEvent& ev : f.functions[0].var_events) {
    kinds.push_back(ev.kind);
  }
  EXPECT_EQ(kinds, (std::vector<VarEvent::Kind>{VarEvent::Kind::kResultDecl,
                                                VarEvent::Kind::kOkCheck,
                                                VarEvent::Kind::kUnwrap}));
}

TEST(FunctionModelTest, RecordsMutableStaticLocalButNotConst) {
  // Static locals, mutable or const, are statements of the body: they
  // neither open a function of their own nor hide the events after them.
  SourceFile f = ParseSnippet(
      "int F() {\n"
      "  static int counter = 0;\n"
      "  static const int kLimit = 8;\n"
      "  counter += kLimit;\n"
      "  Result<int> r = Look(counter);\n"
      "  return r.value();\n"
      "}\n"
      "int G() { return 1; }\n");
  ASSERT_EQ(f.functions.size(), 2u);
  EXPECT_EQ(f.functions[0].qualified, "F");
  EXPECT_EQ(f.functions[1].qualified, "G");
  ASSERT_EQ(f.functions[0].var_events.size(), 2u);
  EXPECT_EQ(f.functions[0].var_events[0].kind, VarEvent::Kind::kResultDecl);
  EXPECT_EQ(f.functions[0].var_events[0].line, 5);
  EXPECT_EQ(f.functions[0].var_events[1].kind, VarEvent::Kind::kUnwrap);
}

TEST(FunctionModelTest, RecordsLambdaCapturesParamsAndLocals) {
  // A named lambda with a capture list, parameters, `mutable` and a
  // trailing return type: the intro is skipped, the body is the lambda's,
  // and the enclosing function resumes after it.
  SourceFile f = ParseSnippet(
      "void F() {\n"
      "  int total = 0;\n"
      "  auto add = [&total, this](int s) mutable -> int {\n"
      "    Result<int> r = Look(s);\n"
      "    return r.value();\n"
      "  };\n"
      "  Result<int> q = Look(total);\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 2u);
  const FunctionInfo& lambda = f.functions[1];
  EXPECT_TRUE(lambda.is_lambda);
  EXPECT_EQ(lambda.name, "add");
  EXPECT_EQ(lambda.qualified, "F::add");
  ASSERT_EQ(lambda.var_events.size(), 2u);
  EXPECT_EQ(lambda.var_events[0].kind, VarEvent::Kind::kResultDecl);
  EXPECT_EQ(lambda.var_events[0].var, "r");
  EXPECT_EQ(lambda.var_events[1].kind, VarEvent::Kind::kUnwrap);
  ASSERT_EQ(f.functions[0].var_events.size(), 1u);
  EXPECT_EQ(f.functions[0].var_events[0].kind, VarEvent::Kind::kResultDecl);
  EXPECT_EQ(f.functions[0].var_events[0].var, "q");
  EXPECT_EQ(f.functions[0].var_events[0].line, 7);
}

TEST(FunctionModelTest, RecordsLockGuardScopes) {
  // A scoped declaration with a template type and a parenthesized
  // initializer, inside a nested block, is a statement of the body: it
  // opens no function, and the events after the block stay attributed.
  SourceFile f = ParseSnippet(
      "int Engine::Tick() {\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    count_ += 1;\n"
      "  }\n"
      "  Result<int> r = Look(count_);\n"
      "  return r.ok() ? 1 : 0;\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 1u);
  EXPECT_EQ(f.functions[0].qualified, "Engine::Tick");
  ASSERT_EQ(f.functions[0].var_events.size(), 2u);
  EXPECT_EQ(f.functions[0].var_events[0].kind, VarEvent::Kind::kResultDecl);
  EXPECT_EQ(f.functions[0].var_events[0].line, 6);
  EXPECT_EQ(f.functions[0].var_events[1].kind, VarEvent::Kind::kOkCheck);
}

// ------------------------------------------------------------- lexer unit

TEST(StripTest, RemovesCommentsAndStringsPreservingLines) {
  std::string stripped = StripCommentsAndStrings("a /* x\n y */ b // tail\n\"s\" 'c'\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a ");
  EXPECT_EQ(lines[1], " b ");
  EXPECT_EQ(lines[2], "\"\" ''");
}

TEST(StripTest, DigitSeparatorIsNotACharLiteral) {
  std::string stripped = StripCommentsAndStrings("u64 x = 1'000'000; int y = 2;");
  EXPECT_NE(stripped.find("y = 2"), std::string::npos);
}

TEST(StripTest, RawStringWithCustomDelimiterKeepsLineNumbers) {
  // R"x(...)x" must close on )x", not on the first )" inside the body, and
  // the newline inside the literal must survive so lines stay aligned.
  std::string stripped =
      StripCommentsAndStrings("auto s = R\"x(one \"two\" )\"\nthree)x\";\nint z = 3;\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[2], "int z = 3;");
  EXPECT_EQ(stripped.find("two"), std::string::npos);
  EXPECT_EQ(stripped.find("three"), std::string::npos);
}

TEST(StripTest, BackslashContinuedStringKeepsLineNumbers) {
  std::string stripped = StripCommentsAndStrings("const char* s = \"ab\\\ncd\";\nint q = 7;\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[2], "int q = 7;");
  EXPECT_EQ(stripped.find("cd"), std::string::npos);
}

TEST(StripTest, BackslashContinuedLineCommentKeepsLineNumbers) {
  std::string stripped = StripCommentsAndStrings("// first \\\nstill comment\nint w = 9;\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[2], "int w = 9;");
  EXPECT_EQ(stripped.find("still"), std::string::npos);
}

TEST(ContainsWordTest, RespectsBoundaries) {
  EXPECT_TRUE(ContainsWord("x = rand();", "rand"));
  EXPECT_FALSE(ContainsWord("x = randomize();", "rand"));
  EXPECT_FALSE(ContainsWord("x = my_rand;", "rand"));
}

TEST(ConfigTest, RejectsMalformedInput) {
  Config config;
  std::string error;
  EXPECT_FALSE(ParseConfig("[layers]\nbroken line\n", &config, &error));
  EXPECT_NE(error.find("expected key = value"), std::string::npos);
}

TEST(ConfigTest, ParsesLayersAndAllowlists) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[layers]\n\"a\" = [\"b\", \"c\"]\n\n[determinism]\n"
                          "wallclock_allow = [\"x.cc\"]\nrandom_allow = []\n",
                          &config, &error))
      << error;
  ASSERT_EQ(config.layers.count("a"), 1u);
  EXPECT_EQ(config.layers["a"], (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(config.wallclock_allow, std::vector<std::string>{"x.cc"});
  EXPECT_TRUE(config.random_allow.empty());
}

// The [concurrency] half of the name now checks that the removed section is
// rejected; the name is kept so the test id stays stable.
TEST(ConfigTest, ParsesErrorDisciplineAndConcurrencySections) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[error_discipline]\nstatus_paths = [\"src/migration\"]\n"
                          "fallible_verbs = [\"Try\"]\n",
                          &config, &error))
      << error;
  EXPECT_EQ(config.status_paths, std::vector<std::string>{"src/migration"});
  EXPECT_EQ(config.fallible_verbs, std::vector<std::string>{"Try"});
  // A section no pass reads is an error, not silently ignored.
  EXPECT_FALSE(ParseConfig("[concurrency]\ntask_callbacks = []\n", &config, &error));
  EXPECT_NE(error.find("unknown section [concurrency]"), std::string::npos) << error;
}

TEST(CompileCommandsTest, ExtractsFileEntries) {
  std::vector<std::string> files = ParseCompileCommands(
      "[{\"directory\": \"/b\", \"command\": \"g++ -c a.cc\", \"file\": \"/r/a.cc\"},\n"
      " {\"file\": \"/r/b.cc\", \"output\": \"b.o\"}]\n");
  EXPECT_EQ(files, (std::vector<std::string>{"/r/a.cc", "/r/b.cc"}));
}

TEST(CompileCommandsTest, ExtractsIncludeDirs) {
  CompileDb db = ParseCompileDb(
      "[{\"directory\": \"/b\", \"command\": \"g++ -I/r/include -isystem /r/sys -I /r/alt "
      "-c a.cc\", \"file\": \"/r/a.cc\"}]\n");
  EXPECT_EQ(db.files, std::vector<std::string>{"/r/a.cc"});
  EXPECT_EQ(db.include_dirs, (std::vector<std::string>{"/r/include", "/r/sys", "/r/alt"}));
}

// ------------------------------------------------------------ known checks

TEST(KnownChecksTest, CoversEveryCheckAndPassName) {
  // mtm_lint's unknown-suppression check hardcodes this list; its
  // suppression-targets sync check parses passes.cc to keep them aligned.
  for (const char* check :
       {"unused-include", "transitive-include", "include-cycle", "dead-system-include",
        "layering", "unordered-iteration", "wall-clock", "raw-random", "raw-error-return",
        "unchecked-result-unwrap", "include-graph", "determinism", "error-discipline",
        "suppression"}) {
    EXPECT_EQ(KnownChecks().count(check), 1u) << check;
  }
  EXPECT_EQ(KnownChecks().size(), 14u);
}

}  // namespace
}  // namespace mtm::analyze
