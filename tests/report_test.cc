// Tests for the reporting module and the flag parser.
#include <gtest/gtest.h>

#include <string>

#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/report.h"

namespace mtm {
namespace {

RunResult SampleResult() {
  RunResult r;
  r.workload = "gups";
  r.solution = "mtm";
  r.app_ns = Nanos(2'000'000'000);
  r.profiling_ns = Nanos(100'000'000);
  r.migration_ns = Nanos(50'000'000);
  r.total_accesses = 1'000'000;
  r.component_app_accesses = {700'000, 100'000, 200'000, 0};
  r.migration_stats.bytes_migrated = MiB(64);
  r.migration_stats.sync_fallbacks = 3;
  r.migration_stats.async_copies = 5;
  r.migration_stats.async_copy_bytes = MiB(48);
  r.migration_stats.fallback_copy_bytes = MiB(16);
  r.migration_stats.copy_checksum = 0xDEADBEEF;
  r.profiler_memory_bytes = Bytes(4096);
  r.footprint_bytes = GiB(1);
  return r;
}

TEST(ReportTest, CsvRowMatchesHeaderColumns) {
  std::string header = CsvHeader();
  std::string row = CsvRow(SampleResult());
  auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(header), count(row));
  EXPECT_NE(row.find("gups,mtm"), std::string::npos);
  // Copy-engine accounting rides in the CSV (the JSON schema is goldened).
  EXPECT_NE(header.find("async_copies"), std::string::npos);
  EXPECT_NE(header.find("copy_checksum"), std::string::npos);
  EXPECT_NE(row.find(std::to_string(u64{0xDEADBEEF})), std::string::npos);
}

TEST(ReportTest, HumanReportMentionsEverything) {
  std::string report = HumanReport(SampleResult());
  EXPECT_NE(report.find("gups under mtm"), std::string::npos);
  EXPECT_NE(report.find("migration"), std::string::npos);
  EXPECT_NE(report.find("sync fallbacks"), std::string::npos);
  EXPECT_NE(report.find("async copy"), std::string::npos);
}

TEST(ReportTest, JsonWellFormedish) {
  RunResult r = SampleResult();
  IntervalRecord iv;
  iv.end_time_ns = Nanos(1'000'000);
  iv.fast_tier_accesses = 42;
  r.intervals.push_back(iv);
  std::string json = JsonReport(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"workload\":\"gups\""), std::string::npos);
  EXPECT_NE(json.find("\"intervals\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"fast_tier_accesses\":42"), std::string::npos);
  // Balanced braces/brackets.
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReportTest, RenderDispatch) {
  RunResult r = SampleResult();
  EXPECT_EQ(Render(r, ReportFormat::kCsv), CsvRow(r));
  EXPECT_EQ(Render(r, ReportFormat::kJson), JsonReport(r));
  EXPECT_EQ(Render(r, ReportFormat::kHuman), HumanReport(r));
}

TEST(FlagsTest, ParsesKeyValueAndBool) {
  const char* argv[] = {"prog", "--workload=voltdb", "--two-tier", "--scale=256",
                        "--alpha=0.25", "positional"};
  FlagSet flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("workload", "x"), "voltdb");
  EXPECT_TRUE(flags.GetBool("two-tier", false));
  EXPECT_EQ(flags.GetU64("scale", 0), 256u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0), 0.25);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagSet flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetU64("missing", 7), 7u);
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=false"};
  FlagSet flags(5, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(FlagsTest, CheckRejectsUnqueriedFlagsAndMalformedNumbers) {
  const char* argv[] = {"prog", "--scale=256", "--alpha=abc", "--bogus=1"};
  FlagSet flags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetU64("scale", 0), 256u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.5), 0.5);  // malformed: fallback
  Status unknown = flags.Check();
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("--bogus"), std::string::npos) << unknown.message();
  EXPECT_EQ(flags.GetU64("bogus", 0), 1u);
  Status malformed = flags.Check();
  EXPECT_EQ(malformed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(malformed.message().find("--alpha=abc"), std::string::npos) << malformed.message();
}

TEST(FlagsTest, UnsignedValuesMustStartWithADigit) {
  // strtoull alone would read "-1" as 2^64-1 and skip a sign or whitespace.
  const char* argv[] = {"prog", "--seed=-1", "--intervals=+5", "--scale= 7", "--threads=16"};
  FlagSet flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetU64("seed", 42), 42u);
  EXPECT_EQ(flags.GetU64("intervals", 400), 400u);
  EXPECT_EQ(flags.GetU64("scale", 512), 512u);
  EXPECT_EQ(flags.GetU64("threads", 8), 16u);
  Status status = flags.Check();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--seed=-1"), std::string::npos) << status.message();
}

TEST(FlagsTest, CheckPassesWhenEveryFlagWasQueried) {
  const char* argv[] = {"prog", "--threads=16", "--overhead=0.1", "--two-tier"};
  FlagSet flags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetU64("threads", 8), 16u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("overhead", 0.05), 0.1);
  EXPECT_TRUE(flags.GetBool("two-tier", false));
  EXPECT_TRUE(flags.Check().ok());
}

}  // namespace
}  // namespace mtm
