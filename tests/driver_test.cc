// End-to-end integration tests: the §8 daemon loop over every solution.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/migration/mechanism.h"
#include "src/mem/address_space.h"
#include "src/profiling/mtm_profiler.h"
#include "src/profiling/region.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factory.h"
#include "tests/gups_smoke.h"

namespace mtm {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.sim_scale = 4096;  // GUPS at 128 MiB: fast tests
  config.num_intervals = 10;
  config.seed = 7;
  return config;
}

TEST(SolutionTest, NamesRoundTrip) {
  std::size_t figure4 = 0;
  for (const SolutionInfo& row : AllSolutions()) {
    EXPECT_EQ(SolutionKindName(row.kind), std::string(row.name));
    SolutionKind parsed = SolutionKind::kFirstTouch;
    ASSERT_TRUE(SolutionKindFromName(row.name, &parsed));
    EXPECT_EQ(parsed, row.kind);
    figure4 += row.figure4 ? 1 : 0;
  }
  EXPECT_EQ(AllSolutions().size(), 9u);
  SolutionKind unknown = SolutionKind::kMtm;
  EXPECT_FALSE(SolutionKindFromName("bogus", &unknown));
  EXPECT_EQ(Figure4Solutions().size(), 6u);
  EXPECT_EQ(figure4, 6u);
}

TEST(SolutionTest, DefaultPolicyOverrideIsNoOp) {
  // Naming a row's own default policy through the override must not change
  // the run: the table's key is the one the registry builds by default.
  ExperimentConfig config = TinyConfig();
  config.num_intervals = 6;
  for (const SolutionInfo& row : AllSolutions()) {
    if (row.default_policy == nullptr) {
      continue;
    }
    SCOPED_TRACE(row.name);
    const std::string plain = Render(RunExperiment("gups", row.kind, config), ReportFormat::kJson);
    ExperimentConfig overridden = config;
    overridden.policy_override = row.default_policy;
    EXPECT_EQ(Render(RunExperiment("gups", row.kind, overridden), ReportFormat::kJson), plain);
  }
}

TEST(SolutionTest, TrackerWiredOnlyForThermostat) {
  // Only Thermostat reads per-page access counts, so only its solution
  // registers the VMAs with the tracker and counts accesses into it.
  const ExperimentConfig config = TinyConfig();
  for (const SolutionInfo& row : AllSolutions()) {
    const SolutionKind kind = row.kind;
    SCOPED_TRACE(SolutionKindName(kind));
    std::unique_ptr<Workload> workload =
        MakeWorkload("gups", config.sim_scale, config.num_threads, config.seed);
    Solution solution(kind, config, *workload);
    RunSimulation(*workload, solution, config);
    const bool thermostat = kind == SolutionKind::kThermostatProfilerMtmMigration;
    u64 vma_pages = 0;
    for (const Vma& vma : solution.address_space().vmas()) {
      vma_pages += (PageAlignUp(vma.end()) - PageAlignDown(vma.start)) / kPageSize;
    }
    ASSERT_GT(vma_pages, 0u);
    EXPECT_EQ(solution.tracker().TotalPages(), thermostat ? vma_pages : 0u);
    // The run ends on an epoch reset, so one more access is the only count.
    const VirtAddr addr = solution.address_space().vmas().front().start;
    solution.engine().Apply(addr, /*is_write=*/false, /*socket=*/0);
    EXPECT_EQ(solution.tracker().CountSince(VpnOf(addr)), thermostat ? 1u : 0u);
  }
}

TEST(DriverTest, FirstTouchNeverMigrates) {
  RunResult r = RunExperiment("gups", SolutionKind::kFirstTouch, TinyConfig());
  EXPECT_EQ(r.migration_stats.bytes_migrated, Bytes{});
  EXPECT_EQ(r.profiling_ns, SimNanos{});
  EXPECT_GT(r.app_ns, SimNanos{});
  EXPECT_GT(r.total_accesses, 0u);
}

TEST(DriverTest, MtmProfilesAndMigrates) {
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, TinyConfig());
  EXPECT_GT(r.profiling_ns, SimNanos{});
  EXPECT_GT(r.migration_stats.bytes_migrated, Bytes{});
  EXPECT_GT(r.profiler_memory_bytes, Bytes{});
  EXPECT_GT(r.avg_num_regions, 0.0);
}

TEST(DriverTest, BreakdownSumsToTotal) {
  RunResult r = RunExperiment("voltdb", SolutionKind::kMtm, TinyConfig());
  EXPECT_EQ(r.total_ns(), r.app_ns + r.profiling_ns + r.migration_ns);
}

TEST(DriverTest, ProfilingWithinOverheadConstraint) {
  // §5.3: profiling stays within the 5% target (small slack for PEBS).
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, TinyConfig());
  EXPECT_LT(static_cast<double>(r.profiling_ns.value()),
            0.07 * static_cast<double>(r.app_ns.value()) + 1e6);
}

TEST(DriverTest, FixedWorkStopsEarly) {
  ExperimentConfig config = TinyConfig();
  config.num_intervals = 1000;
  config.target_accesses = 500'000;
  RunResult r = RunExperiment("gups", SolutionKind::kFirstTouch, config);
  EXPECT_GE(r.total_accesses, 500'000u);
  EXPECT_LT(r.total_accesses, 1'500'000u);
}

TEST(DriverTest, IntervalRecordsCollected) {
  ExperimentConfig config = TinyConfig();
  RunOptions options;
  options.record_intervals = true;
  options.evaluate_quality = true;
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, config, options);
  ASSERT_EQ(r.intervals.size(), config.num_intervals);
  // GUPS has ground truth; late-interval recall should be meaningful.
  EXPECT_GT(r.intervals.back().quality.true_hot_bytes, Bytes{});
  EXPECT_GE(r.intervals.back().quality.recall, 0.0);
  EXPECT_LE(r.intervals.back().quality.recall, 1.0);
}

TEST(DriverTest, TierAccountingCoversAllAccesses) {
  RunResult r = RunExperiment("voltdb", SolutionKind::kFirstTouch, TinyConfig());
  u64 sum = 0;
  for (u64 c : r.component_app_accesses) {
    sum += c;
  }
  // Init prefault also counts app accesses at components; totals must cover
  // at least the batch accesses.
  EXPECT_GE(sum, r.total_accesses);
}

struct SolutionCase {
  SolutionKind kind;
  const char* workload;
};

// Prints the case as its test-name suffix: "thermostat+mtm-migration" on
// "gups" is "thermostat_mtm_migration_gups". Test names and
// --gtest_list_tests then never carry the struct's raw bytes.
void PrintTo(const SolutionCase& c, std::ostream* os) {
  std::string name = std::string(SolutionKindName(c.kind)) + "_" + c.workload;
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) {
      ch = '_';
    }
  }
  *os << name;
}

class AllSolutionsTest : public ::testing::TestWithParam<SolutionCase> {};

TEST_P(AllSolutionsTest, RunsToCompletion) {
  const SolutionCase& param = GetParam();
  ExperimentConfig config = TinyConfig();
  config.num_intervals = 6;
  RunResult r = RunExperiment(param.workload, param.kind, config);
  EXPECT_GT(r.total_accesses, 0u);
  EXPECT_GT(r.app_ns, SimNanos{});
  EXPECT_EQ(r.solution, SolutionKindName(param.kind));
  EXPECT_EQ(r.workload, param.workload);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllSolutionsTest,
    ::testing::Values(SolutionCase{SolutionKind::kFirstTouch, "gups"},
                      SolutionCase{SolutionKind::kHmc, "gups"},
                      SolutionCase{SolutionKind::kVanillaTieredAutoNuma, "gups"},
                      SolutionCase{SolutionKind::kTieredAutoNuma, "gups"},
                      SolutionCase{SolutionKind::kAutoTiering, "gups"},
                      SolutionCase{SolutionKind::kMtm, "gups"},
                      SolutionCase{SolutionKind::kThermostatProfilerMtmMigration, "gups"},
                      SolutionCase{SolutionKind::kAutoNumaProfilerMtmMigration, "gups"},
                      SolutionCase{SolutionKind::kMtm, "voltdb"},
                      SolutionCase{SolutionKind::kMtm, "cassandra"},
                      SolutionCase{SolutionKind::kMtm, "bfs"},
                      SolutionCase{SolutionKind::kMtm, "sssp"},
                      SolutionCase{SolutionKind::kMtm, "spark"},
                      SolutionCase{SolutionKind::kTieredAutoNuma, "voltdb"},
                      SolutionCase{SolutionKind::kAutoTiering, "spark"}),
    ::testing::PrintToStringParamName());

TEST(DriverTest, TwoTierHememRuns) {
  ExperimentConfig config = TinyConfig();
  config.two_tier = true;
  RunResult r = RunExperiment("gups", SolutionKind::kHemem, config);
  EXPECT_EQ(r.component_app_accesses.size(), 2u);
  EXPECT_GT(r.total_accesses, 0u);
}

TEST(DriverTest, TwoTierMtmRuns) {
  ExperimentConfig config = TinyConfig();
  config.two_tier = true;
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(r.migration_stats.bytes_migrated, Bytes{});
}

TEST(DriverTest, MtmAblationsRun) {
  ExperimentConfig config = TinyConfig();
  config.num_intervals = 5;
  config.mtm.adaptive_regions = false;
  RunResult no_amr = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(no_amr.total_accesses, 0u);

  config = TinyConfig();
  config.num_intervals = 5;
  config.mtm.use_pebs = false;
  RunResult no_pebs = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(no_pebs.total_accesses, 0u);

  config = TinyConfig();
  config.num_intervals = 5;
  config.mtm.mechanism = MechanismKind::kMmrSync;
  RunResult no_async = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(no_async.total_accesses, 0u);
  EXPECT_EQ(no_async.migration_stats.sync_fallbacks, 0u);
}

TEST(DriverTest, SlowTierFirstPlacementUsed) {
  // MTM starts in the slow tier; the very first interval's fast-tier
  // accesses should be near zero under slow-tier-first.
  ExperimentConfig config = TinyConfig();
  RunOptions options;
  options.record_intervals = true;
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, config, options);
  ASSERT_FALSE(r.intervals.empty());
  EXPECT_LT(r.intervals.front().fast_tier_accesses, r.total_accesses / 20);
}

TEST(DriverTest, MemoryOverheadTinyVsFootprint) {
  // Table 5: MTM metadata is a vanishing fraction of the working set.
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, TinyConfig());
  EXPECT_LT(static_cast<double>(r.profiler_memory_bytes.value()),
            0.01 * static_cast<double>(r.footprint_bytes.value()));
}

TEST(DriverTest, DeterministicAcrossRuns) {
  RunResult a = RunExperiment("cassandra", SolutionKind::kMtm, TinyConfig());
  RunResult b = RunExperiment("cassandra", SolutionKind::kMtm, TinyConfig());
  EXPECT_EQ(a.total_ns(), b.total_ns());
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.migration_stats.bytes_migrated, b.migration_stats.bytes_migrated);
}

// The bench runner: cells run in parallel must give what a serial loop over
// the same cells gives, in cell order.
using Cell = std::pair<std::string, SolutionKind>;

std::vector<std::string> RenderSerial(const std::vector<Cell>& cells,
                                      const ExperimentConfig& config) {
  std::vector<std::string> out;
  for (const Cell& cell : cells) {
    out.push_back(Render(RunExperiment(cell.first, cell.second, config), ReportFormat::kJson));
  }
  return out;
}

std::vector<std::string> RenderMatrix(const std::vector<Cell>& cells,
                                      const ExperimentConfig& config) {
  std::vector<std::string> out;
  for (const RunResult& r : benchutil::RunMatrix(cells, [&config](const Cell& cell) {
         return RunExperiment(cell.first, cell.second, config);
       })) {
    out.push_back(Render(r, ReportFormat::kJson));
  }
  return out;
}

TEST(RunMatrixTest, MatchesSerialLoopInCellOrder) {
  const ExperimentConfig config = TinyConfig();
  std::vector<Cell> cells;  // unequal costs, so threads finish out of order
  for (const char* workload : {"gups", "voltdb", "pingpong"}) {
    for (SolutionKind kind : {SolutionKind::kFirstTouch, SolutionKind::kHmc, SolutionKind::kMtm}) {
      cells.emplace_back(workload, kind);
    }
  }
  const std::vector<std::string> serial = RenderSerial(cells, config);
  EXPECT_EQ(RenderMatrix(cells, config), serial);
}

TEST(RunMatrixTest, ZeroAndOneCell) {
  const ExperimentConfig config = TinyConfig();
  EXPECT_TRUE(RenderMatrix({}, config).empty());
  const std::vector<Cell> one = {{"gups", SolutionKind::kMtm}};
  EXPECT_EQ(RenderMatrix(one, config), RenderSerial(one, config));
}

// voltdb at scale 64 with a 1 ms interval keeps ~1.6k regions against a
// budget of 69 page samples, where default-scale runs stay under budget.
// Sample selection then stops at the budget, quota redistribution takes its
// over-budget path and the split pass sees only sampled regions. The golden
// pins the CSV report and the final region table: start, end, sample quota
// and the bits of the WHI.
TEST(DriverTest, OverBudgetVoltDbMatchesGolden) {
  ExperimentConfig config;
  config.sim_scale = 64;
  config.interval_ns = Millis(1);
  config.num_intervals = 40;
  std::unique_ptr<Workload> workload =
      MakeWorkload("voltdb", config.sim_scale, config.num_threads, config.seed);
  Solution solution(SolutionKind::kMtm, config, *workload);
  const RunResult result = RunSimulation(*workload, solution, config);
  const auto& profiler = static_cast<const MtmProfiler&>(*solution.profiler());
  ASSERT_GT(profiler.regions().size(), profiler.NumPageSamples());

  std::ostringstream out;
  out << CsvHeader() << "\n" << Render(result, ReportFormat::kCsv) << "\n";
  out << std::hex;
  for (const Region& region : profiler.regions()) {
    u64 whi_bits = 0;
    std::memcpy(&whi_bits, &region.whi, sizeof(whi_bits));
    out << region.start.value() << " " << region.end.value() << " " << region.sample_quota
        << " " << whi_bits << "\n";
  }
  EXPECT_EQ(out.str(), ReadGolden("over_budget_voltdb.txt"));
}

}  // namespace
}  // namespace mtm
