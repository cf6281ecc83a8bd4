// The §9 overall evaluation: Figure 4, Figure 5 and Tables 3, 6 and 7 read
// one run per (Table-2 workload, Figure-4 solution) cell. The 36 cells run
// once each, in parallel, before anything prints. Expected shapes:
//  * Fig 4: MTM is the best (or tied-best) bar on every workload, 15-25%
//    ahead on average; tiered-AutoNUMA is often worse than first-touch.
//  * Fig 5: profiling stays within 5%; MTM spends ~3.5x less in migration
//    than tiered-AutoNUMA and ~25% less than AutoTiering.
//  * Table 3: patched tiered-AutoNUMA and MTM identify far more hot volume
//    than the vanilla two-touch filter; MTM gets the most fast-tier accesses.
//  * Table 6: on VoltDB, MTM serves the most accesses from tier 1 (12-14%
//    more in the paper) and nearly starves tier 4.
//  * Table 7: region merge/split churn is a few percent of the region count.
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/sim/machine.h"
#include "src/workloads/workload_factory.h"

int main() {
  using namespace mtm;
  using benchutil::Fmt;
  using Cell = std::pair<std::string, SolutionKind>;  // (workload, solution)
  const ExperimentConfig config = benchutil::DefaultConfig();
  const std::vector<std::string> workloads = AllWorkloadNames();
  std::vector<Cell> cells;
  for (const std::string& workload : workloads) {
    for (SolutionKind kind : Figure4Solutions()) {
      cells.emplace_back(workload, kind);
    }
  }
  RunOptions options;
  options.record_intervals = true;  // Table 7 counts the intervals
  std::vector<RunResult> results = benchutil::RunMatrix(cells, [&](const Cell& cell) {
    return RunExperiment(cell.first, cell.second, config, options);
  });
  std::map<Cell, RunResult> runs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    runs.emplace(cells[i], std::move(results[i]));
  }
  auto section = [&config](const char* experiment, const char* description) {
    benchutil::PrintHeader(experiment, description);
    benchutil::PrintConfig(config);
  };

  section("Figure 4", "overall execution time, normalized to first-touch NUMA");
  benchutil::Table fig4({"workload", "first-touch", "hmc", "vanilla-tANUMA", "tiered-ANUMA",
                         "autotiering", "mtm"});
  double gain_ft = 0.0;
  double gain_tanuma = 0.0;
  double gain_at = 0.0;
  for (const std::string& workload : workloads) {
    auto seconds = [&](SolutionKind kind) {
      return ToSeconds(runs.at({workload, kind}).total_ns());
    };
    const double base = seconds(SolutionKind::kFirstTouch);
    const double mtm = seconds(SolutionKind::kMtm);
    const double tanuma = seconds(SolutionKind::kTieredAutoNuma);
    const double at = seconds(SolutionKind::kAutoTiering);
    gain_ft += (base - mtm) / base * 100.0;
    gain_tanuma += (tanuma - mtm) / tanuma * 100.0;
    gain_at += (at - mtm) / at * 100.0;
    fig4.AddRow({workload, Fmt("%.2fs", base), Fmt("%.3f", seconds(SolutionKind::kHmc) / base),
                 Fmt("%.3f", seconds(SolutionKind::kVanillaTieredAutoNuma) / base),
                 Fmt("%.3f", tanuma / base), Fmt("%.3f", at / base), Fmt("%.3f", mtm / base)});
  }
  std::printf("\n");
  fig4.Print();
  const double n = static_cast<double>(workloads.size());
  std::printf("MTM average gain: vs first-touch %+.1f%%, vs tiered-AutoNUMA %+.1f%%, "
              "vs AutoTiering %+.1f%%\n(paper: 22%%, 20%%, 17%% respectively)\n",
              gain_ft / n, gain_tanuma / n, gain_at / n);

  section("Figure 5", "execution-time breakdown (app / profiling / migration), seconds");
  benchutil::Table fig5(
      {"workload", "solution", "app(s)", "profiling(s)", "migration(s)", "total(s)"});
  for (const std::string& workload : workloads) {
    for (SolutionKind kind : {SolutionKind::kFirstTouch, SolutionKind::kTieredAutoNuma,
                              SolutionKind::kAutoTiering, SolutionKind::kMtm}) {
      const RunResult& r = runs.at({workload, kind});
      fig5.AddRow({workload, SolutionKindName(kind), Fmt("%.3f", ToSeconds(r.app_ns)),
                   Fmt("%.3f", ToSeconds(r.profiling_ns)), Fmt("%.3f", ToSeconds(r.migration_ns)),
                   Fmt("%.3f", ToSeconds(r.total_ns()))});
    }
  }
  std::printf("\n");
  fig5.Print();

  section("Table 3", "hot volume identified & fast-tier accesses");
  benchutil::Table table3(
      {"workload", "solution", "avg hot volume (MiB)", "fast-tier accesses (M)"});
  for (const std::string& workload : workloads) {
    for (SolutionKind kind : {SolutionKind::kVanillaTieredAutoNuma,
                              SolutionKind::kTieredAutoNuma, SolutionKind::kMtm}) {
      const RunResult& r = runs.at({workload, kind});
      table3.AddRow({workload, SolutionKindName(kind),
                     Fmt("%.1f", ToMiB(BytesFromDouble(r.avg_hot_bytes))),
                     Fmt("%.1f", static_cast<double>(r.component_app_accesses[0]) / 1e6)});
    }
  }
  std::printf("\n");
  table3.Print();

  // Table 6 reports components in socket-0 tier order (the clients' view,
  // as in the paper's setup).
  section("Table 6", "per-tier application accesses, VoltDB (PCM-style counting)");
  benchutil::Table table6({"solution", "tier1 (M)", "tier2 (M)", "tier3 (M)", "tier4 (M)"});
  const Machine machine = Machine::OptaneFourTier(config.sim_scale);
  for (SolutionKind kind :
       {SolutionKind::kTieredAutoNuma, SolutionKind::kAutoTiering, SolutionKind::kMtm}) {
    const RunResult& r = runs.at({"voltdb", kind});
    std::vector<std::string> row = {SolutionKindName(kind)};
    for (ComponentId c : machine.TierOrder(0)) {
      row.push_back(Fmt("%.2f", static_cast<double>(r.component_app_accesses[c.value()]) / 1e6));
    }
    table6.AddRow(row);
  }
  table6.Print();

  section("Table 7", "MTM region-formation statistics per profiling interval");
  benchutil::Table table7({"workload", "intervals", "avg merged/PI", "avg split/PI",
                           "avg regions/PI", "churn (%)"});
  for (const std::string& workload : workloads) {
    const RunResult& r = runs.at({workload, SolutionKind::kMtm});
    double churn = r.avg_num_regions == 0.0
                       ? 0.0
                       : 100.0 * (r.avg_regions_merged + r.avg_regions_split) /
                             r.avg_num_regions;
    table7.AddRow({workload, benchutil::FmtU(r.intervals.size()),
                   Fmt("%.1f", r.avg_regions_merged), Fmt("%.1f", r.avg_regions_split),
                   Fmt("%.0f", r.avg_num_regions), Fmt("%.1f", churn)});
  }
  table7.Print();
  std::printf("expected shape: churn a few percent of the region count per interval "
              "(paper: 3.4%% average)\n");
  return 0;
}
