// Figure 9: sensitivity to the merge/split thresholds (tau_m, tau_s), at
// num_scans = 3 and num_scans = 6 (VoltDB).
//
// Expected shape: the defaults tau_m = num_scans/3, tau_s = 2*num_scans/3
// — i.e. (1,2) and (2,4) — are the best configurations; aggressive merging
// (large tau_m) degrades profiling quality, aggressive splitting (small
// tau_s) inflates profiling time.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"

int main() {
  using namespace mtm;
  benchutil::PrintHeader("Figure 9", "sensitivity to (tau_m, tau_s) on VoltDB");

  struct Case {
    u32 num_scans;
    double tau_m;
    double tau_s;
  };
  const std::vector<Case> cases = {
      {3, 0, 3}, {3, 1, 1}, {3, 1, 2}, {3, 2, 0}, {3, 2, 1}, {3, 3, 0},
      {6, 0, 6}, {6, 2, 2}, {6, 2, 4}, {6, 4, 0}, {6, 4, 2}, {6, 6, 0},
  };
  const std::vector<RunResult> results = benchutil::RunMatrix(cases, [](const Case& c) {
    ExperimentConfig config = benchutil::DefaultConfig();
    config.target_accesses = 20'000'000;
    config.mtm.num_scans = c.num_scans;
    config.mtm.tau_m = c.tau_m;
    config.mtm.tau_s = c.tau_s;
    return RunExperiment("voltdb", SolutionKind::kMtm, config);
  });

  benchutil::Table table({"num_scans", "(tau_m,tau_s)", "app(s)", "profiling(s)",
                          "migration(s)", "total(s)"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const RunResult& r = results[i];
    char pair[32];
    std::snprintf(pair, sizeof(pair), "(%g,%g)", c.tau_m, c.tau_s);
    table.AddRow({benchutil::FmtU(c.num_scans), pair,
                  benchutil::Fmt("%.3f", ToSeconds(r.app_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.profiling_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.migration_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.total_ns()))});
  }
  std::printf("\n");
  table.Print();
  std::printf("expected shape: defaults (1,2) at num_scans=3 and (2,4) at num_scans=6 "
              "are best or near-best (paper: (1,2) wins by >=7%%)\n");
  return 0;
}
