// Figure 10: sensitivity to the EMA weight alpha (Equation 2), normalized
// to the default alpha = 1/2, for all six workloads.
//
// Expected shape: combining current and historical profiling (alpha between
// the extremes) is best for most workloads; alpha = 0 (history only) and
// alpha = 1 (no history) both lose on workloads with drifting hot sets.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/workloads/workload_factory.h"

int main() {
  using namespace mtm;
  benchutil::PrintHeader("Figure 10", "performance vs EMA weight alpha (normalized to alpha=1/2)");

  const double alphas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<std::string> workloads = AllWorkloadNames();
  std::vector<std::pair<std::string, double>> cells;  // (workload, alpha)
  for (const std::string& workload : workloads) {
    for (double alpha : alphas) {
      cells.emplace_back(workload, alpha);
    }
  }
  const std::vector<double> totals =
      benchutil::RunMatrix(cells, [](const std::pair<std::string, double>& cell) {
        ExperimentConfig config = benchutil::DefaultConfig();
        config.target_accesses = 20'000'000;
        config.mtm.alpha = cell.second;
        return ToSeconds(RunExperiment(cell.first, SolutionKind::kMtm, config).total_ns());
      });

  benchutil::Table table({"workload", "a=0", "a=1/4", "a=1/2", "a=3/4", "a=1"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const double* t = &totals[w * 5];
    double base = t[2];  // alpha = 1/2
    table.AddRow({workloads[w], benchutil::Fmt("%.3f", base / t[0]),
                  benchutil::Fmt("%.3f", base / t[1]), benchutil::Fmt("%.3f", base / t[2]),
                  benchutil::Fmt("%.3f", base / t[3]), benchutil::Fmt("%.3f", base / t[4])});
  }
  std::printf("\n");
  table.Print();
  std::printf("values are speedups relative to alpha=1/2 (1.000 = default; <1 = slower)\n");
  return 0;
}
