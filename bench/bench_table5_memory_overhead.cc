// Table 5: extra memory used by MTM for memory management, per workload.
//
// Expected shape: region metadata plus the address-range index stays a
// vanishing fraction (<0.01% in the paper) of the workload footprint.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/workloads/workload_factory.h"

int main() {
  using namespace mtm;
  ExperimentConfig config = benchutil::DefaultConfig();
  config.target_accesses = 10'000'000;  // overhead stabilizes quickly
  benchutil::PrintHeader("Table 5", "MTM memory-management metadata overhead");
  benchutil::PrintConfig(config);

  const std::vector<RunResult> results =
      benchutil::RunMatrix(AllWorkloadNames(), [&config](const std::string& workload) {
        return RunExperiment(workload, SolutionKind::kMtm, config);
      });

  benchutil::Table table(
      {"workload", "workload memory", "mtm overhead", "fraction"});
  for (const RunResult& r : results) {
    table.AddRow({r.workload, benchutil::Fmt("%.0f MiB", ToMiB(r.footprint_bytes)),
                  benchutil::Fmt("%.1f KiB", static_cast<double>(r.profiler_memory_bytes.value()) / 1024.0),
                  benchutil::Fmt("%.4f%%", 100.0 * static_cast<double>(r.profiler_memory_bytes.value()) /
                                               static_cast<double>(r.footprint_bytes.value()))});
  }
  table.Print();
  std::printf("expected shape: overhead well below 0.01%% of workload memory "
              "(paper: 100-250 MB against 300-525 GB)\n");
  return 0;
}
