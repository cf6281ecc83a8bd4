// Figure 14 (extension): the policy-as-plugin registry on a Table-2
// workload. Every row swaps only the tiering policy — profiling and
// migration stay MTM's — via --policy-style overrides, plus the standalone
// baseline solutions for reference:
//
//  * mtm (full)       the default heuristic (WHI histogram policy);
//  * logistic         the fitted logistic scorer over the full feature
//                     vector (tools/fit_logistic_policy.py);
//  * autonuma/autotiering swapped into the MTM stack via the registry;
//  * tiered-autonuma / autotiering as whole solutions (Figure 4 baselines).
//
// Expected shape: logistic lands close to the heuristic and ahead of the
// swapped-in and standalone baselines.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"

int main() {
  using namespace mtm;
  ExperimentConfig base = benchutil::DefaultConfig();
  benchutil::PrintHeader("Figure 14", "pluggable tiering policies on VoltDB (seconds)");
  benchutil::PrintConfig(base);

  struct Row {
    const char* name;
    SolutionKind kind;
    std::string policy;
  };
  const std::vector<Row> rows = {
      {"mtm (full)", SolutionKind::kMtm, ""},
      {"logistic (fitted)", SolutionKind::kMtm, "logistic"},
      {"autonuma policy in mtm stack", SolutionKind::kMtm, "autonuma"},
      {"autotiering policy in mtm stack", SolutionKind::kMtm, "autotiering"},
      {"tiered-autonuma (solution)", SolutionKind::kTieredAutoNuma, ""},
      {"autotiering (solution)", SolutionKind::kAutoTiering, ""},
  };
  const std::vector<RunResult> results = benchutil::RunMatrix(rows, [&base](const Row& row) {
    ExperimentConfig config = base;
    config.policy_override = row.policy;
    return RunExperiment("voltdb", row.kind, config);
  });

  benchutil::Table table({"policy", "app(s)", "total(s)", "fast-tier %", "moved(MiB)",
                          "vs mtm"});
  const double mtm_total = ToSeconds(results[0].total_ns());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = results[i];
    double total = ToSeconds(r.total_ns());
    double fast_share = 0.0;
    if (!r.component_app_accesses.empty() && r.total_accesses > 0) {
      fast_share = static_cast<double>(r.component_app_accesses[0]) /
                   static_cast<double>(r.total_accesses) * 100.0;
    }
    table.AddRow({rows[i].name, benchutil::Fmt("%.3f", ToSeconds(r.app_ns)),
                  benchutil::Fmt("%.3f", total), benchutil::Fmt("%.1f", fast_share),
                  benchutil::Fmt("%.1f", ToMiB(r.migration_stats.bytes_migrated)),
                  benchutil::Fmt("%+.1f%%", (total - mtm_total) / mtm_total * 100.0)});
  }

  std::printf("\n");
  table.Print();
  return 0;
}
