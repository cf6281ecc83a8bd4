// Table 4: GUPS execution time under MTM with two initial placements —
// slow-tier-first (MTM's default) vs first-touch — across increasing
// amounts of work.
//
// Expected shape: a small difference at the start of execution (~5% in the
// paper) that becomes negligible as the run progresses, because MTM
// promotes the hot set regardless of where it started.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/mem/placement.h"

int main() {
  using namespace mtm;
  benchutil::PrintHeader("Table 4", "GUPS time vs initial page placement (MTM)");

  const u64 works[] = {6'000'000, 12'000'000, 18'000'000, 24'000'000, 30'000'000};
  std::vector<std::pair<u64, PlacementPolicy>> cells;  // (work, initial placement)
  for (u64 work : works) {
    cells.emplace_back(work, PlacementPolicy::kSlowTierFirst);
    cells.emplace_back(work, PlacementPolicy::kFirstTouch);
  }
  const std::vector<double> seconds =
      benchutil::RunMatrix(cells, [](const std::pair<u64, PlacementPolicy>& cell) {
        ExperimentConfig config = benchutil::DefaultConfig();
        config.target_accesses = cell.first;
        config.mtm.placement = cell.second;
        return ToSeconds(RunExperiment("gups", SolutionKind::kMtm, config).total_ns());
      });

  benchutil::Table table({"work (M accesses)", "slow-tier-first (s)", "first-touch (s)",
                          "difference"});
  for (std::size_t i = 0; i < std::size(works); ++i) {
    double s = seconds[2 * i];
    double f = seconds[2 * i + 1];
    table.AddRow({benchutil::FmtU(works[i] / 1'000'000), benchutil::Fmt("%.3f", s),
                  benchutil::Fmt("%.3f", f),
                  benchutil::Fmt("%+.1f%%", (s - f) / f * 100.0)});
  }
  table.Print();
  std::printf("expected shape: small early difference, converging as GUPS progresses "
              "(paper: 4.9%% at 1000 GUp, 0%% beyond 3000 GUp)\n");
  return 0;
}
