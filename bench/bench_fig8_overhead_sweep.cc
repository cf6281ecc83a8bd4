// Figure 8: execution time vs the profiling-overhead target (VoltDB, 5 s
// profiling interval).
//
// Expected shape: performance improves as the target grows from 1% toward
// 5% (more samples, better placement), then degrades toward 10% (profiling
// itself eats the gains) — 5% is the sweet spot the paper adopts.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/obs/metric_id.h"
#include "src/obs/obs.h"

namespace {

// Host wall-clock histogram recorded by an MTM_TRACE_SCOPE site (µs/call).
const mtm::RunningStats& WallHist(const mtm::Observability& obs, const std::string& name) {
  mtm::MetricId id = obs.metrics.Find(name);
  MTM_CHECK(id != mtm::kInvalidMetricId) << "wall timer not recorded: " << name;
  return obs.metrics.histogram(id);
}

}  // namespace

int main() {
  using namespace mtm;
  benchutil::PrintHeader("Figure 8", "execution time vs profiling-overhead target (VoltDB)");

  // Wall columns: host µs/call of the MTM_TRACE_SCOPE sites around the PTE
  // scan tick and the interval-end bookkeeping — the simulator's own cost
  // of profiling, alongside the simulated-time overhead the figure sweeps.
  benchutil::Table table({"target", "app(s)", "profiling(s)", "migration(s)", "total(s)",
                          "scan wall(µs)", "intvl wall(µs)"});
  for (double target : {0.01, 0.02, 0.03, 0.05, 0.10}) {
    ExperimentConfig config = benchutil::DefaultConfig();
    config.interval_ns = Seconds(5) / config.sim_scale;  // the figure's 5 s interval
    config.mtm.overhead_fraction = target;
    Observability obs;
    obs.wall_timers = true;
    RunOptions options;
    options.obs = &obs;
    RunResult r = RunExperiment("voltdb", SolutionKind::kMtm, config, options);
    const RunningStats& scan = WallHist(obs, "wall/scan_tick");
    const RunningStats& intvl = WallHist(obs, "wall/interval_end");
    table.AddRow({benchutil::Fmt("%.0f%%", target * 100.0),
                  benchutil::Fmt("%.3f", ToSeconds(r.app_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.profiling_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.migration_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.total_ns())),
                  benchutil::Fmt("%.1f", scan.mean()) + " x" + benchutil::FmtU(scan.count()),
                  benchutil::Fmt("%.1f", intvl.mean()) + " x" +
                      benchutil::FmtU(intvl.count())});
    std::printf("[%.0f%% done]\n", target * 100.0);
  }
  std::printf("\n");
  table.Print();
  std::printf("expected shape: best total around the 5%% target; 10%% pays more profiling "
              "than it recovers (paper: +7%% from 5%% to 10%%)\n");
  return 0;
}
