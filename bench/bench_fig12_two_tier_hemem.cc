// Figure 12: MTM vs HeMem on a two-tiered machine (single socket, DRAM +
// PM), running GUPS with 16 and 24 threads while the working-set size
// sweeps across the fast-memory capacity.
//
// Expected shape: below ratio 1.0 (working set fits in DRAM) the two are
// close; past 1.0 HeMem fails to sustain throughput at 24 threads while
// MTM keeps 24 > 16 threads — MTM's profiling adapts faster and finds more
// hot pages than HeMem's PEBS-only sampling.
#include <cstdio>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/mem/placement.h"
#include "src/sim/machine.h"
#include "src/workloads/gups.h"

namespace mtm {
namespace {

constexpr u64 kScale = 512;

double RunGups(SolutionKind kind, Bytes footprint, u32 threads) {
  ExperimentConfig config;
  config.sim_scale = kScale;
  config.two_tier = true;
  config.num_threads = threads;
  config.num_intervals = 400;
  config.target_accesses = 12'000'000;
  config.seed = 42;
  // Both systems allocate first-touch here so the comparison isolates the
  // profiling and migration designs, not the initial placement.
  config.mtm.placement = PlacementPolicy::kFirstTouch;

  Workload::Params params;
  params.footprint_bytes = footprint;
  params.num_threads = threads;
  params.seed = 42;
  GupsWorkload gups(params);
  Solution solution(kind, config, gups);
  RunResult r = RunSimulation(gups, solution, config);
  // GUPS throughput: giga-updates/s scaled; report accesses/sim-second.
  return r.AccessesPerSecond() / 1e6;
}

}  // namespace
}  // namespace mtm

int main() {
  using namespace mtm;
  benchutil::PrintHeader("Figure 12", "two-tier GUPS throughput vs working-set/DRAM ratio");

  Machine machine = Machine::TwoTier(kScale);
  const Bytes dram = machine.component(machine.TierOrder(0)[0]).capacity_bytes;
  std::printf("DRAM tier: %.0f MiB (scaled 96 GB)\n\n", ToMiB(dram));

  const double ratios[] = {0.5, 0.8, 1.2, 1.6, 2.4, 3.2};
  std::vector<std::tuple<SolutionKind, Bytes, u32>> cells;  // four columns per ratio
  for (double ratio : ratios) {
    Bytes footprint = HugeAlignUp(BytesFromDouble(static_cast<double>(dram.value()) * ratio));
    for (SolutionKind kind : {SolutionKind::kHemem, SolutionKind::kMtm}) {
      for (u32 threads : {16u, 24u}) {
        cells.emplace_back(kind, footprint, threads);
      }
    }
  }
  const std::vector<double> t =
      benchutil::RunMatrix(cells, [](const auto& cell) { return std::apply(RunGups, cell); });

  benchutil::Table table({"ws/dram", "hemem-16t", "hemem-24t", "mtm-16t", "mtm-24t"});
  for (std::size_t i = 0; i < std::size(ratios); ++i) {
    table.AddRow({benchutil::Fmt("%.1f", ratios[i]), benchutil::Fmt("%.1f", t[4 * i]),
                  benchutil::Fmt("%.1f", t[4 * i + 1]), benchutil::Fmt("%.1f", t[4 * i + 2]),
                  benchutil::Fmt("%.1f", t[4 * i + 3])});
  }
  std::printf("\nthroughput in M accesses per simulated second (higher is better)\n\n");
  table.Print();
  std::printf("expected shape: near parity while the working set fits DRAM; past 1.0 MTM "
              "sustains 24t > 16t\nwhile HeMem degrades at 24t (PEBS-only profiling misses "
              "hot pages).\n");
  return 0;
}
