#include "traced_run.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "src/common/stats.h"
#include "src/mem/address_space.h"
#include "src/migration/policy.h"
#include "src/profiling/profiler.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/page_table.h"

namespace mtm::perfbench {
namespace {

using HostClock = std::chrono::steady_clock;

// Adds the host time of its scope to `total_ns`.
class Span {
 public:
  explicit Span(u64& total_ns) : total_ns_(total_ns), start_(HostClock::now()) {}
  ~Span() {
    total_ns_ += static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() - start_)
            .count());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  u64& total_ns_;
  HostClock::time_point start_;
};

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "workloads.next_batch",     "sim.apply",
      "migration.poll",           "sim.prefault",
      "sim.tracker_reset",        "profiling.interval_start",
      "profiling.scan_tick",      "profiling.interval_end",
      "migration.decide",         "migration.begin_interval",
      "migration.submit",         "migration.flush",
  };
  return kNames[layer];
}

double TraceProfile::UnattributedShare() const {
  u64 covered = 0;
  for (u64 layer_ns : ns) {
    covered += layer_ns;
  }
  return wall_ns == 0 ? 0.0
                      : 1.0 - static_cast<double>(covered) / static_cast<double>(wall_ns);
}

// Mirrors RunSimulation (src/core/driver.cc) with no fault injector, no
// observability, no exporters and no per-interval records, and fills only
// the RunResult fields the benchmark reads. Keep the two in step: the
// coverage check fails when they diverge.
RunResult RunTraced(Workload& workload, Solution& solution, const ExperimentConfig& config,
                    TraceProfile& profile) {
  Span wall(profile.wall_ns);
  RunResult result;

  const SimNanos interval_ns = config.IntervalNs();
  const u32 ticks = std::max<u32>(1, config.mtm.num_scans);
  SimClock& clock = solution.clock();
  AccessEngine& engine = solution.engine();
  Profiler* profiler = solution.profiler();
  TieringPolicy* policy = solution.policy();
  MigrationEngine* migration = solution.migration();

  PolicyContext ctx;
  ctx.machine = &solution.machine();
  ctx.page_table = &solution.page_table();
  ctx.frames = &solution.frames();
  ctx.interval_ns = interval_ns;
  if (migration != nullptr) {
    ctx.history = &migration->history();
  }

  constexpr u32 kBatch = 2048;
  std::array<MemAccess, kBatch> batch;

  {
    Span span(profile.ns[kPrefault]);
    u32 rr = 0;
    for (const Vma& vma : solution.address_space().vmas()) {
      if (!vma.prefault) {
        continue;
      }
      const u64 step = vma.thp ? kHugePageSize : kPageSize;
      for (VirtAddr addr = vma.start; addr < vma.end(); addr += step) {
        engine.Apply(addr, /*is_write=*/true, solution.SocketOfThread(rr++));
      }
    }
    solution.tracker().ResetEpoch();
    for (const Vma& vma : solution.address_space().vmas()) {
      solution.page_table().ForEachMapping(vma.start, vma.len, [](VirtAddr, Bytes, Pte& pte) {
        pte.Clear(Pte::kAccessed);
        pte.Clear(Pte::kDirty);
      });
    }
  }

  RunningStats regions_stats;

  for (u32 interval = 0; interval < config.num_intervals; ++interval) {
    if (config.target_accesses != 0 && result.total_accesses >= config.target_accesses) {
      break;
    }
    ++profile.intervals;
    if (profiler != nullptr) {
      Span span(profile.ns[kIntervalStart]);
      profiler->OnIntervalStart();
    }
    if (migration != nullptr) {
      Span span(profile.ns[kBeginInterval]);
      migration->BeginInterval();
    }
    const SimNanos interval_start = clock.now();
    for (u32 tick = 0; tick < ticks; ++tick) {
      const SimNanos tick_end =
          interval_start + (static_cast<u64>(tick) + 1) * interval_ns / ticks;
      while (clock.now() < tick_end) {
        u32 n = 0;
        {
          Span span(profile.ns[kNextBatch]);
          n = workload.NextBatch(batch.data(), kBatch);
        }
        {
          Span span(profile.ns[kApply]);
          for (u32 i = 0; i < n; ++i) {
            engine.Apply(batch[i].addr, batch[i].is_write,
                         solution.SocketOfThread(batch[i].thread));
          }
        }
        result.total_accesses += n;
        ++profile.batches;
        if (migration != nullptr) {
          Span span(profile.ns[kPoll]);
          migration->Poll();
        }
      }
      if (profiler != nullptr) {
        Span span(profile.ns[kScanTick]);
        profiler->OnScanTick(tick);
      }
    }

    if (profiler != nullptr) {
      ProfileOutput out;
      {
        Span span(profile.ns[kIntervalEnd]);
        out = profiler->OnIntervalEnd();
      }
      clock.AdvanceProfiling(out.profiling_cost_ns);
      profile.pte_scans += out.pte_scans;
      profile.regions_split += out.regions_split;
      profile.regions_merged += out.regions_merged;
      regions_stats.Add(static_cast<double>(out.num_regions));

      ctx.now = clock.now();
      if (policy != nullptr && migration != nullptr) {
        std::vector<MigrationOrder> orders;
        {
          Span span(profile.ns[kDecide]);
          orders = policy->Decide(out, ctx);
        }
        profile.orders += orders.size();
        Span span(profile.ns[kSubmit]);
        migration->SubmitAll(orders);
      }
    }
    Span span(profile.ns[kTrackerReset]);
    solution.tracker().ResetEpoch();
  }

  if (migration != nullptr) {
    {
      Span span(profile.ns[kFlush]);
      migration->Flush();
    }
    result.migration_stats = migration->stats();
  }
  result.app_ns = clock.app_ns();
  result.profiling_ns = clock.profiling_ns();
  result.migration_ns = clock.migration_ns();
  for (ComponentId c{0}; c < solution.machine().end_component(); ++c) {
    result.component_app_accesses.push_back(solution.counters().app_accesses(c));
  }
  result.avg_num_regions = regions_stats.mean();
  return result;
}

}  // namespace mtm::perfbench
