#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "src/common/units.h"

namespace mtm::perfbench {
namespace {

// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(u64 word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // The access path: Box-Muller generation and Apply dominate; the
      // control plane runs once per 19.5 ms simulated interval.
      {"gups-replay", "gups", 512, SimNanos{}, 100'000, 30'000'000},
      // The control plane: a 1 ms interval over a 37.5 GiB footprint runs
      // profiling, policy and migration every few thousand accesses.
      {"voltdb-daemon", "voltdb", 8, Millis(1), 100'000, 1'500'000},
      // Read-only traversal of a large graph: async copies always commit,
      // and graph construction dominates set-up and memory.
      {"bfs-readonly", "bfs", 128, Millis(1), 100'000, 30'000'000},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

WorkloadSpec Reduced(const WorkloadSpec& spec) {
  WorkloadSpec small = spec;
  small.sim_scale = std::max<u64>(spec.sim_scale, 128) * 4;
  if (spec.target_accesses != 0) {
    small.target_accesses = std::min<u64>(spec.target_accesses, 2'000'000);
  } else {
    small.num_intervals = std::min<u32>(spec.num_intervals, 40);
  }
  return small;
}

ExperimentConfig MakeConfig(const WorkloadSpec& spec, u64 seed) {
  ExperimentConfig config;
  config.sim_scale = spec.sim_scale;
  config.interval_ns = spec.interval_ns;
  config.num_intervals = spec.num_intervals;
  config.target_accesses = spec.target_accesses;
  config.seed = seed;
  return config;
}

u64 Fingerprint(const RunResult& result) {
  Hasher h;
  h.Add(result.app_ns.value());
  h.Add(result.profiling_ns.value());
  h.Add(result.migration_ns.value());
  h.Add(result.total_accesses);
  const MigrationStats& ms = result.migration_stats;
  h.Add(ms.bytes_migrated.value());
  h.Add(ms.regions_migrated);
  h.Add(ms.copy_checksum);
  h.Add(ms.async_copies);
  h.Add(ms.sync_fallbacks);
  for (u64 accesses : result.component_app_accesses) {
    h.Add(accesses);
  }
  return h.value();
}

double FastTierShare(const RunResult& result, const Solution& solution) {
  const ComponentId fast = solution.machine().TierOrder(0)[0];
  u64 total = 0;
  for (u64 accesses : result.component_app_accesses) {
    total += accesses;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(result.component_app_accesses[fast.value()]) /
                          static_cast<double>(total);
}

u64 PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

}  // namespace mtm::perfbench
