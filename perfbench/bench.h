// The benchmark's workloads and the output checks shared by the untraced
// and traced runs.
//
// Every workload runs under the mtm solution at its default settings (one
// scan thread, one copy thread, the mtm policy, vanilla admission) with
// observability off, through the library API: no flag parsing.
#pragma once

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"

namespace mtm::perfbench {

struct WorkloadSpec {
  std::string name;          // benchmark workload name
  std::string sim_workload;  // MakeWorkload name
  u64 sim_scale = 512;
  SimNanos interval_ns;      // zero: the paper's 10 s divided by the scale
  u32 num_intervals = 0;     // fixed interval count, or a cap under target_accesses
  u64 target_accesses = 0;   // fixed work; zero runs num_intervals
};

// gups-replay, voltdb-daemon, bfs-readonly at benchmark size.
const std::vector<WorkloadSpec>& Workloads();

// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

// The same workload shrunk to well under a second, for the coverage check.
WorkloadSpec Reduced(const WorkloadSpec& spec);

ExperimentConfig MakeConfig(const WorkloadSpec& spec, u64 seed);

// Hash of the simulated outputs: app/profiling/migration ns, accesses,
// migrated bytes and regions, copy checksum, async and sync copies, and
// per-component app accesses. Two runs agree on it only if they simulated
// the same thing.
u64 Fingerprint(const RunResult& result);

// Share of all app accesses served by socket 0's fastest tier (Table 6).
double FastTierShare(const RunResult& result, const Solution& solution);

// Peak resident set of this process in KiB (VmHWM), or 0 when unknown.
u64 PeakRssKib();

}  // namespace mtm::perfbench
