// The traced replica of RunSimulation's fault-free, observability-off loop.
//
// It calls the same public layer APIs in the same order as src/core/driver.cc
// and puts a host timer around each call, so it must reproduce the untraced
// run's simulated outputs exactly; the benchmark checks that it does by
// comparing fingerprints. Per-access layers are timed per batch of 2048
// accesses, not per access.
#pragma once

#include <array>

#include "src/common/types.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/workloads/workload.h"

namespace mtm::perfbench {

enum Layer : int {
  kNextBatch,      // Workload::NextBatch
  kApply,          // AccessEngine::Apply over one batch
  kPoll,           // MigrationEngine::Poll after each batch
  kPrefault,       // the initialization fault-in loop and bit clearing
  kTrackerReset,   // AccessTracker::ResetEpoch at each interval end
  kIntervalStart,  // Profiler::OnIntervalStart
  kScanTick,       // Profiler::OnScanTick
  kIntervalEnd,    // Profiler::OnIntervalEnd
  kDecide,         // TieringPolicy::Decide
  kBeginInterval,  // MigrationEngine::BeginInterval
  kSubmit,         // MigrationEngine::SubmitAll, admission included
  kFlush,          // MigrationEngine::Flush
  kNumLayers,
};

// Metric-name stem of each layer, e.g. "sim.apply".
const char* LayerName(Layer layer);

struct TraceProfile {
  std::array<u64, kNumLayers> ns{};
  u64 wall_ns = 0;  // the whole replica call
  u64 batches = 0;
  u64 intervals = 0;
  // Exact counts RunResult does not carry.
  u64 pte_scans = 0;
  u64 orders = 0;
  u64 regions_split = 0;
  u64 regions_merged = 0;

  double UnattributedShare() const;
};

RunResult RunTraced(Workload& workload, Solution& solution, const ExperimentConfig& config,
                    TraceProfile& profile);

}  // namespace mtm::perfbench
