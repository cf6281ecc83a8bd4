// The simulation driver: runs a workload under a solution for a number of
// profiling intervals, orchestrating the §8 daemon loop — profile at scan
// ticks, decide at interval end, migrate — and collecting everything the
// paper's tables and figures report.
#pragma once

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/migration/admission/admission.h"
#include "src/migration/features.h"
#include "src/migration/migration_engine.h"
#include "src/obs/obs.h"
#include "src/profiling/oracle.h"
#include "src/workloads/workload.h"

namespace mtm {

struct IntervalRecord {
  SimNanos end_time_ns;
  ProfilingQuality quality;  // populated when the workload has ground truth
  Bytes hot_bytes;
  u64 fast_tier_accesses = 0;  // app accesses to tier 1 (socket-0 view)
  u64 regions_merged = 0;
  u64 regions_split = 0;
  u64 num_regions = 0;
};

// Chaos-run outcome: what was injected and whether the system stayed
// consistent. All-zero (active == false) for fault-free runs.
struct FaultSummary {
  bool active = false;           // a fault_spec was armed for this run
  u64 copy_failures = 0;         // injected at the migration copy site
  u64 remap_failures = 0;
  u64 alloc_failures = 0;
  u64 pebs_drops = 0;            // injected PEBS sample drops
  u64 tier_events = 0;           // scheduled degradations fired
  u64 invariant_violations = 0;  // post-interval VerifyInvariants failures
  std::string first_violation;   // message of the first failed audit
};

struct RunResult {
  std::string solution;
  std::string workload;

  SimNanos app_ns;
  SimNanos profiling_ns;
  SimNanos migration_ns;
  u64 total_accesses = 0;

  std::vector<u64> component_app_accesses;  // per component, app only
  MigrationStats migration_stats;
  // Admission-stage outcome. admission_active only when a controller other
  // than vanilla was armed; reports gate their admission sections on it so
  // vanilla output stays byte-identical to the pre-admission format.
  AdmissionStats admission_stats;
  std::string admission;  // controller name; empty when the run had no stage
  bool admission_active = false;
  // Tiering-policy identity. policy_overridden only when --policy swapped
  // the solution's default; reports gate their policy line on it so default
  // runs stay byte-identical to the pre-registry format.
  std::string policy;  // empty when the solution has no policy
  bool policy_overridden = false;
  FaultSummary faults;
  Bytes profiler_memory_bytes;
  Bytes footprint_bytes;

  double avg_hot_bytes = 0.0;
  double avg_regions_merged = 0.0;
  double avg_regions_split = 0.0;
  double avg_num_regions = 0.0;

  std::vector<IntervalRecord> intervals;  // populated when record_intervals

  SimNanos total_ns() const { return app_ns + profiling_ns + migration_ns; }
  double AccessesPerSecond() const {
    return total_ns().IsZero() ? 0.0
                               : static_cast<double>(total_accesses) /
                                     (static_cast<double>(total_ns().value()) / 1e9);
  }
};

struct RunOptions {
  bool record_intervals = false;
  bool evaluate_quality = false;  // per-interval oracle recall/accuracy
  // When non-null, the run records metrics, sim-time trace spans, and one
  // timeline snapshot per interval into the bundle (see src/obs/obs.h).
  Observability* obs = nullptr;
  // When non-null, each profiled interval streams per-region training rows
  // (--policy-features-out) / a hotness heatmap line (--heatmap-out) into
  // the exporter. Both read the decision before migration executes it.
  FeatureExporter* feature_export = nullptr;
  HeatmapExporter* heatmap_export = nullptr;
};

// Application initialization, the first step of RunSimulation: faults every
// prefault VMA in, in address order, the i-th mapping from the socket of
// thread i, as real initialization loops do. This is where first-touch
// placement decisions happen. No accessed or dirty bit is left set and the
// tracker counts none of these writes, so the first profiling interval
// observes the access phase, not this loop.
void PrefaultWorkingSet(Solution& solution);

RunResult RunSimulation(Workload& workload, Solution& solution,
                        const ExperimentConfig& config, const RunOptions& options = {});

// Convenience: build the workload + solution and run.
RunResult RunExperiment(const std::string& workload_name, SolutionKind kind,
                        const ExperimentConfig& config, const RunOptions& options = {});

}  // namespace mtm
