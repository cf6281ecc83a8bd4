// Experiment configuration: the paper's testbed constants, divided by a
// single simulation scale factor that shrinks capacities, footprints, the
// profiling interval, and the promotion batch together — preserving every
// ratio the evaluation depends on (§9 setup: 10 s interval, 5% overhead
// target, num_scans 3, N = 200 MB per interval, THP on, 8 threads).
#pragma once

#include <algorithm>
#include <string>

#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/placement.h"
#include "src/migration/admission/admission.h"
#include "src/migration/mechanism.h"

namespace mtm {

// Knobs of the MTM system itself (paper defaults; the sensitivity studies
// in §9.3/§9.4 sweep them).
struct MtmKnobs {
  u32 num_scans = 3;
  double overhead_fraction = 0.05;
  double tau_m = -1.0;  // < 0: derive num_scans / 3
  double tau_s = -1.0;  // < 0: derive 2 * num_scans / 3
  double alpha = 0.5;
  bool adaptive_regions = true;   // AMR ablation
  bool adaptive_sampling = true;  // APS ablation
  bool overhead_control = true;   // OC ablation
  bool use_pebs = true;           // PEBS-assist ablation
  MechanismKind mechanism = MechanismKind::kMoveMemoryRegions;  // kMmrSync: w/o async
  // Admission controller gating migration orders (src/migration/admission).
  // vanilla admits everything and is byte-identical to the pre-admission
  // behavior; ppt throttles ping-ponging regions; bandwidth sheds the
  // lowest-value promotions once the per-interval budget is spent.
  AdmissionKind admission = AdmissionKind::kVanilla;
  // bandwidth controller's per-interval budget; 0: PromoteBatchBytes().
  Bytes admission_budget_bytes;
  // Initial placement: MTM allocates in the local slow tier first (§9.1);
  // Table 4 shows the choice converges with first-touch as promotion
  // catches up.
  PlacementPolicy placement = PlacementPolicy::kSlowTierFirst;

  double TauM() const { return tau_m >= 0 ? tau_m : static_cast<double>(num_scans) / 3.0; }
  double TauS() const {
    return tau_s >= 0 ? tau_s : 2.0 * static_cast<double>(num_scans) / 3.0;
  }
};

struct ExperimentConfig {
  u64 sim_scale = 512;
  bool two_tier = false;  // §9.6 single-socket DRAM+PM machine
  u32 num_threads = 8;
  // The paper pins the eight application threads to one processor (§9.2
  // places all VoltDB clients on one socket); set true to spread threads
  // round-robin across sockets and exercise the multi-view machinery.
  bool spread_threads = false;
  u32 num_intervals = 150;
  // When nonzero, the run completes after this many application accesses
  // (fixed work, the paper's execution-time methodology); num_intervals
  // then acts as a safety cap.
  u64 target_accesses = 0;
  SimNanos interval_ns;        // 0: Seconds(10) / sim_scale
  Bytes promote_batch_bytes;   // 0: max(200 MiB / sim_scale, one region)
  Bytes scan_window_bytes;     // 0: max(256 MiB / sim_scale, one region)
  u64 seed = 42;
  // Fault-injection spec for chaos runs (see FaultInjector::Parse), e.g.
  // "copy_fail:p=0.01;tier_offline:c=3,at=100ms". Empty: fault-free run with
  // behavior identical to a build without the fault framework.
  std::string fault_spec;
  // When non-empty, the tiering policy is constructed by this registry name
  // (src/migration/policy_registry.h) instead of the solution kind's
  // default — the knob behind --policy=<name>. Solutions without a policy
  // (first-touch, hmc) ignore it.
  std::string policy_override;
  MtmKnobs mtm;

  SimNanos IntervalNs() const {
    return !interval_ns.IsZero() ? interval_ns : Seconds(10) / sim_scale;
  }
  Bytes PromoteBatchBytes() const {
    // Scaled N with a floor of two regions: below that, region-granular
    // promotion cannot make progress (documented substitution in DESIGN.md).
    return !promote_batch_bytes.IsZero() ? promote_batch_bytes
                                         : std::max(MiB(200) / sim_scale, 4 * kHugePageBytes);
  }
  Bytes ScanWindowBytes() const {
    // Linux NUMA balancing arms up to 256 MB per ~1 s scan period, i.e.
    // ~2.5 GB per 10 s profiling interval on the testbed.
    return !scan_window_bytes.IsZero() ? scan_window_bytes
                                       : std::max(MiB(2560) / sim_scale, kHugePageBytes);
  }
};

}  // namespace mtm
