#include "src/core/solution.h"

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/migration/admission/admission.h"
#include "src/migration/mechanism.h"
#include "src/migration/policy_registry.h"
#include "src/profiling/autonuma.h"
#include "src/profiling/autotiering.h"
#include "src/profiling/damon.h"
#include "src/profiling/hemem_profiler.h"
#include "src/profiling/mtm_profiler.h"
#include "src/profiling/thermostat.h"
#include "src/sim/tier.h"

namespace mtm {

const char* SolutionKindName(SolutionKind kind) {
  switch (kind) {
    case SolutionKind::kFirstTouch:
      return "first-touch";
    case SolutionKind::kHmc:
      return "hmc";
    case SolutionKind::kVanillaTieredAutoNuma:
      return "vanilla-tiered-autonuma";
    case SolutionKind::kTieredAutoNuma:
      return "tiered-autonuma";
    case SolutionKind::kAutoTiering:
      return "autotiering";
    case SolutionKind::kHemem:
      return "hemem";
    case SolutionKind::kMtm:
      return "mtm";
    case SolutionKind::kThermostatProfilerMtmMigration:
      return "thermostat+mtm-migration";
    case SolutionKind::kAutoNumaProfilerMtmMigration:
      return "autonuma+mtm-migration";
  }
  return "?";
}

bool SolutionKindFromName(const std::string& name, SolutionKind* out) {
  for (SolutionKind k :
       {SolutionKind::kFirstTouch, SolutionKind::kHmc, SolutionKind::kVanillaTieredAutoNuma,
        SolutionKind::kTieredAutoNuma, SolutionKind::kAutoTiering, SolutionKind::kHemem,
        SolutionKind::kMtm, SolutionKind::kThermostatProfilerMtmMigration,
        SolutionKind::kAutoNumaProfilerMtmMigration}) {
    if (name == SolutionKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::vector<SolutionKind> Figure4Solutions() {
  return {SolutionKind::kFirstTouch,      SolutionKind::kHmc,
          SolutionKind::kVanillaTieredAutoNuma, SolutionKind::kTieredAutoNuma,
          SolutionKind::kAutoTiering,     SolutionKind::kMtm};
}

Solution::Solution(SolutionKind kind, const ExperimentConfig& config, Workload& workload)
    : kind_(kind), config_(config) {
  if (!config.fault_spec.empty()) {
    // Distinct seed stream from the profiler/workload RNGs so enabling
    // faults never perturbs their sequences.
    Result<FaultInjector> parsed = FaultInjector::Parse(config.fault_spec, config.seed ^ 0xFA017);
    MTM_CHECK(parsed.ok()) << "bad fault_spec: " << parsed.status().ToString();
    injector_ = std::make_unique<FaultInjector>(std::move(parsed).value());
  }
  machine_ = std::make_unique<Machine>(config.two_tier
                                           ? Machine::TwoTier(config.sim_scale)
                                           : Machine::OptaneFourTier(config.sim_scale));
  frames_ = std::make_unique<FrameAllocator>(*machine_);
  counters_ = std::make_unique<MemCounters>(machine_->num_components());

  PebsEngine::Config pebs_config;
  if (kind == SolutionKind::kHemem) {
    pebs_config.sample_dram = true;  // HeMem samples DRAM and NVM loads
  }
  pebs_ = std::make_unique<PebsEngine>(*machine_, pebs_config);
  if (fault_injector() != nullptr) {
    pebs_->set_fault_injector(fault_injector());
  }

  AccessEngine::Config engine_config;
  engine_config.num_threads = config.num_threads;
  engine_ = std::make_unique<AccessEngine>(*machine_, page_table_, clock_, *counters_,
                                           engine_config);
  engine_->set_pebs(pebs_.get());

  // Placement policy per solution.
  PlacementPolicy placement = PlacementPolicy::kFirstTouch;
  if (kind == SolutionKind::kMtm || kind == SolutionKind::kThermostatProfilerMtmMigration ||
      kind == SolutionKind::kAutoNumaProfilerMtmMigration) {
    placement = config.mtm.placement;
  } else if (kind == SolutionKind::kHmc) {
    placement = PlacementPolicy::kPmOnly;
  }

  // Lay out the workload. Only Thermostat reads per-page access counts, so
  // only it pays for counting them: every other solution leaves the tracker
  // empty and unwired, and its per-interval reset loops over no ranges.
  workload.Build(address_space_);
  if (kind == SolutionKind::kThermostatProfilerMtmMigration) {
    for (const Vma& vma : address_space_.vmas()) {
      tracker_.Register(vma.start, vma.len);
    }
    engine_->set_tracker(&tracker_);
  }

  fault_handler_ = std::make_unique<PlacementFaultHandler>(*machine_, page_table_, *frames_,
                                                           address_space_, placement);
  engine_->set_fault_handler(fault_handler_.get());

  if (kind == SolutionKind::kHmc) {
    // One DRAM cache per socket fronting that socket's PM.
    std::vector<HmcCache*> caches;
    for (u32 s = 0; s < machine_->num_sockets(); ++s) {
      ComponentId dram = kInvalidComponent;
      for (ComponentId c{0}; c < machine_->end_component(); ++c) {
        if (machine_->component(c).mem_class == MemClass::kDram &&
            machine_->component(c).home_socket == s) {
          dram = c;
        }
      }
      MTM_CHECK_NE(dram, kInvalidComponent);
      hmc_caches_.push_back(std::make_unique<HmcCache>(
          *machine_, s, machine_->component(dram).capacity_bytes));
      caches.push_back(hmc_caches_.back().get());
    }
    engine_->set_hmc_caches(std::move(caches));
    return;  // no profiler / policy / migration
  }
  if (kind == SolutionKind::kFirstTouch) {
    return;  // allocation-only baseline
  }

  const SimNanos interval = config.IntervalNs();
  const Bytes batch = config.PromoteBatchBytes();

  // Profiler.
  switch (kind) {
    case SolutionKind::kMtm: {
      MtmProfiler::Config pc;
      pc.num_scans = config.mtm.num_scans;
      pc.overhead_fraction = config.mtm.overhead_fraction;
      pc.interval_ns = interval;
      pc.tau_m = config.mtm.TauM();
      pc.tau_s = config.mtm.TauS();
      pc.alpha = config.mtm.alpha;
      pc.adaptive_regions = config.mtm.adaptive_regions;
      pc.adaptive_sampling = config.mtm.adaptive_sampling;
      pc.overhead_control = config.mtm.overhead_control;
      pc.use_pebs = config.mtm.use_pebs;
      pc.seed = config.seed ^ 0x5151;
      profiler_ = std::make_unique<MtmProfiler>(*machine_, page_table_, address_space_,
                                                *engine_, pebs_.get(), pc);
      break;
    }
    case SolutionKind::kVanillaTieredAutoNuma:
    case SolutionKind::kTieredAutoNuma: {
      AutoNumaProfiler::Config pc;
      // NUMA balancing covers the address space over tens of scan periods;
      // model one full sweep per ~64 intervals at minimum.
      pc.scan_window_bytes =
          std::max(config.ScanWindowBytes(), address_space_.total_bytes() / 64);
      pc.patched = kind == SolutionKind::kTieredAutoNuma;
      // Kernel two-touch counters persist; the patched MFU path weights
      // recent faults.
      pc.decay = pc.patched ? 0.7 : 1.0;
      profiler_ = std::make_unique<AutoNumaProfiler>(page_table_, address_space_, *engine_, pc);
      break;
    }
    case SolutionKind::kAutoTiering: {
      AutoTieringProfiler::Config pc;
      pc.scan_window_bytes = config.ScanWindowBytes();
      pc.seed = config.seed ^ 0xa7a7;
      profiler_ = std::make_unique<AutoTieringProfiler>(page_table_, address_space_, pc);
      break;
    }
    case SolutionKind::kHemem: {
      HememProfiler::Config pc;
      profiler_ = std::make_unique<HememProfiler>(page_table_, *pebs_, pc);
      break;
    }
    case SolutionKind::kThermostatProfilerMtmMigration: {
      ThermostatProfiler::Config pc;
      pc.interval_ns = interval;
      pc.overhead_fraction = config.mtm.overhead_fraction;
      pc.seed = config.seed ^ 0x7777;
      profiler_ = std::make_unique<ThermostatProfiler>(address_space_, tracker_, pc);
      break;
    }
    case SolutionKind::kAutoNumaProfilerMtmMigration: {
      AutoNumaProfiler::Config pc;
      pc.scan_window_bytes =
          std::max(config.ScanWindowBytes(), address_space_.total_bytes() / 64);
      pc.patched = true;
      pc.decay = 0.7;
      profiler_ = std::make_unique<AutoNumaProfiler>(page_table_, address_space_, *engine_, pc);
      break;
    }
    default:
      break;
  }
  if (profiler_ != nullptr) {
    profiler_->Initialize();
  }

  // Policy: every solution's default policy resolves by name through the
  // registry, and config.policy_override swaps in any registered plugin
  // (the knob behind --policy=<name>). The params stay those of the
  // solution kind, so an override inherits the experiment's batch size and
  // score range — --policy=mtm-feature on the mtm solution is byte-identical
  // to the hand-wired default.
  std::string policy_name;
  PolicyParams params;
  params.promote_batch_bytes = batch;
  switch (kind) {
    case SolutionKind::kMtm:
      policy_name = "mtm";
      params.hotness_max = static_cast<double>(config.mtm.num_scans);
      break;
    case SolutionKind::kThermostatProfilerMtmMigration:
    case SolutionKind::kAutoNumaProfilerMtmMigration:
      policy_name = "mtm";
      params.hotness_max = -1.0;  // adapt to the foreign profiler's scale
      break;
    case SolutionKind::kVanillaTieredAutoNuma:
      policy_name = "vanilla-autonuma";
      break;
    case SolutionKind::kTieredAutoNuma:
      policy_name = "autonuma";
      break;
    case SolutionKind::kAutoTiering:
      policy_name = "autotiering";
      break;
    case SolutionKind::kHemem:
      policy_name = "hemem";
      break;
    default:
      break;
  }
  if (!policy_name.empty() && !config.policy_override.empty()) {
    policy_overridden_ = config.policy_override != policy_name;
    policy_name = config.policy_override;
  }
  if (!policy_name.empty()) {
    policy_ = MakePolicy(policy_name, params);
    MTM_CHECK(policy_ != nullptr) << "unknown policy: " << policy_name;
  }

  // Migration mechanism.
  MechanismKind mech = MechanismKind::kMovePages;
  switch (kind) {
    case SolutionKind::kMtm:
    case SolutionKind::kThermostatProfilerMtmMigration:
    case SolutionKind::kAutoNumaProfilerMtmMigration:
      mech = config.mtm.mechanism;
      break;
    case SolutionKind::kHemem:
      mech = MechanismKind::kNimble;  // HeMem migrates asynchronously in userspace
      break;
    default:
      mech = MechanismKind::kMovePages;  // kernel default path
      break;
  }
  migration_ = std::make_unique<MigrationEngine>(*machine_, page_table_, *frames_,
                                                 address_space_, *counters_, clock_, mech);
  engine_->set_write_track_observer(migration_.get());
  if (fault_injector() != nullptr) {
    migration_->set_fault_injector(fault_injector());
  }

  // Admission stage: sim-time windows derive from the profiling interval so
  // the controllers scale with the experiment, and the bandwidth budget
  // defaults to the policy's promote batch (N, §6.1).
  AdmissionTuning tuning;
  tuning.flip_window_ns = interval * 5;
  tuning.ppt_base_cooldown_ns = interval;
  tuning.ppt_max_cooldown_ns = interval * 32;
  tuning.interval_budget_bytes = !config.mtm.admission_budget_bytes.IsZero()
                                     ? config.mtm.admission_budget_bytes
                                     : batch;
  admission_ = MakeAdmissionController(config.mtm.admission, tuning);
  migration_->set_admission(admission_.get(), tuning);
}

}  // namespace mtm
