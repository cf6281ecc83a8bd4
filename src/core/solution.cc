#include "src/core/solution.h"

#include <array>

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

namespace {

using enum SolutionKind;

constexpr std::array<SolutionInfo, 9> kSolutions = {{
    // kind, name, default policy, mtm stack, figure 4[, placement, mechanism]
    {kFirstTouch, "first-touch", nullptr, false, true},
    {kHmc, "hmc", nullptr, false, true, PlacementPolicy::kPmOnly},
    {kVanillaTieredAutoNuma, "vanilla-tiered-autonuma", "vanilla-autonuma", false, true},
    {kTieredAutoNuma, "tiered-autonuma", "autonuma", false, true},
    {kAutoTiering, "autotiering", "autotiering", false, true},
    // HeMem migrates asynchronously in userspace.
    {kHemem, "hemem", "hemem", false, false, PlacementPolicy::kFirstTouch, MechanismKind::kNimble},
    {kMtm, "mtm", "mtm", true, true},
    {kThermostatProfilerMtmMigration, "thermostat+mtm-migration", "mtm", true, false},
    {kAutoNumaProfilerMtmMigration, "autonuma+mtm-migration", "mtm", true, false},
}};

constexpr bool RowsInKindOrder() {
  for (std::size_t i = 0; i < kSolutions.size(); ++i) {
    if (static_cast<std::size_t>(kSolutions[i].kind) != i) {
      return false;
    }
  }
  return true;
}
static_assert(RowsInKindOrder(), "kSolutions must list every SolutionKind in enum order");

}  // namespace

std::span<const SolutionInfo> AllSolutions() { return kSolutions; }

const SolutionInfo& SolutionInfoOf(SolutionKind kind) {
  return kSolutions[static_cast<std::size_t>(kind)];
}

const char* SolutionKindName(SolutionKind kind) { return SolutionInfoOf(kind).name; }

bool SolutionKindFromName(const std::string& name, SolutionKind* out) {
  for (const SolutionInfo& row : kSolutions) {
    if (name == row.name) {
      *out = row.kind;
      return true;
    }
  }
  return false;
}

std::vector<SolutionKind> Figure4Solutions() {
  std::vector<SolutionKind> kinds;
  for (const SolutionInfo& row : kSolutions) {
    if (row.figure4) {
      kinds.push_back(row.kind);
    }
  }
  return kinds;
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

  const SolutionInfo& row = SolutionInfoOf(kind);
  const PlacementPolicy placement = row.mtm_stack ? config.mtm.placement : row.placement;
  workload.Build(address_space_);
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
  }
  if (row.default_policy == nullptr) {
    return;  // no profiler / policy / migration
  }

  const SimNanos interval = config.IntervalNs();
  const Bytes batch = config.PromoteBatchBytes();
  // The params stay those of the solution kind, so a --policy override
  // inherits the experiment's batch size and score range. The score range
  // adapts to the profiler's scale each interval unless the profiler fixes
  // it below.
  PolicyParams params;
  params.promote_batch_bytes = batch;

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
      params.hotness_max = static_cast<double>(config.mtm.num_scans);  // WHI range
      break;
    }
    case SolutionKind::kVanillaTieredAutoNuma:
    case SolutionKind::kTieredAutoNuma:
    case SolutionKind::kAutoNumaProfilerMtmMigration: {
      AutoNumaProfiler::Config pc;
      // NUMA balancing covers the address space over tens of scan periods;
      // model one full sweep per ~64 intervals at minimum.
      pc.scan_window_bytes =
          std::max(config.ScanWindowBytes(), address_space_.total_bytes() / 64);
      pc.patched = kind != SolutionKind::kVanillaTieredAutoNuma;
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
      // Only Thermostat reads per-page access counts, so only it pays for
      // counting them: every other solution leaves the tracker empty and
      // unwired, and its per-interval reset loops over no ranges.
      for (const Vma& vma : address_space_.vmas()) {
        tracker_.Register(vma.start, vma.len);
      }
      engine_->set_tracker(&tracker_);
      ThermostatProfiler::Config pc;
      pc.interval_ns = interval;
      pc.overhead_fraction = config.mtm.overhead_fraction;
      pc.seed = config.seed ^ 0x7777;
      profiler_ = std::make_unique<ThermostatProfiler>(address_space_, tracker_, pc);
      break;
    }
    default:
      break;
  }
  if (profiler_ != nullptr) {
    profiler_->Initialize();
  }

  // Policy: the default resolves by name through the registry, and
  // config.policy_override swaps in any registered policy (--policy=<name>).
  policy_name_ = row.default_policy;
  if (!config.policy_override.empty()) {
    policy_overridden_ = config.policy_override != policy_name_;
    policy_name_ = config.policy_override;
  }
  policy_ = MakePolicy(policy_name_, params);
  MTM_CHECK(policy_ != nullptr) << "unknown policy: " << policy_name_;

  const MechanismKind mech = row.mtm_stack ? config.mtm.mechanism : row.mechanism;
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

Status Solution::CheckFootprintFits() const {
  const Bytes need = address_space_.MinPrefaultBytes();
  const Bytes have = fault_handler_->PlaceableBytes();
  if (need > have) {
    return ResourceExhaustedError(
        "the workload must map at least " + std::to_string(need.value()) +
        " bytes, but placement policy " +
        PlacementPolicyName(fault_handler_->policy()) + " may use only " +
        std::to_string(have.value()) + " bytes of the machine");
  }
  return OkStatus();
}

}  // namespace mtm
