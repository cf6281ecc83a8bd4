// A Solution bundles one complete page-management system under test: the
// simulated machine, placement policy, profiler, tiering policy, and
// migration mechanism — everything §9's comparisons vary.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/status.h"
#include "src/core/experiment.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/placement.h"
#include "src/migration/admission/admission.h"
#include "src/migration/mechanism.h"
#include "src/migration/migration_engine.h"
#include "src/migration/policy.h"
#include "src/profiling/profiler.h"
#include "src/sim/access_engine.h"
#include "src/sim/access_tracker.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/hmc_cache.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"
#include "src/workloads/workload.h"

namespace mtm {

enum class SolutionKind {
  kFirstTouch,             // first-touch NUMA, no migration
  kHmc,                    // hardware-managed caching (Memory Mode)
  kVanillaTieredAutoNuma,  // two-touch, tier-by-tier
  kTieredAutoNuma,         // + hot-page-selection & auto-threshold patches
  kAutoTiering,
  kHemem,                  // two-tier PEBS-only
  kMtm,
  // §9.3 profiler-swap ablations: baseline profiler + MTM policy/migration.
  kThermostatProfilerMtmMigration,
  kAutoNumaProfilerMtmMigration,
};

// One row per SolutionKind, in enum order: the single declaration of each
// solution's name and of the choices Solution wires from it.
struct SolutionInfo {
  SolutionKind kind;
  const char* name;
  // Registry key (src/migration/policy_registry.h) of the default tiering
  // policy; null for the rows with no profiler, policy or migration.
  const char* default_policy;
  // Rows on the MTM stack take placement and mechanism from config.mtm (the
  // §9.3 ablations sweep them); the other rows use the two fields below.
  bool mtm_stack;
  bool figure4;  // one of Figure 4's six solutions
  PlacementPolicy placement = PlacementPolicy::kFirstTouch;
  MechanismKind mechanism = MechanismKind::kMovePages;  // the kernel's default path
};

std::span<const SolutionInfo> AllSolutions();
const SolutionInfo& SolutionInfoOf(SolutionKind kind);

const char* SolutionKindName(SolutionKind kind);
// False (and *out untouched) for an unknown name.
bool SolutionKindFromName(const std::string& name, SolutionKind* out);
std::vector<SolutionKind> Figure4Solutions();

// Owns the full simulation stack for one run. Construction order matters:
// machine -> memory -> engine -> workload Build -> profiler/policy/migration.
class Solution {
 public:
  Solution(SolutionKind kind, const ExperimentConfig& config, Workload& workload);

  SolutionKind kind() const { return kind_; }
  std::string name() const { return SolutionKindName(kind_); }

  const Machine& machine() const { return *machine_; }
  // Health events mutate the machine at runtime (driver-applied tier faults).
  Machine& mutable_machine() { return *machine_; }
  SimClock& clock() { return clock_; }
  PageTable& page_table() { return page_table_; }
  FrameAllocator& frames() { return *frames_; }
  AddressSpace& address_space() { return address_space_; }
  MemCounters& counters() { return *counters_; }
  AccessEngine& engine() { return *engine_; }
  AccessTracker& tracker() { return tracker_; }
  PebsEngine* pebs() { return pebs_.get(); }
  // Memory-Mode DRAM cache fronting `socket`'s PM; null unless hmc.
  const HmcCache* hmc_cache(u32 socket) const {
    return socket < hmc_caches_.size() ? hmc_caches_[socket].get() : nullptr;
  }

  Profiler* profiler() { return profiler_.get(); }          // may be null
  TieringPolicy* policy() { return policy_.get(); }          // may be null
  // Registry key of the active policy; empty when there is none.
  const std::string& policy_name() const { return policy_name_; }
  // True when config.policy_override swapped in a policy other than the
  // solution kind's default (reports surface the active policy then).
  bool policy_overridden() const { return policy_overridden_; }
  MigrationEngine* migration() { return migration_.get(); }  // may be null
  AdmissionController* admission() { return admission_.get(); }  // null with migration
  // Armed when the config carried a non-empty fault_spec; null otherwise.
  FaultInjector* fault_injector() { return injector_ != nullptr && injector_->armed()
                                               ? injector_.get()
                                               : nullptr; }

  // OK when the least the run maps (AddressSpace::MinPrefaultBytes) fits
  // the capacity its placement may use; otherwise ResourceExhausted, as the
  // run would stop on an unserviceable page fault.
  Status CheckFootprintFits() const;

  // The sockets threads spread over, and the one thread `thread` runs on.
  u32 thread_sockets() const { return config_.spread_threads ? machine_->num_sockets() : 1; }
  u32 SocketOfThread(u32 thread) const { return thread % thread_sockets(); }

 private:
  SolutionKind kind_;
  ExperimentConfig config_;

  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Machine> machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  AccessTracker tracker_;
  std::unique_ptr<FrameAllocator> frames_;
  std::unique_ptr<MemCounters> counters_;
  std::unique_ptr<PebsEngine> pebs_;
  std::unique_ptr<AccessEngine> engine_;
  std::unique_ptr<PlacementFaultHandler> fault_handler_;
  std::vector<std::unique_ptr<HmcCache>> hmc_caches_;

  std::string policy_name_;
  bool policy_overridden_ = false;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<TieringPolicy> policy_;
  std::unique_ptr<MigrationEngine> migration_;
  std::unique_ptr<AdmissionController> admission_;
};

}  // namespace mtm
