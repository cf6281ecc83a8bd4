// The migration engine executes migration orders: it performs the
// functional page moves (page-table remap + frame accounting) and charges
// the mechanism's modeled cost to the simulated clock.
//
// For move_memory_regions() it implements the paper's adaptive scheme
// (§7.2) faithfully in event time:
//   * on submit, write tracking is armed on the region (reserved PTE bit +
//     one TLB flush) and the asynchronous copy is scheduled to complete
//     after its modeled duration, during which the application keeps
//     executing against the source pages;
//   * if the application writes the region before the copy completes, the
//     write-protect fault (observed via WriteTrackObserver) switches the
//     region to synchronous copy: the remaining copy time is exposed on the
//     critical path and the move completes immediately;
//   * otherwise Poll() finalizes the move when the copy deadline passes,
//     paying only the unmap/remap and page-table-page migration.
//
// When a destination component lacks space, the engine reclaims: it demotes
// inactive (accessed-bit-clear) pages from the destination to the next
// lower tier with room, modeling kernel reclaim-based demotion.
//
// Migrations are transactional (Nomad-style): an order either commits or
// rolls back with source pages still mapped and frame accounting intact.
// With a FaultInjector attached, copy and remap failures abort the order,
// which is re-queued with capped exponential backoff in simulated time; a
// per-interval thrash guard abandons regions that abort repeatedly, and a
// tier that goes offline has its residents drained to the nearest healthy
// component while in-flight orders targeting it are rolled back.
// VerifyInvariants() audits the page-table/frame-accounting agreement and
// is run by the driver after every interval of a chaos run.
//
// An optional AdmissionController (src/migration/admission) gates every
// policy order before it is armed — see admission.h for the controller
// contracts. The engine maintains the per-region MigrationHistory the
// controllers read, recording every committed policy move and every reclaim
// demotion (the demote half of a ping-pong cycle). Reclaim demotions and
// offline drains are emergency traffic and bypass the admission gate
// itself; drains are also not recorded (evacuation is not hotness-driven).
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/status.h"
#include "src/common/strong_types.h"
#include "src/common/types.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/async_copy.h"
#include "src/migration/cost_model.h"
#include "src/migration/mechanism.h"
#include "src/obs/metric_id.h"
#include "src/obs/obs.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {

// Retry/backoff/thrash-guard parameters for aborted orders. Backoff is
// exponential in simulated time: initial_backoff_ns << (attempt - 1),
// capped at max_backoff_ns.
struct MigrationRetryPolicy {
  u32 max_attempts = 6;                 // total tries per order, first included
  SimNanos initial_backoff_ns = Nanos(50'000);  // 50 us simulated
  SimNanos max_backoff_ns = Nanos(5'000'000);   // 5 ms simulated
  // Aborts of the same region within one profiling interval before the
  // thrash guard abandons it (write storms re-abort the same region).
  u32 thrash_abort_limit = 3;
};

struct MigrationStats {
  Bytes bytes_migrated;
  Bytes bytes_failed;       // no space anywhere
  u64 regions_migrated = 0;
  u64 sync_fallbacks = 0;   // async copies switched to sync by a write
  u64 reclaim_demotions = 0;
  SimNanos critical_ns;
  SimNanos background_ns;
  MigrationStepBreakdown steps;

  // Staged copies (move_memory_regions only; see async_copy.h).
  u64 async_copies = 0;       // regions committed from the staged async copy
  Bytes async_copy_bytes;     // bytes committed from staged copies
  Bytes fallback_copy_bytes;  // bytes re-copied serially after a §7.2 fault
  u64 copy_checksum = 0;      // fold of every committed region's content checksum

  // Resilience layer — all zero unless faults are injected or tiers degrade.
  u64 injected_copy_failures = 0;
  u64 injected_remap_failures = 0;
  u64 injected_alloc_failures = 0;  // page-granular transient failures
  u64 rollbacks = 0;                // aborted orders rolled back cleanly
  u64 retries = 0;                  // re-submissions from the retry queue
  u64 orders_abandoned = 0;         // retry budget exhausted or thrash guard
  Bytes bytes_abandoned;
  u64 thrash_aborts = 0;            // regions dropped by the thrash guard
  u64 tier_drains = 0;              // offline-drain sweeps executed
  Bytes drained_bytes;              // bytes relocated off degraded tiers
  Bytes drain_failed_bytes;         // could not be relocated (machine full)
};

class MigrationEngine : public WriteTrackObserver {
 public:
  MigrationEngine(const Machine& machine, PageTable& page_table, FrameAllocator& frames,
                  const AddressSpace& address_space, MemCounters& counters, SimClock& clock,
                  MechanismKind kind, MigrationCostModel model = {});

  MechanismKind kind() const { return kind_; }

  // Executes (or schedules) one order. The engine self-heals — failed
  // attempts are re-queued internally — so the Status is informational:
  //   kOk                  committed (sync) or scheduled (async)
  //   kInvalidArgument     zero-length or out-of-range order
  //   kUnavailable         target offline, or an injected fault aborted the
  //                        attempt (a retry is queued)
  //   kAlreadyExists       overlaps an in-flight async move; dropped
  //   kFailedPrecondition  admission deferred the order (cooldown window)
  //   kResourceExhausted   admission rejected the order (over budget)
  Status Submit(const MigrationOrder& order);

  // Submits one interval's batch through the admission stage: the attached
  // controller may re-sequence the batch (e.g. hottest promotions first)
  // before each order goes through Submit's per-order gate. Without a
  // controller this degenerates to submitting in policy order.
  void SubmitAll(const std::vector<MigrationOrder>& orders);

  // Completes async copies whose deadline has passed and re-submits queued
  // retries whose backoff expired. Call frequently.
  void Poll();

  // Forces all in-flight migrations and queued retries to complete or be
  // abandoned (end of run).
  void Flush();

  // WriteTrackObserver: a tracked page was written mid-copy.
  void OnWriteTrackFault(VirtAddr addr, u32 socket) override;

  // Observability wiring: counters for transaction attempts/commits/aborts/
  // retries and per-component migrated bytes, plus simulated-time spans for
  // each charged migration step. Null (the default) records nothing.
  void AttachObservability(Observability* obs);

  // Chaos wiring. The injector may be null (fault-free run).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  void set_retry_policy(const MigrationRetryPolicy& policy) { retry_policy_ = policy; }
  const MigrationRetryPolicy& retry_policy() const { return retry_policy_; }

  // Admission wiring: installs the controller consulted before every order
  // is armed and re-tunes the history table. The controller may be null
  // (admit everything, record history only); the engine does not own it.
  // Emergency moves — reclaim demotions and offline drains — bypass
  // admission: they relieve pressure rather than spend the policy's budget.
  void set_admission(AdmissionController* controller, const AdmissionTuning& tuning);
  AdmissionController* admission() const { return admission_; }
  const AdmissionStats& admission_stats() const { return admission_stats_; }
  const MigrationHistory& history() const { return history_; }
  const AdmissionBudget& admission_budget() const { return budget_; }

  // Driver hook at each profiling-interval boundary: opens a fresh
  // thrash-guard window, decays ping-pong scores, and resets the admission
  // budget.
  void BeginInterval();

  // Applies a degradation event to this engine (the Machine's health state
  // is flipped by the caller first). Offline events roll back in-flight
  // orders targeting the component, abandon queued retries for it, and
  // drain its residents to the nearest healthy component.
  void OnTierFault(const TierFaultEvent& event);

  // Moves every page resident on `component` to the nearest healthy
  // component with room (next lower tiers first, then faster ones).
  // Returns the number of bytes relocated.
  Bytes DrainComponent(ComponentId component);

  // Audits the transactional invariants: frame accounting matches the page
  // table globally and per component, every page-table leaf's residency
  // counts match its entries, no component is over capacity, no
  // page resides on an offline component (unless a drain already reported
  // failure), and in-flight orders do not overlap.
  Status VerifyInvariants() const;

  const MigrationStats& stats() const { return stats_; }
  std::size_t pending() const { return pending_.size(); }
  std::size_t retry_backlog() const { return retry_queue_.size(); }

 private:
  struct Pending {
    MigrationOrder order;
    SimNanos complete_at;
    SimNanos submitted_at;
    SimNanos background_ns;
    MechanismCost cost;  // precomputed aggregate cost
    u32 attempt = 1;     // 1-based try counter for backoff on abort
    // Snapshot of this region's still-to-move pages (move_memory_regions
    // only), taken at arm time. The async commit copies it with CopyRegion;
    // the §7.2 fallback re-snapshots the live pages first, and a rollback or
    // abandonment drops it uncopied.
    std::vector<PageCopyRecord> staged_pages;
    // Chrome trace flow id linking migrate_arm to the finish span (0 = flow
    // emission disabled).
    u64 flow_id = 0;
  };

  struct RetryEntry {
    MigrationOrder order;
    u32 attempt = 1;        // the attempt number this retry will be
    SimNanos ready_at;  // backoff deadline in simulated time
  };

  // Per-page commit outcome of one attempt.
  struct CommitOutcome {
    Bytes moved;
    Bytes failed_space;      // no capacity anywhere (permanent, as before)
    Bytes failed_transient;  // injected allocation failures (retryable)
  };

  Status SubmitAttempt(const MigrationOrder& submitted, u32 attempt);

  // Largest huge-page-aligned prefix length of `order` whose to-move bytes
  // (pages not already on order.dst) fit `admit_bytes`; zero when not even
  // the first huge region fits. Supports partial admission.
  Bytes SplitLenForBudget(const MigrationOrder& order, Bytes admit_bytes);

  // Groups the still-to-move pages of [start, len) by source component,
  // reading whole chunks from the page table's residency counts, and
  // returns the aggregate mechanism cost; out parameters receive totals.
  // `src_out` (optional) receives the source component of the first
  // still-to-move mapping in address order — kInvalidComponent when nothing
  // needs to move.
  MechanismCost PlanCost(const MigrationOrder& order, MechanismKind kind, Bytes* bytes_out,
                         ComponentId* src_out = nullptr);

  // True when the order moves its first still-to-move run toward a faster
  // tier of its socket view.
  bool IsPromotion(const MigrationOrder& order, ComponentId src) const;

  // Books a committed move into the per-region history and the flip
  // counters of AdmissionStats.
  void RecordHistory(const MigrationOrder& order, ComponentId src, Bytes moved);

  // Remaps every page of the range to dst, reclaiming on pressure. Pages
  // hit by an injected transient allocation failure are skipped and
  // reported for retry.
  CommitOutcome CommitMove(const MigrationOrder& order);

  // Demotes inactive pages from `component` until `bytes_needed` are free.
  // Returns true on success. `depth` guards cascade recursion.
  bool ReclaimFrom(ComponentId component, Bytes bytes_needed, int depth);

  void ArmWriteTracking(const MigrationOrder& order);
  void DisarmWriteTracking(const MigrationOrder& order);
  void FinishPending(std::size_t index, bool forced_sync, double remaining_fraction);

  // Snapshot of the order's still-to-move pages (address order, pages
  // already on order.dst skipped) for the staged copy.
  std::vector<PageCopyRecord> SnapshotCopyRecords(const MigrationOrder& order) const;

  // Abort bookkeeping: rolls the attempt back (caller already restored all
  // state) and either queues a retry with exponential backoff or abandons
  // the order (retry budget exhausted / thrash guard tripped).
  void HandleAbort(const MigrationOrder& order, u32 attempt);
  void ProcessRetries();

  // Counts migration traffic into MemCounters and, when observability is
  // attached, the per-component byte counters.
  void RecordMigrationBytes(ComponentId component, Bytes bytes);
  void Bump(MetricId id, u64 delta = 1);
  void EmitSpan(const char* span_name, SimNanos start, SimNanos duration);

  const Machine& machine_;
  PageTable& page_table_;
  FrameAllocator& frames_;
  const AddressSpace& address_space_;
  MemCounters& counters_;
  SimClock& clock_;
  MechanismKind kind_;
  MigrationCostModel model_;

  FaultInjector* injector_ = nullptr;
  MigrationRetryPolicy retry_policy_;

  // Admission stage. The history is engine-owned bookkeeping and is kept
  // even with no controller attached; the controller is a borrowed
  // strategy object (Solution owns it).
  AdmissionController* admission_ = nullptr;
  MigrationHistory history_{AdmissionTuning{}};
  AdmissionBudget budget_;
  AdmissionStats admission_stats_;

  Observability* obs_ = nullptr;
  MetricId attempts_id_ = kInvalidMetricId;
  MetricId commits_id_ = kInvalidMetricId;
  MetricId aborts_id_ = kInvalidMetricId;
  MetricId retries_id_ = kInvalidMetricId;
  IdMap<ComponentId, MetricId> bytes_on_component_ids_;

  u64 next_flow_id_ = 1;

  std::vector<Pending> pending_;
  std::deque<RetryEntry> retry_queue_;
  // Aborts per region start address within the current interval window.
  std::unordered_map<VirtAddr, u32> interval_aborts_;
  MigrationStats stats_;
  // Per-component clock hand for reclaim victim scanning (kswapd-style
  // round-robin over the address space).
  IdMap<ComponentId, VirtAddr> reclaim_cursor_;
};

}  // namespace mtm
