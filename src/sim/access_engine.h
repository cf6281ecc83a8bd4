// The access engine plays the role of the CPU + MMU: it applies the
// application's memory accesses to the simulated machine.
//
// For each access it:
//   1. translates through the page table (no TLB is modeled: a lookup sees
//      every map, unmap, split and remap at once);
//   2. on a missing translation, invokes the fault handler (first-touch
//      allocation, THP fault, etc.);
//   3. sets the PTE accessed/dirty bits — the raw signal every PTE-scan
//      profiler in the paper consumes;
//   4. services hint faults (NUMA-balancing-style) and write-tracking
//      faults (move_memory_regions dirtiness tracking);
//   5. charges simulated time from the tier's latency/bandwidth (Table 1),
//      divided by the thread concurrency but floored by the component's
//      bandwidth;
//   6. feeds the PEBS engine and the per-tier counters.
//
// A run replays its stream through ApplyBatch: the same per-access step as
// Apply, in the same order, with the cost check done once per batch. Costs
// come from a per-(socket, component) table that is rebuilt only when a
// bandwidth derate changes a link. DESIGN.md §17 explains why neither can
// change what the run computes.
//
// Application initialization takes a bulk path instead (Prefault): it faults
// a whole range in by runs placed on one component each, and charges each
// run's faults, writes and costs at once.
#pragma once

#include <array>
#include <vector>

#include "src/common/types.h"
#include "src/common/units.h"
#include "src/sim/access_tracker.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/hmc_cache.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"

namespace mtm {

// Consecutive mappings of one size that one placement put on one component.
struct PlacedRun {
  ComponentId component = kInvalidComponent;  // kInvalidComponent: nothing fit
  u64 count = 0;
  bool huge = false;  // 2 MiB mappings; 4 KiB pages otherwise
};

// Services page faults (missing translation). Implementations decide
// placement (first-touch NUMA, MTM's slow-tier-first, memory mode) and must
// map the pages (base or huge) into the page table before returning.
class FaultHandler {
 public:
  virtual ~FaultHandler() = default;
  // Places the first run of up to `count` consecutive unmapped mappings
  // faulted from `socket`: 2 MiB blocks from the one holding `addr` when
  // `huge`, 4 KiB pages from the one holding `addr` otherwise. Callers
  // place the rest with further calls. A 2 MiB block that fits nowhere
  // falls back to the one base page holding `addr`; a run whose component
  // is kInvalidComponent placed nothing.
  virtual PlacedRun PlaceRun(VirtAddr addr, u64 count, bool huge, u32 socket) = 0;
  // Services one fault at `addr`: PlaceRun with a count of one. Returns the
  // component the faulting page was placed on, or kInvalidComponent if the
  // fault could not be serviced (treated fatal).
  virtual ComponentId HandlePageFault(VirtAddr addr, u32 socket, bool is_write) = 0;
};

// Notified when a write hits a write-tracked page (the reserved-PTE-bit
// write-protect fault used by move_memory_regions, §7.2/§8).
class WriteTrackObserver {
 public:
  virtual ~WriteTrackObserver() = default;
  virtual void OnWriteTrackFault(VirtAddr addr, u32 socket) = 0;
};

// A NUMA hint fault observed by the kernel: records which socket touched
// which address. MTM samples these 1-in-12 PTE scans to resolve the
// multi-view migration destination (§6.2); tiered-AutoNUMA profiles with
// them exclusively.
struct HintFaultEvent {
  VirtAddr addr;
  u32 socket = 0;
  bool is_write = false;
};

class AccessEngine {
 public:
  struct Config {
    u32 num_threads = 8;          // concurrency divisor for latency
    SimNanos cpu_ns_per_access = Nanos(8);  // non-memory work per access, per thread
    SimNanos page_fault_ns = Nanos(1500);   // minor fault service time
    SimNanos hint_fault_ns = Nanos(1200);   // NUMA hint fault service time
    SimNanos write_track_fault_ns = Nanos(40000);  // §9.5: ~40us per tracked fault
    SimNanos hmc_hit_overhead_ns = Nanos(40);      // Memory-Mode tag/directory check
    Bytes access_bytes = Bytes(64);  // one cache line per access
  };

  AccessEngine(const Machine& machine, PageTable& page_table, SimClock& clock,
               MemCounters& counters, Config config);

  void set_fault_handler(FaultHandler* handler) { fault_handler_ = handler; }
  void set_write_track_observer(WriteTrackObserver* observer) { write_observer_ = observer; }
  void set_pebs(PebsEngine* pebs) { pebs_ = pebs; }
  void set_tracker(AccessTracker* tracker) { tracker_ = tracker; }

  // Enables Memory-Mode caching: `caches[s]` fronts the PM of socket s.
  // In this mode the page's resident component is PM but hits are charged
  // at local-DRAM cost.
  void set_hmc_caches(std::vector<HmcCache*> caches) { hmc_caches_ = std::move(caches); }

  const Config& config() const { return config_; }

  // Applies one application access issued by a thread running on `socket`.
  // Advances the application clock. Returns the component that serviced the
  // access (after any fault handling).
  ComponentId Apply(VirtAddr addr, bool is_write, u32 socket);

  // Applies accesses[0, n) in order, exactly as n calls of Apply would,
  // access i issued from socket accesses[i].thread % thread_sockets. Faults,
  // observers (a write-track observer may commit a migration mid-batch),
  // HMC caches, PEBS and the tracker see each access in turn.
  void ApplyBatch(const MemAccess* accesses, u32 n, u32 thread_sockets);

  // Application initialization: one write to each unmapped 2 MiB block
  // (`huge`) or 4 KiB page of [start, start+len), in address order, the
  // i-th issued from socket (first_thread + i) % thread_sockets (u32
  // arithmetic). Equivalent to Apply on each, except that no
  // accessed/dirty bit is set: each run of same-socket mappings is placed
  // by PlaceRun and charged at once. HMC caches and an enabled PEBS engine
  // still see every write; the tracker, which counts the access phase
  // only, sees none.
  void Prefault(VirtAddr start, Bytes len, bool huge, u32 first_thread, u32 thread_sockets);

  // Drains hint-fault events recorded since the last call.
  std::vector<HintFaultEvent> DrainHintFaults();

  u64 total_accesses() const { return total_accesses_; }
  u64 page_faults() const { return page_faults_; }
  u64 hint_faults() const { return hint_faults_; }
  u64 write_track_faults() const { return write_track_faults_; }

  // Cost (ns of application time) of one access to `component` from
  // `socket`, given the configured concurrency. Exposed for cost-model
  // tests and for the HMC fill model.
  SimNanos AccessCost(u32 socket, ComponentId component) const;

  // Cost of transferring one 4 KiB cache line between DRAM cache and PM in
  // Memory Mode (latency + full-page transfer, amortized over threads).
  SimNanos PageFillCost(u32 socket, ComponentId component) const;

 private:
  // The cost table's slot for (socket, component).
  static u32 CostSlot(u32 socket, ComponentId component) {
    return socket * PageTable::kMaxComponents + component.value();
  }
  // Rebuilds the cost table if a link changed since it was built.
  void RefreshCosts();
  // Apply without the cost-table check: the one per-access step.
  ComponentId Step(VirtAddr addr, bool is_write, u32 socket);
  // After translation: counts one access to `component`, feeds the
  // observers and charges its cost.
  void Charge(VirtAddr addr, ComponentId component, u32 socket, bool is_write);

  const Machine& machine_;
  PageTable& page_table_;
  SimClock& clock_;
  MemCounters& counters_;
  Config config_;

  FaultHandler* fault_handler_ = nullptr;
  WriteTrackObserver* write_observer_ = nullptr;
  PebsEngine* pebs_ = nullptr;
  AccessTracker* tracker_ = nullptr;
  std::vector<HmcCache*> hmc_caches_;

  std::vector<HintFaultEvent> hint_fault_buffer_;

  // AccessCost of every (socket, component), as of the machine's link
  // generation cost_generation_ (none yet: no machine reaches ~0).
  std::array<SimNanos, kMaxSockets * PageTable::kMaxComponents> access_cost_{};
  u64 cost_generation_ = ~u64{0};

  u64 total_accesses_ = 0;
  u64 page_faults_ = 0;
  u64 hint_faults_ = 0;
  u64 write_track_faults_ = 0;
};

}  // namespace mtm
