#include "src/sim/access_engine.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/sim/tier.h"

namespace mtm {

AccessEngine::AccessEngine(const Machine& machine, PageTable& page_table, SimClock& clock,
                           MemCounters& counters, Config config)
    : machine_(machine),
      page_table_(page_table),
      clock_(clock),
      counters_(counters),
      config_(config) {
  MTM_CHECK_GT(config_.num_threads, 0u);
  MTM_CHECK_LE(machine_.num_components(), PageTable::kMaxComponents);
  RefreshCosts();
}

void AccessEngine::RefreshCosts() {
  if (cost_generation_ == machine_.link_generation()) {
    return;
  }
  for (u32 s = 0; s < machine_.num_sockets(); ++s) {
    for (ComponentId c{0}; c < machine_.end_component(); ++c) {
      access_cost_[CostSlot(s, c)] = AccessCost(s, c);
    }
  }
  cost_generation_ = machine_.link_generation();
}

SimNanos AccessEngine::AccessCost(u32 socket, ComponentId component) const {
  const LinkSpec& link = machine_.link(socket, component);
  // Latency is overlapped across the application's threads; bandwidth at the
  // component is a hard floor that concurrency cannot hide.
  double latency_share =
      static_cast<double>(link.latency_ns.value()) / static_cast<double>(config_.num_threads);
  double bandwidth_floor =
      static_cast<double>(config_.access_bytes.value()) / link.BytesPerNano();
  double cpu = static_cast<double>(config_.cpu_ns_per_access.value()) /
               static_cast<double>(config_.num_threads);
  return NanosFromDouble(std::max(latency_share, bandwidth_floor) + cpu);
}

SimNanos AccessEngine::PageFillCost(u32 socket, ComponentId component) const {
  const LinkSpec& link = machine_.link(socket, component);
  double transfer = static_cast<double>(kPageSize) / link.BytesPerNano();
  return NanosFromDouble((static_cast<double>(link.latency_ns.value()) + transfer) /
                         static_cast<double>(config_.num_threads));
}

// Inlined into Step, the per-access hot path.
[[gnu::always_inline]] inline void AccessEngine::Charge(VirtAddr addr, ComponentId component,
                                                        u32 socket, bool is_write) {
  counters_.CountApp(component, is_write);

  // Memory-mode caching intercepts the cost model: hits are served at local
  // DRAM speed, misses pay the PM access plus the line fill, and dirty
  // evictions pay the writeback (write amplification).
  if (!hmc_caches_.empty() && machine_.component(component).mem_class == MemClass::kPm) {
    u32 home = machine_.component(component).home_socket;
    HmcCache* cache = hmc_caches_[home];
    MTM_CHECK(cache != nullptr);
    HmcCache::AccessOutcome outcome = cache->Access(VpnOf(addr), is_write);
    ComponentId local_dram = machine_.TierOrder(home)[0];
    if (outcome.hit) {
      clock_.AdvanceApp(access_cost_[CostSlot(socket, local_dram)] +
                        config_.hmc_hit_overhead_ns / config_.num_threads);
    } else {
      // Miss: the demand access goes to PM, and the 4 KiB line fill consumes
      // PM bandwidth (modeled as a handful of line transfers of overhead).
      SimNanos miss_cost = access_cost_[CostSlot(socket, component)];
      SimNanos fill_cost = PageFillCost(home, component);
      SimNanos writeback_cost =
          outcome.dirty_writeback ? PageFillCost(home, component) : SimNanos{};
      clock_.AdvanceApp(miss_cost + fill_cost + writeback_cost);
      counters_.CountMigrationBytes(component, kPageBytes);
    }
  } else {
    clock_.AdvanceApp(access_cost_[CostSlot(socket, component)]);
  }
  if (pebs_ != nullptr) {
    pebs_->Observe(addr, component, socket, is_write);
  }
}

[[gnu::always_inline]] inline ComponentId AccessEngine::Step(VirtAddr addr, bool is_write,
                                                             u32 socket) {
  ++total_accesses_;
  Pte* pte = page_table_.Find(addr);
  if (pte == nullptr) {
    MTM_CHECK(fault_handler_ != nullptr) << "page fault with no handler, addr=" << addr;
    ++page_faults_;
    clock_.AdvanceApp(config_.page_fault_ns / config_.num_threads);
    ComponentId placed = fault_handler_->HandlePageFault(addr, socket, is_write);
    MTM_CHECK_NE(placed, kInvalidComponent) << "unserviceable page fault";
    pte = page_table_.Find(addr);
    MTM_CHECK(pte != nullptr) << "fault handler did not map the page";
  }

  // Hint fault (NUMA balancing): record the accessing socket, then proceed.
  if (pte->flags & Pte::kHintArmed) {
    pte->Clear(Pte::kHintArmed);
    hint_fault_buffer_.push_back(HintFaultEvent{addr, socket, is_write});
    ++hint_faults_;
    clock_.AdvanceApp(config_.hint_fault_ns / config_.num_threads);
  }

  // Write-tracking fault (move_memory_regions dirtiness tracking). The
  // fault is serviced before the write's effect lands: the observer commits
  // the page by synchronous copy while the simulated contents are still the
  // pre-write ones, so the write then lands on the moved page (DESIGN.md
  // §14).
  if (is_write && pte->write_tracked()) {
    pte->Clear(Pte::kWriteTracked);
    ++write_track_faults_;
    clock_.AdvanceApp(config_.write_track_fault_ns / config_.num_threads);
    if (write_observer_ != nullptr) {
      write_observer_->OnWriteTrackFault(addr, socket);
    }
  }

  // MMU: accessed/dirty bits; writes mutate the page's payload word (the
  // simulated contents the migration copy engine checksums).
  pte->Set(Pte::kAccessed);
  if (is_write) {
    pte->Set(Pte::kDirty);
    pte->payload = MixPayload(pte->payload, addr);
  }

  if (tracker_ != nullptr) {
    tracker_->OnAccess(addr, is_write);
  }
  ComponentId component = pte->component();
  Charge(addr, component, socket, is_write);
  return component;
}

ComponentId AccessEngine::Apply(VirtAddr addr, bool is_write, u32 socket) {
  RefreshCosts();
  return Step(addr, is_write, socket);
}

void AccessEngine::ApplyBatch(const MemAccess* accesses, u32 n, u32 thread_sockets) {
  MTM_CHECK_GT(thread_sockets, 0u);
  // Only the driver changes a link, and never inside a batch.
  RefreshCosts();
  for (u32 i = 0; i < n; ++i) {
    const MemAccess& access = accesses[i];
    Step(access.addr, access.is_write, thread_sockets == 1 ? 0 : access.thread % thread_sockets);
  }
}

void AccessEngine::Prefault(VirtAddr start, Bytes len, bool huge, u32 first_thread,
                            u32 thread_sockets) {
  MTM_CHECK(fault_handler_ != nullptr) << "prefault with no handler, addr=" << start;
  MTM_CHECK_GT(thread_sockets, 0u);
  const u64 step = huge ? kHugePageSize : kPageSize;
  MTM_CHECK(start.IsAligned(step) && len.value() % step == 0) << "unaligned prefault range";
  RefreshCosts();
  const u64 total = len.value() / step;
  // Only an HMC cache needs each write charged on its own, and only an
  // enabled PEBS engine needs to see each one; every other term of a run's
  // charge is an integer sum.
  const bool cached = !hmc_caches_.empty();
  const bool sampled = pebs_ != nullptr && pebs_->enabled();
  u64 i = 0;
  while (i < total) {
    // Consecutive writes come from consecutive threads: on one socket, they
    // form one run to the end of the range; on several, a run of one.
    const u32 socket = (first_thread + static_cast<u32>(i)) % thread_sockets;
    const u64 end = thread_sockets == 1 ? total : i + 1;
    while (i < end) {
      const VirtAddr addr = start + i * step;
      const PlacedRun run = fault_handler_->PlaceRun(addr, end - i, huge, socket);
      MTM_CHECK_NE(run.component, kInvalidComponent) << "unserviceable page fault, addr=" << addr;
      total_accesses_ += run.count;
      page_faults_ += run.count;
      clock_.AdvanceApp(config_.page_fault_ns / config_.num_threads * run.count);
      const Bytes size = run.huge ? kHugePageBytes : kPageBytes;
      page_table_.ForEachMapping(addr, size * run.count, [&](VirtAddr at, Bytes, Pte& pte) {
        pte.payload = MixPayload(pte.payload, at);
        if (cached) {
          Charge(at, run.component, socket, /*is_write=*/true);
        } else if (sampled) {
          pebs_->Observe(at, run.component, socket, /*is_write=*/true);
        }
      });
      if (!cached) {
        counters_.CountApp(run.component, /*is_write=*/true, run.count);
        clock_.AdvanceApp(access_cost_[CostSlot(socket, run.component)] * run.count);
      }
      i += run.count;
    }
  }
}

std::vector<HintFaultEvent> AccessEngine::DrainHintFaults() {
  std::vector<HintFaultEvent> out;
  out.swap(hint_fault_buffer_);
  return out;
}

}  // namespace mtm
