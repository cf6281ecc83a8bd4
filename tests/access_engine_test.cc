// Tests for the access engine: fault handling, cost model, bit setting,
// PEBS feed, hint faults, write tracking, HMC interception.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <tuple>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/placement.h"
#include "src/sim/access_engine.h"
#include "src/sim/access_tracker.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/hmc_cache.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"

namespace mtm {
namespace {

class AccessEngineTest : public ::testing::Test {
 protected:
  AccessEngineTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        counters_(machine_.num_components()),
        engine_(machine_, page_table_, clock_, counters_, AccessEngine::Config{}) {}

  void BuildVma(Bytes bytes, bool thp) {
    vma_ = address_space_.Allocate(bytes, thp, "test");
    handler_ = std::make_unique<PlacementFaultHandler>(machine_, page_table_, frames_,
                                                       address_space_,
                                                       PlacementPolicy::kFirstTouch);
    engine_.set_fault_handler(handler_.get());
  }

  VirtAddr base() const { return address_space_.vma(vma_).start; }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  MemCounters counters_;
  AccessEngine engine_;
  std::unique_ptr<PlacementFaultHandler> handler_;
  u32 vma_ = 0;
};

TEST_F(AccessEngineTest, FaultAllocatesAndMaps) {
  BuildVma(MiB(4), /*thp=*/false);
  ComponentId c = engine_.Apply(base(), /*is_write=*/false, /*socket=*/0);
  EXPECT_EQ(c, machine_.TierOrder(0)[0]);  // first-touch: local DRAM
  EXPECT_EQ(engine_.page_faults(), 1u);
  EXPECT_NE(page_table_.Find(base()), nullptr);
  // Second access: no new fault.
  engine_.Apply(base() + 8, false, 0);
  EXPECT_EQ(engine_.page_faults(), 1u);
}

TEST_F(AccessEngineTest, ThpFaultMapsHugePage) {
  BuildVma(MiB(4), /*thp=*/true);
  engine_.Apply(base() + 12345, false, 0);
  Bytes size;
  ASSERT_NE(page_table_.Find(base(), &size), nullptr);
  EXPECT_EQ(size, kHugePageBytes);
  EXPECT_EQ(frames_.used(machine_.TierOrder(0)[0]), kHugePageBytes);
}

TEST_F(AccessEngineTest, AccessSetsBits) {
  BuildVma(MiB(2), false);
  engine_.Apply(base(), /*is_write=*/true, 0);
  Pte* pte = page_table_.Find(base());
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->accessed());
  EXPECT_TRUE(pte->dirty());
}

TEST_F(AccessEngineTest, CostModelLatencyVsBandwidth) {
  // Tier 1 (90ns, 95GB/s) is latency-bound at 8 threads; tier 4 (340ns,
  // 1GB/s) is bandwidth-bound: 64B / 1GB/s = 64ns > 340/8.
  ComponentId t1 = machine_.TierOrder(0)[0];
  ComponentId t4 = machine_.TierOrder(0)[3];
  SimNanos c1 = engine_.AccessCost(0, t1);
  SimNanos c4 = engine_.AccessCost(0, t4);
  EXPECT_LT(c1, c4);
  EXPECT_GE(c4, Nanos(64));
  EXPECT_LE(c1, Nanos(90 / 8) + engine_.config().cpu_ns_per_access);
}

TEST_F(AccessEngineTest, ClockAdvancesPerAccess) {
  BuildVma(MiB(2), false);
  SimNanos before = clock_.app_ns();
  engine_.Apply(base(), false, 0);
  EXPECT_GT(clock_.app_ns(), before);
  EXPECT_EQ(clock_.profiling_ns(), SimNanos{});
  EXPECT_EQ(clock_.migration_ns(), SimNanos{});
}

TEST_F(AccessEngineTest, CountersTrackAppAccesses) {
  BuildVma(MiB(2), false);
  engine_.Apply(base(), false, 0);
  engine_.Apply(base(), true, 0);
  ComponentId t1 = machine_.TierOrder(0)[0];
  EXPECT_EQ(counters_.app_reads(t1), 1u);
  EXPECT_EQ(counters_.app_writes(t1), 1u);
  EXPECT_EQ(counters_.total_app_accesses(), 2u);
}

TEST_F(AccessEngineTest, TrackerCounts) {
  BuildVma(MiB(2), false);
  AccessTracker tracker;
  tracker.Register(base(), MiB(2));
  engine_.set_tracker(&tracker);
  for (int i = 0; i < 5; ++i) {
    engine_.Apply(base() + 100, i % 2 == 0, 0);
  }
  EXPECT_EQ(tracker.CountSince(VpnOf(base())), 5u);
  EXPECT_EQ(tracker.WritesSince(VpnOf(base())), 3u);
  tracker.ResetEpoch();
  EXPECT_EQ(tracker.CountSince(VpnOf(base())), 0u);
}

TEST_F(AccessEngineTest, PebsSamplesAtPeriod) {
  BuildVma(MiB(8), false);
  PebsEngine::Config config;
  config.sample_period = 10;
  config.sample_pm = true;
  config.sample_dram = true;
  PebsEngine pebs(machine_, config);
  pebs.SetEnabled(true);
  engine_.set_pebs(&pebs);
  for (int i = 0; i < 100; ++i) {
    engine_.Apply(base() + static_cast<u64>(i) * kPageSize, false, 0);
  }
  EXPECT_EQ(pebs.samples_taken(), 10u);
  std::vector<PebsSample> samples = pebs.Drain();
  EXPECT_EQ(samples.size(), 10u);
  EXPECT_EQ(pebs.pending(), 0u);
}

TEST_F(AccessEngineTest, PebsFiltersDramWhenPmOnly) {
  BuildVma(MiB(8), false);
  PebsEngine::Config config;
  config.sample_period = 1;
  config.sample_pm = true;
  config.sample_dram = false;  // LOCAL/REMOTE_PMM events only
  PebsEngine pebs(machine_, config);
  pebs.SetEnabled(true);
  engine_.set_pebs(&pebs);
  engine_.Apply(base(), false, 0);  // lands in DRAM via first-touch
  EXPECT_EQ(pebs.samples_taken(), 0u);
}

TEST_F(AccessEngineTest, HintFaultRecordsSocketAndCost) {
  BuildVma(MiB(2), false);
  engine_.Apply(base(), false, 0);  // map it
  page_table_.Find(base())->Set(Pte::kHintArmed);
  SimNanos before = clock_.app_ns();
  engine_.Apply(base(), false, /*socket=*/1);
  EXPECT_EQ(engine_.hint_faults(), 1u);
  EXPECT_GT(clock_.app_ns() - before, engine_.AccessCost(1, machine_.TierOrder(0)[0]));
  std::vector<HintFaultEvent> events = engine_.DrainHintFaults();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].socket, 1u);
  EXPECT_EQ(events[0].addr, base());
  // Drained: second drain is empty; no re-fault on next access.
  EXPECT_TRUE(engine_.DrainHintFaults().empty());
  engine_.Apply(base(), false, 1);
  EXPECT_EQ(engine_.hint_faults(), 1u);
}

class RecordingObserver : public WriteTrackObserver {
 public:
  void OnWriteTrackFault(VirtAddr addr, u32 /*socket*/) override {
    ++faults;
    last_addr = addr;
  }
  int faults = 0;
  VirtAddr last_addr;
};

TEST_F(AccessEngineTest, WriteTrackFaultFiresOnceAndOnlyOnWrite) {
  BuildVma(MiB(2), false);
  engine_.Apply(base(), false, 0);
  page_table_.Find(base())->Set(Pte::kWriteTracked);
  RecordingObserver observer;
  engine_.set_write_track_observer(&observer);
  engine_.Apply(base(), /*is_write=*/false, 0);  // reads don't trip it
  EXPECT_EQ(observer.faults, 0);
  engine_.Apply(base(), /*is_write=*/true, 0);
  EXPECT_EQ(observer.faults, 1);
  EXPECT_EQ(observer.last_addr, base());
  engine_.Apply(base(), true, 0);  // tracking disarmed after first write
  EXPECT_EQ(observer.faults, 1);
}

TEST_F(AccessEngineTest, TlbInvalidatedOnRemap) {
  // The name predates the removal of the engine's software TLB and the
  // page-table generation that invalidated it. What stays to test: Apply
  // translates through the live table, so a map, an unmap, a huge-page
  // split and a component change show on the next access with no
  // invalidation call.
  BuildVma(MiB(4), false);
  ASSERT_TRUE(IsHugeAligned(base()));
  const ComponentId local = machine_.TierOrder(0)[0];
  const ComponentId other = machine_.TierOrder(0)[2];
  const ComponentId third = machine_.TierOrder(0)[3];
  engine_.Apply(base(), false, 0);
  Pte* pte = page_table_.Find(base());
  ASSERT_EQ(pte->component(), local);
  page_table_.SetComponent(base(), *pte, other);
  EXPECT_EQ(engine_.Apply(base(), false, 0), other);

  // Unmap: the next access faults and first-touch maps the page again.
  ASSERT_TRUE(page_table_.UnmapRange(base(), kPageBytes).ok());
  EXPECT_EQ(engine_.Apply(base(), false, 0), local);
  EXPECT_EQ(engine_.page_faults(), 2u);

  // Map: a page mapped behind the engine's back is used without a fault.
  const VirtAddr huge = base() + kHugePageSize;
  ASSERT_TRUE(page_table_.MapRange(huge, kHugePageBytes, other, /*huge=*/true).ok());
  EXPECT_EQ(engine_.Apply(huge + 5 * kPageSize, false, 0), other);
  EXPECT_EQ(engine_.page_faults(), 2u);

  // Split, then remap one of the new base pages.
  ASSERT_TRUE(page_table_.SplitHuge(huge).ok());
  const VirtAddr split_page = huge + 5 * kPageSize;
  page_table_.SetComponent(split_page, *page_table_.Find(split_page), third);
  EXPECT_EQ(engine_.Apply(split_page, false, 0), third);
  EXPECT_EQ(engine_.Apply(huge + 6 * kPageSize, false, 0), other);
  EXPECT_EQ(engine_.page_faults(), 2u);
}

TEST_F(AccessEngineTest, HmcModeChargesCacheCosts) {
  // Build a PM-only placement with an HMC cache: first access misses, the
  // second hits and is cheaper.
  vma_ = address_space_.Allocate(MiB(4), false, "hmc");
  handler_ = std::make_unique<PlacementFaultHandler>(machine_, page_table_, frames_,
                                                     address_space_, PlacementPolicy::kPmOnly);
  engine_.set_fault_handler(handler_.get());
  HmcCache cache(machine_, 0, MiB(1));
  engine_.set_hmc_caches({&cache, &cache});

  engine_.Apply(base(), false, 0);
  SimNanos after_miss = clock_.app_ns();
  engine_.Apply(base(), false, 0);
  SimNanos hit_cost = clock_.app_ns() - after_miss;
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_LT(hit_cost, after_miss);
}

// Commits a "migration" on every write-track fault, the way the migration
// engine's synchronous fallback does mid-batch: the faulting mapping moves
// to the faulting socket's DRAM, the next 2 MiB gets write tracking and the
// page 64 KiB ahead a hint fault. Later accesses of the same batch then see
// entries that changed after the batch began.
class CommittingObserver : public WriteTrackObserver {
 public:
  CommittingObserver(const Machine& machine, PageTable& page_table, FrameAllocator& frames)
      : machine_(machine), page_table_(page_table), frames_(frames) {}

  void OnWriteTrackFault(VirtAddr addr, u32 socket) override {
    Bytes size;
    Pte* pte = page_table_.Find(addr, &size);
    const ComponentId dram = machine_.TierOrder(socket)[0];
    if (pte->component() != dram) {
      frames_.Release(pte->component(), size);
      MTM_CHECK(frames_.Reserve(dram, size).ok());
      page_table_.SetComponent(addr, *pte, dram);
    }
    page_table_.ArmWriteTracking(HugeAlignDown(addr) + kHugePageSize, kHugePageBytes);
    if (Pte* ahead = page_table_.Find(addr + KiB(64).value()); ahead != nullptr) {
      ahead->Set(Pte::kHintArmed);
    }
  }

 private:
  const Machine& machine_;
  PageTable& page_table_;
  FrameAllocator& frames_;
};

// One engine with every per-access observer attached: PEBS on both memory
// classes at a short period into a small buffer (so it drops), an HMC cache
// per socket, the tracker, and the committing observer. Slow-tier-first
// placement puts pages on PM, where the caches intercept, and the observer
// moves some to DRAM.
struct ObservedStack {
  ObservedStack()
      : machine(Machine::OptaneFourTier(512)),
        frames(machine),
        counters(machine.num_components()),
        engine(machine, page_table, clock, counters, AccessEngine::Config{}),
        pebs(machine, PebsConfig()),
        cache0(machine, 0, MiB(1)),
        cache1(machine, 1, MiB(1)),
        observer(machine, page_table, frames) {
    base_vma = address_space.Allocate(MiB(24), /*thp=*/false, "base", /*prefault=*/false);
    huge_vma = address_space.Allocate(MiB(24), /*thp=*/true, "huge", /*prefault=*/false);
    handler = std::make_unique<PlacementFaultHandler>(machine, page_table, frames, address_space,
                                                      PlacementPolicy::kSlowTierFirst);
    engine.set_fault_handler(handler.get());
    pebs.SetEnabled(true);
    engine.set_pebs(&pebs);
    engine.set_hmc_caches({&cache0, &cache1});
    for (u32 v : {base_vma, huge_vma}) {
      tracker.Register(address_space.vma(v).start, address_space.vma(v).len);
    }
    engine.set_tracker(&tracker);
    engine.set_write_track_observer(&observer);
  }

  static PebsEngine::Config PebsConfig() {
    PebsEngine::Config config;
    config.sample_period = 7;
    config.buffer_capacity = 100;
    config.sample_dram = true;
    config.sample_pm = true;
    return config;
  }

  // Between batches: hint faults on every eighth mapping of the base VMA
  // and write tracking on a slice of each VMA, as the profiler and the
  // migration engine arm them.
  void Arm(u32 round) {
    const Vma& base = address_space.vma(base_vma);
    u64 n = 0;
    page_table.ForEachMapping(base.start, base.len, [&](VirtAddr, Bytes, Pte& pte) {
      if (n++ % 8 == round % 8) {
        pte.Set(Pte::kHintArmed);
      }
    });
    page_table.ArmWriteTracking(base.start + round * MiB(2).value(), MiB(1));
    page_table.ArmWriteTracking(address_space.vma(huge_vma).start + round * MiB(2).value(),
                                MiB(2));
  }

  Machine machine;
  SimClock clock;
  PageTable page_table;
  AddressSpace address_space;
  FrameAllocator frames;
  MemCounters counters;
  AccessEngine engine;
  PebsEngine pebs;
  HmcCache cache0;
  HmcCache cache1;
  AccessTracker tracker;
  CommittingObserver observer;
  std::unique_ptr<PlacementFaultHandler> handler;
  u32 base_vma = 0;
  u32 huge_vma = 0;
};

using PteState = std::tuple<u64, u64, u32, u32, u32>;  // addr, size, flags, component, payload

std::vector<PteState> PteStates(ObservedStack& stack) {
  std::vector<PteState> out;
  for (const Vma& vma : stack.address_space.vmas()) {
    stack.page_table.ForEachMapping(vma.start, vma.len,
                                    [&out](VirtAddr addr, Bytes size, const Pte& pte) {
      out.emplace_back(addr.value(), size.value(), pte.flags, pte.component().value(),
                       pte.payload);
    });
  }
  return out;
}

std::vector<u64> EngineState(ObservedStack& stack) {
  std::vector<u64> out = {stack.clock.app_ns().value(),  stack.engine.total_accesses(),
                          stack.engine.page_faults(),    stack.engine.hint_faults(),
                          stack.engine.write_track_faults(), stack.pebs.samples_taken(),
                          stack.pebs.samples_dropped(),  stack.cache0.hits(),
                          stack.cache0.misses(),         stack.cache0.dirty_writebacks(),
                          stack.cache1.hits(),           stack.cache1.misses(),
                          stack.cache1.dirty_writebacks()};
  for (ComponentId c{0}; c < stack.machine.end_component(); ++c) {
    out.push_back(stack.counters.app_reads(c));
    out.push_back(stack.counters.app_writes(c));
    out.push_back(stack.counters.migration_bytes(c).value());
    out.push_back(stack.frames.used(c).value());
  }
  stack.tracker.ForEachTouched([&out](Vpn vpn, u64 reads, u64 writes) {
    out.push_back(vpn.value());
    out.push_back(reads);
    out.push_back(writes);
  });
  return out;
}

using Sample = std::tuple<u64, u32, u32, bool>;  // addr, component, socket, is_write

std::vector<Sample> DrainSamples(ObservedStack& stack) {
  std::vector<Sample> out;
  for (const PebsSample& s : stack.pebs.Drain()) {
    out.emplace_back(s.addr.value(), s.component.value(), s.socket, s.is_write);
  }
  return out;
}

std::vector<Sample> DrainHints(ObservedStack& stack) {
  std::vector<Sample> out;
  for (const HintFaultEvent& e : stack.engine.DrainHintFaults()) {
    out.emplace_back(e.addr.value(), 0, e.socket, e.is_write);
  }
  return out;
}

// The batch kernel against the per-access step it replays: one stream,
// cut into batches of uneven sizes (batches of one access among them),
// through ApplyBatch on one stack and a loop of Apply on the other. The
// stream faults base pages and THP blocks in at runtime,
// takes hint faults and write-track faults whose observer commits
// mid-batch, and a bandwidth derate lands between batches. Every
// simulated output must match after every batch.
TEST_F(AccessEngineTest, ApplyBatchMatchesPerAccessApply) {
  ObservedStack batched;
  ObservedStack looped;
  constexpr u32 kThreadSockets = 2;
  Rng rng(11);
  std::vector<MemAccess> stream;
  for (u32 i = 0; i < 24'000; ++i) {
    const u32 vma = rng.NextBounded(2) == 0 ? batched.base_vma : batched.huge_vma;
    // A hot first MiB of each VMA, so pages repeat and HMC lines hit.
    const u64 span = rng.NextBounded(4) == 0 ? MiB(24).value() : MiB(1).value();
    MemAccess access;
    access.addr = batched.address_space.vma(vma).start + (rng.NextBounded(span) & ~u64{7});
    access.thread = static_cast<u32>(rng.NextBounded(8));
    access.is_write = rng.NextBounded(3) == 0;
    stream.push_back(access);
  }
  const u32 sizes[] = {1, 5, 2048, 8, 9, 700, 3, 2048, 1500};
  u32 next = 0;
  for (u32 round = 0; next < stream.size(); ++round) {
    const u32 n = std::min<u32>(sizes[round % std::size(sizes)],
                                static_cast<u32>(stream.size()) - next);
    batched.engine.ApplyBatch(stream.data() + next, n, kThreadSockets);
    for (u32 i = next; i < next + n; ++i) {
      looped.engine.Apply(stream[i].addr, stream[i].is_write, stream[i].thread % kThreadSockets);
    }
    next += n;
    ASSERT_EQ(EngineState(batched), EngineState(looped)) << "after batch " << round;
    ASSERT_EQ(PteStates(batched), PteStates(looped)) << "after batch " << round;
    ASSERT_EQ(DrainSamples(batched), DrainSamples(looped)) << "after batch " << round;
    ASSERT_EQ(DrainHints(batched), DrainHints(looped)) << "after batch " << round;
    if (round == 6) {
      for (ObservedStack* stack : {&batched, &looped}) {
        stack->machine.SetBandwidthDerate(ComponentId(2), 0.25);
        stack->machine.SetBandwidthDerate(ComponentId(0), 0.5);
      }
    }
    for (ObservedStack* stack : {&batched, &looped}) {
      stack->Arm(round);
    }
  }
  // The stream exercised what it is meant to.
  EXPECT_GT(batched.engine.page_faults(), 0u);
  EXPECT_GT(batched.engine.hint_faults(), 0u);
  EXPECT_GT(batched.engine.write_track_faults(), 0u);
  EXPECT_GT(batched.pebs.samples_dropped(), 0u);
  EXPECT_GT(batched.cache0.hits() + batched.cache1.hits(), 0u);
  EXPECT_GT(batched.frames.used(ComponentId(0)), Bytes{});
  EXPECT_GT(batched.page_table.mapped_huge_pages(), 0u);
  EXPECT_GT(batched.page_table.mapped_base_pages(), 1000u);
}

TEST(HmcCacheTest, ConflictEvictionAndWriteback) {
  Machine machine = Machine::OptaneFourTier(512);
  HmcCache cache(machine, 0, MiB(1));  // 256 sets
  u64 sets = NumPages(MiB(1));
  EXPECT_FALSE(cache.Access(Vpn(0), /*is_write=*/true).hit);
  EXPECT_TRUE(cache.Access(Vpn(0), false).hit);
  // Same set, different tag: evicts the dirty line.
  HmcCache::AccessOutcome out = cache.Access(Vpn(sets), false);
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.dirty_writeback);
  EXPECT_EQ(cache.dirty_writebacks(), 1u);
  EXPECT_NEAR(cache.hit_rate(), 1.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace mtm
