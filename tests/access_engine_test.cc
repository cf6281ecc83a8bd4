// Tests for the access engine: fault handling, cost model, bit setting,
// PEBS feed, hint faults, write tracking, HMC interception.
#include <gtest/gtest.h>

#include <memory>

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
