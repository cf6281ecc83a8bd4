// Failure-injection and pressure tests: what happens when tiers run out of
// space, PEBS buffers overflow, migrations have nowhere to go, the address
// space outgrows the machine — and, with the FaultInjector armed, when
// copies fail, allocations flake, and whole tiers drop off the bus.
#include <gtest/gtest.h>

#include "src/common/fault_injection.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/placement.h"
#include "src/migration/admission/admission.h"
#include "src/migration/mechanism.h"
#include "src/migration/migration_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"
#include "src/sim/tier.h"

namespace mtm {
namespace {

TEST(PressureTest, MachineNearlyFullStillPlaces) {
  // Footprint close to total capacity: placement must spill through all
  // four components without failing.
  Machine machine = Machine::OptaneFourTier(512);
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  const Bytes footprint = machine.TotalCapacity() * 9 / 10;
  u32 vma = as.Allocate(footprint, /*thp=*/true, "big");
  PlacementFaultHandler handler(machine, pt, frames, as, PlacementPolicy::kFirstTouch);
  int placed[8] = {};
  for (u64 off = 0; off < footprint.value(); off += kHugePageSize) {
    ComponentId c = handler.HandlePageFault(as.vma(vma).start + off, 0, false);
    ASSERT_NE(c, kInvalidComponent);
    ++placed[c.value()];
  }
  // Every component received pages.
  for (ComponentId c{0}; c < machine.end_component(); ++c) {
    EXPECT_GT(placed[c.value()], 0) << machine.component(c).name;
  }
  EXPECT_EQ(frames.total_used(), pt.mapped_bytes());
}

TEST(PressureTest, PlacementFailsCleanlyWhenMachineFull) {
  Machine machine = Machine::OptaneFourTier(512);
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  for (ComponentId c{0}; c < machine.end_component(); ++c) {
    ASSERT_TRUE(frames.Reserve(c, frames.free_bytes(c)).ok());
  }
  u32 vma = as.Allocate(MiB(4), false, "x");
  PlacementFaultHandler handler(machine, pt, frames, as, PlacementPolicy::kFirstTouch);
  EXPECT_EQ(handler.HandlePageFault(as.vma(vma).start, 0, false), kInvalidComponent);
}

TEST(PressureTest, MigrationWithNoRoomAnywhereRecordsFailure) {
  // Every component full: an order into a full tier whose reclaim cannot
  // cascade (all lower tiers full too) fails without corrupting state.
  Machine machine = Machine::OptaneFourTier(4096);  // tiny tiers
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  ComponentId t1 = machine.TierOrder(0)[0];
  ComponentId t3 = machine.TierOrder(0)[2];

  // Fill t1 exactly; fill every PM component so demotion has nowhere to go.
  u32 resident_vma = as.Allocate(frames.capacity(t1), false, "resident");
  ASSERT_TRUE(pt.MapRange(as.vma(resident_vma).start, frames.capacity(t1), t1, false).ok());
  ASSERT_TRUE(frames.Reserve(t1, frames.capacity(t1)).ok());
  for (ComponentId c{0}; c < machine.end_component(); ++c) {
    if (c != t1) {
      ASSERT_TRUE(frames.Reserve(c, frames.free_bytes(c)).ok());
    }
  }
  // One more region nominally on t3 (accounting-wise it is part of the
  // reserve above; map only).
  u32 hot_vma = as.Allocate(kHugePageBytes, false, "hot");
  ASSERT_TRUE(pt.MapRange(as.vma(hot_vma).start, kHugePageBytes, t3, false).ok());

  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{as.vma(hot_vma).start, kHugePageBytes, t1, 0});
  EXPECT_GT(engine.stats().bytes_failed, Bytes{});
  // The hot pages stay where they were.
  EXPECT_EQ(pt.Find(as.vma(hot_vma).start)->component(), t3);
}

TEST(PressureTest, PebsBufferOverflowDropsSamples) {
  Machine machine = Machine::OptaneFourTier(512);
  PebsEngine::Config config;
  config.sample_period = 1;
  config.buffer_capacity = 16;
  config.sample_dram = true;
  PebsEngine pebs(machine, config);
  pebs.SetEnabled(true);
  for (int i = 0; i < 100; ++i) {
    pebs.Observe(VirtAddr{0x1000} + PagesToBytes(i), ComponentId(0), 0, false);
  }
  EXPECT_EQ(pebs.pending(), 16u);
  EXPECT_EQ(pebs.samples_dropped(), 84u);
  EXPECT_EQ(pebs.Drain().size(), 16u);
  // Buffer drains and refills.
  pebs.Observe(VirtAddr{0x1000}, ComponentId(0), 0, false);
  EXPECT_EQ(pebs.pending(), 1u);
}

TEST(PressureTest, WorkloadLargerThanFastTiersRuns) {
  // The paper's setup requires footprints exceeding the two fast tiers;
  // verify end-to-end that such a run completes under every major solution.
  ExperimentConfig config;
  config.sim_scale = 2048;  // GUPS at 256 MiB vs 48+48 MiB DRAM
  config.num_intervals = 8;
  for (SolutionKind kind : Figure4Solutions()) {
    RunResult r = RunExperiment("gups", kind, config);
    EXPECT_GT(r.total_accesses, 0u) << SolutionKindName(kind);
    Bytes dram;
    Machine machine = Machine::OptaneFourTier(config.sim_scale);
    for (ComponentId c{0}; c < machine.end_component(); ++c) {
      if (machine.component(c).mem_class == MemClass::kDram) {
        dram += machine.component(c).capacity_bytes;
      }
    }
    EXPECT_GT(r.footprint_bytes, dram);
  }
}

TEST(PressureTest, ZeroLengthOrderIsNoop) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{VirtAddr{0x5500'0000'0000ull}, Bytes{}, ComponentId(0), 0});
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().bytes_migrated, Bytes{});
}

TEST(PressureTest, RepeatedFlushIdempotent) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMoveMemoryRegions);
  engine.Flush();
  engine.Flush();
  EXPECT_EQ(engine.stats().bytes_migrated, Bytes{});
}

TEST(PressureTest, TwoTierDemotionTargetsExist) {
  // On the two-tier machine, reclaim from DRAM must demote to PM (the only
  // slower class) and never fail while PM has room.
  Machine machine = Machine::TwoTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  ComponentId dram = machine.TierOrder(0)[0];
  ComponentId pm = machine.TierOrder(0)[1];

  u32 fill = as.Allocate(frames.capacity(dram), false, "fill");
  ASSERT_TRUE(pt.MapRange(as.vma(fill).start, frames.capacity(dram), dram, false).ok());
  ASSERT_TRUE(frames.Reserve(dram, frames.capacity(dram)).ok());
  u32 hot = as.Allocate(kHugePageBytes, false, "hot");
  ASSERT_TRUE(pt.MapRange(as.vma(hot).start, kHugePageBytes, pm, false).ok());
  ASSERT_TRUE(frames.Reserve(pm, kHugePageBytes).ok());

  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kNimble);
  (void)engine.Submit(MigrationOrder{as.vma(hot).start, kHugePageBytes, dram, 0});
  EXPECT_EQ(pt.Find(as.vma(hot).start)->component(), dram);
  EXPECT_GT(engine.stats().reclaim_demotions, 0u);
}

TEST(FaultInjectorTest, EmptySpecIsInert) {
  Result<FaultInjector> inj = FaultInjector::Parse("", 42);
  ASSERT_TRUE(inj.ok());
  EXPECT_FALSE(inj->armed());
  EXPECT_FALSE(inj->ShouldFail(FaultSite::kMigrationCopy));
  EXPECT_EQ(inj->draws(FaultSite::kMigrationCopy), 0u);  // no RNG consumed
}

TEST(FaultInjectorTest, SpecParsing) {
  Result<FaultInjector> inj = FaultInjector::Parse(
      "copy_fail:p=0.25;remap_fail:p=0.5;alloc_fail:p=1;pebs_drop:p=0;"
      "tier_derate:c=2,at=2s,f=0.25;tier_offline:c=3,at=250ms", 42);
  ASSERT_TRUE(inj.ok()) << inj.status().ToString();
  EXPECT_TRUE(inj->armed());
  EXPECT_DOUBLE_EQ(inj->probability(FaultSite::kMigrationCopy), 0.25);
  EXPECT_DOUBLE_EQ(inj->probability(FaultSite::kMigrationRemap), 0.5);
  EXPECT_DOUBLE_EQ(inj->probability(FaultSite::kAllocation), 1.0);
  EXPECT_DOUBLE_EQ(inj->probability(FaultSite::kPebsDrop), 0.0);
  ASSERT_EQ(inj->schedule().size(), 2u);
  // Schedule is ordered by time: the offline at 250ms precedes the 2s derate.
  EXPECT_EQ(inj->schedule()[0].component, ComponentId(3));
  EXPECT_TRUE(inj->schedule()[0].offline);
  EXPECT_EQ(inj->schedule()[0].at_ns, Millis(250));
  EXPECT_EQ(inj->schedule()[1].component, ComponentId(2));
  EXPECT_FALSE(inj->schedule()[1].offline);
  EXPECT_DOUBLE_EQ(inj->schedule()[1].bandwidth_derate, 0.25);

  for (const char* bad : {"copy_fail", "copy_fail:p=2", "copy_fail:q=0.1", "bogus:p=0.1",
                          "tier_offline:c=1", "tier_offline:c=x,at=1s",
                          "tier_derate:c=1,at=1s", "tier_derate:c=1,at=1s,f=1.5",
                          "tier_offline:c=1,at=1parsec"}) {
    EXPECT_FALSE(FaultInjector::Parse(bad, 42).ok()) << bad;
  }
}

TEST(FaultInjectorTest, ParseDurationUnits) {
  EXPECT_EQ(*ParseDuration("1500"), Nanos(1500));
  EXPECT_EQ(*ParseDuration("1500ns"), Nanos(1500));
  EXPECT_EQ(*ParseDuration("10us"), Micros(10));
  EXPECT_EQ(*ParseDuration("250ms"), Millis(250));
  EXPECT_EQ(*ParseDuration("5s"), Seconds(5));
  EXPECT_FALSE(ParseDuration("abc").ok());
  EXPECT_FALSE(ParseDuration("-3s").ok());
}

TEST(FaultInjectorTest, SeededSequenceReplaysIdentically) {
  const std::string spec = "copy_fail:p=0.1;pebs_drop:p=0.3";
  Result<FaultInjector> a = FaultInjector::Parse(spec, 1234);
  Result<FaultInjector> b = FaultInjector::Parse(spec, 1234);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a->ShouldFail(FaultSite::kMigrationCopy), b->ShouldFail(FaultSite::kMigrationCopy));
    EXPECT_EQ(a->ShouldFail(FaultSite::kPebsDrop), b->ShouldFail(FaultSite::kPebsDrop));
  }
  EXPECT_EQ(a->total_injected(), b->total_injected());
  EXPECT_GT(a->total_injected(), 0u);
}

TEST(FaultInjectorTest, SitesHaveIndependentStreams) {
  // Enabling and drawing from one site must not change another site's
  // sequence: replay copy_fail alone vs interleaved with pebs_drop draws.
  Result<FaultInjector> alone = FaultInjector::Parse("copy_fail:p=0.2", 99);
  Result<FaultInjector> mixed = FaultInjector::Parse("copy_fail:p=0.2;pebs_drop:p=0.5", 99);
  ASSERT_TRUE(alone.ok() && mixed.ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(alone->ShouldFail(FaultSite::kMigrationCopy),
              mixed->ShouldFail(FaultSite::kMigrationCopy));
    mixed->ShouldFail(FaultSite::kPebsDrop);  // extra draws on another stream
  }
}

TEST(FaultInjectionTest, CopyFailureRollsBackCleanly) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  ComponentId t1 = machine.TierOrder(0)[0];
  ComponentId t3 = machine.TierOrder(0)[2];

  u32 hot = as.Allocate(kHugePageBytes, false, "hot");
  ASSERT_TRUE(pt.MapRange(as.vma(hot).start, kHugePageBytes, t3, false).ok());
  ASSERT_TRUE(frames.Reserve(t3, kHugePageBytes).ok());

  FaultInjector inj = *FaultInjector::Parse("copy_fail:p=1", 42);
  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMovePages);
  engine.set_fault_injector(&inj);

  Status s = engine.Submit(MigrationOrder{as.vma(hot).start, kHugePageBytes, t1, 0});
  EXPECT_TRUE(IsUnavailable(s)) << s.ToString();
  // Rollback: source still mapped, nothing landed on the target, frame
  // accounting agrees with the page table, and a retry is queued.
  EXPECT_EQ(pt.Find(as.vma(hot).start)->component(), t3);
  EXPECT_EQ(frames.used(t1), Bytes{});
  EXPECT_EQ(frames.total_used(), pt.mapped_bytes());
  EXPECT_TRUE(engine.VerifyInvariants().ok());
  EXPECT_EQ(engine.stats().injected_copy_failures, 1u);
  EXPECT_EQ(engine.stats().rollbacks, 1u);
  EXPECT_EQ(engine.stats().bytes_migrated, Bytes{});
  EXPECT_EQ(engine.retry_backlog(), 1u);
}

TEST(FaultInjectionTest, BackoffRetryEventuallySucceeds) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  ComponentId t1 = machine.TierOrder(0)[0];
  ComponentId t3 = machine.TierOrder(0)[2];

  u32 hot = as.Allocate(kHugePageBytes, false, "hot");
  ASSERT_TRUE(pt.MapRange(as.vma(hot).start, kHugePageBytes, t3, false).ok());
  ASSERT_TRUE(frames.Reserve(t3, kHugePageBytes).ok());

  FaultInjector inj = *FaultInjector::Parse("copy_fail:p=1", 42);
  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMovePages);
  engine.set_fault_injector(&inj);

  EXPECT_TRUE(IsUnavailable(
      engine.Submit(MigrationOrder{as.vma(hot).start, kHugePageBytes, t1, 0})));
  ASSERT_EQ(engine.retry_backlog(), 1u);

  // The device recovers. Before the backoff deadline nothing happens;
  // after it the queued retry re-submits and commits.
  inj.set_probability(FaultSite::kMigrationCopy, 0.0);
  engine.Poll();
  EXPECT_EQ(engine.retry_backlog(), 1u) << "retried before its backoff expired";
  clock.AdvanceApp(engine.retry_policy().initial_backoff_ns + Nanos(1));
  engine.Poll();
  EXPECT_EQ(engine.retry_backlog(), 0u);
  EXPECT_EQ(engine.stats().retries, 1u);
  EXPECT_EQ(pt.Find(as.vma(hot).start)->component(), t1);
  EXPECT_EQ(engine.stats().bytes_migrated, kHugePageBytes);
  EXPECT_TRUE(engine.VerifyInvariants().ok());
}

TEST(FaultInjectionTest, ThrashGuardAbandonsHotWrittenRegion) {
  // A region under a write storm: every async copy is interrupted by a
  // write fault, and the injected copy failure aborts the forced-sync
  // completion each time. The thrash guard must abandon it within one
  // interval instead of retrying forever.
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  ComponentId t1 = machine.TierOrder(0)[0];
  ComponentId t3 = machine.TierOrder(0)[2];

  u32 hot = as.Allocate(kHugePageBytes, false, "hot");
  ASSERT_TRUE(pt.MapRange(as.vma(hot).start, kHugePageBytes, t3, false).ok());
  ASSERT_TRUE(frames.Reserve(t3, kHugePageBytes).ok());

  FaultInjector inj = *FaultInjector::Parse("copy_fail:p=1", 42);
  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMoveMemoryRegions);
  engine.set_fault_injector(&inj);
  MigrationRetryPolicy rp;
  rp.initial_backoff_ns = SimNanos{};  // retry as soon as Poll sees the queue
  engine.set_retry_policy(rp);
  engine.BeginInterval();

  const VirtAddr addr = as.vma(hot).start;
  EXPECT_TRUE(engine.Submit(MigrationOrder{addr, kHugePageBytes, t1, 0}).ok());
  for (int round = 0; round < 5; ++round) {
    if (engine.pending() > 0) {
      engine.OnWriteTrackFault(addr, 0);  // the write storm strikes again
    }
    engine.Poll();
  }
  EXPECT_EQ(engine.stats().thrash_aborts, 1u);
  EXPECT_EQ(engine.stats().orders_abandoned, 1u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.retry_backlog(), 0u);
  // The region survived in place through every abort.
  EXPECT_EQ(pt.Find(addr)->component(), t3);
  EXPECT_TRUE(engine.VerifyInvariants().ok());

  // A new interval opens a fresh thrash window: the region is eligible again.
  engine.BeginInterval();
  inj.set_probability(FaultSite::kMigrationCopy, 0.0);
  EXPECT_TRUE(engine.Submit(MigrationOrder{addr, kHugePageBytes, t1, 0}).ok());
  engine.Flush();
  EXPECT_EQ(pt.Find(addr)->component(), t1);
}

TEST(FaultInjectionTest, OfflineTierDrainRelocatesEveryResident) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  ComponentId pm0 = machine.TierOrder(0)[2];

  const Bytes bytes = 16 * kHugePageBytes;
  u32 data = as.Allocate(bytes, /*thp=*/true, "data");
  ASSERT_TRUE(pt.MapRange(as.vma(data).start, bytes, pm0, true).ok());
  ASSERT_TRUE(frames.Reserve(pm0, bytes).ok());

  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMoveMemoryRegions);
  machine.SetOffline(pm0, true);
  TierFaultEvent event;
  event.component = pm0;
  event.offline = true;
  engine.OnTierFault(event);

  // Every page left the dead component, and accounting stayed consistent.
  EXPECT_EQ(frames.used(pm0), Bytes{});
  EXPECT_EQ(engine.stats().tier_drains, 1u);
  EXPECT_EQ(engine.stats().drained_bytes, bytes);
  EXPECT_EQ(engine.stats().drain_failed_bytes, Bytes{});
  pt.ForEachMapping(as.vma(data).start, bytes, [&](VirtAddr, Bytes, const Pte& pte) {
    EXPECT_NE(pte.component(), pm0);
  });
  EXPECT_EQ(frames.total_used(), pt.mapped_bytes());
  EXPECT_TRUE(engine.VerifyInvariants().ok());

  // And the dead tier accepts no new orders.
  Status s = engine.Submit(MigrationOrder{as.vma(data).start, kHugePageBytes, pm0, 0});
  EXPECT_TRUE(IsUnavailable(s));
}

TEST(FaultInjectionTest, OfflineEventRollsBackInFlightOrders) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  ComponentId t1 = machine.TierOrder(0)[0];
  ComponentId pm0 = machine.TierOrder(0)[2];

  u32 hot = as.Allocate(kHugePageBytes, false, "hot");
  ASSERT_TRUE(pt.MapRange(as.vma(hot).start, kHugePageBytes, t1, false).ok());
  ASSERT_TRUE(frames.Reserve(t1, kHugePageBytes).ok());

  MigrationEngine engine(machine, pt, frames, as, counters, clock,
                         MechanismKind::kMoveMemoryRegions);
  // Async demotion toward PM0 is in flight when PM0 dies.
  EXPECT_TRUE(engine.Submit(MigrationOrder{as.vma(hot).start, kHugePageBytes, pm0, 0}).ok());
  ASSERT_EQ(engine.pending(), 1u);

  machine.SetOffline(pm0, true);
  TierFaultEvent event;
  event.component = pm0;
  event.offline = true;
  engine.OnTierFault(event);

  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().rollbacks, 1u);
  EXPECT_EQ(engine.stats().orders_abandoned, 1u);
  EXPECT_EQ(pt.Find(as.vma(hot).start)->component(), t1);
  // Write tracking was disarmed by the rollback.
  EXPECT_FALSE(pt.Find(as.vma(hot).start)->write_tracked());
  EXPECT_TRUE(engine.VerifyInvariants().ok());
}

TEST(FaultInjectionTest, ChaosRunStaysConsistentEndToEnd) {
  // The PR's acceptance scenario: a seeded schedule with >=1% copy-failure
  // probability plus a mid-run tier-offline must complete with zero
  // invariant violations and everything drained off the dead tier.
  ExperimentConfig config;
  config.num_intervals = 12;
  config.target_accesses = 0;  // run all intervals
  config.fault_spec =
      "copy_fail:p=0.05;alloc_fail:p=0.02;pebs_drop:p=0.05;tier_offline:c=2,at=100ms";
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_TRUE(r.faults.active);
  EXPECT_EQ(r.faults.invariant_violations, 0u) << r.faults.first_violation;
  EXPECT_EQ(r.faults.tier_events, 1u);
  EXPECT_EQ(r.migration_stats.tier_drains, 1u);
  EXPECT_GT(r.migration_stats.drained_bytes, Bytes{});
  // The injected faults actually exercised the rollback/retry machinery.
  EXPECT_GT(r.faults.copy_failures + r.faults.alloc_failures, 0u);
  EXPECT_GT(r.migration_stats.rollbacks + r.migration_stats.retries, 0u);
}

TEST(FaultInjectionTest, ChaosRunReplaysIdentically) {
  ExperimentConfig config;
  config.num_intervals = 6;
  config.fault_spec = "copy_fail:p=0.05;alloc_fail:p=0.02;tier_offline:c=2,at=60ms";
  RunResult a = RunExperiment("gups", SolutionKind::kMtm, config);
  RunResult b = RunExperiment("gups", SolutionKind::kMtm, config);
  // The replay covers the rollback path, not only fault-free commits.
  EXPECT_GT(a.migration_stats.rollbacks, 0u);
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.total_ns(), b.total_ns());
  EXPECT_EQ(a.migration_stats.bytes_migrated, b.migration_stats.bytes_migrated);
  EXPECT_EQ(a.migration_stats.rollbacks, b.migration_stats.rollbacks);
  EXPECT_EQ(a.migration_stats.retries, b.migration_stats.retries);
  EXPECT_EQ(a.faults.copy_failures, b.faults.copy_failures);
  EXPECT_EQ(a.faults.alloc_failures, b.faults.alloc_failures);
  EXPECT_EQ(a.migration_stats.drained_bytes, b.migration_stats.drained_bytes);
}

TEST(FaultInjectionTest, EmptySpecMatchesFaultFreeRun) {
  // A config with no fault_spec and one with an all-zero injector must
  // produce identical runs — the wiring itself may not perturb anything.
  ExperimentConfig plain;
  plain.num_intervals = 4;
  RunResult a = RunExperiment("gups", SolutionKind::kMtm, plain);
  ExperimentConfig with_spec = plain;
  with_spec.fault_spec = "copy_fail:p=0";  // parses but never fires
  RunResult b = RunExperiment("gups", SolutionKind::kMtm, with_spec);
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.total_ns(), b.total_ns());
  EXPECT_EQ(a.migration_stats.bytes_migrated, b.migration_stats.bytes_migrated);
  EXPECT_EQ(a.migration_stats.sync_fallbacks, b.migration_stats.sync_fallbacks);
}

}  // namespace
}  // namespace mtm
