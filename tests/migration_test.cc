// Tests for migration mechanisms and the migration engine (§7).
#include <gtest/gtest.h>

#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/cost_model.h"
#include "src/migration/mechanism.h"
#include "src/migration/migration_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        counters_(machine_.num_components()),
        t1_(machine_.TierOrder(0)[0]),
        t2_(machine_.TierOrder(0)[1]),
        t3_(machine_.TierOrder(0)[2]),
        t4_(machine_.TierOrder(0)[3]) {}

  VirtAddr BuildMapped(Bytes bytes, ComponentId component, bool huge) {
    u32 vma = address_space_.Allocate(bytes, huge, "w");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, huge).ok());
    EXPECT_TRUE(frames_.Reserve(component, address_space_.vma(vma).len).ok());
    return start;
  }

  MigrationEngine MakeEngine(MechanismKind kind) {
    return MigrationEngine(machine_, page_table_, frames_, address_space_, counters_, clock_,
                           kind);
  }

  ComponentId ComponentAt(VirtAddr addr) {
    Pte* pte = page_table_.Find(addr);
    return pte == nullptr ? kInvalidComponent : pte->component();
  }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  MemCounters counters_;
  ComponentId t1_, t2_, t3_, t4_;
};

// ------------------------------------------------------- mechanism costs --

TEST_F(MigrationTest, MovePagesCopyDominates) {
  // Figure 3: "Copying pages is the most time-consuming step".
  MigrationCostModel model;
  MechanismCost cost = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0,
                                            t1_, t4_, 0, /*huge_pages=*/1);
  EXPECT_GT(cost.critical.copy_ns, cost.critical.allocate_ns);
  EXPECT_GT(cost.critical.copy_ns, cost.critical.unmap_remap_ns / 2);
  double share = static_cast<double>(cost.critical.copy_ns.value()) /
                 static_cast<double>(cost.CriticalNs().value());
  EXPECT_GT(share, 0.3);
  EXPECT_EQ(cost.BackgroundNs(), SimNanos{});
}

TEST_F(MigrationTest, MmrCriticalPathMuchCheaper) {
  // Figure 3: move_memory_regions() is ~4.4x faster than move_pages() on
  // the exposed path (copy and allocation run on helper threads).
  MigrationCostModel model;
  // A 2 MiB region of base pages, as move_pages() handles it.
  MechanismCost mp = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0, t1_,
                                          t4_, kPagesPerHugePage, 0);
  MechanismCost mmr = ComputeMechanismCost(MechanismKind::kMoveMemoryRegions, model, machine_,
                                           0, t1_, t4_, kPagesPerHugePage, 0);
  double ratio =
      static_cast<double>(mp.CriticalNs().value()) / static_cast<double>(mmr.CriticalNs().value());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 15.0);
  EXPECT_GT(mmr.BackgroundNs(), SimNanos{});
  EXPECT_EQ(mmr.critical.copy_ns, SimNanos{});
}

TEST_F(MigrationTest, NimbleBetweenMovePagesAndMmr) {
  MigrationCostModel model;
  MechanismCost mp = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0, t1_,
                                          t3_, 0, 4);
  MechanismCost nb = ComputeMechanismCost(MechanismKind::kNimble, model, machine_, 0, t1_,
                                          t3_, 0, 4);
  MechanismCost mmr = ComputeMechanismCost(MechanismKind::kMoveMemoryRegions, model, machine_,
                                           0, t1_, t3_, 0, 4);
  EXPECT_LT(nb.CriticalNs(), mp.CriticalNs());
  EXPECT_GT(nb.CriticalNs(), mmr.CriticalNs());
}

TEST_F(MigrationTest, MmrSyncExposesCopy) {
  MigrationCostModel model;
  MechanismCost sync = ComputeMechanismCost(MechanismKind::kMmrSync, model, machine_, 0, t1_,
                                            t3_, 0, 1);
  EXPECT_GT(sync.critical.copy_ns, SimNanos{});
  EXPECT_EQ(sync.BackgroundNs(), SimNanos{});
}

TEST_F(MigrationTest, SlowerLinkCostsMore) {
  MigrationCostModel model;
  MechanismCost to_t3 = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0,
                                             t1_, t3_, 0, 1);
  MechanismCost to_t4 = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0,
                                             t1_, t4_, 0, 1);
  EXPECT_GT(to_t4.critical.copy_ns, to_t3.critical.copy_ns);
}

// --------------------------------------------------------------- engine --

TEST_F(MigrationTest, SyncSubmitCommitsImmediately) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(2).value()), t3_);  // outside the order
  EXPECT_EQ(engine.stats().bytes_migrated, MiB(2));
  EXPECT_EQ(frames_.used(t1_), MiB(2));
  EXPECT_EQ(frames_.used(t3_), MiB(4) - MiB(2));
  EXPECT_GT(clock_.migration_ns(), SimNanos{});
  EXPECT_GT(counters_.migration_bytes(t1_), Bytes{});
}

TEST_F(MigrationTest, AsyncDefersUntilPoll) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  // Copy is in flight: pages still on the source, write tracking armed.
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(ComponentAt(start), t3_);
  EXPECT_TRUE(page_table_.Find(start)->write_tracked());
  // The copy window passes (advance app time), Poll completes the move.
  clock_.AdvanceApp(Seconds(1));
  engine.Poll();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_FALSE(page_table_.Find(start)->write_tracked());
  EXPECT_EQ(engine.stats().sync_fallbacks, 0u);
}

TEST_F(MigrationTest, WriteDuringAsyncSwitchesToSync) {
  // §7.2: "whenever any page in the region for migration is written after
  // the asynchronous page copy starts, MTM switches to the synchronous page
  // copy immediately".
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  SimNanos before = clock_.migration_ns();
  engine.OnWriteTrackFault(start + kPageSize, 0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(ComponentAt(start), t1_);  // committed immediately
  EXPECT_GT(clock_.migration_ns(), before);  // remaining copy exposed
}

TEST_F(MigrationTest, FlushCompletesPending) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  engine.Flush();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(ComponentAt(start), t1_);
}

TEST_F(MigrationTest, OverlappingAsyncOrderDropped) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  (void)engine.Submit(MigrationOrder{start + MiB(1).value(), MiB(2), t2_, 0});
  EXPECT_EQ(engine.pending(), 1u);
}

TEST_F(MigrationTest, NoopOrderIgnored) {
  VirtAddr start = BuildMapped(MiB(2), t1_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});  // already there
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().bytes_migrated, Bytes{});
}

TEST_F(MigrationTest, HugeMappingsMigrateWhole) {
  VirtAddr start = BuildMapped(MiB(4), t3_, /*huge=*/true);
  MigrationEngine engine = MakeEngine(MechanismKind::kNimble);
  (void)engine.Submit(MigrationOrder{start, kHugePageBytes, t1_, 0});
  Bytes size;
  ASSERT_NE(page_table_.Find(start, &size), nullptr);
  EXPECT_EQ(size, kHugePageBytes);
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_EQ(ComponentAt(start + kHugePageSize), t3_);
}

TEST_F(MigrationTest, ReclaimDemotesWhenDestinationFull) {
  // Fill t1 with cold pages; a promotion then demotes them down-class.
  VirtAddr cold = BuildMapped(frames_.capacity(t1_), t1_, false);
  VirtAddr hot = BuildMapped(MiB(2), t3_, false);
  ASSERT_EQ(frames_.free_bytes(t1_), Bytes{});
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{hot, MiB(2), t1_, 0});
  EXPECT_EQ(ComponentAt(hot), t1_);
  EXPECT_GT(engine.stats().reclaim_demotions, 0u);
  // Victims went to a strictly slower class (PM), never laterally to DRAM1.
  int on_dram1 = 0;
  page_table_.ForEachMapping(cold, frames_.capacity(t1_), [&](VirtAddr, Bytes, Pte& pte) {
    on_dram1 += pte.component() == t2_;
  });
  EXPECT_EQ(on_dram1, 0);
}

TEST_F(MigrationTest, ReclaimPrefersInactivePages) {
  VirtAddr cold = BuildMapped(frames_.capacity(t1_), t1_, false);
  VirtAddr hot = BuildMapped(MiB(2), t3_, false);
  // Mark the first half of t1's pages accessed (active).
  page_table_.ForEachMapping(cold, frames_.capacity(t1_) / 2,
                             [](VirtAddr, Bytes, Pte& pte) { pte.Set(Pte::kAccessed); });
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{hot, MiB(2), t1_, 0});
  // Active pages survive: count demotions from the active half.
  int demoted_active = 0;
  page_table_.ForEachMapping(cold, frames_.capacity(t1_) / 2, [&](VirtAddr, Bytes, Pte& pte) {
    demoted_active += pte.component() != t1_;
  });
  EXPECT_EQ(demoted_active, 0);
}

TEST_F(MigrationTest, StepBreakdownAccumulates) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  const MigrationStepBreakdown& steps = engine.stats().steps;
  EXPECT_GT(steps.allocate_ns, SimNanos{});
  EXPECT_GT(steps.unmap_remap_ns, SimNanos{});
  EXPECT_GT(steps.copy_ns, SimNanos{});
  EXPECT_EQ(steps.Total(), engine.stats().critical_ns);
}

TEST_F(MigrationTest, MixedSourceRegionsHandled) {
  // A range straddling two components migrates everything to the target.
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{start, MiB(1), t4_, 0});
  ASSERT_EQ(ComponentAt(start), t4_);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(1).value()), t1_);
}

}  // namespace
}  // namespace mtm
