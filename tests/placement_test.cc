// Tests for initial page placement policies (first-touch, slow-tier-first,
// PM-only) and their THP behavior.
#include <gtest/gtest.h>

#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/placement.h"
#include "src/sim/access_engine.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/tier.h"

namespace mtm {
namespace {

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() : machine_(Machine::OptaneFourTier(512)), frames_(machine_) {}

  PlacementFaultHandler MakeHandler(PlacementPolicy policy) {
    return PlacementFaultHandler(machine_, page_table_, frames_, address_space_, policy);
  }

  Machine machine_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
};

TEST_F(PlacementTest, FirstTouchPrefersLocalDram) {
  u32 vma = address_space_.Allocate(MiB(4), false, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  VirtAddr addr = address_space_.vma(vma).start;
  EXPECT_EQ(handler.HandlePageFault(addr, /*socket=*/0, false), machine_.TierOrder(0)[0]);
  EXPECT_EQ(handler.HandlePageFault(addr + kPageSize, /*socket=*/1, false),
            machine_.TierOrder(1)[0]);
}

TEST_F(PlacementTest, FirstTouchSpillsWhenFull) {
  u32 vma = address_space_.Allocate(MiB(16), false, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  // Fill local DRAM completely.
  ComponentId t1 = machine_.TierOrder(0)[0];
  ASSERT_TRUE(frames_.Reserve(t1, frames_.free_bytes(t1)).ok());
  VirtAddr addr = address_space_.vma(vma).start;
  EXPECT_EQ(handler.HandlePageFault(addr, 0, false), machine_.TierOrder(0)[1]);
}

TEST_F(PlacementTest, SlowTierFirstPrefersLocalPm) {
  // MTM's initial placement (§9.1 Table 4): local slow tier first.
  u32 vma = address_space_.Allocate(MiB(4), false, "x");
  auto handler = MakeHandler(PlacementPolicy::kSlowTierFirst);
  VirtAddr addr = address_space_.vma(vma).start;
  ComponentId placed = handler.HandlePageFault(addr, 0, false);
  EXPECT_EQ(machine_.component(placed).mem_class, MemClass::kPm);
  EXPECT_EQ(machine_.component(placed).home_socket, 0u);
}

TEST_F(PlacementTest, SlowTierFirstFallsBackToDram) {
  u32 vma = address_space_.Allocate(MiB(4), false, "x");
  auto handler = MakeHandler(PlacementPolicy::kSlowTierFirst);
  for (ComponentId c{0}; c < machine_.end_component(); ++c) {
    if (machine_.component(c).mem_class == MemClass::kPm) {
      ASSERT_TRUE(frames_.Reserve(c, frames_.free_bytes(c)).ok());
    }
  }
  VirtAddr addr = address_space_.vma(vma).start;
  ComponentId placed = handler.HandlePageFault(addr, 0, false);
  EXPECT_EQ(machine_.component(placed).mem_class, MemClass::kDram);
}

TEST_F(PlacementTest, PmOnlyNeverUsesDram) {
  u32 vma = address_space_.Allocate(MiB(4), false, "x");
  auto handler = MakeHandler(PlacementPolicy::kPmOnly);
  for (int i = 0; i < 32; ++i) {
    VirtAddr addr = address_space_.vma(vma).start + static_cast<u64>(i) * kPageSize;
    ComponentId placed = handler.HandlePageFault(addr, static_cast<u32>(i % 2), false);
    EXPECT_EQ(machine_.component(placed).mem_class, MemClass::kPm);
  }
}

TEST_F(PlacementTest, ThpVmaGetsHugeMapping) {
  u32 vma = address_space_.Allocate(MiB(4), /*thp=*/true, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  VirtAddr addr = address_space_.vma(vma).start + 123456;
  handler.HandlePageFault(addr, 0, false);
  Bytes size;
  ASSERT_NE(page_table_.Find(addr, &size), nullptr);
  EXPECT_EQ(size, kHugePageBytes);
  EXPECT_EQ(handler.huge_faults(), 1u);
}

TEST_F(PlacementTest, HugeFallsBackToBasePageUnderPressure) {
  u32 vma = address_space_.Allocate(MiB(4), /*thp=*/true, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  // Leave less than one huge page free everywhere.
  for (ComponentId c{0}; c < machine_.end_component(); ++c) {
    Bytes keep = c == machine_.TierOrder(0)[0] ? 3 * kPageBytes : Bytes{};
    ASSERT_TRUE(frames_.Reserve(c, frames_.free_bytes(c) - keep).ok());
  }
  VirtAddr addr = address_space_.vma(vma).start;
  ComponentId placed = handler.HandlePageFault(addr, 0, false);
  EXPECT_NE(placed, kInvalidComponent);
  Bytes size;
  ASSERT_NE(page_table_.Find(addr, &size), nullptr);
  EXPECT_EQ(size, kPageBytes);
  EXPECT_EQ(handler.base_faults(), 1u);
}

TEST_F(PlacementTest, HugeFallbackMapsThePageHoldingTheFault) {
  u32 vma = address_space_.Allocate(MiB(4), /*thp=*/true, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  for (ComponentId c{0}; c < machine_.end_component(); ++c) {
    Bytes keep = c == machine_.TierOrder(0)[0] ? 3 * kPageBytes : Bytes{};
    ASSERT_TRUE(frames_.Reserve(c, frames_.free_bytes(c) - keep).ok());
  }
  VirtAddr addr = address_space_.vma(vma).start + 5 * kPageSize + 100;
  EXPECT_EQ(handler.HandlePageFault(addr, 0, false), machine_.TierOrder(0)[0]);
  EXPECT_NE(page_table_.Find(addr), nullptr);
  EXPECT_EQ(page_table_.Find(address_space_.vma(vma).start), nullptr);
  EXPECT_EQ(page_table_.mapped_base_pages(), 1u);
}

TEST_F(PlacementTest, PlaceRunFillsOneCandidateThenLeavesTheRest) {
  u32 vma = address_space_.Allocate(MiB(4), /*thp=*/false, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  const ComponentId first = machine_.TierOrder(0)[0];
  ASSERT_TRUE(frames_.Reserve(first, frames_.free_bytes(first) - 10 * kPageBytes).ok());
  const VirtAddr start = address_space_.vma(vma).start;
  PlacedRun run = handler.PlaceRun(start, 16, /*huge=*/false, 0);
  EXPECT_EQ(run.component, first);
  EXPECT_EQ(run.count, 10u);
  EXPECT_FALSE(run.huge);
  EXPECT_EQ(frames_.free_bytes(first), Bytes{});
  run = handler.PlaceRun(start + 10 * kPageSize, 6, /*huge=*/false, 0);
  EXPECT_EQ(run.component, machine_.TierOrder(0)[1]);
  EXPECT_EQ(run.count, 6u);
  EXPECT_EQ(page_table_.mapped_base_pages(), 16u);
  EXPECT_EQ(handler.base_faults(), 16u);
}

TEST_F(PlacementTest, PlaceRunOfHugeBlocks) {
  u32 vma = address_space_.Allocate(MiB(8), /*thp=*/true, "x");
  auto handler = MakeHandler(PlacementPolicy::kSlowTierFirst);
  PlacedRun run = handler.PlaceRun(address_space_.vma(vma).start, 4, /*huge=*/true, 0);
  EXPECT_EQ(machine_.component(run.component).mem_class, MemClass::kPm);
  EXPECT_EQ(run.count, 4u);
  EXPECT_TRUE(run.huge);
  EXPECT_EQ(page_table_.mapped_huge_pages(), 4u);
  EXPECT_EQ(frames_.used(run.component), MiB(8));
}

TEST_F(PlacementTest, PlaceableBytesFollowsThePolicy) {
  Bytes all;
  Bytes pm;
  for (ComponentId c{0}; c < machine_.end_component(); ++c) {
    all += frames_.capacity(c);
    if (machine_.component(c).mem_class == MemClass::kPm) {
      pm += frames_.capacity(c);
    }
  }
  EXPECT_EQ(MakeHandler(PlacementPolicy::kFirstTouch).PlaceableBytes(), all);
  EXPECT_EQ(MakeHandler(PlacementPolicy::kSlowTierFirst).PlaceableBytes(), all);
  EXPECT_EQ(MakeHandler(PlacementPolicy::kPmOnly).PlaceableBytes(), pm);
}

TEST_F(PlacementTest, NonThpVmaUsesBasePages) {
  u32 vma = address_space_.Allocate(MiB(4), /*thp=*/false, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  VirtAddr addr = address_space_.vma(vma).start;
  handler.HandlePageFault(addr, 0, false);
  Bytes size;
  ASSERT_NE(page_table_.Find(addr, &size), nullptr);
  EXPECT_EQ(size, kPageBytes);
}

TEST_F(PlacementTest, FrameAccountingMatchesMappings) {
  u32 vma = address_space_.Allocate(MiB(4), true, "x");
  auto handler = MakeHandler(PlacementPolicy::kFirstTouch);
  for (u64 off = 0; off < MiB(4).value(); off += kHugePageSize) {
    handler.HandlePageFault(address_space_.vma(vma).start + off, 0, false);
  }
  EXPECT_EQ(frames_.total_used(), MiB(4));
  EXPECT_EQ(page_table_.mapped_bytes(), MiB(4));
}

TEST(AddressSpaceTest, MinPrefaultBytes) {
  AddressSpace as;
  as.Allocate(Bytes(5000), /*thp=*/false, "base");     // every page of 2 MiB
  as.Allocate(Bytes(5000), /*thp=*/true, "huge");      // the object's two pages
  as.Allocate(MiB(4), /*thp=*/true, "later", /*prefault=*/false);
  EXPECT_EQ(as.vma(1).object_len, Bytes(5000));
  EXPECT_EQ(as.vma(1).len, kHugePageBytes);
  EXPECT_EQ(as.MinPrefaultBytes(), kHugePageBytes + 2 * kPageBytes);
}

TEST(FrameAllocatorTest, ReserveRelease) {
  Machine machine = Machine::OptaneFourTier(512);
  FrameAllocator frames(machine);
  ComponentId c{0};
  Bytes cap = frames.capacity(c);
  EXPECT_TRUE(frames.Reserve(c, cap).ok());
  EXPECT_FALSE(frames.Reserve(c, Bytes(1)).ok());
  EXPECT_EQ(frames.free_bytes(c), Bytes{});
  frames.Release(c, cap / 2);
  EXPECT_EQ(frames.free_bytes(c), cap / 2);
}

TEST(AddressSpaceTest, AllocateWithGuardGaps) {
  AddressSpace as;
  u32 a = as.Allocate(MiB(3), true, "a");
  u32 b = as.Allocate(MiB(1), false, "b");
  const Vma& va = as.vma(a);
  const Vma& vb = as.vma(b);
  EXPECT_EQ(va.len, MiB(4));  // rounded to huge multiple
  EXPECT_GE(vb.start, va.end() + kHugePageSize);
  EXPECT_TRUE(IsHugeAligned(va.start));
  EXPECT_EQ(as.FindVma(va.start + 5), &va);
  EXPECT_EQ(as.FindVma(va.end()), nullptr);  // guard gap unmapped
  EXPECT_EQ(vb.len, MiB(2));                 // also rounded up
  EXPECT_EQ(as.total_bytes(), MiB(4) + MiB(2));
}

}  // namespace
}  // namespace mtm
