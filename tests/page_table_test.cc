// Tests for the five-level simulated page table: mapping, huge pages,
// accessed/dirty semantics, PTE scans, and structural invariants.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/sim/page_table.h"

namespace mtm {
namespace {

constexpr VirtAddr kBase{0x5500'0000'0000ull};

TEST(PageTableTest, MapAndFindBasePage) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(2), /*huge=*/false).ok());
  Bytes size;
  Pte* pte = pt.Find(kBase + 100, &size);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(size, kPageBytes);
  EXPECT_EQ(pte->component, ComponentId(2));
  EXPECT_TRUE(pte->present());
  EXPECT_FALSE(pte->huge());
  EXPECT_EQ(pt.mapped_bytes(), kPageBytes);
  EXPECT_EQ(pt.mapped_base_pages(), 1u);
}

TEST(PageTableTest, MapAndFindHugePage) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kHugePageBytes, ComponentId(1), /*huge=*/true).ok());
  Bytes size;
  Pte* pte = pt.Find(kBase + kPageSize * 37, &size);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(size, kHugePageBytes);
  EXPECT_TRUE(pte->huge());
  EXPECT_EQ(pt.mapped_huge_pages(), 1u);
  // The whole 2 MiB range resolves to the same entry.
  EXPECT_EQ(pt.Find(kBase), pte);
  EXPECT_EQ(pt.Find(kBase + kHugePageSize - 1), pte);
}

TEST(PageTableTest, UnalignedMapRejected) {
  PageTable pt;
  EXPECT_FALSE(pt.MapRange(kBase + 1, kPageBytes, ComponentId(0), false).ok());
  EXPECT_FALSE(pt.MapRange(kBase, kPageBytes + Bytes(1), ComponentId(0), false).ok());
  EXPECT_FALSE(pt.MapRange(kBase + kPageSize, kHugePageBytes, ComponentId(0), true).ok());
  EXPECT_FALSE(pt.MapRange(kBase, Bytes{}, ComponentId(0), false).ok());
}

TEST(PageTableTest, DoubleMapRejected) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(0), false).ok());
  EXPECT_EQ(pt.MapRange(kBase, kPageBytes, ComponentId(1), false).code(), StatusCode::kAlreadyExists);
  // Huge over existing base pages rejected, and vice versa.
  EXPECT_FALSE(pt.MapRange(PageAlignDown(kBase), kHugePageBytes, ComponentId(1), true).ok());
  ASSERT_TRUE(pt.MapRange(kBase + kHugePageSize, kHugePageBytes, ComponentId(1), true).ok());
  EXPECT_FALSE(pt.MapRange(kBase + kHugePageSize, kPageBytes, ComponentId(1), false).ok());
}

TEST(PageTableTest, UnmapRange) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, 8 * kPageBytes, ComponentId(0), false).ok());
  ASSERT_TRUE(pt.UnmapRange(kBase, 4 * kPageBytes).ok());
  EXPECT_EQ(pt.Find(kBase), nullptr);
  EXPECT_NE(pt.Find(kBase + 4 * kPageSize), nullptr);
  EXPECT_EQ(pt.mapped_base_pages(), 4u);
}

TEST(PageTableTest, UnmapCannotSplitHugeMapping) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kHugePageBytes, ComponentId(0), true).ok());
  EXPECT_FALSE(pt.UnmapRange(kBase, kPageBytes).ok());
  EXPECT_TRUE(pt.UnmapRange(kBase, kHugePageBytes).ok());
  EXPECT_EQ(pt.mapped_bytes(), Bytes{});
}

TEST(PageTableTest, TouchSetsAccessedAndDirty) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(0), false).ok());
  Pte* pte = nullptr;
  EXPECT_EQ(pt.Touch(kBase, /*is_write=*/false, &pte), PageTable::TouchResult::kOk);
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->accessed());
  EXPECT_FALSE(pte->dirty());
  EXPECT_EQ(pt.Touch(kBase, /*is_write=*/true), PageTable::TouchResult::kOk);
  EXPECT_TRUE(pte->dirty());
}

TEST(PageTableTest, TouchUnmappedIsFault) {
  PageTable pt;
  EXPECT_EQ(pt.Touch(kBase, false), PageTable::TouchResult::kNotPresent);
}

TEST(PageTableTest, WriteTrackFaultOnlyOnWrite) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(0), false).ok());
  pt.Find(kBase)->Set(Pte::kWriteTracked);
  EXPECT_EQ(pt.Touch(kBase, /*is_write=*/false), PageTable::TouchResult::kOk);
  EXPECT_EQ(pt.Touch(kBase, /*is_write=*/true), PageTable::TouchResult::kWriteTrackFault);
}

TEST(PageTableTest, ScanAccessedReadsAndClears) {
  // The paper's PTE-scan primitive: read the accessed bit, clear it, no TLB
  // flush (§5).
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(0), false).ok());
  bool accessed = true;
  ASSERT_TRUE(pt.ScanAccessed(kBase, &accessed));
  EXPECT_FALSE(accessed);  // not yet touched
  pt.Touch(kBase, false);
  ASSERT_TRUE(pt.ScanAccessed(kBase, &accessed));
  EXPECT_TRUE(accessed);
  ASSERT_TRUE(pt.ScanAccessed(kBase, &accessed));
  EXPECT_FALSE(accessed);  // cleared by the previous scan
  EXPECT_FALSE(pt.ScanAccessed(kBase + kHugePageSize, &accessed));  // unmapped
}

TEST(PageTableTest, HugePageHasOneAccessedBit) {
  // §5.4: a huge page is profiled through its single PDE.
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kHugePageBytes, ComponentId(0), true).ok());
  pt.Touch(kBase + 300 * kPageSize, false);
  bool accessed = false;
  ASSERT_TRUE(pt.ScanAccessed(kBase + 7 * kPageSize, &accessed));
  EXPECT_TRUE(accessed);  // any sub-page access shows at the huge PTE
}

TEST(PageTableTest, SplitHuge) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kHugePageBytes, ComponentId(3), true).ok());
  pt.Touch(kBase, true);
  ASSERT_TRUE(pt.SplitHuge(kBase + 5 * kPageSize).ok());
  EXPECT_EQ(pt.mapped_huge_pages(), 0u);
  EXPECT_EQ(pt.mapped_base_pages(), kPagesPerHugePage);
  Bytes size;
  Pte* pte = pt.Find(kBase + 100 * kPageSize, &size);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(size, kPageBytes);
  EXPECT_EQ(pte->component, ComponentId(3));
  EXPECT_TRUE(pte->accessed());  // A/D bits inherited
  EXPECT_TRUE(pte->dirty());
  EXPECT_FALSE(pt.SplitHuge(kBase).ok());  // already split
}

TEST(PageTableTest, ForEachMappingVisitsInOrder) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, 3 * kPageBytes, ComponentId(0), false).ok());
  ASSERT_TRUE(pt.MapRange(kBase + kHugePageSize, kHugePageBytes, ComponentId(1), true).ok());
  std::vector<std::pair<VirtAddr, Bytes>> seen;
  pt.ForEachMapping(kBase, 2 * kHugePageBytes,
                    [&](VirtAddr addr, Bytes size, Pte&) { seen.emplace_back(addr, size); });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], std::make_pair(kBase, kPageBytes));
  EXPECT_EQ(seen[3], std::make_pair(kBase + kHugePageSize, kHugePageBytes));
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i].first, seen[i - 1].first);
  }
}

TEST(PageTableTest, ForEachMappingRespectsRangeStart) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, 4 * kPageBytes, ComponentId(0), false).ok());
  int count = 0;
  pt.ForEachMapping(kBase + 2 * kPageSize, 2 * kPageBytes,
                    [&](VirtAddr, Bytes, Pte&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(PageTableTest, GenerationBumpsOnStructuralChange) {
  PageTable pt;
  u64 g0 = pt.generation();
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(0), false).ok());
  u64 g1 = pt.generation();
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(pt.UnmapRange(kBase, kPageBytes).ok());
  EXPECT_GT(pt.generation(), g1);
}

TEST(PageTableTest, PageTablePagesGrow) {
  PageTable pt;
  u64 before = pt.page_table_pages();
  ASSERT_TRUE(pt.MapRange(kBase, MiB(8), ComponentId(0), false).ok());
  EXPECT_GT(pt.page_table_pages(), before);
}

TEST(PageTableTest, ScanCostOfLargeTable) {
  // §3 motivation: large memory means many PTEs; sanity-check the count a
  // full scan would visit for a 256 MiB mapping in base pages.
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, MiB(256), ComponentId(0), false).ok());
  u64 visited = 0;
  pt.ForEachMapping(kBase, MiB(256), [&](VirtAddr, Bytes, Pte&) { ++visited; });
  EXPECT_EQ(visited, NumPages(MiB(256)));
}

// Property test: a random interleaving of maps and unmaps never corrupts
// byte accounting and Find agrees with our shadow model.
TEST(PageTablePropertyTest, RandomMapUnmapConsistency) {
  PageTable pt;
  Rng rng(77);
  std::set<u64> mapped;  // huge-page indices
  const u64 slots = 128;
  for (int step = 0; step < 2000; ++step) {
    u64 slot = rng.NextBounded(slots);
    VirtAddr addr = kBase + slot * kHugePageSize;
    if (mapped.count(slot)) {
      ASSERT_TRUE(pt.UnmapRange(addr, kHugePageBytes).ok());
      mapped.erase(slot);
    } else {
      bool huge = rng.NextBernoulli(0.5);
      ASSERT_TRUE(pt.MapRange(addr, kHugePageBytes, static_cast<ComponentId>(slot % 4), huge)
                      .ok());
      mapped.insert(slot);
    }
  }
  Bytes expected_bytes = HugePagesToBytes(mapped.size());
  EXPECT_EQ(pt.mapped_bytes(), expected_bytes);
  for (u64 slot = 0; slot < slots; ++slot) {
    VirtAddr addr = kBase + slot * kHugePageSize + kPageSize * 3;
    Pte* pte = pt.Find(addr);
    if (mapped.count(slot)) {
      ASSERT_NE(pte, nullptr) << slot;
      EXPECT_EQ(pte->component, ComponentId(static_cast<u32>(slot % 4)));
    } else {
      EXPECT_EQ(pte, nullptr) << slot;
    }
  }
}

struct HugenessCase {
  bool huge;
  u64 pages;
};

// Prints the case as its test-name suffix ("Huge_33"), so neither the test
// names nor --gtest_list_tests carry the struct's raw bytes.
void PrintTo(const HugenessCase& c, std::ostream* os) {
  *os << (c.huge ? "Huge_" : "Base_") << c.pages;
}

class PageTableParamTest : public ::testing::TestWithParam<HugenessCase> {};

TEST_P(PageTableParamTest, MapTouchScanCycle) {
  const HugenessCase& param = GetParam();
  PageTable pt;
  u64 unit = param.huge ? kHugePageSize : kPageSize;
  ASSERT_TRUE(pt.MapRange(kBase, Bytes(param.pages * unit), ComponentId(0), param.huge).ok());
  for (u64 i = 0; i < param.pages; ++i) {
    EXPECT_EQ(pt.Touch(kBase + i * unit + 64, i % 2 == 0), PageTable::TouchResult::kOk);
  }
  u64 accessed_count = 0;
  for (u64 i = 0; i < param.pages; ++i) {
    bool accessed = false;
    ASSERT_TRUE(pt.ScanAccessed(kBase + i * unit, &accessed));
    accessed_count += accessed;
  }
  EXPECT_EQ(accessed_count, param.pages);
}

INSTANTIATE_TEST_SUITE_P(Hugeness, PageTableParamTest,
                         ::testing::Values(HugenessCase{false, 1}, HugenessCase{false, 64},
                                           HugenessCase{false, 513}, HugenessCase{true, 1},
                                           HugenessCase{true, 8}, HugenessCase{true, 33}),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace mtm
