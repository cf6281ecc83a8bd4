// Tests for the region table: seeding, lookup, the merge/split walk,
// huge-page alignment.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/profiling/region.h"

namespace mtm {
namespace {

constexpr VirtAddr kBase{0x5500'0000'0000ull};

void NoVisit(Region&) {}
bool NoAbsorb(Region&, Region&) { return false; }
void NoClose(Region&, RegionMap::Cuts&) {}

// Merges the region at `index` with its successor in one walk, as the
// profilers do; returns whether they merged.
bool MergeAt(RegionMap& map, std::size_t index) {
  const VirtAddr start = map[index].start;
  bool merged = false;
  map.Walk(NoVisit,
           [&](Region& acc, Region&) {
             if (merged || acc.start != start) {
               return false;
             }
             merged = true;
             return true;
           },
           NoClose);
  return merged;
}

// Cuts the region at `index` at `at` in one walk; returns whether it was cut.
bool SplitAt(RegionMap& map, std::size_t index, VirtAddr at) {
  const VirtAddr start = map[index].start;
  bool cut = false;
  map.Walk(NoVisit, NoAbsorb, [&](Region& r, RegionMap::Cuts& cuts) {
    if (r.start == start) {
      cut = cuts.Cut(r, at) != nullptr;
    }
  });
  return cut;
}

TEST(RegionMapTest, SeedRangeDefaultSize) {
  RegionMap map;
  map.SeedRange(kBase, kBase + 8 * kHugePageSize, kHugePageBytes);
  EXPECT_EQ(map.size(), 8u);
  VirtAddr expected = kBase;
  for (const Region& region : map) {
    EXPECT_EQ(region.start, expected);
    EXPECT_EQ(region.bytes(), kHugePageBytes);
    expected = region.end;
  }
  EXPECT_EQ(expected, kBase + 8 * kHugePageSize);
}

TEST(RegionMapTest, SeedRangeUnevenTail) {
  RegionMap map;
  map.SeedRange(kBase, kBase + kHugePageSize + 3 * kPageSize, kHugePageBytes);
  EXPECT_EQ(map.size(), 2u);
  auto last = std::prev(map.end());
  EXPECT_EQ(last->bytes(), 3 * kPageBytes);
}

TEST(RegionMapTest, SeedUnalignedStartAlignsBoundaries) {
  RegionMap map;
  map.SeedRange(kBase + 3 * kPageSize, kBase + 2 * kHugePageSize, kHugePageBytes);
  // First region ends at the next huge boundary so later regions align.
  auto it = map.begin();
  EXPECT_EQ(it->end.OffsetIn(kHugePageSize), 0u);
}

TEST(RegionMapTest, FindContaining) {
  RegionMap map;
  map.SeedRange(kBase, kBase + 4 * kHugePageSize, kHugePageBytes);
  Region* found = map.FindContaining(kBase + kHugePageSize + 7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->start, kBase + kHugePageSize);
  EXPECT_EQ(map.FindContaining(kBase - 1), nullptr);
  EXPECT_EQ(map.FindContaining(kBase + 4 * kHugePageSize), nullptr);
  EXPECT_EQ(map.Find(kBase + kHugePageSize), found);
  EXPECT_EQ(map.Find(kBase + kHugePageSize + 7), nullptr);
}

TEST(RegionMapTest, MergeWithNext) {
  RegionMap map;
  map.SeedRange(kBase, kBase + 2 * kHugePageSize, kHugePageBytes);
  const VirtAddr start = map.begin()->start;
  ASSERT_TRUE(MergeAt(map, 0));
  EXPECT_EQ(map.size(), 1u);
  const Region& merged = *map.begin();
  EXPECT_EQ(merged.start, start);  // keeps the left identity
  EXPECT_EQ(merged.bytes(), 2 * kHugePageBytes);
}

TEST(RegionMapTest, MergeNonAdjacentFails) {
  RegionMap map;
  map.SeedRange(kBase, kBase + kHugePageSize, kHugePageBytes);
  map.SeedRange(kBase + 4 * kHugePageSize, kBase + 5 * kHugePageSize, kHugePageBytes);
  EXPECT_FALSE(MergeAt(map, 0));
  EXPECT_EQ(map.size(), 2u);
}

TEST(RegionMapTest, SplitCreatesFreshId) {
  RegionMap map;
  map.SeedRange(kBase, kBase + 4 * kHugePageSize, 4 * kHugePageBytes);
  ASSERT_EQ(map.size(), 1u);
  const VirtAddr left_start = map.begin()->start;
  ASSERT_TRUE(SplitAt(map, 0, kBase + 2 * kHugePageSize));
  EXPECT_EQ(map.size(), 2u);
  const Region& first = map[0];
  const Region& second = map[1];
  EXPECT_EQ(first.start, left_start);
  EXPECT_NE(second.start, left_start);
  EXPECT_EQ(first.end, second.start);
}

TEST(RegionMapTest, SplitRejectsBoundaries) {
  RegionMap map;
  map.SeedRange(kBase, kBase + kHugePageSize, kHugePageBytes);
  EXPECT_FALSE(SplitAt(map, 0, kBase));
  EXPECT_FALSE(SplitAt(map, 0, kBase + kHugePageSize));
}

// One walk merges two runs and cuts three regions; the cuts land between
// and after the merge products, and every callback runs the documented
// number of times.
TEST(RegionMapTest, WalkMergesRunsAndInsertsCuts) {
  RegionMap map;
  map.SeedRange(kBase, kBase + 8 * kHugePageSize, kHugePageBytes);
  auto at = [](u64 mib) { return kBase + MiB(mib); };
  int visits = 0;
  int closes = 0;
  map.Walk([&](Region&) { ++visits; },
           [&](Region&, Region& next) {
             return next.start == at(2) || next.start == at(10) || next.start == at(12);
           },
           [&](Region& r, RegionMap::Cuts& cuts) {
             ++closes;
             if (r.start == at(4) || r.start == at(6) || r.start == at(14)) {
               ASSERT_NE(cuts.Cut(r, r.start + MiB(1)), nullptr);
             }
           });
  EXPECT_EQ(visits, 8);
  EXPECT_EQ(closes, 5);
  const u64 bounds[] = {0, 4, 5, 6, 7, 8, 14, 15, 16};
  ASSERT_EQ(map.size(), 8u);
  for (std::size_t i = 0; i < map.size(); ++i) {
    EXPECT_EQ(map[i].start, at(bounds[i])) << i;
    EXPECT_EQ(map[i].end, at(bounds[i + 1])) << i;
  }
}

TEST(RegionMapTest, SplitPointHugeAligned) {
  // §5.4: splits of multi-huge-page regions land on huge boundaries so a
  // huge page is never profiled in two regions.
  Region r;
  r.start = kBase;
  r.end = kBase + 5 * kHugePageSize;
  VirtAddr split = RegionMap::SplitPoint(r);
  EXPECT_TRUE(IsHugeAligned(split));
  EXPECT_GT(split, r.start);
  EXPECT_LT(split, r.end);
}

TEST(RegionMapTest, SplitPointOddRegionStillAligned) {
  Region r;
  r.start = kBase + kPageSize;  // not huge aligned
  r.end = kBase + 3 * kHugePageSize;
  VirtAddr split = RegionMap::SplitPoint(r);
  EXPECT_TRUE(IsHugeAligned(split));
  EXPECT_GT(split, r.start);
  EXPECT_LT(split, r.end);
}

TEST(RegionMapTest, SplitPointSmallRegionPageAligned) {
  Region r;
  r.start = kBase;
  r.end = kBase + 6 * kPageSize;
  VirtAddr split = RegionMap::SplitPoint(r);
  EXPECT_TRUE(IsPageAligned(split));
  EXPECT_EQ(split, kBase + 3 * kPageSize);
}

TEST(RegionMapTest, SplitPointSinglePageImpossible) {
  Region r;
  r.start = kBase;
  r.end = kBase + kPageSize;
  EXPECT_EQ(RegionMap::SplitPoint(r), VirtAddr{});
}

TEST(RegionTest, HotnessVariance) {
  Region r;
  r.hi = 2.5;
  r.prev_hi = 1.0;
  EXPECT_DOUBLE_EQ(r.HotnessVariance(), 1.5);
  r.hi = 0.5;
  EXPECT_DOUBLE_EQ(r.HotnessVariance(), 0.5);
}

// Property: random merges and splits preserve exact coverage of the seeded
// range with no overlaps.
TEST(RegionMapPropertyTest, CoverageInvariant) {
  RegionMap map;
  const VirtAddr end = kBase + 64 * kHugePageSize;
  map.SeedRange(kBase, end, kHugePageBytes);
  Rng rng(99);
  for (int step = 0; step < 500; ++step) {
    u64 pick = rng.NextBounded(map.size());
    if (rng.NextBernoulli(0.5)) {
      MergeAt(map, pick);
    } else {
      VirtAddr split = RegionMap::SplitPoint(map[pick]);
      if (!split.IsZero()) {
        SplitAt(map, pick, split);
      }
    }
    // Invariant check.
    VirtAddr cursor = kBase;
    for (const Region& region : map) {
      ASSERT_EQ(region.start, cursor);
      ASSERT_LT(region.start, region.end);
      cursor = region.end;
    }
    ASSERT_EQ(cursor, end);
  }
}

}  // namespace
}  // namespace mtm
