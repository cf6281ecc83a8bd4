// Tests for the simulated page table: mapping, huge pages,
// accessed/dirty semantics, PTE scans, and structural invariants.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
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
  EXPECT_EQ(pte->component(), ComponentId(2));
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

TEST(PageTableTest, FailedMapRangeMapsNothing) {
  // A conflict in the middle of the range rolls back the pages before it:
  // the map is all or nothing, counters included.
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase + kPageSize, kPageBytes, ComponentId(1), false).ok());
  EXPECT_EQ(pt.MapRange(kBase, 2 * kPageBytes, ComponentId(0), false).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pt.Find(kBase), nullptr);
  EXPECT_EQ(pt.Find(kBase + kPageSize)->component(), ComponentId(1));
  EXPECT_EQ(pt.mapped_base_pages(), 1u);
  EXPECT_EQ(pt.mapped_bytes(), kPageBytes);
  // The same for huge pages over a mapped second chunk.
  ASSERT_TRUE(pt.MapRange(kBase + 3 * kHugePageSize, kHugePageBytes, ComponentId(1), true).ok());
  EXPECT_EQ(pt.MapRange(kBase + 2 * kHugePageSize, 2 * kHugePageBytes, ComponentId(0), true).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pt.Find(kBase + 2 * kHugePageSize), nullptr);
  EXPECT_EQ(pt.mapped_huge_pages(), 1u);
  EXPECT_EQ(pt.mapped_bytes(), kPageBytes + kHugePageBytes);
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
  EXPECT_EQ(pte->component(), ComponentId(3));
  EXPECT_TRUE(pte->accessed());  // A/D bits inherited
  EXPECT_TRUE(pte->dirty());
  EXPECT_FALSE(pt.SplitHuge(kBase).ok());  // already split
}

// The packed one-byte component: every id the table counts residency for
// survives each of the three ways a component is written, on base and huge
// mappings, and the residency counts follow.
TEST(PageTableTest, EveryComponentRoundTrips) {
  for (u32 id = 0; id < PageTable::kMaxComponents; ++id) {
    const ComponentId c(id);
    const ComponentId other((id + 1) % PageTable::kMaxComponents);
    PageTable pt;
    const VirtAddr huge = kBase;
    const VirtAddr base = kBase + kHugePageSize;
    ASSERT_TRUE(pt.MapRange(huge, kHugePageBytes, c, /*huge=*/true).ok()) << id;
    ASSERT_TRUE(pt.MapRange(base, kPageBytes, c, /*huge=*/false).ok()) << id;
    EXPECT_EQ(pt.Find(huge)->component(), c) << id;
    EXPECT_EQ(pt.Find(base)->component(), c) << id;

    pt.SetComponent(base, *pt.Find(base), other);
    EXPECT_EQ(pt.Find(base)->component(), other) << id;
    pt.SetComponent(base, *pt.Find(base), c);
    EXPECT_EQ(pt.Find(base)->component(), c) << id;
    pt.SetComponent(huge, *pt.Find(huge), other);
    EXPECT_EQ(pt.Find(huge)->component(), other) << id;
    pt.SetComponent(huge, *pt.Find(huge), c);

    ASSERT_TRUE(pt.SplitHuge(huge).ok()) << id;
    EXPECT_EQ(pt.Find(huge)->component(), c) << id;
    EXPECT_EQ(pt.Find(huge + kHugePageSize - kPageSize)->component(), c) << id;
    const PageTable::Residency counts =
        pt.CountMappings(kBase, kHugePageBytes + kPageBytes, ComponentBit(c));
    EXPECT_EQ(counts.base_pages[id], kPagesPerHugePage + 1) << id;
    EXPECT_TRUE(pt.AuditResidencyCounts().ok()) << id;
  }
}

TEST(PageTableTest, UnmappedReadsInvalidComponent) {
  EXPECT_EQ(Pte{}.component(), kInvalidComponent);
  PageTable pt;
  EXPECT_EQ(pt.RangeComponent(kBase, kHugePageBytes), kInvalidComponent);
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(7), false).ok());
  ASSERT_TRUE(pt.UnmapRange(kBase, kPageBytes).ok());
  EXPECT_EQ(pt.RangeComponent(kBase, kHugePageBytes), kInvalidComponent);
  ComponentId found = ComponentId(0);
  EXPECT_TRUE(pt.FindMappingOn(kBase, kHugePageBytes, ~u32{0}, &found).IsZero());
  EXPECT_EQ(found, kInvalidComponent);
}

TEST(PageTableTest, RangeComponentProbesStartThenMidpoint) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(1), false).ok());
  ASSERT_TRUE(pt.MapRange(kBase + 8 * kPageSize, kPageBytes, ComponentId(2), false).ok());
  // The head's component wins over the midpoint's.
  EXPECT_EQ(pt.RangeComponent(kBase, PagesToBytes(16)), ComponentId(1));
  // An unmapped head falls back to the midpoint.
  EXPECT_EQ(pt.RangeComponent(kBase + 4 * kPageSize, PagesToBytes(8)), ComponentId(2));
  // Neither probe mapped: pages elsewhere in the range are not looked at.
  EXPECT_EQ(pt.RangeComponent(kBase + kPageSize, PagesToBytes(4)), kInvalidComponent);
}

TEST(PageTableTest, FlagsLeaveComponentAndPayloadUntouched) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, kPageBytes, ComponentId(5), false).ok());
  Pte& pte = *pt.Find(kBase);
  pte.payload = 0xdead'beefu;
  // The seven flags in use are bits 0..6; setting them all leaves bit 7 free.
  u8 all = 0;
  for (u32 bit = 0; bit < 7; ++bit) {
    const auto f = static_cast<Pte::Flags>(1u << bit);
    const u8 before = pte.flags;
    pte.Set(f);
    EXPECT_EQ(pte.flags, before | f) << bit;
    EXPECT_EQ(pte.component(), ComponentId(5)) << bit;
    EXPECT_EQ(pte.payload, 0xdead'beefu) << bit;
    pte.Clear(f);
    EXPECT_EQ(pte.flags, before & ~f) << bit;
    EXPECT_EQ(pte.component(), ComponentId(5)) << bit;
    EXPECT_EQ(pte.payload, 0xdead'beefu) << bit;
    pte.Set(f);
    all |= f;
  }
  EXPECT_EQ(pte.flags, all);
  EXPECT_EQ(all, 0x7f);
  for (u32 bit = 0; bit < 7; ++bit) {
    pte.Clear(static_cast<Pte::Flags>(1u << bit));
  }
  EXPECT_EQ(pte.flags, 0);
  EXPECT_EQ(pte.component(), ComponentId(5));
  EXPECT_EQ(pte.payload, 0xdead'beefu);
}

TEST(PageTableTest, MixPayloadShowsReorderedAndLostWrites) {
  const VirtAddr a = kBase + 8;
  const VirtAddr b = kBase + 16;
  const u32 ab = MixPayload(MixPayload(0, a), b);
  EXPECT_NE(ab, MixPayload(MixPayload(0, b), a));  // reordered
  EXPECT_NE(ab, MixPayload(0, a));                 // the second write lost
  EXPECT_NE(ab, MixPayload(0, b));                 // the first write lost
  // Addresses 4 GiB apart mix differently.
  EXPECT_NE(MixPayload(0, a), MixPayload(0, a + (u64{1} << 32)));
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

// The directory index spans the lowest to the highest mapped GiB: mappings
// at the bottom of the address space, at the address space's base and near
// the top of the 47-bit user half, mapped in an order that grows the index
// at both ends. Lookups below, between and above them find nothing.
TEST(PageTableTest, DirectoryIndexFindsFarApartMappings) {
  PageTable pt;
  const VirtAddr low(0x1000);
  const VirtAddr mid = AddressSpace::kBase;
  const VirtAddr high((u64{1} << 47) - kHugePageSize);
  ASSERT_TRUE(pt.MapRange(mid, kPageBytes, ComponentId(1), /*huge=*/false).ok());
  ASSERT_TRUE(pt.MapRange(low, kPageBytes, ComponentId(0), /*huge=*/false).ok());
  ASSERT_TRUE(pt.MapRange(high, kHugePageBytes, ComponentId(2), /*huge=*/true).ok());

  EXPECT_EQ(pt.Find(low)->component(), ComponentId(0));
  EXPECT_EQ(pt.Find(mid + 100)->component(), ComponentId(1));
  EXPECT_EQ(pt.Find(high + kHugePageSize - 1)->component(), ComponentId(2));
  const PageTable& const_pt = pt;
  EXPECT_EQ(const_pt.Find(mid), pt.Find(mid));

  const VirtAddr absent[] = {
      VirtAddr(0),                             // below, same directory
      low + kPageSize,                         // beside, same leaf
      VirtAddr(u64{1} << 30),                  // between: an absent directory
      mid - kPageSize,                         // just below mid
      mid + kHugePageSize,                     // mid's directory, another chunk
      high - kPageSize,                        // just below high
      VirtAddr(u64{1} << 47),                  // above every directory
      VirtAddr(~u64{0} & ~(kPageSize - 1)),    // top of the address space
  };
  for (VirtAddr addr : absent) {
    EXPECT_EQ(pt.Find(addr), nullptr) << addr;
    EXPECT_EQ(const_pt.Find(addr), nullptr) << addr;
  }

  std::vector<VirtAddr> seen;
  pt.ForEachMapping(VirtAddr(0), Bytes(u64{1} << 47),
                    [&](VirtAddr addr, Bytes, const Pte&) { seen.push_back(addr); });
  EXPECT_EQ(seen, (std::vector<VirtAddr>{low, mid, high}));
  // A walk that starts above every directory, or ends below the first,
  // visits nothing.
  seen.clear();
  pt.ForEachMapping(VirtAddr(u64{1} << 47), Bytes(u64{1} << 40),
                    [&](VirtAddr addr, Bytes, const Pte&) { seen.push_back(addr); });
  pt.ForEachMapping(VirtAddr(0), Bytes(0x1000),
                    [&](VirtAddr addr, Bytes, const Pte&) { seen.push_back(addr); });
  EXPECT_TRUE(seen.empty());
  EXPECT_TRUE(pt.AuditResidencyCounts().ok());
}

// Counts the mappings it is shown and accepts the n-th.
struct StopAtNth {
  bool operator()(VirtAddr addr, Bytes, Pte&) {
    visited.push_back(addr);
    return visited.size() == n;
  }
  std::size_t n = 0;
  std::vector<VirtAddr> visited;
};

// The walks take any callable in place: a stateful functor keeps what it
// counted, and FindMapping stops at the first mapping it accepts.
TEST(PageTableTest, WalksTakeStatefulFunctorsAndStopEarly) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, 4 * kPageBytes, ComponentId(0), false).ok());
  ASSERT_TRUE(pt.MapRange(kBase + kHugePageSize, kHugePageBytes, ComponentId(1), true).ok());

  StopAtNth third;
  third.n = 3;
  EXPECT_EQ(pt.FindMapping(kBase, 2 * kHugePageBytes, third), kBase + 2 * kPageSize);
  EXPECT_EQ(third.visited,
            (std::vector<VirtAddr>{kBase, kBase + kPageSize, kBase + 2 * kPageSize}));

  StopAtNth fifth;
  fifth.n = 5;
  EXPECT_EQ(pt.FindMapping(kBase, 2 * kHugePageBytes, fifth), kBase + kHugePageSize);
  StopAtNth never;
  never.n = 99;
  EXPECT_EQ(pt.FindMapping(kBase, 2 * kHugePageBytes, never), VirtAddr{});
  EXPECT_EQ(never.visited.size(), 5u);

  struct Counter {
    void operator()(VirtAddr, Bytes size, Pte& pte) {
      bytes += size;
      pte.Set(Pte::kReserved);
    }
    Bytes bytes;
  } counter;
  pt.ForEachMapping(kBase + kPageSize, 2 * kHugePageBytes, counter);
  EXPECT_EQ(counter.bytes, 3 * kPageBytes + kHugePageBytes);
  EXPECT_FALSE(pt.Find(kBase)->flags & Pte::kReserved);
  EXPECT_TRUE(pt.Find(kBase + kPageSize)->flags & Pte::kReserved);
}

TEST(PageTableTest, GenerationBumpsOnStructuralChange) {
  // The name predates the removal of the table's generation counter, which
  // invalidated the access engine's software TLB. With no cache left, what
  // stays to test: a held entry and a fresh Find see a map, a split, a
  // component change and an unmap at once, with no invalidation call.
  PageTable pt;
  const VirtAddr addr = kBase + 5 * kPageSize;
  EXPECT_EQ(pt.Find(addr), nullptr);
  ASSERT_TRUE(pt.MapRange(kBase, kHugePageBytes, ComponentId(1), /*huge=*/true).ok());
  Pte* huge = pt.Find(addr);
  ASSERT_NE(huge, nullptr);
  EXPECT_TRUE(huge->huge());

  ASSERT_TRUE(pt.SplitHuge(kBase).ok());
  EXPECT_FALSE(huge->present());
  Bytes size;
  Pte* base = pt.Find(addr, &size);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(size, kPageBytes);

  pt.SetComponent(addr, *base, ComponentId(2));
  EXPECT_EQ(pt.Find(addr)->component(), ComponentId(2));
  EXPECT_EQ(pt.Find(addr + kPageSize)->component(), ComponentId(1));
  const PageTable::Residency residency = pt.CountMappings(kBase, kHugePageBytes, ~u32{0});
  EXPECT_EQ(residency.base_pages[1], kPagesPerHugePage - 1);
  EXPECT_EQ(residency.base_pages[2], 1u);
  EXPECT_TRUE(pt.AuditResidencyCounts().ok());

  ASSERT_TRUE(pt.UnmapRange(kBase, kHugePageBytes).ok());
  EXPECT_EQ(pt.Find(addr), nullptr);
  EXPECT_FALSE(base->present());
}

TEST(PageTableTest, PageTablePagesGrow) {
  // The table grows with what it maps: after an 8 MiB base-page map the
  // mapped counters cover it and every 2 MiB chunk resolves.
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(kBase, MiB(8), ComponentId(0), false).ok());
  EXPECT_EQ(pt.mapped_base_pages(), MiB(8) / kPageBytes);
  EXPECT_EQ(pt.mapped_bytes(), MiB(8));
  for (VirtAddr chunk = kBase; chunk < kBase + MiB(8); chunk += kHugePageSize) {
    Bytes size;
    const Pte* pte = pt.Find(chunk + kHugePageSize - kPageSize, &size);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(size, kPageBytes);
    EXPECT_EQ(pte->component(), ComponentId(0));
  }
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

// Property test: a random interleaving of maps, unmaps, huge-page splits and
// component changes over several 1 GiB windows never corrupts byte
// accounting or the per-leaf residency counts, Find, ForEachMapping,
// FindMappingOn and CountMappings agree with a shadow model of the live
// mappings, and FindMapping stops where ForEachMapping first meets its
// predicate.
class PageTableShadow {
 public:
  struct Mapping {
    Bytes size;
    ComponentId component;
  };

  // True if any mapping overlaps [start, end).
  bool Overlaps(u64 start, u64 end) const {
    auto it = mappings_.upper_bound(start);
    if (it != mappings_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size.value() > start) {
        return true;
      }
    }
    return it != mappings_.end() && it->first < end;
  }

  // The mapping covering addr, or end().
  std::map<u64, Mapping>::const_iterator Covering(u64 addr) const {
    auto it = mappings_.upper_bound(addr);
    if (it == mappings_.begin()) {
      return mappings_.end();
    }
    --it;
    return addr < it->first + it->second.size.value() ? it : mappings_.end();
  }

  std::map<u64, Mapping>& mappings() { return mappings_; }
  const std::map<u64, Mapping>& mappings() const { return mappings_; }

  u64 Count(Bytes size) const {
    u64 n = 0;
    for (const auto& [addr, m] : mappings_) {
      n += m.size == size;
    }
    return n;
  }

 private:
  std::map<u64, Mapping> mappings_;
};

// Checks Find at addr against the shadow.
void ExpectFindMatches(PageTable& pt, const PageTableShadow& shadow, u64 addr) {
  Bytes size;
  Pte* pte = pt.Find(VirtAddr(addr), &size);
  auto it = shadow.Covering(addr);
  if (it == shadow.mappings().end()) {
    EXPECT_EQ(pte, nullptr) << std::hex << addr;
    return;
  }
  ASSERT_NE(pte, nullptr) << std::hex << addr;
  EXPECT_EQ(size, it->second.size) << std::hex << addr;
  EXPECT_EQ(pte->component(), it->second.component) << std::hex << addr;
  EXPECT_EQ(pte->huge(), it->second.size == kHugePageBytes) << std::hex << addr;
  EXPECT_EQ(pt.Find(VirtAddr(it->first)), pte) << std::hex << addr;
}

// Checks that ForEachMapping over [start, start+len) visits exactly the
// shadow mappings starting in that range, in order, with Find's entries.
void ExpectForEachMatches(PageTable& pt, const PageTableShadow& shadow, u64 start, u64 len) {
  struct Visit {
    u64 addr;
    Bytes size;
    const Pte* pte;
    bool operator==(const Visit& o) const {
      return addr == o.addr && size == o.size && pte == o.pte;
    }
  };
  std::vector<Visit> expected;
  for (auto it = shadow.mappings().lower_bound(start);
       it != shadow.mappings().end() && it->first < start + len; ++it) {
    expected.push_back(Visit{it->first, it->second.size, pt.Find(VirtAddr(it->first))});
  }
  std::vector<Visit> seen;
  pt.ForEachMapping(VirtAddr(start), Bytes(len), [&](VirtAddr addr, Bytes size, Pte& pte) {
    seen.push_back(Visit{addr.value(), size, &pte});
  });
  ASSERT_EQ(seen.size(), expected.size()) << std::hex << start << "+" << len;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_TRUE(seen[i] == expected[i]) << std::hex << start << "+" << len << " visit " << i
                                        << " at " << seen[i].addr;
  }
  // The const overload walks the same mappings.
  const PageTable& cpt = pt;
  std::size_t const_seen = 0;
  cpt.ForEachMapping(VirtAddr(start), Bytes(len),
                     [&](VirtAddr, Bytes, const Pte&) { ++const_seen; });
  EXPECT_EQ(const_seen, expected.size());
}

// Checks FindMappingOn and CountMappings over [start, start+len) against a
// scan of the shadow for mappings starting there on a masked component.
void ExpectResidencyMatches(const PageTable& pt, const PageTableShadow& shadow, u64 start, u64 len,
                            u32 mask) {
  u64 expected_first = 0;
  ComponentId expected_component = kInvalidComponent;
  PageTable::Residency expected;
  for (auto it = shadow.mappings().lower_bound(start);
       it != shadow.mappings().end() && it->first < start + len; ++it) {
    const auto& [size, component] = it->second;
    if ((ComponentBit(component) & mask) == 0) {
      continue;
    }
    if (expected_first == 0) {
      expected_first = it->first;
      expected_component = component;
    }
    ++(size == kHugePageBytes ? expected.huge_pages : expected.base_pages)[component.value()];
  }
  ComponentId component = kInvalidComponent;
  EXPECT_EQ(pt.FindMappingOn(VirtAddr(start), Bytes(len), mask, &component),
            VirtAddr(expected_first))
      << std::hex << start << "+" << len << " mask " << mask;
  EXPECT_EQ(component, expected_component) << std::hex << start << "+" << len << " mask " << mask;
  const PageTable::Residency counts = pt.CountMappings(VirtAddr(start), Bytes(len), mask);
  EXPECT_EQ(counts.base_pages, expected.base_pages)
      << std::hex << start << "+" << len << " mask " << mask;
  EXPECT_EQ(counts.huge_pages, expected.huge_pages)
      << std::hex << start << "+" << len << " mask " << mask;
}

// Checks that FindMapping over [start, start+len) returns the first mapping
// ForEachMapping visits that a random predicate accepts (0 when it accepts
// none), and that it asks the predicate about no mapping after that one.
void ExpectFindMappingMatches(PageTable& pt, u64 start, u64 len, Rng& rng) {
  using Pred = std::function<bool(VirtAddr, Bytes, Pte&)>;
  const u64 kind = rng.NextBounded(4);
  const auto component = ComponentId(static_cast<u32>(rng.NextBounded(4)));
  const u64 nth = rng.NextBounded(64);
  // A fresh predicate per walk: the nth-visit one counts its calls.
  auto make_pred = [&]() -> Pred {
    switch (kind) {
      case 0:
        return [component](VirtAddr, Bytes, Pte& pte) { return pte.component() == component; };
      case 1:
        return [](VirtAddr, Bytes size, Pte&) { return size == kHugePageBytes; };
      case 2:
        return [nth, calls = u64{0}](VirtAddr, Bytes, Pte&) mutable { return calls++ == nth; };
      default:
        return [](VirtAddr, Bytes, Pte&) { return false; };
    }
  };
  VirtAddr expected;
  u64 expected_calls = 0;
  const Pred reference = make_pred();
  pt.ForEachMapping(VirtAddr(start), Bytes(len), [&](VirtAddr addr, Bytes size, Pte& pte) {
    if (expected.IsZero()) {
      ++expected_calls;
      if (reference(addr, size, pte)) {
        expected = addr;
      }
    }
  });
  const Pred pred = make_pred();
  u64 calls = 0;
  const VirtAddr hit =
      pt.FindMapping(VirtAddr(start), Bytes(len), [&](VirtAddr addr, Bytes size, Pte& pte) {
        ++calls;
        return pred(addr, size, pte);
      });
  EXPECT_EQ(hit, expected) << std::hex << start << "+" << len << " predicate " << kind;
  EXPECT_EQ(calls, expected_calls) << std::hex << start << "+" << len << " predicate " << kind;
}

TEST(PageTablePropertyTest, RandomMapUnmapConsistency) {
  // Six 1 GiB windows from kBase. Windows 0, 1 and 3 are mapped: window 0
  // near both ends (its last chunks spill into window 1), windows 1 and 3
  // near their start. Windows 2, 4 and 5 stay unmapped, so scans cross
  // absent windows and 1 GiB boundaries.
  const u64 kWindow = GiB(1).value();
  const u64 kWindows = 6;
  PageTable pt;
  PageTableShadow shadow;
  Rng rng(77);
  Rng predicate_rng(78);  // its own stream, so the map/unmap sequence is unchanged

  // A 2 MiB-aligned address in the mapped part of the windows.
  auto random_chunk = [&]() -> u64 {
    u64 window = std::array<u64, 3>{0, 1, 3}[rng.NextBounded(3)];
    u64 chunk = rng.NextBounded(32);
    if (window == 0 && rng.NextBernoulli(0.3)) {
      chunk = kPagesPerHugePage - 1 - rng.NextBounded(4);
    }
    return kBase.value() + window * kWindow + chunk * kHugePageSize;
  };

  for (int step = 0; step < 3000; ++step) {
    u64 op = rng.NextBounded(11);
    if (op < 4) {
      // Map a random range of base or huge pages if it is free.
      bool huge = rng.NextBernoulli(0.4);
      u64 start = random_chunk();
      u64 len = huge ? (1 + rng.NextBounded(4)) * kHugePageSize
                     : (1 + rng.NextBounded(2 * kPagesPerHugePage)) * kPageSize;
      if (!huge) {
        start += rng.NextBounded(kPagesPerHugePage) * kPageSize;
      }
      if (shadow.Overlaps(start, start + len)) {
        continue;
      }
      auto component = ComponentId(static_cast<u32>(rng.NextBounded(4)));
      ASSERT_TRUE(pt.MapRange(VirtAddr(start), Bytes(len), component, huge).ok()) << step;
      u64 unit = huge ? kHugePageSize : kPageSize;
      for (u64 addr = start; addr < start + len; addr += unit) {
        shadow.mappings()[addr] = {Bytes(unit), component};
      }
    } else if (op < 7) {
      // Unmap the mappings starting in a random span of up to 4 MiB, with
      // any holes between them.
      auto first = shadow.mappings().lower_bound(random_chunk());
      if (first == shadow.mappings().end()) {
        continue;
      }
      const u64 span_end = first->first + 1 + rng.NextBounded(2 * kHugePageSize);
      auto last = first;
      while (std::next(last) != shadow.mappings().end() && std::next(last)->first < span_end) {
        ++last;
      }
      u64 end = last->first + last->second.size.value();
      ASSERT_TRUE(pt.UnmapRange(VirtAddr(first->first), Bytes(end - first->first)).ok()) << step;
      shadow.mappings().erase(first, std::next(last));
    } else if (op < 8) {
      // Split the next huge mapping, if any.
      if (rng.NextBernoulli(0.5)) {
        continue;
      }
      auto it = shadow.mappings().lower_bound(random_chunk());
      while (it != shadow.mappings().end() && it->second.size != kHugePageBytes) {
        ++it;
      }
      if (it == shadow.mappings().end()) {
        continue;
      }
      u64 huge_start = it->first;
      ComponentId component = it->second.component;
      ASSERT_TRUE(pt.SplitHuge(VirtAddr(huge_start + rng.NextBounded(kHugePageSize))).ok());
      for (u64 i = 0; i < kPagesPerHugePage; ++i) {
        shadow.mappings()[huge_start + i * kPageSize] = {kPageBytes, component};
      }
    } else if (op < 9) {
      for (int i = 0; i < 8; ++i) {
        ExpectFindMatches(pt, shadow, random_chunk() + rng.NextBounded(4 * kHugePageSize));
      }
    } else if (op < 10) {
      // Move the next mapping, base or huge, to a random component, and
      // check the residency of its whole chunk.
      auto it = shadow.mappings().lower_bound(random_chunk() + rng.NextBounded(kHugePageSize));
      if (it == shadow.mappings().end()) {
        continue;
      }
      auto component = ComponentId(static_cast<u32>(rng.NextBounded(4)));
      Pte* pte = pt.Find(VirtAddr(it->first));
      ASSERT_NE(pte, nullptr) << step;
      pt.SetComponent(VirtAddr(it->first), *pte, component);
      it->second.component = component;
      ExpectResidencyMatches(pt, shadow, HugeAlignDown(VirtAddr(it->first)).value(), kHugePageSize,
                             ~u32{0});
    } else {
      // Scan from an unaligned start: anywhere, near live mappings, or
      // inside one (which is then not visited, since it starts before the
      // range).
      u64 start = kBase.value() + rng.NextBounded(kWindows * kWindow);
      if (rng.NextBernoulli(0.4)) {
        start = random_chunk() + rng.NextBounded(4 * kHugePageSize);
      } else if (rng.NextBernoulli(0.5)) {
        auto it = shadow.Covering(random_chunk() + rng.NextBounded(kHugePageSize));
        if (it != shadow.mappings().end()) {
          start = it->first + 1 + rng.NextBounded(it->second.size.value() - 1);
        }
      }
      u64 len = rng.NextBernoulli(0.2) ? rng.NextBounded(3 * kWindow)
                                       : 1 + rng.NextBounded(8 * kHugePageSize);
      // Mostly end on a page or huge-page boundary, where the next mapping
      // may start and must not be visited.
      const u64 align = std::array<u64, 3>{1, kPageSize, kHugePageSize}[rng.NextBounded(3)];
      len = VirtAddr(start + len).AlignUp(align).value() - start;
      ExpectForEachMatches(pt, shadow, start, len);
      ExpectFindMappingMatches(pt, start, len, predicate_rng);
      ExpectResidencyMatches(pt, shadow, start, len,
                             static_cast<u32>(predicate_rng.NextBounded(16)));
      // Whole chunks: the counts stand in for the entries.
      ExpectResidencyMatches(pt, shadow, HugeAlignDown(VirtAddr(start)).value(),
                             HugeAlignUp(Bytes(len)).value(),
                             static_cast<u32>(predicate_rng.NextBounded(16)));
    }
    ASSERT_TRUE(pt.AuditResidencyCounts().ok()) << step;
    ASSERT_EQ(pt.mapped_base_pages(), shadow.Count(kPageBytes)) << step;
    ASSERT_EQ(pt.mapped_huge_pages(), shadow.Count(kHugePageBytes)) << step;
    ASSERT_EQ(pt.mapped_bytes(), Bytes(pt.mapped_base_pages() * kPageSize +
                                       pt.mapped_huge_pages() * kHugePageSize));
  }
  ASSERT_FALSE(shadow.mappings().empty());
  ExpectForEachMatches(pt, shadow, kBase.value(), kWindows * kWindow);

  // An unmap over a window that was never mapped is a no-op.
  ASSERT_TRUE(pt.UnmapRange(kBase + 4 * kWindow, GiB(1)).ok());

  // Entries returned by Find stay valid while new 1 GiB windows are mapped
  // below the live ones and into the hole between them.
  // Each held entry's payload is tagged with its position in `held`.
  std::vector<std::pair<u64, Pte*>> held;
  for (const auto& [addr, m] : shadow.mappings()) {
    Pte* pte = pt.Find(VirtAddr(addr));
    ASSERT_NE(pte, nullptr);
    pte->payload = static_cast<u32>(held.size());
    held.emplace_back(addr, pte);
  }
  for (u64 addr : {kBase.value() - kWindow, kBase.value() - 3 * kWindow,
                   kBase.value() + 2 * kWindow}) {
    ASSERT_TRUE(pt.MapRange(VirtAddr(addr), kHugePageBytes, ComponentId(0), true).ok());
    ASSERT_TRUE(pt.MapRange(VirtAddr(addr + kHugePageSize), kPageBytes, ComponentId(0), false)
                    .ok());
    shadow.mappings()[addr] = {kHugePageBytes, ComponentId(0)};
    shadow.mappings()[addr + kHugePageSize] = {kPageBytes, ComponentId(0)};
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    const auto& [addr, pte] = held[i];
    ASSERT_EQ(pt.Find(VirtAddr(addr)), pte) << std::hex << addr;
    EXPECT_EQ(pte->payload, i);
  }
  ExpectForEachMatches(pt, shadow, kBase.value() - 3 * kWindow, (kWindows + 3) * kWindow);
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
