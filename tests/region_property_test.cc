// Property-based tests: seeded-random structural-operation sequences driven
// through RegionMap's walk (and whole profiling intervals driven through
// MtmProfiler) must preserve the §5 invariants at every step —
// huge-page-aligned split boundaries, full address-space coverage with no
// overlap, sample-quota conservation under the Equation-1 budget, and τm
// escalation/reset monotonicity of the overhead controller.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/profiling/mtm_profiler.h"
#include "src/profiling/region.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"

namespace mtm {
namespace {

constexpr VirtAddr kBase{0x5500'0000'0000ull};

// Asserts the structural invariants over a map seeded as one contiguous
// range [start, end): sorted, non-overlapping, gap-free coverage, page
// alignment, unique starts, and lookups that find every region.
void CheckMapInvariants(RegionMap& map, VirtAddr start, VirtAddr end) {
  ASSERT_FALSE(map.empty());
  std::set<u64> starts;
  VirtAddr cursor = start;
  for (Region& region : map) {
    ASSERT_EQ(map.Find(region.start), &region);
    ASSERT_EQ(map.FindContaining(region.end - 1), &region);
    ASSERT_LT(region.start, region.end);
    ASSERT_EQ(region.start, cursor) << "gap or overlap before " << region.start.value();
    ASSERT_TRUE(IsPageAligned(region.start));
    ASSERT_TRUE(starts.insert(region.start.value()).second)
        << "duplicate region start " << region.start.value();
    cursor = region.end;
  }
  ASSERT_EQ(cursor, end) << "coverage does not reach the range end";
}

TEST(RegionPropertyTest, RandomSplitMergeSequencesPreserveInvariants) {
  for (u64 seed : {1ull, 7ull, 0xdeadull, 0x4d544dull}) {
    Rng rng(seed);
    RegionMap map;
    // An intentionally unaligned tail exercises the non-huge-boundary ends.
    const VirtAddr start = kBase;
    const VirtAddr end = kBase + MiB(32) + KiB(16);
    map.SeedRange(start, end, kHugePageBytes);

    // Quota model mirroring the profiler's merge/split arithmetic; the
    // conserved quantity is sum(quota) + pool.
    for (Region& region : map) {
      region.sample_quota = 1 + static_cast<u32>(rng.NextBounded(4));
    }
    u64 pool = 0;
    u64 conserved = pool;
    for (const Region& region : map) {
      conserved += region.sample_quota;
    }

    for (int step = 0; step < 400; ++step) {
      const bool do_split = rng.NextBernoulli(0.5);
      const std::size_t pick = rng.NextBounded(map.size());
      const VirtAddr picked = map[pick].start;
      if (do_split) {
        const Region& region = map[pick];
        const VirtAddr split_at = RegionMap::SplitPoint(region);
        if (split_at.IsZero()) {
          continue;  // single page: unsplittable
        }
        // §5.4: split points are interior, page-aligned, and huge-page
        // aligned whenever the region spans more than one huge page.
        ASSERT_GT(split_at, region.start);
        ASSERT_LT(split_at, region.end);
        ASSERT_TRUE(IsPageAligned(split_at));
        if (region.bytes() > kHugePageBytes) {
          ASSERT_TRUE(IsHugeAligned(split_at));
        }
        bool cut = false;
        u32 q = 0;
        map.Walk([](Region&) {}, [](Region&, Region&) { return false; },
                 [&](Region& first, RegionMap::Cuts& cuts) {
                   if (first.start != picked) {
                     return;
                   }
                   Region* second = cuts.Cut(first, split_at);
                   if (second == nullptr) {
                     return;
                   }
                   cut = true;
                   q = first.sample_quota;
                   first.sample_quota = std::max<u32>(1, q / 2);
                   second->sample_quota = std::max<u32>(1, q - q / 2);
                 });
        ASSERT_TRUE(cut);
        const u32 halves = map[pick].sample_quota + map[pick + 1].sample_quota;
        // Splitting conserves quota except for the documented floor: a
        // quota-1 region yields two quota-1 halves, creating exactly one
        // unit that RedistributeQuota later reclaims against num_ps.
        const u32 created = halves - q;
        ASSERT_EQ(created, q == 1 ? 1u : 0u);
        conserved += created;
      } else {
        if (pick + 1 == map.size()) {
          continue;
        }
        const u32 combined = map[pick].sample_quota + map[pick + 1].sample_quota;
        bool merged = false;
        map.Walk([](Region&) {},
                 [&](Region& acc, Region&) {
                   if (merged || acc.start != picked) {
                     return false;
                   }
                   merged = true;
                   return true;
                 },
                 [](Region&, RegionMap::Cuts&) {});
        ASSERT_TRUE(merged);
        ASSERT_EQ(map[pick].start, picked);
        const u32 new_quota = std::max<u32>(1, combined / 2);
        map[pick].sample_quota = new_quota;
        pool += combined - new_quota;  // freed samples join the pool (§5.2)
      }
      CheckMapInvariants(map, start, end);
      u64 total = pool;
      for (const Region& region : map) {
        ASSERT_GE(region.sample_quota, 1u);
        total += region.sample_quota;
      }
      ASSERT_EQ(total, conserved) << "quota leak at step " << step << " seed " << seed;
    }
  }
}

TEST(RegionPropertyTest, SplitPointPropertiesOnRandomRegions) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Region region;
    region.start = kBase + PagesToBytes(rng.NextBounded(1 << 20));
    const u64 pages = 1 + rng.NextBounded(4 * kPagesPerHugePage);
    region.end = region.start + PagesToBytes(pages);
    const VirtAddr split = RegionMap::SplitPoint(region);
    if (pages == 1) {
      EXPECT_TRUE(split.IsZero());
      continue;
    }
    ASSERT_FALSE(split.IsZero());
    EXPECT_GT(split, region.start);
    EXPECT_LT(split, region.end);
    EXPECT_TRUE(IsPageAligned(split));
    if (region.bytes() > kHugePageBytes && IsHugeAligned(region.start)) {
      EXPECT_TRUE(IsHugeAligned(split));
    }
  }
}

// Profiler-level properties need the full simulation substrate.
class ProfilerPropertyTest : public ::testing::Test {
 protected:
  ProfilerPropertyTest()
      : machine_(Machine::OptaneFourTier(512)),
        counters_(machine_.num_components()),
        engine_(machine_, page_table_, clock_, counters_, AccessEngine::Config{}),
        pebs_(machine_, PebsEngine::Config{}) {
    engine_.set_pebs(&pebs_);
  }

  VirtAddr BuildMapped(Bytes bytes) {
    u32 vma = address_space_.Allocate(bytes, false, "w");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, ComponentId(0), false).ok());
    return start;
  }

  std::unique_ptr<MtmProfiler> MakeProfiler(MtmProfiler::Config config) {
    auto p = std::make_unique<MtmProfiler>(machine_, page_table_, address_space_, engine_,
                                           &pebs_, config);
    p->Initialize();
    return p;
  }

  void RunRandomInterval(MtmProfiler& profiler, VirtAddr start, Rng& rng) {
    profiler.OnIntervalStart();
    for (u32 tick = 0; tick < 3; ++tick) {
      const u64 hot_pages = 1 + rng.NextBounded(NumPages(MiB(4)));
      for (int i = 0; i < 2000; ++i) {
        page_table_.Touch(start + PagesToBytes(rng.NextBounded(hot_pages)),
                          rng.NextBernoulli(0.25));
      }
      profiler.OnScanTick(tick);
    }
    profiler.OnIntervalEnd();
  }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  MemCounters counters_;
  AccessEngine engine_;
  PebsEngine pebs_;
};

TEST_F(ProfilerPropertyTest, QuotaConservedUnderEquation1AcrossRandomIntervals) {
  VirtAddr start = BuildMapped(MiB(64));
  MtmProfiler::Config config;
  config.interval_ns = Millis(20);
  auto profiler = MakeProfiler(config);
  Rng rng(0xabcdef);
  for (int interval = 0; interval < 12; ++interval) {
    RunRandomInterval(*profiler, start, rng);
    // Overhead control re-normalizes every interval: sum(quota) == num_ps.
    u64 total = 0;
    for (const Region& region : profiler->regions()) {
      ASSERT_GE(region.sample_quota, 1u);
      total += region.sample_quota;
    }
    ASSERT_EQ(total, profiler->NumPageSamples()) << "interval " << interval;
  }
}

TEST_F(ProfilerPropertyTest, TauMEscalationAndResetAreMonotone) {
  VirtAddr start = BuildMapped(MiB(64));
  MtmProfiler::Config config;
  config.interval_ns = Millis(20);
  // Tiny budget: region count exceeds num_ps, so the controller escalates.
  config.overhead_fraction = 0.0001;
  config.adaptive_regions = false;  // freeze structure; isolate the controller
  auto profiler = MakeProfiler(config);
  ASSERT_LT(profiler->NumPageSamples(), profiler->regions().size());
  Rng rng(0x7a7a);
  double prev_tau = profiler->current_tau_m();
  for (int interval = 0; interval < 10; ++interval) {
    RunRandomInterval(*profiler, start, rng);
    const double tau = profiler->current_tau_m();
    const bool over_budget = profiler->regions().size() > profiler->NumPageSamples();
    if (over_budget) {
      // Escalation is monotone non-decreasing and capped at num_scans.
      ASSERT_GE(tau, prev_tau) << "interval " << interval;
      ASSERT_LE(tau, std::max(prev_tau, static_cast<double>(config.num_scans)));
    } else {
      ASSERT_EQ(tau, config.tau_m) << "reset must restore the configured τm";
    }
    prev_tau = tau;
  }
  // With the structure frozen over budget, escalation must actually fire.
  ASSERT_GT(profiler->current_tau_m(), config.tau_m);
}

TEST_F(ProfilerPropertyTest, TauMResetsOnceBackUnderBudget) {
  VirtAddr start = BuildMapped(MiB(8));
  MtmProfiler::Config config;
  config.interval_ns = Millis(20);
  auto profiler = MakeProfiler(config);
  // Generous budget for a small mapping: merging drives the region count
  // under num_ps quickly and τm must sit at its configured value.
  Rng rng(0x1111);
  for (int interval = 0; interval < 8; ++interval) {
    RunRandomInterval(*profiler, start, rng);
    if (profiler->regions().size() <= profiler->NumPageSamples()) {
      ASSERT_EQ(profiler->current_tau_m(), config.tau_m);
    }
  }
  ASSERT_LE(profiler->regions().size(), profiler->NumPageSamples());
}

}  // namespace
}  // namespace mtm
