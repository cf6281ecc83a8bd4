// Tests for MTM's adaptive profiler (§5): Equation-1 budget, multi-scan
// hotness, merge/split dynamics, quota redistribution, overhead control,
// PEBS-assisted slow-tier profiling, and the ablation switches.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/placement.h"
#include "src/profiling/mtm_profiler.h"
#include "src/profiling/region.h"
#include "src/profiling/profiler.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"

namespace mtm {
namespace {

class MtmProfilerTest : public ::testing::Test {
 protected:
  MtmProfilerTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        counters_(machine_.num_components()),
        engine_(machine_, page_table_, clock_, counters_, AccessEngine::Config{}),
        pebs_(machine_, PebsEngine::Config{}) {
    engine_.set_pebs(&pebs_);
  }

  // Allocates a VMA and maps all of it on `component` with base pages.
  VirtAddr BuildMapped(Bytes bytes, ComponentId component) {
    u32 vma = address_space_.Allocate(bytes, false, "w");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, false).ok());
    return start;
  }

  MtmProfiler::Config DefaultConfig() {
    MtmProfiler::Config config;
    config.interval_ns = Millis(20);
    config.one_scan_overhead_ns = Nanos(120);
    return config;
  }

  std::unique_ptr<MtmProfiler> MakeProfiler(MtmProfiler::Config config) {
    auto p = std::make_unique<MtmProfiler>(machine_, page_table_, address_space_, engine_,
                                           &pebs_, config);
    p->Initialize();
    return p;
  }

  // Runs one profiling interval, touching [hot_start, hot_start+hot_len)
  // heavily before every scan tick.
  ProfileOutput RunInterval(MtmProfiler& profiler, VirtAddr hot_start, Bytes hot_len) {
    profiler.OnIntervalStart();
    for (u32 tick = 0; tick < 3; ++tick) {
      for (VirtAddr a = hot_start; a < hot_start + hot_len; a += kPageSize) {
        page_table_.Touch(a, false);
      }
      profiler.OnScanTick(tick);
    }
    return profiler.OnIntervalEnd();
  }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  MemCounters counters_;
  AccessEngine engine_;
  PebsEngine pebs_;
};

TEST_F(MtmProfilerTest, Equation1Budget) {
  BuildMapped(MiB(16), ComponentId(0));
  MtmProfiler::Config config = DefaultConfig();
  auto profiler = MakeProfiler(config);
  // num_ps = interval * overhead / (effective_scan * num_scans); the
  // effective scan cost doubles due to the 1-in-12 hint-fault amortization
  // (hint fault = 12 scans, one per 12 scans).
  double effective = 120.0 * 2.0;
  u64 expected = static_cast<u64>(20e6 * 0.05 / (effective * 3));
  EXPECT_EQ(profiler->NumPageSamples(), expected);
}

TEST_F(MtmProfilerTest, BudgetScalesWithOverheadTarget) {
  BuildMapped(MiB(16), ComponentId(0));
  MtmProfiler::Config config = DefaultConfig();
  config.overhead_fraction = 0.10;
  auto ten = MakeProfiler(config);
  config.overhead_fraction = 0.01;
  auto one = MakeProfiler(config);
  EXPECT_NEAR(static_cast<double>(ten->NumPageSamples()) /
                  static_cast<double>(one->NumPageSamples()),
              10.0, 0.5);
}

TEST_F(MtmProfilerTest, InitialRegionsArePdeSized) {
  BuildMapped(MiB(16), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  EXPECT_EQ(profiler->regions().size(), MiB(16) / kHugePageBytes);
  for (const Region& region : profiler->regions()) {
    EXPECT_EQ(region.bytes(), kHugePageBytes);
  }
}

TEST_F(MtmProfilerTest, HotRegionsRankAboveCold) {
  VirtAddr start = BuildMapped(MiB(16), ComponentId(0));  // DRAM: PTE-scan profiled
  auto profiler = MakeProfiler(DefaultConfig());
  VirtAddr hot_start = start + MiB(4).value();
  ProfileOutput out;
  for (int i = 0; i < 4; ++i) {
    out = RunInterval(*profiler, hot_start, MiB(2));
  }
  double hot_hotness = 0;
  double cold_hotness = 0;
  int cold_count = 0;
  for (const HotnessEntry& e : out.entries) {
    if (e.start >= hot_start && e.end() <= hot_start + MiB(2).value()) {
      hot_hotness = std::max(hot_hotness, e.hotness);
    } else if (e.start >= hot_start + MiB(2).value() || e.end() <= hot_start) {
      cold_hotness += e.hotness;
      ++cold_count;
    }
  }
  ASSERT_GT(cold_count, 0);
  EXPECT_GT(hot_hotness, 2.0);  // touched before every scan: HI ~ num_scans
  EXPECT_LT(cold_hotness / cold_count, 0.5);
}

TEST_F(MtmProfilerTest, WhiFollowsEquation2) {
  VirtAddr start = BuildMapped(MiB(4), ComponentId(0));
  MtmProfiler::Config config = DefaultConfig();
  config.adaptive_regions = false;  // keep regions stable for exact math
  auto profiler = MakeProfiler(config);
  // Two hot intervals then one cold: WHI = 0.5*0 + 0.5*(0.5*3 + 0.5*3) = 1.5.
  RunInterval(*profiler, start, MiB(4));
  RunInterval(*profiler, start, MiB(4));
  ProfileOutput out = RunInterval(*profiler, start + MiB(4).value(), Bytes{});  // nothing touched
  for (const HotnessEntry& e : out.entries) {
    EXPECT_NEAR(e.hotness, 1.5, 0.01);
  }
}

TEST_F(MtmProfilerTest, MergesColdNeighbors) {
  BuildMapped(MiB(32), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  std::size_t before = profiler->regions().size();
  ProfileOutput out = RunInterval(*profiler, VirtAddr{}, Bytes{});  // all cold
  EXPECT_GT(out.regions_merged, 0u);
  EXPECT_LT(profiler->regions().size(), before);
}

TEST_F(MtmProfilerTest, SplitsMixedRegions) {
  VirtAddr start = BuildMapped(MiB(32), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  // Merge everything first (all cold), then heat half of the space: the
  // giant region shows high sample disparity and splits, huge-aligned.
  RunInterval(*profiler, VirtAddr{}, Bytes{});
  u64 splits = 0;
  for (int i = 0; i < 6; ++i) {
    ProfileOutput out = RunInterval(*profiler, start, MiB(16));
    splits += out.regions_split;
  }
  EXPECT_GT(splits, 0u);
  for (const Region& region : profiler->regions()) {
    if (region.bytes() > kHugePageBytes) {
      EXPECT_TRUE(IsHugeAligned(region.start) ||
                  region.start == profiler->regions().begin()->start);
    }
  }
}

// The interval end is one walk that merges, splits and emits. After every
// walk of a run that does all three, the policy view must be the region
// table read in address order, field for field, and the table must stay
// sorted, non-overlapping and inside its VMAs.
TEST_F(MtmProfilerTest, EntriesMirrorTheTableAfterEveryWalk) {
  const VirtAddr a = BuildMapped(MiB(32), ComponentId(0));
  BuildMapped(MiB(16), ComponentId(0));
  const MtmProfiler::Config config = DefaultConfig();
  auto profiler = MakeProfiler(config);
  Rng rng(0x51);
  u64 merges = 0;
  u64 splits = 0;
  bool second_socket_preferred = false;
  for (int interval = 0; interval < 24; ++interval) {
    // A hot window of random page-aligned position and width, touched
    // through the engine from a socket that alternates per 2 MiB, so armed
    // hint faults attribute regions to both sockets.
    const VirtAddr hot = a + PagesToBytes(rng.NextBounded(NumPages(MiB(24))));
    const VirtAddr hot_end = hot + MiB(1 + rng.NextBounded(8));
    profiler->OnIntervalStart();
    for (u32 tick = 0; tick < 3; ++tick) {
      for (VirtAddr p = hot; p < hot_end; p += kPageSize) {
        engine_.Apply(p, false, static_cast<u32>(p.value() / kHugePageSize % 2));
      }
      profiler->OnScanTick(tick);
    }
    const ProfileOutput out = profiler->OnIntervalEnd();
    merges += out.regions_merged;
    splits += out.regions_split;

    const RegionMap& table = profiler->regions();
    ASSERT_EQ(out.entries.size(), table.size());
    ASSERT_EQ(out.num_regions, table.size());
    Bytes hot_bytes;
    Bytes covered;
    VirtAddr prev_end;
    for (std::size_t i = 0; i < table.size(); ++i) {
      const Region& r = table[i];
      const HotnessEntry& e = out.entries[i];
      EXPECT_EQ(e.start, r.start);
      EXPECT_EQ(e.len, r.bytes());
      EXPECT_EQ(e.hotness, r.whi);
      EXPECT_EQ(e.latest_hi, r.hi);
      EXPECT_EQ(e.prev_hi, r.prev_hi);
      double skew = 0.0;
      if (r.samples.size() >= 2) {
        u32 lo = r.samples[0].hits;
        u32 hi = r.samples[0].hits;
        for (const Sample& sample : r.samples) {
          lo = std::min(lo, sample.hits);
          hi = std::max(hi, sample.hits);
        }
        skew = static_cast<double>(hi - lo) / static_cast<double>(config.num_scans);
      }
      EXPECT_EQ(e.skew, skew) << "region " << i << " interval " << interval;
      u32 preferred = 0;
      for (u32 socket = 0; socket < machine_.num_sockets(); ++socket) {
        if (r.socket_hits[socket] > r.socket_hits[preferred]) {
          preferred = socket;
        }
      }
      EXPECT_EQ(e.preferred_socket, preferred);
      second_socket_preferred |= preferred == 1;
      if (r.whi >= config.hot_whi_threshold) {
        hot_bytes += r.bytes();
      }

      ASSERT_LT(r.start, r.end);
      ASSERT_LE(prev_end, r.start) << "unsorted or overlapping at region " << i;
      prev_end = r.end;
      const Vma* vma = address_space_.FindVma(r.start);
      ASSERT_NE(vma, nullptr);
      ASSERT_LE(r.end, vma->end()) << "region " << i << " crosses its VMA's end";
      covered += r.bytes();
    }
    EXPECT_EQ(out.hot_bytes, hot_bytes);
    EXPECT_EQ(covered, MiB(48));  // inside the VMAs and non-overlapping: all of them
  }
  EXPECT_GT(merges, 0u);
  EXPECT_GT(splits, 0u);
  EXPECT_TRUE(second_socket_preferred);
}

TEST_F(MtmProfilerTest, QuotaConservedAtBudget) {
  BuildMapped(MiB(64), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  VirtAddr start = address_space_.vmas()[0].start;
  for (int i = 0; i < 5; ++i) {
    RunInterval(*profiler, start + static_cast<u64>(i % 2) * MiB(16).value(), MiB(8));
  }
  u64 total_quota = 0;
  for (const Region& region : profiler->regions()) {
    EXPECT_GE(region.sample_quota, 1u);
    total_quota += region.sample_quota;
  }
  EXPECT_EQ(total_quota, profiler->NumPageSamples());
}

TEST_F(MtmProfilerTest, OverBudgetQuotasEndAtOne) {
  // Four 16 MiB regions under a budget of eight samples: quotas grow above
  // one while regions are fewer than samples, then splits of the moving hot
  // range push the region count to the budget. Nothing resets the quotas
  // there: every one must already be one at each such interval end,
  // because merges and splits never raise the quota above one past what
  // the under-budget redistribution left. tau_m 0 keeps merges from undoing
  // the splits until overhead control raises it. Three hot-range strides
  // and widths give different split and merge sequences.
  const VirtAddr start = BuildMapped(MiB(64), ComponentId(0));
  MtmProfiler::Config config = DefaultConfig();
  config.default_region_bytes = MiB(16);
  config.overhead_fraction = 0.0003;
  config.tau_m = 0.0;
  bool quota_above_one = false;
  int over_budget_intervals = 0;
  for (const auto& [stride, hot] : {std::pair{MiB(5), MiB(6)}, std::pair{MiB(3), MiB(10)},
                                    std::pair{MiB(9), MiB(6)}}) {
    auto profiler = MakeProfiler(config);
    ASSERT_EQ(profiler->NumPageSamples(), 8u);
    for (u64 i = 0; i < 30; ++i) {
      RunInterval(*profiler, start + (i * stride.value()) % MiB(56).value(), hot);
      const bool over_budget = profiler->regions().size() >= profiler->NumPageSamples();
      for (const Region& region : profiler->regions()) {
        quota_above_one |= !over_budget && region.sample_quota > 1;
        if (over_budget) {
          EXPECT_EQ(region.sample_quota, 1u) << "stride " << stride << " interval " << i;
        }
      }
      over_budget_intervals += over_budget;
    }
  }
  EXPECT_TRUE(quota_above_one);
  EXPECT_GT(over_budget_intervals, 0);
}

TEST_F(MtmProfilerTest, OverheadControlEscalatesTauM) {
  BuildMapped(MiB(64), ComponentId(0));
  MtmProfiler::Config config = DefaultConfig();
  // Tiny budget: far fewer samples than regions. Freeze region formation so
  // merging cannot hide the escalation itself.
  config.overhead_fraction = 0.0001;
  config.adaptive_regions = false;
  auto profiler = MakeProfiler(config);
  ASSERT_LT(profiler->NumPageSamples(), profiler->regions().size());
  double tau0 = profiler->current_tau_m();
  RunInterval(*profiler, VirtAddr{}, Bytes{});
  EXPECT_GT(profiler->current_tau_m(), tau0);
}

TEST_F(MtmProfilerTest, ScanCountRespectsBudget) {
  BuildMapped(MiB(64), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  RunInterval(*profiler, VirtAddr{}, Bytes{});
  // Scans per interval <= num_ps * num_scans (plus PEBS-nominated ones).
  EXPECT_LE(profiler->last_interval_scans(), profiler->NumPageSamples() * 3 + 64);
}

TEST_F(MtmProfilerTest, ProfilingCostWithinConstraint) {
  BuildMapped(MiB(64), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  ProfileOutput out = RunInterval(*profiler, VirtAddr{}, Bytes{});
  // Cost stays within ~the 5% target of the 20 ms interval (1 ms), with
  // small slack for PEBS drains.
  EXPECT_LE(out.profiling_cost_ns, Millis(1) + Micros(200));
}

TEST_F(MtmProfilerTest, PebsNominatesSlowTierRegions) {
  // Pages on PM (slowest tier) are profiled only when the counter window
  // sees traffic (§5.5) — and the sampled page is the PEBS-captured one.
  Machine machine = Machine::OptaneFourTier(512);
  ComponentId pm = machine.TierOrder(0)[2];
  VirtAddr start = BuildMapped(MiB(16), pm);
  auto profiler = MakeProfiler(DefaultConfig());

  profiler->OnIntervalStart();
  ASSERT_TRUE(pebs_.enabled());  // the window is open
  // PM traffic to one region through the engine so PEBS observes it; the
  // traffic continues across the scan ticks, as in a live interval.
  auto traffic = [&] {
    for (int i = 0; i < 1000; ++i) {
      engine_.Apply(start + MiB(2).value() + (static_cast<u64>(i) % 512) * kPageSize, false, 0);
    }
  };
  traffic();
  for (u32 tick = 0; tick < 3; ++tick) {
    profiler->OnScanTick(tick);
    traffic();
  }
  EXPECT_FALSE(pebs_.enabled());  // closed at the first tick
  ProfileOutput out = profiler->OnIntervalEnd();
  // Exactly the trafficked region(s) got samples: hot entries exist near
  // MiB(2), none in the untouched tail.
  bool nominated_hot = false;
  for (const HotnessEntry& e : out.entries) {
    if (e.hotness > 0) {
      EXPECT_LT(e.start, start + MiB(6).value());
      nominated_hot = true;
    }
  }
  EXPECT_TRUE(nominated_hot);
}

TEST_F(MtmProfilerTest, WithoutPebsSlowTierSampledDirectly) {
  Machine machine = Machine::OptaneFourTier(512);
  ComponentId pm = machine.TierOrder(0)[2];
  VirtAddr start = BuildMapped(MiB(8), pm);
  MtmProfiler::Config config = DefaultConfig();
  config.use_pebs = false;
  auto profiler = MakeProfiler(config);
  ProfileOutput out = RunInterval(*profiler, start, MiB(8));
  double max_hot = 0;
  for (const HotnessEntry& e : out.entries) {
    max_hot = std::max(max_hot, e.hotness);
  }
  EXPECT_GT(max_hot, 2.0);  // found hot pages without counter assist
}

TEST_F(MtmProfilerTest, HintFaultsResolvePreferredSocket) {
  VirtAddr start = BuildMapped(MiB(4), ComponentId(0));
  MtmProfiler::Config config = DefaultConfig();
  config.hint_fault_period = 1;  // arm aggressively for the test
  auto profiler = MakeProfiler(config);
  for (int i = 0; i < 3; ++i) {
    profiler->OnIntervalStart();
    for (u32 tick = 0; tick < 3; ++tick) {
      // All traffic from socket 1.
      for (VirtAddr a = start; a < start + MiB(4).value(); a += kPageSize) {
        engine_.Apply(a, false, /*socket=*/1);
      }
      profiler->OnScanTick(tick);
    }
    ProfileOutput out = profiler->OnIntervalEnd();
    if (i == 2) {
      int socket1 = 0;
      for (const HotnessEntry& e : out.entries) {
        socket1 += e.preferred_socket == 1;
      }
      EXPECT_GT(socket1, 0);
    }
  }
}

TEST_F(MtmProfilerTest, AblationFlagsChangeBehavior) {
  BuildMapped(MiB(32), ComponentId(0));
  MtmProfiler::Config config = DefaultConfig();
  config.adaptive_regions = false;
  auto no_amr = MakeProfiler(config);
  ProfileOutput out = RunInterval(*no_amr, VirtAddr{}, Bytes{});
  EXPECT_EQ(out.regions_merged, 0u);
  EXPECT_EQ(out.regions_split, 0u);
  EXPECT_EQ(no_amr->regions().size(), MiB(32) / kHugePageBytes);
}

TEST_F(MtmProfilerTest, MemoryOverheadSmall) {
  BuildMapped(MiB(64), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  RunInterval(*profiler, VirtAddr{}, Bytes{});
  Bytes overhead = profiler->MemoryOverheadBytes();
  EXPECT_GT(overhead, Bytes{});
  // Table 5: well under 0.1% of the workload footprint.
  EXPECT_LT(overhead, MiB(64) / 1000 + KiB(64));
}

TEST_F(MtmProfilerTest, HotBytesTracksHotVolume) {
  VirtAddr start = BuildMapped(MiB(32), ComponentId(0));
  auto profiler = MakeProfiler(DefaultConfig());
  ProfileOutput out;
  for (int i = 0; i < 4; ++i) {
    out = RunInterval(*profiler, start, MiB(4));
  }
  EXPECT_GE(out.hot_bytes, MiB(3));
  EXPECT_LE(out.hot_bytes, MiB(12));
}

}  // namespace
}  // namespace mtm
