// Tests for the tiering policies (§6): MTM's fast-promotion/slow-demotion
// histogram policy and the baseline policies.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/migration_engine.h"
#include "src/migration/policy.h"
#include "src/profiling/profiler.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        t1_(machine_.TierOrder(0)[0]),
        t2_(machine_.TierOrder(0)[1]),
        t3_(machine_.TierOrder(0)[2]),
        t4_(machine_.TierOrder(0)[3]) {
    ctx_.machine = &machine_;
    ctx_.page_table = &page_table_;
    ctx_.frames = &frames_;
  }

  // Maps a region on `component` and returns its hotness entry.
  HotnessEntry MakeRegion(Bytes bytes, ComponentId component, double hotness, u32 socket = 0) {
    u32 vma = address_space_.Allocate(bytes, false, "r");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, false).ok());
    EXPECT_TRUE(frames_.Reserve(component, address_space_.vma(vma).len).ok());
    HotnessEntry e;
    e.start = start;
    e.len = bytes;
    e.hotness = hotness;
    e.preferred_socket = socket;
    return e;
  }

  static ProfileOutput Wrap(std::vector<HotnessEntry> entries) {
    ProfileOutput out;
    out.entries = std::move(entries);
    return out;
  }

  Machine machine_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  PolicyContext ctx_;
  ComponentId t1_, t2_, t3_, t4_;
};

TEST_F(PolicyTest, MtmPromotesHottestToFastestTier) {
  HotnessEntry hot = MakeRegion(MiB(2), t3_, 3.0);
  HotnessEntry cold = MakeRegion(MiB(2), t3_, 0.1);
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = 3.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({cold, hot}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].start, hot.start);
  EXPECT_EQ(orders[0].dst, t1_);
}

TEST_F(PolicyTest, MtmRespectsBudget) {
  std::vector<HotnessEntry> entries;
  for (int i = 0; i < 8; ++i) {
    entries.push_back(MakeRegion(MiB(2), t3_, 3.0 - i * 0.1));
  }
  MtmPolicy policy({.promote_batch_bytes = MiB(4), .hotness_max = 3.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap(entries), ctx_);
  Bytes promoted;
  for (const auto& o : orders) {
    promoted += o.len;
  }
  EXPECT_LE(promoted, MiB(4) + kHugePageBytes);
  EXPECT_GE(promoted, MiB(4));
}

TEST_F(PolicyTest, MtmDirectPromotionFromLowestTier) {
  // Fast promotion (§6.2): tier 4 pages go straight to tier 1, no
  // tier-by-tier staging.
  HotnessEntry hot = MakeRegion(MiB(2), t4_, 3.0);
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = 3.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({hot}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].dst, t1_);
}

TEST_F(PolicyTest, MtmSlowDemotionMakesRoom) {
  // Fill t1 with a cold resident; the hot incoming region displaces it one
  // tier down (to t2? no — demotion crosses to the slower class), and the
  // demotion order precedes the promotion.
  HotnessEntry resident = MakeRegion(frames_.capacity(t1_), t1_, 0.2);
  HotnessEntry hot = MakeRegion(MiB(2), t3_, 3.0);
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = 3.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({resident, hot}), ctx_);
  ASSERT_GE(orders.size(), 2u);
  // First a demotion of the cold resident to a slower class...
  EXPECT_EQ(orders[0].start, resident.start);
  EXPECT_TRUE(machine_.IsSlowerClass(t1_, orders[0].dst));
  // ...then the promotion into t1.
  EXPECT_EQ(orders.back().start, hot.start);
  EXPECT_EQ(orders.back().dst, t1_);
}

TEST_F(PolicyTest, MtmNeverDemotesHotterVictims) {
  // t1 full of hotter residents: the incoming region falls through to the
  // next tier instead ("2nd highest bucket to the 2nd-fastest tier").
  HotnessEntry resident = MakeRegion(frames_.capacity(t1_), t1_, 3.0);
  HotnessEntry warm = MakeRegion(MiB(2), t3_, 2.0);
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = 3.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({resident, warm}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].start, warm.start);
  EXPECT_EQ(orders[0].dst, t2_);
}

TEST_F(PolicyTest, MtmSkipsStoneColdRegions) {
  HotnessEntry cold = MakeRegion(MiB(2), t3_, 0.0);
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = 3.0});
  EXPECT_TRUE(policy.Decide(Wrap({cold}), ctx_).empty());
}

TEST_F(PolicyTest, MtmUsesPreferredSocketView) {
  // A region whose accesses come from socket 1 promotes to socket 1's
  // fastest tier (§6.2 multi-view).
  HotnessEntry hot = MakeRegion(MiB(2), t4_, 3.0, /*socket=*/1);
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = 3.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({hot}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].dst, machine_.TierOrder(1)[0]);
}

TEST_F(PolicyTest, MtmPartialPromotionTargetsSlowSlice) {
  // A region half-resident in t1 promotes its slow half, not its head.
  HotnessEntry hot = MakeRegion(MiB(4), t3_, 3.0);
  page_table_.ForEachMapping(hot.start, MiB(2), [&](VirtAddr addr, Bytes, Pte& pte) {
    page_table_.SetComponent(addr, pte, t1_);
  });
  frames_.Release(t3_, MiB(2));
  ASSERT_TRUE(frames_.Reserve(t1_, MiB(2)).ok());
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = 3.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({hot}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].start, hot.start + MiB(2).value());
}

TEST_F(PolicyTest, MtmAdaptiveHotnessScale) {
  // hotness_max <= 0 adapts to a foreign profiler's scale (raw counts).
  HotnessEntry hot = MakeRegion(MiB(2), t3_, 900.0);
  HotnessEntry cold = MakeRegion(MiB(2), t3_, 3.0);
  MtmPolicy policy({.promote_batch_bytes = MiB(2), .hotness_max = -1.0});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({cold, hot}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].start, hot.start);
}

TEST_F(PolicyTest, BucketOrdersMatchHistogram) {
  // DecideByScore ranks entries by OrderByBucket's counting pass. It must
  // enumerate exactly as the histogram it replaced: hottest (coldest) bucket
  // first, ties within a bucket in index order.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const double max_value = 0.5 + 4.0 * rng.NextDouble();
    const u32 num_buckets = 1 + static_cast<u32>(rng.NextBounded(20));
    std::vector<double> scores(rng.NextBounded(400));
    for (double& score : scores) {
      // Few distinct values, so buckets hold many ties, plus values on and
      // beyond both ends of the range.
      score = rng.NextBernoulli(0.8)
                  ? static_cast<double>(rng.NextBounded(13)) * max_value / 10.0
                  : (1.4 * rng.NextDouble() - 0.2) * max_value;
    }
    BucketedHistogram<std::size_t> hist(0.0, max_value, num_buckets);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      hist.Update(i, scores[i]);
    }
    const BucketOrders orders = OrderByBucket(scores, 0.0, max_value, num_buckets);
    ASSERT_EQ(orders.hottest, hist.HottestFirst()) << "trial " << trial;
    ASSERT_EQ(orders.coldest, hist.ColdestFirst()) << "trial " << trial;
  }
}

TEST_F(PolicyTest, AutoNumaPromotesPmToLocalDramOnly) {
  // Kernel-style one-step move: PM page -> the DRAM of its own socket.
  HotnessEntry page = MakeRegion(kPageBytes, t4_, 2.0);  // PM1, home socket 1
  AutoNumaPolicy policy({.promote_batch_bytes = MiB(2)}, /*patched=*/true);
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({page}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].dst, machine_.TierOrder(1)[0]);  // DRAM1, not DRAM0
}

TEST_F(PolicyTest, AutoNumaRebalancesRemoteDram) {
  HotnessEntry page = MakeRegion(kPageBytes, t2_, 2.0, /*socket=*/0);  // DRAM1
  AutoNumaPolicy policy({.promote_batch_bytes = MiB(2)}, /*patched=*/true);
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({page}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].dst, t1_);
}

TEST_F(PolicyTest, AutoNumaPatchedRanksByFaults) {
  HotnessEntry cold = MakeRegion(kPageBytes, t3_, 1.0);
  HotnessEntry hot = MakeRegion(kPageBytes, t3_, 9.0);
  AutoNumaPolicy policy({.promote_batch_bytes = kPageBytes}, /*patched=*/true);
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({cold, hot}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].start, hot.start);
}

TEST_F(PolicyTest, AutoNumaVanillaTakesArrivalOrder) {
  HotnessEntry first = MakeRegion(kPageBytes, t3_, 1.0);
  HotnessEntry second = MakeRegion(kPageBytes, t3_, 9.0);
  AutoNumaPolicy policy({.promote_batch_bytes = kPageBytes}, /*patched=*/false);
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({first, second}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].start, first.start);
}

TEST_F(PolicyTest, AutoTieringOpportunisticPromotion) {
  HotnessEntry chunk = MakeRegion(MiB(2), t3_, 0.5);
  AutoTieringPolicy policy({.promote_batch_bytes = MiB(2)});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({chunk}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].dst, t1_);
}

TEST_F(PolicyTest, AutoTieringFallsBackToFullTier) {
  // Every faster tier full: still promotes to t1, relying on reclaim.
  MakeRegion(frames_.capacity(t1_), t1_, 0.0);
  MakeRegion(frames_.capacity(t2_), t2_, 0.0);
  HotnessEntry chunk = MakeRegion(MiB(2), t3_, 0.5);
  AutoTieringPolicy policy({.promote_batch_bytes = MiB(2)});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({chunk}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].dst, t1_);
}

TEST_F(PolicyTest, HememPromotesAboveThreshold) {
  HotnessEntry hot = MakeRegion(kPageBytes, t3_, 5.0);
  HotnessEntry cool = MakeRegion(kPageBytes, t3_, 1.0);
  HememPolicy policy({.promote_batch_bytes = MiB(2)});
  std::vector<MigrationOrder> orders = policy.Decide(Wrap({hot, cool}), ctx_);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].start, hot.start);
  EXPECT_EQ(orders[0].dst, t1_);
}

TEST_F(PolicyTest, NullPolicyDoesNothing) {
  HotnessEntry hot = MakeRegion(MiB(2), t3_, 3.0);
  NullPolicy policy;
  EXPECT_TRUE(policy.Decide(Wrap({hot}), ctx_).empty());
}

}  // namespace
}  // namespace mtm
