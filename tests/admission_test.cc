// Tests for the migration admission-control stage: the per-region history
// bookkeeping, the three shipped controllers' verdict matrices, the engine
// integration (gating, budget, history recording), the vanilla-controller
// byte-identity guarantee against the seed goldens, and the ppt-vs-vanilla
// thrash regression on the adversarial ping-pong workload.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/mechanism.h"
#include "src/migration/migration_engine.h"
#include "src/obs/obs.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/workloads/pingpong.h"
#include "src/workloads/workload_factory.h"

namespace mtm {
namespace {

AdmissionTuning TestTuning() {
  AdmissionTuning tuning;
  tuning.flip_window_ns = Millis(10);
  tuning.ppt_base_cooldown_ns = Millis(1);
  tuning.ppt_max_cooldown_ns = Millis(32);
  tuning.interval_budget_bytes = MiB(8);
  return tuning;
}

AdmissionRequest Promote(VirtAddr start, Bytes bytes, SimNanos now, double hotness = 0.0) {
  AdmissionRequest r;
  r.order = MigrationOrder{start, bytes, ComponentId(0), 0, hotness};
  r.bytes = bytes;
  r.is_promotion = true;
  r.now = now;
  return r;
}

AdmissionRequest Demote(VirtAddr start, Bytes bytes, SimNanos now) {
  AdmissionRequest r = Promote(start, bytes, now);
  r.is_promotion = false;
  return r;
}

// ------------------------------------------------------------- history --

TEST(MigrationHistoryTest, CountsGenerationsAndTimestamps) {
  MigrationHistory history(TestTuning());
  const VirtAddr addr(kHugePageSize * 10);
  history.RecordMove(addr, /*is_promotion=*/true, MiB(2), Nanos(100));
  history.RecordMove(addr, /*is_promotion=*/true, MiB(2), Nanos(200));
  history.RecordMove(addr, /*is_promotion=*/false, MiB(2), Millis(20));
  const RegionMigrationHistory* e = history.Find(addr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->promotions, 2u);
  EXPECT_EQ(e->demotions, 1u);
  EXPECT_EQ(e->last_promote_at, Nanos(200));
  EXPECT_EQ(e->last_demote_at, Millis(20));
  EXPECT_EQ(e->last_direction, -1);
  EXPECT_EQ(history.size(), 1u);
}

TEST(MigrationHistoryTest, KeysByHugeAlignedRegion) {
  MigrationHistory history(TestTuning());
  const VirtAddr base(kHugePageSize * 4);
  history.RecordMove(base, true, MiB(2), Nanos(1));
  // A different page of the same 2 MiB region lands in the same entry.
  history.RecordMove(base + kPageBytes * 3, true, MiB(2), Nanos(2));
  EXPECT_EQ(history.size(), 1u);
  EXPECT_EQ(history.Find(base)->promotions, 2u);
  EXPECT_EQ(history.Find(base + kPageBytes), history.Find(base));
}

TEST(MigrationHistoryTest, FlipRequiresReversalInsideWindow) {
  MigrationHistory history(TestTuning());  // flip window 10 ms
  const VirtAddr a(kHugePageSize);
  const VirtAddr b(kHugePageSize * 2);
  // Promote then demote 1 ms later: a flip.
  history.RecordMove(a, true, MiB(2), Millis(1));
  EXPECT_TRUE(history.RecordMove(a, false, MiB(2), Millis(2)).flipped);
  // Same-direction repeat is never a flip.
  EXPECT_FALSE(history.RecordMove(a, false, MiB(2), Millis(3)).flipped);
  // Reversal outside the window is churn, not ping-pong.
  history.RecordMove(b, true, MiB(2), Millis(1));
  EXPECT_FALSE(history.RecordMove(b, false, MiB(2), Millis(50)).flipped);
  EXPECT_EQ(history.Find(a)->flips, 1u);
  EXPECT_EQ(history.Find(b)->flips, 0u);
}

TEST(MigrationHistoryTest, PingPongScoreAccumulatesAndDecays) {
  MigrationHistory history(TestTuning());  // score_decay 0.5
  const VirtAddr a(kHugePageSize);
  history.RecordMove(a, true, MiB(2), Millis(1));
  history.RecordMove(a, false, MiB(2), Millis(2));  // flip 1
  history.RecordMove(a, true, MiB(2), Millis(3));   // flip 2
  EXPECT_DOUBLE_EQ(history.Find(a)->pingpong_score, 2.0);
  EXPECT_DOUBLE_EQ(history.MaxPingPongScore(), 2.0);
  history.EndInterval();
  EXPECT_DOUBLE_EQ(history.Find(a)->pingpong_score, 1.0);
  history.EndInterval();
  EXPECT_DOUBLE_EQ(history.MaxPingPongScore(), 0.5);
}

TEST(MigrationHistoryTest, FindUnknownRegionReturnsNull) {
  MigrationHistory history(TestTuning());
  EXPECT_EQ(history.Find(VirtAddr(kHugePageSize)), nullptr);
  EXPECT_DOUBLE_EQ(history.MaxPingPongScore(), 0.0);
}

// --------------------------------------------------------- controllers --

TEST(AdmissionKindTest, NamesRoundTrip) {
  for (AdmissionKind kind :
       {AdmissionKind::kVanilla, AdmissionKind::kPpt, AdmissionKind::kBandwidth}) {
    AdmissionKind parsed;
    ASSERT_TRUE(AdmissionKindFromName(AdmissionKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    auto controller = MakeAdmissionController(kind, TestTuning());
    EXPECT_EQ(controller->kind(), kind);
  }
  AdmissionKind parsed = AdmissionKind::kPpt;
  EXPECT_FALSE(AdmissionKindFromName("bogus", &parsed));
  EXPECT_EQ(parsed, AdmissionKind::kPpt);  // untouched on failure
}

TEST(VanillaAdmissionTest, AdmitsEverything) {
  auto vanilla = MakeAdmissionController(AdmissionKind::kVanilla, TestTuning());
  MigrationHistory history(TestTuning());
  const VirtAddr a(kHugePageSize);
  // Even a region mid-cooldown, over an exhausted budget.
  history.RecordMove(a, true, MiB(2), Millis(1));
  history.RecordMove(a, false, MiB(2), Millis(2));
  AdmissionBudget budget{MiB(1), MiB(1)};
  EXPECT_EQ(vanilla->Admit(Promote(a, MiB(2), Millis(2)), history, budget),
            AdmissionVerdict::kAdmit);
  EXPECT_EQ(vanilla->Admit(Demote(a, MiB(2), Millis(2)), history, budget),
            AdmissionVerdict::kAdmit);
}

TEST(PptAdmissionTest, VerdictMatrix) {
  auto ppt = MakeAdmissionController(AdmissionKind::kPpt, TestTuning());
  MigrationHistory history(TestTuning());  // base cooldown 1 ms
  AdmissionBudget budget;
  const VirtAddr a(kHugePageSize);
  const VirtAddr b(kHugePageSize * 2);
  // Never-migrated region: admit.
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), Millis(1)), history, budget),
            AdmissionVerdict::kAdmit);
  // Promoted but never demoted: re-promotion has no cooldown to respect.
  history.RecordMove(a, true, MiB(2), Millis(1));
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), Millis(1)), history, budget),
            AdmissionVerdict::kAdmit);
  // b demoted at 2 ms with no flips: cooldown is the 1 ms base.
  history.RecordMove(b, false, MiB(2), Millis(2));
  ASSERT_EQ(history.Find(b)->flips, 0u);
  EXPECT_EQ(ppt->Admit(Promote(b, MiB(2), Millis(2) + Nanos(1)), history, budget),
            AdmissionVerdict::kDefer);
  EXPECT_EQ(ppt->Admit(Promote(b, MiB(2), Millis(3)), history, budget),
            AdmissionVerdict::kAdmit);
  // a's demotion at 2 ms reverses its 1 ms promotion — one flip, so the
  // cooldown doubles: deferred at 3 ms, admitted at 4 ms.
  history.RecordMove(a, false, MiB(2), Millis(2));
  ASSERT_EQ(history.Find(a)->flips, 1u);
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), Millis(3)), history, budget),
            AdmissionVerdict::kDefer);
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), Millis(4)), history, budget),
            AdmissionVerdict::kAdmit);
  // Demotions are never throttled (blocking them would overflow the tier).
  EXPECT_EQ(ppt->Admit(Demote(a, MiB(2), Millis(2) + Nanos(1)), history, budget),
            AdmissionVerdict::kAdmit);
}

TEST(PptAdmissionTest, CooldownGrowsExponentiallyWithFlips) {
  AdmissionTuning tuning = TestTuning();  // base 1 ms, max 32 ms, window 10 ms
  auto ppt = MakeAdmissionController(AdmissionKind::kPpt, tuning);
  MigrationHistory history(tuning);
  AdmissionBudget budget;
  const VirtAddr a(kHugePageSize);
  // Three flips: demote(f1), promote(f2), demote(f3), last demote at 4 ms.
  history.RecordMove(a, true, MiB(2), Millis(1));
  history.RecordMove(a, false, MiB(2), Millis(2));
  history.RecordMove(a, true, MiB(2), Millis(3));
  history.RecordMove(a, false, MiB(2), Millis(4));
  EXPECT_EQ(history.Find(a)->flips, 3u);
  // Cooldown is now 1 ms << 3 = 8 ms from the 4 ms demotion.
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), Millis(11)), history, budget),
            AdmissionVerdict::kDefer);
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), Millis(12)), history, budget),
            AdmissionVerdict::kAdmit);
}

TEST(PptAdmissionTest, CooldownSaturatesAtMax) {
  AdmissionTuning tuning = TestTuning();
  tuning.ppt_flip_shift_cap = 40;  // force the overflow guard, not the cap
  auto ppt = MakeAdmissionController(AdmissionKind::kPpt, tuning);
  MigrationHistory history(tuning);
  AdmissionBudget budget;
  const VirtAddr a(kHugePageSize);
  history.RecordMove(a, true, MiB(2), Millis(1));
  // Rack up a flip count whose shifted cooldown overflows the 32 ms max.
  for (int i = 0; i < 20; ++i) {
    history.RecordMove(a, i % 2 == 0, MiB(2), Millis(1) + Nanos(i));
  }
  ASSERT_GE(history.Find(a)->flips, 19u);
  // 1 ms << 19 overflows the 32 ms max; the cooldown saturates there.
  const SimNanos demoted_at = history.Find(a)->last_demote_at;
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), demoted_at + Millis(31)), history, budget),
            AdmissionVerdict::kDefer);
  EXPECT_EQ(ppt->Admit(Promote(a, MiB(2), demoted_at + Millis(33)), history, budget),
            AdmissionVerdict::kAdmit);
}

TEST(BandwidthAdmissionTest, RejectsPromotionsOverBudget) {
  auto bw = MakeAdmissionController(AdmissionKind::kBandwidth, TestTuning());
  MigrationHistory history(TestTuning());
  const VirtAddr a(kHugePageSize);
  AdmissionBudget budget{MiB(8), Bytes{}};
  EXPECT_EQ(bw->Admit(Promote(a, MiB(8), Nanos(1)), history, budget),
            AdmissionVerdict::kAdmit);
  budget.admitted_bytes = MiB(6);
  EXPECT_EQ(bw->Admit(Promote(a, MiB(2), Nanos(1)), history, budget),
            AdmissionVerdict::kAdmit);  // exactly fits
  EXPECT_EQ(bw->Admit(Promote(a, MiB(2) + kPageBytes, Nanos(1)), history, budget),
            AdmissionVerdict::kReject);
  budget.admitted_bytes = MiB(8);
  EXPECT_EQ(bw->Admit(Promote(a, kPageBytes, Nanos(1)), history, budget),
            AdmissionVerdict::kReject);
  // Demotions are pressure relief and never charged or rejected.
  EXPECT_EQ(bw->Admit(Demote(a, MiB(64), Nanos(1)), history, budget),
            AdmissionVerdict::kAdmit);
  // A zero limit means unlimited.
  AdmissionBudget unlimited;
  EXPECT_EQ(bw->Admit(Promote(a, GiB(1), Nanos(1)), history, unlimited),
            AdmissionVerdict::kAdmit);
}

TEST(BandwidthAdmissionTest, SequencesDemotionsFirstThenHottest) {
  auto bw = MakeAdmissionController(AdmissionKind::kBandwidth, TestTuning());
  std::vector<AdmissionRequest> batch;
  batch.push_back(Promote(VirtAddr(kHugePageSize * 1), MiB(2), Nanos(1), /*hotness=*/1.0));
  batch.push_back(Demote(VirtAddr(kHugePageSize * 2), MiB(2), Nanos(1)));
  batch.push_back(Promote(VirtAddr(kHugePageSize * 3), MiB(2), Nanos(1), /*hotness=*/9.0));
  batch.push_back(Demote(VirtAddr(kHugePageSize * 4), MiB(2), Nanos(1)));
  batch.push_back(Promote(VirtAddr(kHugePageSize * 5), MiB(2), Nanos(1), /*hotness=*/9.0));
  bw->Sequence(batch);
  // Demotions first, in policy order; then promotions by descending hotness,
  // ties kept stable.
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[0].order.start, VirtAddr(kHugePageSize * 2));
  EXPECT_EQ(batch[1].order.start, VirtAddr(kHugePageSize * 4));
  EXPECT_EQ(batch[2].order.start, VirtAddr(kHugePageSize * 3));
  EXPECT_EQ(batch[3].order.start, VirtAddr(kHugePageSize * 5));
  EXPECT_EQ(batch[4].order.start, VirtAddr(kHugePageSize * 1));
}

TEST(BandwidthAdmissionTest, SplitsPromotionsAtTheBudgetBoundary) {
  auto bw = MakeAdmissionController(AdmissionKind::kBandwidth, TestTuning());
  MigrationHistory history(TestTuning());
  const VirtAddr a(kHugePageSize);
  AdmissionBudget budget{MiB(8), MiB(3)};  // MiB(5) remaining
  // Fits: whole-order admit, no split boundary.
  AdmissionDecision whole = bw->DecideOrder(Promote(a, MiB(4), Nanos(1)), history, budget);
  EXPECT_EQ(whole.verdict, AdmissionVerdict::kAdmit);
  EXPECT_TRUE(whole.admit_bytes.IsZero());
  // Over budget: admit the huge-aligned prefix of what remains.
  AdmissionDecision split = bw->DecideOrder(Promote(a, MiB(6), Nanos(1)), history, budget);
  EXPECT_EQ(split.verdict, AdmissionVerdict::kAdmit);
  EXPECT_EQ(split.admit_bytes, MiB(4));
  // Less than one huge page left: nothing worth splitting.
  budget.admitted_bytes = MiB(8) - kPageBytes;
  AdmissionDecision reject = bw->DecideOrder(Promote(a, MiB(2), Nanos(1)), history, budget);
  EXPECT_EQ(reject.verdict, AdmissionVerdict::kReject);
  // Demotions bypass the budget and never split.
  budget.admitted_bytes = MiB(8);
  AdmissionDecision demote = bw->DecideOrder(Demote(a, MiB(64), Nanos(1)), history, budget);
  EXPECT_EQ(demote.verdict, AdmissionVerdict::kAdmit);
  EXPECT_TRUE(demote.admit_bytes.IsZero());
}

TEST(PptAdmissionTest, DecideOrderNeverSplits) {
  // Whole-order controllers inherit the default DecideOrder: the verdict
  // matches Admit and the split boundary stays unset.
  auto ppt = MakeAdmissionController(AdmissionKind::kPpt, TestTuning());
  MigrationHistory history(TestTuning());
  AdmissionBudget budget{Bytes{}, Bytes{}};
  AdmissionDecision d =
      ppt->DecideOrder(Promote(VirtAddr(kHugePageSize), GiB(1), Nanos(1)), history, budget);
  EXPECT_EQ(d.verdict, AdmissionVerdict::kAdmit);
  EXPECT_TRUE(d.admit_bytes.IsZero());
}

// --------------------------------------------------- engine integration --

class AdmissionEngineTest : public ::testing::Test {
 protected:
  AdmissionEngineTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        counters_(machine_.num_components()),
        engine_(machine_, page_table_, frames_, address_space_, counters_, clock_,
                MechanismKind::kMovePages),
        t1_(machine_.TierOrder(0)[0]),
        t3_(machine_.TierOrder(0)[2]) {}

  VirtAddr BuildMapped(Bytes bytes, ComponentId component) {
    u32 vma = address_space_.Allocate(bytes, false, "w");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, false).ok());
    EXPECT_TRUE(frames_.Reserve(component, address_space_.vma(vma).len).ok());
    return start;
  }

  ComponentId ComponentAt(VirtAddr addr) { return page_table_.Find(addr)->component(); }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  MemCounters counters_;
  MigrationEngine engine_;
  ComponentId t1_, t3_;
};

TEST_F(AdmissionEngineTest, EngineRecordsHistoryEvenWithoutController) {
  // Null controller: admit everything, record history only (the engine's
  // default history has a zero flip window, so tuning must be installed).
  engine_.set_admission(nullptr, TestTuning());
  VirtAddr start = BuildMapped(MiB(4), t3_);
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  const RegionMigrationHistory* e = engine_.history().Find(start);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->promotions, 1u);
  EXPECT_EQ(e->last_direction, 1);
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(2), t3_, 0}).ok());
  EXPECT_EQ(engine_.history().Find(start)->demotions, 1u);
  // No controller: nothing counted against the admission stage.
  EXPECT_EQ(engine_.admission_stats().admitted, 0u);
  EXPECT_EQ(engine_.admission_stats().flip_moves, 1u);  // flip bookkeeping still on
}

TEST_F(AdmissionEngineTest, MixedSourceOrderBooksItsFirstSource) {
  // An order whose pages sit on two sources is a promotion or a demotion by
  // the first source in address order, not by component id: PM1 then
  // DRAM0, moved to PM0 as seen from socket 0, is a promotion.
  engine_.set_admission(nullptr, TestTuning());
  const ComponentId pm1 = machine_.TierOrder(0)[3];
  VirtAddr start = BuildMapped(MiB(4), pm1);
  const VirtAddr tail = start + MiB(2).value();
  page_table_.ForEachMapping(tail, MiB(2), [&](VirtAddr addr, Bytes, Pte& pte) {
    page_table_.SetComponent(addr, pte, t1_);
  });
  frames_.Release(pm1, MiB(2));
  ASSERT_TRUE(frames_.Reserve(t1_, MiB(2)).ok());
  ASSERT_LT(t1_, pm1);
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(4), t3_, 0}).ok());
  EXPECT_EQ(ComponentAt(start), t3_);
  EXPECT_EQ(ComponentAt(tail), t3_);
  const RegionMigrationHistory* e = engine_.history().Find(start);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->promotions, 1u);
  EXPECT_EQ(e->demotions, 0u);
}

TEST_F(AdmissionEngineTest, PptDefersRePromotionInsideCooldown) {
  AdmissionTuning tuning = TestTuning();
  auto ppt = MakeAdmissionController(AdmissionKind::kPpt, tuning);
  engine_.set_admission(ppt.get(), tuning);
  VirtAddr start = BuildMapped(MiB(4), t3_);
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(2), t3_, 0}).ok());
  // Re-promotion lands inside the 1 ms base cooldown: deferred, not moved.
  Status deferred = engine_.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  EXPECT_EQ(deferred.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ComponentAt(start), t3_);
  EXPECT_EQ(engine_.admission_stats().deferred, 1u);
  EXPECT_EQ(engine_.admission_stats().deferred_bytes, MiB(2));
  // Past the cooldown the same order is admitted.
  clock_.AdvanceApp(Millis(2));
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  EXPECT_EQ(ComponentAt(start), t1_);
}

TEST_F(AdmissionEngineTest, BandwidthBudgetNeverExceededAndResets) {
  AdmissionTuning tuning = TestTuning();
  tuning.interval_budget_bytes = MiB(4);
  auto bw = MakeAdmissionController(AdmissionKind::kBandwidth, tuning);
  engine_.set_admission(bw.get(), tuning);
  VirtAddr start = BuildMapped(MiB(16), t3_);
  u64 rejected = 0;
  for (u32 i = 0; i < 8; ++i) {
    Status s = engine_.Submit(MigrationOrder{start + MiB(2) * i, MiB(2), t1_, 0});
    rejected += s.code() == StatusCode::kResourceExhausted;
    EXPECT_LE(engine_.admission_budget().admitted_bytes, MiB(4));
  }
  EXPECT_EQ(engine_.admission_stats().admitted_bytes, MiB(4));
  EXPECT_EQ(rejected, 6u);
  EXPECT_EQ(engine_.stats().bytes_migrated, MiB(4));
  // The interval boundary re-opens the budget.
  engine_.BeginInterval();
  EXPECT_EQ(engine_.admission_budget().admitted_bytes, Bytes{});
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start + MiB(8), MiB(2), t1_, 0}).ok());
}

TEST_F(AdmissionEngineTest, DemotionsBypassTheBandwidthBudget) {
  AdmissionTuning tuning = TestTuning();
  tuning.interval_budget_bytes = MiB(2);
  auto bw = MakeAdmissionController(AdmissionKind::kBandwidth, tuning);
  engine_.set_admission(bw.get(), tuning);
  VirtAddr hot = BuildMapped(MiB(2), t3_);
  VirtAddr cold = BuildMapped(MiB(8), t1_);
  EXPECT_TRUE(engine_.Submit(MigrationOrder{hot, MiB(2), t1_, 0}).ok());  // budget spent
  EXPECT_TRUE(engine_.Submit(MigrationOrder{cold, MiB(8), t3_, 0}).ok());
  EXPECT_EQ(engine_.admission_budget().admitted_bytes, MiB(2));  // demotion uncharged
}

TEST_F(AdmissionEngineTest, PartialAdmissionSplitsAtTheBudgetBoundary) {
  AdmissionTuning tuning = TestTuning();
  tuning.interval_budget_bytes = MiB(4);
  auto bw = MakeAdmissionController(AdmissionKind::kBandwidth, tuning);
  engine_.set_admission(bw.get(), tuning);
  VirtAddr start = BuildMapped(MiB(8), t3_);
  // One order twice the budget: the prefix moves, the remainder sheds.
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(8), t1_, 0}).ok());
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(4) - kPageBytes), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(4)), t3_);
  EXPECT_EQ(ComponentAt(start + MiB(8) - kPageBytes), t3_);
  const AdmissionStats& stats = engine_.admission_stats();
  EXPECT_EQ(stats.split_orders, 1u);
  EXPECT_EQ(stats.split_shed_bytes, MiB(4));
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.admitted_bytes, MiB(4));
  // The shed remainder books as rejected bytes too (it did not move).
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.rejected_bytes, MiB(4));
  EXPECT_EQ(engine_.stats().bytes_migrated, MiB(4));
  EXPECT_EQ(engine_.admission_budget().admitted_bytes, MiB(4));
}

TEST_F(AdmissionEngineTest, SplitPrefixSkipsAlreadyResidentPages) {
  AdmissionTuning tuning = TestTuning();
  tuning.interval_budget_bytes = MiB(2);
  auto bw = MakeAdmissionController(AdmissionKind::kBandwidth, tuning);
  engine_.set_admission(bw.get(), tuning);
  VirtAddr start = BuildMapped(MiB(8), t3_);
  // Interval 1 moves [0, 2 MiB); re-submitting the whole order next interval
  // must extend the prefix past the already-resident pages, not re-count
  // them against the budget.
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(8), t1_, 0}).ok());
  EXPECT_EQ(ComponentAt(start + MiB(2) - kPageBytes), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(2)), t3_);
  engine_.BeginInterval();
  EXPECT_TRUE(engine_.Submit(MigrationOrder{start, MiB(8), t1_, 0}).ok());
  EXPECT_EQ(ComponentAt(start + MiB(4) - kPageBytes), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(4)), t3_);
  EXPECT_EQ(engine_.admission_stats().split_orders, 2u);
  EXPECT_EQ(engine_.stats().bytes_migrated, MiB(4));
}

// -------------------------------------------- vanilla golden differential --

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(MTM_TESTS_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AdmissionDifferentialTest, VanillaByteIdenticalToSeedGoldens) {
  // The CI observability smoke configuration (see parallel_scan_test) with
  // the vanilla controller explicitly armed: metrics JSONL, trace, and
  // report must reproduce the goldens captured before the admission stage
  // existed.
  ExperimentConfig config;
  config.num_intervals = 12;
  config.target_accesses = 3'000'000;
  config.mtm.admission = AdmissionKind::kVanilla;
  Observability obs;
  RunOptions options;
  options.obs = &obs;
  RunResult result = RunExperiment("gups", SolutionKind::kMtm, config, options);
  EXPECT_EQ(result.admission, "vanilla");
  EXPECT_FALSE(result.admission_active);  // vanilla does not change reports
  EXPECT_EQ(result.admission_stats.deferred + result.admission_stats.rejected, 0u);

  std::ostringstream metrics;
  obs.timeline.WriteJsonl(metrics, obs.metrics);
  EXPECT_EQ(metrics.str(), ReadGolden("scan_gups_metrics.jsonl"));
  std::ostringstream trace;
  obs.trace.WriteChromeTrace(trace);
  EXPECT_EQ(trace.str(), ReadGolden("scan_gups_trace.json"));
  EXPECT_EQ(Render(result, ReportFormat::kJson) + "\n", ReadGolden("scan_gups_report.json"));
}

// ------------------------------------------------- ping-pong regression --

RunResult RunPingPong(AdmissionKind admission, const std::string& fault_spec) {
  // MTM places slow-tier-first, so the 192 MiB fast tier only fills after
  // ~24 intervals of promotion; the ping-pong dynamics (reclaim demotions
  // vs re-promotions) need the run to go well past that.
  ExperimentConfig config;
  config.num_intervals = 60;
  config.target_accesses = 0;  // run all intervals
  config.mtm.admission = admission;
  config.fault_spec = fault_spec;
  std::unique_ptr<Workload> workload =
      MakeWorkload("pingpong", config.sim_scale, config.num_threads, config.seed);
  Solution solution(SolutionKind::kMtm, config, *workload);
  return RunSimulation(*workload, solution, config);
}

TEST(AdmissionRegressionTest, PptReducesThrashOnPingPong) {
  // The PR's acceptance scenario: on the adversarial ping-pong workload
  // under injected copy failures, ppt must strictly reduce thrash-guard
  // abandons and flip-wasted migration bytes relative to vanilla.
  const std::string spec = "copy_fail:p=0.3";
  RunResult vanilla = RunPingPong(AdmissionKind::kVanilla, spec);
  RunResult ppt = RunPingPong(AdmissionKind::kPpt, spec);
  EXPECT_GT(vanilla.migration_stats.thrash_aborts, 0u);
  EXPECT_LT(ppt.migration_stats.thrash_aborts, vanilla.migration_stats.thrash_aborts);
  EXPECT_LT(ppt.admission_stats.flip_bytes, vanilla.admission_stats.flip_bytes);
  // The throttle actually engaged, and the report reflects the stage.
  EXPECT_GT(ppt.admission_stats.deferred, 0u);
  EXPECT_TRUE(ppt.admission_active);
  EXPECT_EQ(ppt.admission, "ppt");
}

TEST(AdmissionRegressionTest, PptReducesFlipBytesFaultFree) {
  // Even without faults, flips waste bandwidth; ppt damps them.
  RunResult vanilla = RunPingPong(AdmissionKind::kVanilla, "");
  RunResult ppt = RunPingPong(AdmissionKind::kPpt, "");
  EXPECT_GT(vanilla.admission_stats.flip_moves, 0u);
  EXPECT_LE(ppt.admission_stats.flip_bytes, vanilla.admission_stats.flip_bytes);
  EXPECT_GT(ppt.admission_stats.deferred, 0u);
}

TEST(AdmissionRegressionTest, BandwidthRespectsBudgetOnPingPong) {
  ExperimentConfig config;
  config.num_intervals = 12;
  config.target_accesses = 0;
  config.mtm.admission = AdmissionKind::kBandwidth;
  config.mtm.admission_budget_bytes = config.PromoteBatchBytes() / 2;
  std::unique_ptr<Workload> workload =
      MakeWorkload("pingpong", config.sim_scale, config.num_threads, config.seed);
  Solution solution(SolutionKind::kMtm, config, *workload);
  RunResult r = RunSimulation(*workload, solution, config);
  EXPECT_GT(r.admission_stats.rejected, 0u);
  // Total promoted bytes can never exceed budget * intervals.
  EXPECT_LE(r.admission_stats.admitted_bytes,
            config.mtm.admission_budget_bytes * u64{config.num_intervals});
}

}  // namespace
}  // namespace mtm
