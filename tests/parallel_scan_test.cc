// Determinism tests for the PTE-scan path: a second seeded gups run in the
// same process must reproduce the first byte for byte, and two profilers fed
// the same touches must reach bitwise-equal region state. The gups run's
// golden match is ParallelMigrationTest.SerialRunMatchesPreAsyncGoldens.
//
// Two test names predate the removal of the sharded scan, when they
// compared scan-thread counts; the names are kept so test ids stay stable.
#include <gtest/gtest.h>

#include <memory>

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
#include "tests/gups_smoke.h"

namespace mtm {
namespace {

TEST(ParallelScanTest, ScanThreadsProduceByteIdenticalArtifacts) {
  // A second run in the same process must not see anything the first left
  // behind (interned names, cached plans, static state).
  RunArtifacts first = RunGupsSmoke();
  RunArtifacts second = RunGupsSmoke();
  EXPECT_EQ(first.metrics_jsonl, second.metrics_jsonl);
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.report_json, second.report_json);
}

// Profiler-level replay: two MtmProfiler instances over identically
// prepared page tables must converge to bitwise-equal region state.
class ProfilerHarness {
 public:
  ProfilerHarness()
      : machine_(Machine::OptaneFourTier(512)),
        counters_(machine_.num_components()),
        engine_(machine_, page_table_, clock_, counters_, AccessEngine::Config{}),
        pebs_(machine_, PebsEngine::Config{}) {
    engine_.set_pebs(&pebs_);
    u32 vma = address_space_.Allocate(MiB(32), false, "w");
    start_ = address_space_.vma(vma).start;
    EXPECT_TRUE(
        page_table_.MapRange(start_, address_space_.vma(vma).len, ComponentId(0), false).ok());
    MtmProfiler::Config config;
    config.interval_ns = Millis(20);
    config.hint_fault_period = 7;  // arm hints off the default cadence
    profiler_ = std::make_unique<MtmProfiler>(machine_, page_table_, address_space_, engine_,
                                              &pebs_, config);
    profiler_->Initialize();
  }

  // One profiling interval with a seeded pseudo-random touch pattern.
  void RunInterval(u64 interval_seed) {
    Rng rng(interval_seed);
    profiler_->OnIntervalStart();
    for (u32 tick = 0; tick < 3; ++tick) {
      for (int i = 0; i < 4000; ++i) {
        VirtAddr addr = start_ + PagesToBytes(rng.NextBounded(NumPages(MiB(8))));
        page_table_.Touch(addr, rng.NextBernoulli(0.3));
      }
      profiler_->OnScanTick(tick);
    }
    profiler_->OnIntervalEnd();
  }

  const MtmProfiler& profiler() const { return *profiler_; }

 private:
  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  MemCounters counters_;
  AccessEngine engine_;
  PebsEngine pebs_;
  VirtAddr start_;
  std::unique_ptr<MtmProfiler> profiler_;
};

TEST(ParallelScanTest, RegionStateBitwiseEqualAcrossThreadCounts) {
  ProfilerHarness first;
  ProfilerHarness second;
  for (u64 interval = 0; interval < 6; ++interval) {
    first.RunInterval(0x9000 + interval);
    second.RunInterval(0x9000 + interval);
  }
  const RegionMap& a = first.profiler().regions();
  const RegionMap& b = second.profiler().regions();
  ASSERT_EQ(a.size(), b.size());
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    const Region& ra = *ita;
    const Region& rb = *itb;
    EXPECT_EQ(ra.start, rb.start);
    EXPECT_EQ(ra.end, rb.end);
    EXPECT_EQ(ra.sample_quota, rb.sample_quota);
    EXPECT_EQ(ra.samples, rb.samples);
    // Bitwise, not approximate: both profilers must evaluate the exact same
    // floating-point expressions per region.
    EXPECT_EQ(ra.hi, rb.hi);
    EXPECT_EQ(ra.prev_hi, rb.prev_hi);
    EXPECT_EQ(ra.whi, rb.whi);
    EXPECT_EQ(ra.socket_hits, rb.socket_hits);
  }
  EXPECT_EQ(first.profiler().last_interval_scans(), second.profiler().last_interval_scans());
  EXPECT_EQ(first.profiler().current_tau_m(), second.profiler().current_tau_m());
}

}  // namespace
}  // namespace mtm
