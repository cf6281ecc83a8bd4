// Golden / property / replay harness for the staged move_memory_regions
// copy (src/migration/async_copy.h, DESIGN.md §14):
//   * golden: a seeded gups run must match the tests/golden/ files
//     (generated before the copy stage existed) while exercising both the
//     staged async commit and the §7.2 write-fault fallback;
//   * replay: a run carries no state into the next one in the same
//     process, so repeated runs, including under --fault_spec chaos and
//     the pingpong x ppt adversarial mix, emit byte-identical metrics
//     JSONL, Chrome trace, and report JSON;
//   * property: the region copy checksum changes with any one record's
//     payload, source or size and with record order, a dropped staged copy
//     leaves no trace, and §7.2 write-fault fallback properties (a write
//     inside an in-flight window forces sync fallback exactly once, no lost
//     updates, the fallback re-reads the live contents, the fallback counter
//     is monotone, both commit paths give the serial reference checksum).
//
// Several test names predate the removal of the copy helper threads, when
// they compared thread counts, and of the copy-shard plan
// (CopyShardPlanTest); the names are kept so test ids stay stable.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/async_copy.h"
#include "src/migration/mechanism.h"
#include "src/migration/migration_engine.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "tests/gups_smoke.h"

namespace mtm {
namespace {

// ------------------------------------------------------- golden harness --

void ExpectSameCopyStats(const MigrationStats& a, const MigrationStats& b,
                         const std::string& label) {
  EXPECT_EQ(a.async_copies, b.async_copies) << label;
  EXPECT_EQ(a.async_copy_bytes, b.async_copy_bytes) << label;
  EXPECT_EQ(a.fallback_copy_bytes, b.fallback_copy_bytes) << label;
  EXPECT_EQ(a.copy_checksum, b.copy_checksum) << label;
  EXPECT_EQ(a.sync_fallbacks, b.sync_fallbacks) << label;
}

void ExpectSameArtifacts(const RunArtifacts& a, const RunArtifacts& b, const std::string& label) {
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl) << label;
  EXPECT_EQ(a.trace_json, b.trace_json) << label;
  EXPECT_EQ(a.report_json, b.report_json) << label;
  ExpectSameCopyStats(a.migration, b.migration, label);
}

TEST(ParallelMigrationTest, MigrateThreadsProduceByteIdenticalArtifacts) {
  RunArtifacts first = RunGupsSmoke();
  // The run must actually exercise both copy paths, or this replay proves
  // nothing about them: staged commits and §7.2 write-fault fallbacks.
  EXPECT_GT(first.migration.async_copies, 0u);
  EXPECT_GT(first.migration.sync_fallbacks, 0u);
  EXPECT_NE(first.migration.copy_checksum, 0u);
  // A second run in the same process must not see anything the first left
  // behind.
  ExpectSameArtifacts(first, RunGupsSmoke(), "second run");
}

TEST(ParallelMigrationTest, SerialRunMatchesPreAsyncGoldens) {
  // The goldens predate the copy stage: a default run staging real copies
  // must not move a byte of output.
  RunArtifacts serial = RunGupsSmoke();
  EXPECT_EQ(serial.metrics_jsonl, ReadGolden("scan_gups_metrics.jsonl"));
  EXPECT_EQ(serial.trace_json, ReadGolden("scan_gups_trace.json"));
  EXPECT_EQ(serial.report_json, ReadGolden("scan_gups_report.json"));
  // The run must actually exercise both copy paths, or the golden match
  // proves nothing about them: staged commits and §7.2 write-fault
  // fallbacks.
  EXPECT_GT(serial.migration.async_copies, 0u);
  EXPECT_GT(serial.migration.sync_fallbacks, 0u);
  EXPECT_NE(serial.migration.copy_checksum, 0u);
}

TEST(ParallelMigrationTest, ParallelRunMatchesPreAsyncGoldens) {
  // A chaos run first (rollbacks, retries, dropped staged copies), then the
  // golden scenario in the same process: nothing the aborted transactions
  // touched may leak into the later fault-free run.
  RunArtifacts chaos = RunGupsSmoke("copy_fail:p=0.02;remap_fail:p=0.01;alloc_fail:p=0.01");
  EXPECT_GT(chaos.migration.rollbacks, 0u);
  RunArtifacts clean = RunGupsSmoke();
  EXPECT_EQ(clean.metrics_jsonl, ReadGolden("scan_gups_metrics.jsonl"));
  EXPECT_EQ(clean.trace_json, ReadGolden("scan_gups_trace.json"));
  EXPECT_EQ(clean.report_json, ReadGolden("scan_gups_report.json"));
}

TEST(ParallelMigrationTest, MigrateThreadsByteIdenticalUnderChaos) {
  // Injected copy/remap/alloc faults exercise every drop path of a staged
  // copy (rollbacks, retries, abandons); replaying the run must still
  // reproduce every output byte.
  const std::string spec = "copy_fail:p=0.02;remap_fail:p=0.01;alloc_fail:p=0.01";
  RunArtifacts first = RunGupsSmoke(spec);
  EXPECT_GT(first.migration.rollbacks, 0u);
  ExpectSameArtifacts(first, RunGupsSmoke(spec), "chaos replay");
}

// -------------------------------------------- copy checksum properties --

// Random still-to-move snapshot: huge frames in address order, each either
// one 2 MiB record or a random subset of its 4 KiB base pages (a region
// mid-split), with random gaps between frames (pages already on dst).
std::vector<PageCopyRecord> RandomSnapshot(Rng& rng) {
  std::vector<PageCopyRecord> pages;
  const u64 frames = 1 + rng.NextBounded(24);
  VirtAddr frame = VirtAddr(GiB(1).value());
  for (u64 f = 0; f < frames; ++f) {
    frame = frame + (1 + rng.NextBounded(3)) * kHugePageBytes;
    if (rng.NextBounded(2) == 0) {
      pages.push_back(
          PageCopyRecord{frame, kHugePageBytes, ComponentId{2}, static_cast<u32>(rng.Next())});
    } else {
      for (u64 p = 0; p < kPagesPerHugePage; ++p) {
        if (rng.NextBounded(4) == 0) {
          pages.push_back(PageCopyRecord{frame + p * kPageBytes.value(), kPageBytes,
                                         ComponentId{3}, static_cast<u32>(rng.Next())});
        }
      }
    }
  }
  return pages;
}

u64 RegionChecksum(const std::vector<PageCopyRecord>& pages) { return CopyRegion(pages).checksum; }

TEST(CopyChecksumTest, RegionIsTheInOrderFoldOfItsRecords) {
  Rng rng(0xFEED);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageCopyRecord> pages = RandomSnapshot(rng);
    u64 expected = kCopyChecksumSeed;
    Bytes bytes;
    for (const PageCopyRecord& page : pages) {
      expected = FoldCopyChecksum(expected, CopyPageContent(page));
      bytes += page.size;
    }
    RegionCopyResult result = CopyRegion(pages);
    EXPECT_EQ(result.checksum, expected) << "trial " << trial;
    EXPECT_EQ(result.bytes, bytes) << "trial " << trial;
  }
}

TEST(CopyChecksumTest, ChangesWithAnyOneRecordsPayload) {
  // A lost update anywhere in the region shows: flipping one bit of any one
  // record's payload, or dropping the record, changes the checksum.
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<PageCopyRecord> pages = RandomSnapshot(rng);
    const u64 base = RegionChecksum(pages);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      std::vector<PageCopyRecord> changed = pages;
      changed[i].payload ^= u32{1} << rng.NextBounded(32);
      EXPECT_NE(RegionChecksum(changed), base) << "trial " << trial << " record " << i;
      changed = pages;
      changed.erase(changed.begin() + static_cast<std::ptrdiff_t>(i));
      EXPECT_NE(RegionChecksum(changed), base) << "trial " << trial << " dropped " << i;
    }
  }
}

TEST(CopyChecksumTest, ChangesWithRecordOrder) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<PageCopyRecord> pages = RandomSnapshot(rng);
    const u64 base = RegionChecksum(pages);
    for (std::size_t i = 1; i < pages.size(); ++i) {
      std::vector<PageCopyRecord> swapped = pages;
      std::swap(swapped[i - 1], swapped[i]);
      EXPECT_NE(RegionChecksum(swapped), base) << "trial " << trial << " swap at " << i;
    }
  }
}

TEST(CopyChecksumTest, ChangesWithRecordSource) {
  // A commit that copied from the wrong component shows.
  Rng rng(0x5A5A);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<PageCopyRecord> pages = RandomSnapshot(rng);
    const u64 base = RegionChecksum(pages);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      std::vector<PageCopyRecord> moved = pages;
      moved[i].src = ComponentId{(moved[i].src.value() + 1) % 4};
      EXPECT_NE(RegionChecksum(moved), base) << "trial " << trial << " record " << i;
    }
  }
}

TEST(CopyChecksumTest, SizeAndAddressDoNotAlias) {
  // Same payload and source: a huge record differs from the base record at
  // its address, and a base record from its neighbours.
  const VirtAddr addr = VirtAddr(GiB(1).value());
  const u32 payload = 0x9abc'def0u;
  const PageCopyRecord base{addr, kPageBytes, ComponentId{2}, payload};
  const PageCopyRecord huge{addr, kHugePageBytes, ComponentId{2}, payload};
  const PageCopyRecord next{addr + kPageSize, kPageBytes, ComponentId{2}, payload};
  const PageCopyRecord prev{VirtAddr(addr.value() - kPageSize), kPageBytes, ComponentId{2},
                            payload};
  EXPECT_NE(CopyPageContent(huge), CopyPageContent(base));
  EXPECT_NE(CopyPageContent(next), CopyPageContent(base));
  EXPECT_NE(CopyPageContent(prev), CopyPageContent(base));
  EXPECT_NE(CopyPageContent(next), CopyPageContent(huge));
  EXPECT_NE(RegionChecksum({huge}), RegionChecksum({base}));
}

TEST(CopyShardPlanTest, CancelDiscardsWithoutSideEffects) {
  // An injected copy failure at the async commit rolls the order back: the
  // staged copy is dropped, so no copy stat moves and the region stays on
  // its source tier.
  Machine machine = Machine::OptaneFourTier(512);
  const ComponentId t1 = machine.TierOrder(0)[0];
  const ComponentId t3 = machine.TierOrder(0)[2];
  SimClock clock;
  PageTable page_table;
  AddressSpace address_space;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  u32 vma = address_space.Allocate(MiB(4), false, "w");
  VirtAddr start = address_space.vma(vma).start;
  ASSERT_TRUE(page_table.MapRange(start, MiB(4), t3, false).ok());
  ASSERT_TRUE(frames.Reserve(t3, MiB(4)).ok());
  FaultInjector injector(7);
  injector.set_probability(FaultSite::kMigrationCopy, 1.0);
  MigrationEngine engine(machine, page_table, frames, address_space, counters, clock,
                         MechanismKind::kMoveMemoryRegions);
  engine.set_fault_injector(&injector);
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1, 0}).ok());
  EXPECT_EQ(engine.pending(), 1u);
  clock.AdvanceApp(Seconds(1));
  engine.Poll();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().rollbacks, 1u);
  EXPECT_EQ(engine.stats().async_copies, 0u);
  EXPECT_EQ(engine.stats().async_copy_bytes, Bytes{});
  EXPECT_EQ(engine.stats().copy_checksum, 0u);
  const Pte* pte = page_table.Find(start);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(pte->component(), t3);
}

// ------------------------------------------- write-fault fallback (§7.2) --

class AsyncFallbackTest : public ::testing::Test {
 protected:
  AsyncFallbackTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        counters_(machine_.num_components()),
        t1_(machine_.TierOrder(0)[0]),
        t3_(machine_.TierOrder(0)[2]) {}

  VirtAddr BuildMapped(Bytes bytes, ComponentId component, bool huge) {
    u32 vma = address_space_.Allocate(bytes, huge, "w");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, huge).ok());
    EXPECT_TRUE(frames_.Reserve(component, address_space_.vma(vma).len).ok());
    return start;
  }

  MigrationEngine MakeEngine() {
    return MigrationEngine(machine_, page_table_, frames_, address_space_, counters_, clock_,
                           MechanismKind::kMoveMemoryRegions);
  }

  // Still-to-move snapshot of [start, len) toward dst, the engine's own
  // staging rule re-derived for reference checksums.
  std::vector<PageCopyRecord> LiveRecords(VirtAddr start, Bytes len, ComponentId dst) {
    std::vector<PageCopyRecord> records;
    const PageTable& pt = page_table_;
    pt.ForEachMapping(start, len, [&](VirtAddr addr, Bytes size, const Pte& pte) {
      if (pte.component() == dst) {
        return;
      }
      records.push_back(PageCopyRecord{addr, size, pte.component(), pte.payload});
    });
    return records;
  }

  // What stats().copy_checksum holds after one committed region copy,
  // async or §7.2 fallback: the flat in-order fold, built by hand.
  static u64 SerialChecksum(const std::vector<PageCopyRecord>& records) {
    u64 region = kCopyChecksumSeed;
    for (const PageCopyRecord& record : records) {
      region = FoldCopyChecksum(region, CopyPageContent(record));
    }
    return FoldCopyChecksum(0, region);
  }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  MemCounters counters_;
  ComponentId t1_, t3_;
};

TEST_F(AsyncFallbackTest, WriteInWindowForcesSyncFallbackExactlyOnce) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine();
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  EXPECT_EQ(engine.pending(), 1u);
  engine.OnWriteTrackFault(start + kPageSize, 0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(engine.stats().fallback_copy_bytes, MiB(2));
  EXPECT_EQ(engine.stats().async_copies, 0u);
  // A second fault against the same (now committed) region is a no-op: the
  // fallback fires exactly once per in-flight window.
  engine.OnWriteTrackFault(start + kPageSize, 0);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(engine.stats().fallback_copy_bytes, MiB(2));
}

TEST_F(AsyncFallbackTest, FallbackChecksumMatchesSerialReference) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine();
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  // No write mutated any payload between submit and fault, so the serial
  // re-copy reads exactly the staged contents.
  u64 expected = SerialChecksum(LiveRecords(start, MiB(2), t1_));
  engine.OnWriteTrackFault(start, 0);
  EXPECT_EQ(engine.stats().copy_checksum, expected);
}

TEST_F(AsyncFallbackTest, FallbackCopiesLiveNotStagedContents) {
  // §7.2 "must be copied again": the fallback copies the pages as they are
  // at the fault, not the arm-time snapshot, so a stale commit shows.
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine();
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  const u64 staged = SerialChecksum(LiveRecords(start, MiB(2), t1_));
  Pte* pte = page_table_.Find(start + 7 * kPageSize);
  ASSERT_NE(pte, nullptr);
  pte->payload = MixPayload(pte->payload, start);
  const u64 live = SerialChecksum(LiveRecords(start, MiB(2), t1_));
  ASSERT_NE(live, staged);
  engine.OnWriteTrackFault(start, 0);
  EXPECT_EQ(engine.stats().copy_checksum, live);
}

TEST_F(AsyncFallbackTest, AsyncCommitAndFallbackGiveTheSameChecksum) {
  // The same live records, committed once from the staged copy and once by
  // the §7.2 fallback, fold to the same checksum: one copy path.
  u64 checksums[2] = {0, 0};
  for (int fallback = 0; fallback < 2; ++fallback) {
    SimClock clock;
    PageTable page_table;
    AddressSpace address_space;
    FrameAllocator frames(machine_);
    MemCounters counters(machine_.num_components());
    u32 vma = address_space.Allocate(MiB(8), true, "w");
    VirtAddr start = address_space.vma(vma).start;
    ASSERT_TRUE(page_table.MapRange(start, MiB(4), t3_, true).ok());
    ASSERT_TRUE(page_table.MapRange(start + MiB(4).value(), MiB(4), t3_, false).ok());
    ASSERT_TRUE(frames.Reserve(t3_, MiB(8)).ok());
    u64 salt = 0;
    page_table.ForEachMapping(start, MiB(8), [&](VirtAddr addr, Bytes, Pte& pte) {
      pte.payload = MixPayload(++salt, addr);
    });
    MigrationEngine engine(machine_, page_table, frames, address_space, counters, clock,
                           MechanismKind::kMoveMemoryRegions);
    ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(8), t1_, 0}).ok());
    if (fallback == 1) {
      engine.OnWriteTrackFault(start + MiB(5).value(), 0);
      EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
      EXPECT_EQ(engine.stats().fallback_copy_bytes, MiB(8));
    } else {
      clock.AdvanceApp(Seconds(1));
      engine.Poll();
      EXPECT_EQ(engine.stats().async_copies, 1u);
      EXPECT_EQ(engine.stats().async_copy_bytes, MiB(8));
    }
    EXPECT_EQ(engine.pending(), 0u);
    checksums[fallback] = engine.stats().copy_checksum;
  }
  EXPECT_NE(checksums[0], 0u);
  EXPECT_EQ(checksums[0], checksums[1]);
}

TEST_F(AsyncFallbackTest, AsyncCommitCopiesEveryPayloadBit) {
  // The staged snapshot carries the whole 32-bit payload word: two runs that
  // differ only in the top bit of one page's payload commit different
  // checksums.
  u64 checksums[2] = {0, 0};
  for (u32 flip = 0; flip < 2; ++flip) {
    SimClock clock;
    PageTable page_table;
    AddressSpace address_space;
    FrameAllocator frames(machine_);
    MemCounters counters(machine_.num_components());
    u32 vma = address_space.Allocate(MiB(2), false, "w");
    VirtAddr start = address_space.vma(vma).start;
    ASSERT_TRUE(page_table.MapRange(start, MiB(2), t3_, false).ok());
    ASSERT_TRUE(frames.Reserve(t3_, MiB(2)).ok());
    page_table.Find(start + 9 * kPageSize)->payload = 0x0123'4567u ^ (flip << 31);
    MigrationEngine engine(machine_, page_table, frames, address_space, counters, clock,
                           MechanismKind::kMoveMemoryRegions);
    ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
    clock.AdvanceApp(Seconds(1));
    engine.Poll();
    EXPECT_EQ(engine.stats().async_copies, 1u);
    checksums[flip] = engine.stats().copy_checksum;
  }
  EXPECT_NE(checksums[0], checksums[1]);
}

TEST_F(AsyncFallbackTest, EngineChecksumsIndependentOfMigrateThreads) {
  // Two identical scenarios on fresh engines: every copy stat must agree,
  // so the checksum is a function of the copied contents alone. (The
  // driver-level replays above cover the full system; this pins the engine
  // in isolation.)
  MigrationStats results[2];
  for (MigrationStats& stats : results) {
    SimClock clock;
    PageTable page_table;
    AddressSpace address_space;
    FrameAllocator frames(machine_);
    MemCounters counters(machine_.num_components());
    u32 vma = address_space.Allocate(MiB(8), false, "w");
    VirtAddr start = address_space.vma(vma).start;
    ASSERT_TRUE(page_table.MapRange(start, MiB(8), t3_, false).ok());
    ASSERT_TRUE(frames.Reserve(t3_, MiB(8)).ok());
    // Distinct per-page contents so a mis-merged checksum cannot collide.
    u64 salt = 0;
    page_table.ForEachMapping(start, MiB(8), [&](VirtAddr addr, Bytes, Pte& pte) {
      pte.payload = MixPayload(++salt, addr);
    });
    MigrationEngine engine(machine_, page_table, frames, address_space, counters, clock,
                           MechanismKind::kMoveMemoryRegions);
    ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(4), t1_, 0}).ok());
    clock.AdvanceApp(Seconds(1));
    engine.Poll();
    ASSERT_TRUE(engine.Submit(MigrationOrder{start + MiB(4).value(), MiB(4), t1_, 0}).ok());
    engine.OnWriteTrackFault(start + MiB(5).value(), 0);  // fallback leg
    stats = engine.stats();
  }
  ExpectSameCopyStats(results[0], results[1], "engine-level replay");
  EXPECT_EQ(results[0].async_copies, 1u);
  EXPECT_EQ(results[0].sync_fallbacks, 1u);
}

TEST_F(AsyncFallbackTest, NoLostUpdates) {
  // The faulting write must land on the destination page: the fault joins
  // the copy *before* the write's effect, the serial re-copy commits the
  // pre-write contents, and the write then mutates the (moved) page — the
  // same end state as the real mechanism, where the blocked store retires
  // against the destination after the synchronous copy.
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  AccessEngine::Config config;
  config.num_threads = 1;
  AccessEngine access(machine_, page_table_, clock_, counters_, config);
  MigrationEngine engine = MakeEngine();
  access.set_write_track_observer(&engine);

  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  const VirtAddr target = start + 3 * kPageSize;
  const u64 payload_before = page_table_.Find(target)->payload;
  access.Apply(target, /*is_write=*/true, 0);

  EXPECT_EQ(access.write_track_faults(), 1u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  Pte* pte = page_table_.Find(target);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(pte->component(), t1_);  // committed by the fallback
  EXPECT_EQ(pte->payload, MixPayload(payload_before, target));  // write survived
  EXPECT_FALSE(pte->write_tracked());
}

TEST_F(AsyncFallbackTest, FallbackCounterMonotone) {
  Rng rng(0x5EED);
  MigrationEngine engine = MakeEngine();
  u64 last = 0;
  for (int round = 0; round < 12; ++round) {
    VirtAddr start = BuildMapped(MiB(2), t3_, false);
    ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
    if (rng.NextBounded(2) == 0) {
      engine.OnWriteTrackFault(start + rng.NextBounded(512) * kPageSize, 0);
    } else {
      clock_.AdvanceApp(Seconds(1));
      engine.Poll();
    }
    EXPECT_GE(engine.stats().sync_fallbacks, last);
    last = engine.stats().sync_fallbacks;
    EXPECT_EQ(engine.pending(), 0u);
  }
  EXPECT_EQ(engine.stats().async_copies + engine.stats().sync_fallbacks, 12u);
}

// ------------------------------------------------------------- stress ----

TEST(ParallelMigrationStressTest, PingpongPptChaosIdenticalAcrossThreads) {
  // The adversarial combination: a ping-ponging workload under the ppt
  // admission controller with injected faults, so staged copies are
  // dropped by rollbacks, re-staged by retries, and interleaved with
  // reclaim demotions. Replaying it must reproduce every report byte.
  auto run = [] {
    ExperimentConfig config;
    config.num_intervals = 10;
    config.target_accesses = 1'500'000;
    config.mtm.admission = AdmissionKind::kPpt;
    config.fault_spec = "copy_fail:p=0.02;alloc_fail:p=0.01";
    RunOptions options;
    return RunExperiment("pingpong", SolutionKind::kMtm, config, options);
  };
  RunResult first = run();
  RunResult second = run();
  EXPECT_EQ(Render(first, ReportFormat::kJson), Render(second, ReportFormat::kJson));
  EXPECT_EQ(Render(first, ReportFormat::kCsv), Render(second, ReportFormat::kCsv));
  ExpectSameCopyStats(first.migration_stats, second.migration_stats, "pingpong replay");
}

}  // namespace
}  // namespace mtm
