// Google-benchmark microbenchmarks of the substrate's hot primitives: page
// table walks, PTE scans, access application, MTM's interval bookkeeping,
// histogram updates, and workload generation. These quantify the §3
// motivation numbers (e.g. what a full PTE scan of a large table costs) on
// the simulator itself.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/placement.h"
#include "src/migration/async_copy.h"
#include "src/profiling/mtm_profiler.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"
#include "src/workloads/graph.h"
#include "src/workloads/gups.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factory.h"

namespace mtm {
namespace {

constexpr VirtAddr kBase{0x5500'0000'0000ull};

void BM_PageTableWalk(benchmark::State& state) {
  PageTable pt;
  const u64 pages = 1 << 16;
  MTM_CHECK(pt.MapRange(kBase, PagesToBytes(pages), ComponentId(0), false).ok());
  Rng rng(1);
  for (auto _ : state) {
    VirtAddr addr = kBase + PagesToBytes(rng.NextBounded(pages));
    benchmark::DoNotOptimize(pt.Find(addr));
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_PteScan(benchmark::State& state) {
  PageTable pt;
  const u64 pages = 1 << 16;
  MTM_CHECK(pt.MapRange(kBase, PagesToBytes(pages), ComponentId(0), false).ok());
  Rng rng(1);
  bool accessed = false;
  for (auto _ : state) {
    VirtAddr addr = kBase + PagesToBytes(rng.NextBounded(pages));
    benchmark::DoNotOptimize(pt.ScanAccessed(addr, &accessed));
  }
}
BENCHMARK(BM_PteScan);

void BM_FullTableScan(benchmark::State& state) {
  // The §3 motivation: scanning every PTE of a large mapping.
  PageTable pt;
  const Bytes bytes = MiB(static_cast<u64>(state.range(0)));
  MTM_CHECK(pt.MapRange(kBase, bytes, ComponentId(0), false).ok());
  for (auto _ : state) {
    u64 visited = 0;
    pt.ForEachMapping(kBase, bytes, [&](VirtAddr, Bytes, Pte&) { ++visited; });
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(NumPages(bytes)));
}
BENCHMARK(BM_FullTableScan)->Arg(64)->Arg(256);

void BM_AsyncCopyStage(benchmark::State& state) {
  // Host cost of one move_memory_regions commit (DESIGN.md §14): CopyRegion
  // over a 64 MiB snapshot of 32 huge pages, one checksum mix per page.
  const u64 huge_pages = 32;
  std::vector<PageCopyRecord> pages;
  Rng rng(9);
  for (u64 h = 0; h < huge_pages; ++h) {
    pages.push_back(PageCopyRecord{kBase + h * kHugePageSize, kHugePageBytes, ComponentId(2),
                                   static_cast<u32>(rng.Next())});
  }
  for (auto _ : state) {
    RegionCopyResult result = CopyRegion(pages);
    benchmark::DoNotOptimize(result.checksum);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(huge_pages));
}
BENCHMARK(BM_AsyncCopyStage);

// ROADMAP question: do the VirtAddr/Bytes strong-type wrappers inhibit
// vectorization of the scan hot loop's address arithmetic? The two loops
// below are element-type-identical otherwise; matching throughput means
// the wrappers compile away entirely.
void BM_StrongTypeAddressArithmetic(benchmark::State& state) {
  std::vector<VirtAddr> addrs(1 << 16);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    addrs[i] = kBase + PagesToBytes(i);
  }
  for (auto _ : state) {
    u64 acc = 0;
    for (VirtAddr addr : addrs) {
      acc += addr.Shifted(kPageShift) ^ addr.OffsetIn(kHugePageSize);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(addrs.size()));
}
BENCHMARK(BM_StrongTypeAddressArithmetic);

void BM_RawU64AddressArithmetic(benchmark::State& state) {
  std::vector<u64> addrs(1 << 16);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    addrs[i] = kBase.value() + (i << kPageShift);
  }
  for (auto _ : state) {
    u64 acc = 0;
    for (u64 addr : addrs) {
      acc += (addr >> kPageShift) ^ (addr & (kHugePageSize - 1));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(addrs.size()));
}
BENCHMARK(BM_RawU64AddressArithmetic);

void BM_AccessEngineApply(benchmark::State& state) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  AccessEngine engine(machine, pt, clock, counters, AccessEngine::Config{});
  u32 vma = as.Allocate(MiB(64), true, "bench");
  PlacementFaultHandler handler(machine, pt, frames, as, PlacementPolicy::kFirstTouch);
  engine.set_fault_handler(&handler);
  VirtAddr start = as.vma(vma).start;
  Rng rng(1);
  for (auto _ : state) {
    engine.Apply(start + (rng.Next() & (MiB(64).value() - 1) & ~u64{7}), false, 0);
  }
}
BENCHMARK(BM_AccessEngineApply);

// A workload's recorded access stream over the mtm stack at a perfbench
// scale, with its working set faulted in as RunSimulation does. Built once
// per stream and kept while the next benchmark call replays the same one.
struct ReplayFixture {
  ReplayFixture(const std::string& workload_name, u64 scale) : name(workload_name) {
    ExperimentConfig config;
    config.sim_scale = scale;
    config.seed = 42;
    workload = MakeWorkload(name, scale, config.num_threads, config.seed);
    solution = std::make_unique<Solution>(SolutionKind::kMtm, config, *workload);
    PrefaultWorkingSet(*solution);
    stream.resize(kStreamLength);
    for (u32 i = 0; i < kStreamLength; i += kBatch) {
      MTM_CHECK_EQ(workload->NextBatch(stream.data() + i, kBatch), kBatch);
    }
  }

  static constexpr u32 kBatch = 2048;  // RunSimulation's batch
  static constexpr u32 kStreamLength = kBatch * 256;

  std::string name;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Solution> solution;
  std::vector<MemAccess> stream;
};

ReplayFixture& Replay(const std::string& workload_name, u64 scale) {
  static std::unique_ptr<ReplayFixture> fixture;
  if (fixture == nullptr || fixture->name != workload_name) {
    fixture.reset();  // one stack in memory at a time
    fixture = std::make_unique<ReplayFixture>(workload_name, scale);
  }
  return *fixture;
}

// The replay step of the three perfbench workloads: gups's uniform updates
// over huge pages, bfs's frontier walk over a graph, and voltdb's zipfian
// records over 37.5 GiB of base pages, whose ~56 MB of leaf entries miss
// the cache on nearly every translation.
void BM_ApplyBatch(benchmark::State& state, const char* workload_name, u64 scale) {
  ReplayFixture& replay = Replay(workload_name, scale);
  AccessEngine& engine = replay.solution->engine();
  const u32 thread_sockets = replay.solution->thread_sockets();
  u32 next = 0;
  for (auto _ : state) {
    engine.ApplyBatch(replay.stream.data() + next, ReplayFixture::kBatch, thread_sockets);
    next = (next + ReplayFixture::kBatch) % ReplayFixture::kStreamLength;
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * ReplayFixture::kBatch);
}
BENCHMARK_CAPTURE(BM_ApplyBatch, gups, "gups", 512);
BENCHMARK_CAPTURE(BM_ApplyBatch, bfs, "bfs", 128);
BENCHMARK_CAPTURE(BM_ApplyBatch, voltdb, "voltdb", 8);

// Initialization fault-in of a voltdb-sized (37.5 GiB) base-page VMA, with
// PEBS sampling on as under mtm: ~9.8M pages placed by first touch.
void BM_Prefault(benchmark::State& state) {
  Machine machine = Machine::OptaneFourTier(8);
  AddressSpace as;
  const Vma& vma = as.vma(as.Allocate(GiB(300) / 8, /*thp=*/false, "bench"));
  for (auto _ : state) {
    state.PauseTiming();
    auto pt = std::make_unique<PageTable>();
    auto frames = std::make_unique<FrameAllocator>(machine);
    SimClock clock;
    MemCounters counters(machine.num_components());
    PebsEngine pebs(machine, PebsEngine::Config{});
    pebs.SetEnabled(true);
    PlacementFaultHandler handler(machine, *pt, *frames, as, PlacementPolicy::kFirstTouch);
    AccessEngine engine(machine, *pt, clock, counters, AccessEngine::Config{});
    engine.set_fault_handler(&handler);
    engine.set_pebs(&pebs);
    state.ResumeTiming();
    engine.Prefault(vma.start, vma.len, /*huge=*/false, /*first_thread=*/0,
                    /*thread_sockets=*/1);
    state.PauseTiming();
    pt.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(vma.len / kPageBytes));
}
BENCHMARK(BM_Prefault)->Unit(benchmark::kMillisecond);

// Host cost of one MTM profiling interval's bookkeeping over ~16k regions
// (voltdb at scale 8 keeps ~15.5k against ~70 samples): OnIntervalStart
// (sample selection and the priming scan) plus OnIntervalEnd (the one walk
// over the region table). Nothing is touched, so the sampled cold regions
// merge, ~70 per interval; the table is re-seeded, untimed, once it has
// lost 1k regions.
void BM_MtmIntervalEnd(benchmark::State& state) {
  Machine machine = Machine::OptaneFourTier(512);
  SimClock clock;
  PageTable pt;
  AddressSpace as;
  MemCounters counters(machine.num_components());
  AccessEngine engine(machine, pt, clock, counters, AccessEngine::Config{});
  const u64 seeded = 16384;
  u32 vma = as.Allocate(seeded * kHugePageBytes, true, "bench");
  MTM_CHECK(pt.MapRange(as.vma(vma).start, as.vma(vma).len, ComponentId(0), true).ok());
  MtmProfiler::Config config;
  config.interval_ns = Millis(1);
  config.use_pebs = false;
  std::unique_ptr<MtmProfiler> profiler;
  for (auto _ : state) {
    if (profiler == nullptr || profiler->regions().size() + 1024 < seeded) {
      state.PauseTiming();
      profiler = std::make_unique<MtmProfiler>(machine, pt, as, engine, nullptr, config);
      profiler->Initialize();
      state.ResumeTiming();
    }
    profiler->OnIntervalStart();
    benchmark::DoNotOptimize(profiler->OnIntervalEnd());
  }
}
BENCHMARK(BM_MtmIntervalEnd)->Unit(benchmark::kMicrosecond);

void BM_HistogramUpdate(benchmark::State& state) {
  BucketedHistogram<u64> hist(0.0, 3.0, 16);
  Rng rng(1);
  u64 id = 0;
  for (auto _ : state) {
    hist.Update(id++ % 4096, rng.NextDouble() * 3.0);
  }
}
BENCHMARK(BM_HistogramUpdate);

void BM_GupsBatch(benchmark::State& state) {
  Workload::Params params;
  params.footprint_bytes = MiB(256);
  params.seed = 1;
  GupsWorkload gups(params);
  AddressSpace as;
  gups.Build(as);
  std::vector<MemAccess> buf(2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gups.NextBatch(buf.data(), 2048));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 2048);
}
BENCHMARK(BM_GupsBatch);

// The bfs-readonly graph: the Table 2 footprint at scale 128.
constexpr Bytes kBfsReadonlyFootprint = kGraphFootprint / 128;

void BM_CsrGraphBuild(benchmark::State& state) {
  // GraphWorkload's vertex count: 512 simulated bytes a vertex at the
  // default average degree of 15.5.
  const u64 vertices = kBfsReadonlyFootprint.value() / 512;
  for (auto _ : state) {
    CsrGraph graph(vertices, 15.5, 0.6, 1);
    benchmark::DoNotOptimize(graph.num_edges());
  }
}
BENCHMARK(BM_CsrGraphBuild)->Unit(benchmark::kMillisecond);

void BM_GraphNextBatch(benchmark::State& state) {
  Workload::Params params;
  params.footprint_bytes = kBfsReadonlyFootprint;
  params.seed = 1;
  GraphWorkload bfs(params, GraphWorkload::Options{});
  AddressSpace as;
  bfs.Build(as);
  std::vector<MemAccess> buf(2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs.NextBatch(buf.data(), 2048));
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 2048);
}
BENCHMARK(BM_GraphNextBatch);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1'000'000, 0.99);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace
}  // namespace mtm

BENCHMARK_MAIN();
