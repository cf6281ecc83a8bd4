// The initialization fault-in by runs (PrefaultWorkingSet) against the
// per-page loop it replaced: one Apply per mapping, then a walk clearing the
// accessed/dirty bits those writes set. Both must leave the same simulated
// state behind: mappings, clock, counters, frames, PEBS samples and HMC
// caches.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/types.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/sim/hmc_cache.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factory.h"

namespace mtm {
namespace {

struct Case {
  const char* name;
  const char* workload;
  SolutionKind kind;
  u64 scale = 4096;
  bool two_tier = false;
  bool spread_threads = false;
};

ExperimentConfig ConfigOf(const Case& c) {
  ExperimentConfig config;
  config.sim_scale = c.scale;
  config.two_tier = c.two_tier;
  config.spread_threads = c.spread_threads;
  config.seed = 7;
  return config;
}

// A workload and the solution stack built over it.
struct Stack {
  explicit Stack(const Case& c)
      : workload(MakeWorkload(c.workload, c.scale, ConfigOf(c).num_threads, ConfigOf(c).seed)),
        solution(c.kind, ConfigOf(c), *workload) {}
  std::unique_ptr<Workload> workload;
  Solution solution;
};

// The reference: initialization one Apply per mapping, then the A/D clear.
void PrefaultPerPage(Solution& solution) {
  u32 rr = 0;
  for (const Vma& vma : solution.address_space().vmas()) {
    if (!vma.prefault) {
      continue;
    }
    const u64 step = vma.thp ? kHugePageSize : kPageSize;
    for (VirtAddr addr = vma.start; addr < vma.end(); addr += step) {
      solution.engine().Apply(addr, /*is_write=*/true, solution.SocketOfThread(rr++));
    }
  }
  solution.tracker().ResetEpoch();
  for (const Vma& vma : solution.address_space().vmas()) {
    solution.page_table().ForEachMapping(vma.start, vma.len, [](VirtAddr, Bytes, Pte& pte) {
      pte.Clear(Pte::kAccessed);
      pte.Clear(Pte::kDirty);
    });
  }
}

using Mapping = std::tuple<u64, u64, u16, u32, u64>;  // addr, size, flags, component, payload

std::vector<Mapping> Mappings(Solution& solution) {
  std::vector<Mapping> out;
  for (const Vma& vma : solution.address_space().vmas()) {
    solution.page_table().ForEachMapping(vma.start, vma.len,
                                         [&out](VirtAddr addr, Bytes size, Pte& pte) {
      out.emplace_back(addr.value(), size.value(), pte.flags, pte.component().value(),
                       pte.payload);
    });
  }
  return out;
}

// Everything but the mappings, as plain numbers.
std::vector<u64> Counts(Solution& solution) {
  std::vector<u64> out = {solution.clock().app_ns().value(),
                          solution.clock().profiling_ns().value(),
                          solution.clock().migration_ns().value(),
                          solution.engine().total_accesses(),
                          solution.engine().page_faults(),
                          solution.engine().hint_faults(),
                          solution.engine().write_track_faults(),
                          solution.pebs()->samples_taken(),
                          solution.pebs()->samples_dropped(),
                          solution.pebs()->pending()};
  for (ComponentId c{0}; c < solution.machine().end_component(); ++c) {
    out.push_back(solution.counters().app_reads(c));
    out.push_back(solution.counters().app_writes(c));
    out.push_back(solution.counters().migration_bytes(c).value());
    out.push_back(solution.frames().used(c).value());
  }
  for (u32 s = 0; s < solution.machine().num_sockets(); ++s) {
    if (const HmcCache* cache = solution.hmc_cache(s); cache != nullptr) {
      out.push_back(cache->hits());
      out.push_back(cache->misses());
      out.push_back(cache->dirty_writebacks());
    }
  }
  return out;
}

using Sample = std::tuple<u64, u32, u32, bool>;  // addr, component, socket, is_write

std::vector<Sample> DrainPebs(Solution& solution) {
  std::vector<Sample> out;
  for (const PebsSample& s : solution.pebs()->Drain()) {
    out.emplace_back(s.addr.value(), s.component.value(), s.socket, s.is_write);
  }
  return out;
}

class PrefaultTest : public ::testing::TestWithParam<Case> {};

TEST_P(PrefaultTest, RunsMatchPerPageLoop) {
  const Case& c = GetParam();
  Stack ref(c);
  Stack run(c);
  PrefaultPerPage(ref.solution);
  PrefaultWorkingSet(run.solution);

  const std::vector<Mapping> mappings = Mappings(run.solution);
  EXPECT_FALSE(mappings.empty());
  EXPECT_EQ(mappings, Mappings(ref.solution));
  EXPECT_EQ(Counts(run.solution), Counts(ref.solution));
  EXPECT_EQ(DrainPebs(run.solution), DrainPebs(ref.solution));

  // Equal counters need not mean equal cache contents: replay one read of
  // every mapping through both, in address order, and compare again.
  if (run.solution.hmc_cache(0) != nullptr) {
    for (const Mapping& m : mappings) {
      const VirtAddr addr(std::get<0>(m));
      run.solution.engine().Apply(addr, /*is_write=*/false, 0);
      ref.solution.engine().Apply(addr, /*is_write=*/false, 0);
    }
    EXPECT_EQ(Counts(run.solution), Counts(ref.solution));
  }
}

using enum SolutionKind;

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const char* workload : {"gups", "voltdb", "bfs"}) {
    for (SolutionKind kind : {kMtm, kFirstTouch, kHmc, kHemem, kThermostatProfilerMtmMigration}) {
      cases.push_back({"", workload, kind});
    }
  }
  cases.push_back({"spread", "gups", kMtm, 4096, false, true});
  cases.push_back({"spread", "voltdb", kFirstTouch, 4096, false, true});
  cases.push_back({"spread", "bfs", kHemem, 4096, false, true});
  // Two-tier first-touch: DRAM0 fills and the rest overflows into PM0.
  cases.push_back({"two_tier", "gups", kFirstTouch, 4096, true});
  cases.push_back({"two_tier", "voltdb", kFirstTouch, 4096, true, true});
  // Neither two-tier component holds a 2 MiB block at this scale, so every
  // THP block falls back to one base page.
  cases.push_back({"no_huge_fit", "bfs", kHmc, 12'000'000, true});
  cases.push_back({"no_huge_fit", "bfs", kFirstTouch, 12'000'000, true});
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = std::string(info.param.workload) + "_" + SolutionKindName(info.param.kind);
  if (info.param.name[0] != '\0') {
    name += std::string("_") + info.param.name;
  }
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Cases, PrefaultTest, ::testing::ValuesIn(Cases()), CaseName);

TEST(PrefaultCoverageTest, TwoTierFirstCandidateOverflows) {
  Stack run({"two_tier", "gups", kFirstTouch, 4096, true});
  PrefaultWorkingSet(run.solution);
  const Machine& machine = run.solution.machine();
  const ComponentId first = machine.TierOrder(0)[0];
  EXPECT_LT(run.solution.frames().free_bytes(first), kPageBytes);
  EXPECT_GT(run.solution.frames().used(machine.TierOrder(0)[1]), Bytes{});
}

TEST(PrefaultCoverageTest, UnfittableHugeBlocksFallBackToOneBasePage) {
  Stack run({"no_huge_fit", "bfs", kHmc, 12'000'000, true});
  PrefaultWorkingSet(run.solution);
  u64 blocks = 0;
  for (const Vma& vma : run.solution.address_space().vmas()) {
    ASSERT_TRUE(vma.thp);
    blocks += vma.len / kHugePageBytes;
  }
  EXPECT_EQ(run.solution.page_table().mapped_huge_pages(), 0u);
  EXPECT_EQ(run.solution.page_table().mapped_base_pages(), blocks);
  EXPECT_EQ(run.solution.engine().page_faults(), blocks);
}

TEST(PrefaultCoverageTest, PrefaultLeavesTrackerEmpty) {
  // The tracker counts the access phase only: initialization writes never
  // reach it, so the run needs no reset after the prefault.
  Stack run({"", "gups", kThermostatProfilerMtmMigration});
  ASSERT_GT(run.solution.tracker().TotalPages(), 0u);
  PrefaultWorkingSet(run.solution);
  EXPECT_GT(run.solution.engine().page_faults(), 0u);
  u64 touched = 0;
  run.solution.tracker().ForEachTouched([&touched](Vpn, u64, u64) { ++touched; });
  EXPECT_EQ(touched, 0u);
}

}  // namespace
}  // namespace mtm
