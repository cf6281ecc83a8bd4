// Figure 11: migration microbenchmark — migrate a 1 GiB array between tier
// pairs under three access patterns (sequential read-only R, 50% read R/W,
// 100% write W), comparing move_pages(), Nimble, and move_memory_regions().
//
// The array is allocated, touched with the given pattern (so dirty bits and
// write behavior are realistic), then migrated region by region while the
// pattern keeps running — writes hitting an in-flight region trigger MTM's
// sync fallback exactly as in §7.2.
//
// Expected shape: for reads MTM wins big (~40% over move_pages, ~23% over
// Nimble in the paper); for writes the fallback makes MTM perform like the
// synchronous mechanisms.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/mechanism.h"
#include "src/migration/migration_engine.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {
namespace {

struct Pattern {
  const char* name;
  double write_fraction;
};

// Migrates `total` bytes in 2 MiB regions from src to dst while an access
// pattern runs; returns exposed migration nanoseconds.
SimNanos RunCase(MechanismKind kind, ComponentId src, ComponentId dst, double write_fraction,
                 u64 scale) {
  Machine machine = Machine::OptaneFourTier(scale);
  SimClock clock;
  PageTable page_table;
  AddressSpace address_space;
  FrameAllocator frames(machine);
  MemCounters counters(machine.num_components());
  AccessEngine engine(machine, page_table, clock, counters, AccessEngine::Config{});
  const Bytes total = GiB(1) / scale;
  // Base pages: move_pages() operates on 4 KiB pages, and the paper's
  // microbenchmark migrates the array page by page.
  u32 vma = address_space.Allocate(total, /*thp=*/false, "array");
  VirtAddr start = address_space.vma(vma).start;
  MTM_CHECK(page_table.MapRange(start, total, src, false).ok());
  MTM_CHECK(frames.Reserve(src, total).ok());

  MigrationEngine migration(machine, page_table, frames, address_space, counters, clock, kind);
  engine.set_write_track_observer(&migration);

  Rng rng(7);
  u64 cursor = 0;
  for (VirtAddr region = start; region < start + total; region += kHugePageSize) {
    (void)migration.Submit(MigrationOrder{region, kHugePageBytes, dst, 0});
    // The application keeps streaming over the array during the migration
    // window (sequential, with the pattern's write share).
    for (int i = 0; i < 2048; ++i) {
      VirtAddr addr = start + (cursor % total.value());
      cursor += 64;
      engine.Apply(addr, rng.NextBernoulli(write_fraction), 0);
    }
    migration.Poll();
  }
  migration.Flush();
  return clock.migration_ns();
}

}  // namespace
}  // namespace mtm

int main() {
  using namespace mtm;
  const u64 scale = 512;
  benchutil::PrintHeader("Figure 11",
                         "migration microbenchmark: 1 GiB array, R / R:W / W patterns");

  Machine machine = Machine::OptaneFourTier(scale);
  ComponentId t1 = machine.TierOrder(0)[0];
  const Pattern patterns[] = {{"R", 0.0}, {"R/W", 0.5}, {"W", 1.0}};
  const struct {
    const char* name;
    u32 rank;
  } targets[] = {{"tier1->tier2", 1}, {"tier1->tier3", 2}, {"tier1->tier4", 3}};

  for (const auto& target : targets) {
    ComponentId dst = machine.TierOrder(0)[target.rank];
    std::printf("%s\n", target.name);
    benchutil::Table table({"pattern", "move_pages (ms)", "nimble (ms)",
                            "move_memory_regions (ms)", "mmr vs move_pages", "mmr vs nimble"});
    for (const Pattern& p : patterns) {
      SimNanos mp = RunCase(MechanismKind::kMovePages, t1, dst, p.write_fraction, scale);
      SimNanos nb = RunCase(MechanismKind::kNimble, t1, dst, p.write_fraction, scale);
      SimNanos mmr =
          RunCase(MechanismKind::kMoveMemoryRegions, t1, dst, p.write_fraction, scale);
      table.AddRow({p.name, benchutil::Fmt("%.2f", ToMillis(mp)),
                    benchutil::Fmt("%.2f", ToMillis(nb)), benchutil::Fmt("%.2f", ToMillis(mmr)),
                    benchutil::Fmt("%+.0f%%", (1.0 - static_cast<double>(mmr.value()) /
                                                         static_cast<double>(mp.value())) *
                                                  100.0),
                    benchutil::Fmt("%+.0f%%", (1.0 - static_cast<double>(mmr.value()) /
                                                         static_cast<double>(nb.value())) *
                                                  100.0)});
    }
    table.Print();
  }
  std::printf("expected shape: MTM ~40%%/~23%% better than move_pages/Nimble for reads;\n"
              "write-heavy patterns trigger the sync fallback and MTM performs like the "
              "synchronous mechanisms.\n");
  return 0;
}
