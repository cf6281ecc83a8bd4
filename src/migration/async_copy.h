// The staged copy of move_memory_regions (§7, DESIGN.md §14).
//
// The paper's mechanism wins because allocation and copy run on kernel
// helper threads off the application's critical path. The simulator
// charges that overlap in simulated time (MigrationEngine's async window);
// the copy itself is a pure function of a snapshot taken at arm time and
// computed only if the window commits:
//
//   * when the migration engine arms a region, it snapshots one
//     PageCopyRecord per still-to-move page (address, size, source
//     component, payload word) and keeps the snapshot with the in-flight
//     order;
//   * when the async window commits, the engine calls CopyRegion(), which
//     plans copy shards over the snapshot (contiguous record slices that
//     break only at 2 MiB huge-page boundaries), expands every page's
//     payload into its cache lines, folds them into one checksum per shard,
//     and folds the shard checksums in shard order; the engine folds the
//     result into the run's copy checksum;
//   * the §7.2 write-fault fallback (the staged pages are stale and "must be
//     copied again") and aborted transactions drop the snapshot unexpanded.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/types.h"

namespace mtm {

// Snapshot of one still-to-move page, taken when the copy is staged.
struct PageCopyRecord {
  VirtAddr addr;
  Bytes size;                            // 4 KiB base or 2 MiB huge
  ComponentId src = kInvalidComponent;   // resident component at staging time
  u64 payload = 0;                       // simulated contents (Pte::payload)
};

// One copy work unit: records [first, first + count) of a plan.
struct CopyShard {
  std::size_t first = 0;
  std::size_t count = 0;
  Bytes bytes;  // payload bytes covered by the shard
};

// Outcome of one region copy (shard-order fold of the shard checksums).
struct RegionCopyResult {
  u64 checksum = 0;
  Bytes bytes;
  u64 shards = 0;
};

// Seed of every checksum fold (FNV-1a offset basis).
inline constexpr u64 kCopyChecksumSeed = 0xcbf29ce484222325ull;

// One non-commutative fold step: order changes the result, so a merge that
// ignores shard order (or drops a shard) is detectable.
inline constexpr u64 FoldCopyChecksum(u64 acc, u64 piece) {
  return (acc ^ piece) * 0x100000001b3ull;
}

// The actual per-page copy work: expands the page's payload word into its
// cache lines and returns their folded checksum. Pure function of the
// record.
u64 CopyPageContent(const PageCopyRecord& page);

// Plans shards over `pages` (which ForEachMapping produced in address
// order): contiguous slices of at least `target_shard_bytes`, with
// boundaries only where the next record starts a new 2 MiB huge frame —
// the clean-break rule that keeps a huge page's base-page remnants in one
// shard. Deterministic.
std::vector<CopyShard> PlanCopyShards(const std::vector<PageCopyRecord>& pages,
                                      Bytes target_shard_bytes);

// Copies one region snapshot with the default plan (one huge frame per
// shard) and returns the shard-order fold of its shard checksums.
RegionCopyResult CopyRegion(const std::vector<PageCopyRecord>& pages);

}  // namespace mtm
