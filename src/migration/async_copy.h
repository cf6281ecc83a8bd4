// The staged copy of move_memory_regions (§7, DESIGN.md §14).
//
// The paper's mechanism wins because allocation and copy run on kernel
// helper threads off the application's critical path. The simulator
// charges the copy's time, and that overlap, in simulated time
// (MigrationEngine's async window, priced by the CostModel); the host-side
// copy only has to leave an observable checksum, so a lost update or a
// stale commit shows:
//
//   * when the migration engine arms a region, it snapshots one
//     PageCopyRecord per still-to-move page (address, size, source
//     component, payload word) and keeps the snapshot with the in-flight
//     order;
//   * when the async window commits, the engine calls CopyRegion() on that
//     snapshot; the §7.2 write-fault fallback (the staged pages are stale and
//     "must be copied again") calls it on a fresh snapshot of the live
//     pages instead, and aborted transactions drop the snapshot unused;
//   * CopyRegion() folds one CopyPageContent() per record, in the snapshot's
//     address order, and the engine folds the result into the run's copy
//     checksum.
#pragma once

#include <vector>

#include "src/common/types.h"

namespace mtm {

// Snapshot of one still-to-move page, taken when the copy is staged.
struct PageCopyRecord {
  VirtAddr addr;
  Bytes size;                            // 4 KiB base or 2 MiB huge
  ComponentId src = kInvalidComponent;   // resident component at staging time
  u32 payload = 0;                       // simulated contents (Pte::payload)
};
static_assert(sizeof(PageCopyRecord) == 24);

// Outcome of one region copy.
struct RegionCopyResult {
  u64 checksum = 0;
  Bytes bytes;
};

// Seed of every checksum fold (FNV-1a offset basis).
inline constexpr u64 kCopyChecksumSeed = 0xcbf29ce484222325ull;

// One non-commutative fold step: order changes the result, so a copy that
// reorders or drops a page is detectable.
inline constexpr u64 FoldCopyChecksum(u64 acc, u64 piece) {
  return (acc ^ piece) * 0x100000001b3ull;
}

// The checksum of one copied page: one mix of its payload with its address,
// size and source component. Distinct records with the same payload never
// collide, and a payload change always changes the result.
u64 CopyPageContent(const PageCopyRecord& page);

// Copies one region snapshot (ForEachMapping order, i.e. ascending address):
// the in-order fold of its records' CopyPageContent, and their bytes.
RegionCopyResult CopyRegion(const std::vector<PageCopyRecord>& pages);

}  // namespace mtm
