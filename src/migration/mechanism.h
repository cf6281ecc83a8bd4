// Page-migration mechanisms (§7).
//
// Three mechanisms are modeled, matching the paper's comparison set:
//   * kMovePages — Linux move_pages(): sequential, per-4 KiB-page
//     allocate → unmap → copy → remap, fully synchronous (huge pages are
//     split to base pages first);
//   * kNimble — parallel multi-threaded copy with native THP migration,
//     still synchronous;
//   * kMoveMemoryRegions — MTM's adaptive mechanism: helper threads run
//     allocation and copy asynchronously (off the critical path) while the
//     main thread pays only dirty-tracking arming, unmap/remap, and
//     page-table-page migration; a write caught by the reserved-bit
//     write-protect fault during the copy switches the region to
//     synchronous copy immediately (§7.2).
//   * kMmrSync — move_memory_regions with async copy disabled (the
//     "w/o async migration" ablation of §9.3: batched PTE work, sync copy).
#pragma once

#include "src/common/types.h"
#include "src/migration/cost_model.h"
#include "src/sim/machine.h"

namespace mtm {

enum class MechanismKind {
  kMovePages,
  kNimble,
  kMoveMemoryRegions,
  kMmrSync,
};

const char* MechanismKindName(MechanismKind kind);

// True for the mechanism whose copies are executed by helper threads off
// the critical path (kMoveMemoryRegions): the migration engine snapshots
// the region's pages at submit and copies them at commit (CopyRegion in
// src/migration/async_copy.h), and falls back to synchronous copy when a
// tracked write lands in the copy window (§7.2). The synchronous mechanisms
// copy on the critical path and stage nothing.
constexpr bool MechanismUsesAsyncCopy(MechanismKind kind) {
  return kind == MechanismKind::kMoveMemoryRegions;
}

// Per-step time attribution for one migration (Figures 3 and 11).
struct MigrationStepBreakdown {
  SimNanos allocate_ns;
  SimNanos unmap_remap_ns;  // "page unmap and remap"
  SimNanos copy_ns;
  SimNanos dirty_tracking_ns;
  SimNanos page_table_ns;  // migrate page-table pages

  SimNanos Total() const {
    return allocate_ns + unmap_remap_ns + copy_ns + dirty_tracking_ns + page_table_ns;
  }

  MigrationStepBreakdown& operator+=(const MigrationStepBreakdown& o) {
    allocate_ns += o.allocate_ns;
    unmap_remap_ns += o.unmap_remap_ns;
    copy_ns += o.copy_ns;
    dirty_tracking_ns += o.dirty_tracking_ns;
    page_table_ns += o.page_table_ns;
    return *this;
  }
};

// Cost estimate for moving a run of pages.
struct MechanismCost {
  MigrationStepBreakdown critical;    // exposed on the application's critical path
  MigrationStepBreakdown background;  // overlapped with execution (async copy)

  SimNanos CriticalNs() const { return critical.Total(); }
  SimNanos BackgroundNs() const { return background.Total(); }
};

// Pure cost computation for one (src, dst) run of pages — the functional
// page move is performed by the MigrationEngine.
MechanismCost ComputeMechanismCost(MechanismKind kind, const MigrationCostModel& model,
                                   const Machine& machine, u32 socket, ComponentId src,
                                   ComponentId dst, u64 base_pages, u64 huge_pages);

}  // namespace mtm
