// Cost model for page-migration mechanisms (§7, Figures 3 and 11).
//
// move_pages() performs four sequential steps per 4 KiB page — allocate new
// page, unmap (PTE invalidate), copy, map (PTE update) — with copy the most
// time-consuming step. The per-step constants below are calibrated so that
// the modeled step shares and the ~4.4x critical-path advantage of
// move_memory_regions() match the paper's Figure 3 measurements on the
// Optane testbed; copy time itself comes from the Table 1 link bandwidths.
#pragma once

#include <algorithm>

#include "src/common/types.h"
#include "src/common/units.h"
#include "src/sim/machine.h"
#include "src/sim/tier.h"

namespace mtm {

struct MigrationCostModel {
  // Per-4 KiB-page kernel work in move_pages() (includes syscall share,
  // rmap/LRU bookkeeping, and TLB shootdown IPIs for unmap).
  SimNanos alloc_per_page_ns = Nanos(1500);
  SimNanos unmap_per_page_ns = Nanos(1600);
  SimNanos remap_per_page_ns = Nanos(1200);

  // Batched PTE operations in move_memory_regions(): the kernel module
  // walks the region once instead of taking per-page locks.
  double mmr_pte_batch_factor = 0.68;

  // Per-2 MiB-page work when a mechanism migrates THP as a unit (Nimble).
  SimNanos huge_op_per_page_ns = Nanos(6000);  // alloc+unmap+remap combined share

  // One-time costs per region operation.
  SimNanos tlb_flush_ns = Nanos(4000);          // single flush for dirty tracking (§7.2)
  SimNanos write_track_arm_per_page_ns = Nanos(60);
  // Flat per region, whatever the table size: "move corresponding page
  // table pages" (§7).
  SimNanos pt_page_move_ns = Nanos(2000);

  // Parallel-copy thread count for Nimble and the MMR helper threads.
  double copy_parallelism = 4.0;

  // Bytes moved per copy transaction (one base page).
  Bytes copy_chunk_bytes = kPageBytes;

  // Time to copy `bytes` from src to dst as seen from `socket` (the
  // migrating thread's socket): limited by the slower of the two links.
  SimNanos CopyNs(const Machine& machine, u32 socket, ComponentId src, ComponentId dst,
                  Bytes bytes, double parallelism = 1.0) const {
    const LinkSpec& read = machine.link(socket, src);
    const LinkSpec& write = machine.link(socket, dst);
    double bw = std::min(read.BytesPerNano(), write.BytesPerNano());
    double chunks = static_cast<double>(bytes.value()) / static_cast<double>(copy_chunk_bytes.value());
    double latency = static_cast<double>((read.latency_ns + write.latency_ns).value()) * chunks;
    double transfer = static_cast<double>(bytes.value()) / bw;
    return NanosFromDouble((transfer + latency) / std::max(parallelism, 1.0));
  }
};

}  // namespace mtm
