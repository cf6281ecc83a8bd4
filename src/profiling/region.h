// Memory regions and the region map used by MTM's adaptive profiler (§5.1).
//
// A region is a contiguous virtual address range inside one VMA. Regions
// default to the span of a last-level page directory entry (2 MiB). The map
// supports the paper's two structural operations:
//   * merge of two adjacent regions whose hotness differs by less than τm;
//   * split of one region into two halves when the intra-region sample
//     disparity exceeds τs — with the split point adjusted to a huge-page
//     boundary so a huge page is never profiled in two regions (§5.4).
// Merging and splitting act on *logical* regions only; no PTE changes.
#pragma once

#include <map>
#include <vector>

#include "src/common/types.h"

namespace mtm {

struct Region {
  u64 id = 0;  // stable identity across merges/splits (new ids for products)
  VirtAddr start;
  VirtAddr end;

  // Profiling state (§5.2): number of page samples this region receives per
  // interval, and the PTE-scan hit counts of the current interval's samples.
  u32 sample_quota = 1;
  std::vector<VirtAddr> sampled_pages;
  std::vector<u32> sample_hits;  // per sampled page, 0..num_scans

  // Hotness indication (§6.1): HI of the last two intervals and the EMA WHI.
  double hi = 0.0;
  double prev_hi = 0.0;
  double whi = 0.0;
  bool whi_initialized = false;

  // Multi-view support: per-socket hint-fault tallies (decayed), §6.2.
  std::vector<u32> socket_hits;

  Bytes bytes() const { return Bytes(end - start); }
  double HotnessVariance() const {
    double d = hi - prev_hi;
    return d < 0 ? -d : d;
  }
};

// Ordered, non-overlapping regions keyed by start address.
class RegionMap {
 public:
  using Map = std::map<VirtAddr, Region>;
  using iterator = Map::iterator;
  using const_iterator = Map::const_iterator;

  // Carves [start, end) into regions of at most `region_bytes`, aligned so
  // every boundary except the ends is a multiple of region_bytes.
  void SeedRange(VirtAddr start, VirtAddr end, Bytes region_bytes);

  // Inserts [start, end) as one region (DAMON-style one-region-per-VMA
  // seeding).
  void SeedWhole(VirtAddr start, VirtAddr end);

  std::size_t size() const { return regions_.size(); }
  bool empty() const { return regions_.empty(); }

  iterator begin() { return regions_.begin(); }
  iterator end() { return regions_.end(); }
  const_iterator begin() const { return regions_.begin(); }
  const_iterator end() const { return regions_.end(); }

  // Region containing addr, or end().
  iterator FindContaining(VirtAddr addr);

  // Region starting at `start`, or end().
  iterator Find(VirtAddr start) { return regions_.find(start); }

  // Merges the region at `it` with its successor if they are adjacent.
  // The merged region keeps `it`'s id; sample quotas are combined by the
  // caller. Returns an iterator to the merged region; invalid if the
  // successor is missing or not adjacent (returns end()).
  iterator MergeWithNext(iterator it);

  // Splits the region at `it` at `split_addr` (exclusive end of the first
  // half). Returns iterators to both halves via out parameters. The first
  // half keeps the region id; the second gets a fresh id.
  bool Split(iterator it, VirtAddr split_addr, iterator* first, iterator* second);

  // The huge-page-aligned midpoint for splitting `region`, per §5.4: the
  // middle of the region rounded to the nearest huge-page boundary if the
  // region spans more than one huge page; otherwise the page-aligned middle.
  // Returns 0 if the region cannot be split (single page).
  static VirtAddr SplitPoint(const Region& region);

  u64 next_id() const { return next_id_; }

  // Cumulative structural-operation counts over the map's lifetime, for
  // observability: regions created by seeding, successful merges, and
  // successful splits. Never reset.
  u64 total_seeded() const { return total_seeded_; }
  u64 total_merges() const { return total_merges_; }
  u64 total_splits() const { return total_splits_; }

 private:
  Map regions_;
  u64 next_id_ = 1;
  u64 total_seeded_ = 0;
  u64 total_merges_ = 0;
  u64 total_splits_ = 0;
};

}  // namespace mtm
