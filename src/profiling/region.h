// Memory regions and the region table used by MTM's adaptive profiler (§5.1)
// and the DAMON baseline.
//
// A region is a contiguous virtual address range inside one VMA. Regions
// default to the span of a last-level page directory entry (2 MiB). The table
// supports the paper's two structural operations:
//   * merge of two adjacent regions whose hotness differs by less than τm;
//   * split of one region into two halves when the intra-region sample
//     disparity exceeds τs — with the split point adjusted to a huge-page
//     boundary so a huge page is never profiled in two regions (§5.4).
// Merging and splitting act on *logical* regions only; no PTE changes.
#pragma once

#include <array>
#include <vector>

#include "src/common/types.h"
#include "src/sim/machine.h"

namespace mtm {

// One sampled page and its PTE-scan hit count this interval, 0..num_scans.
struct Sample {
  VirtAddr page;
  u32 hits = 0;

  bool operator==(const Sample&) const = default;
};

struct Region {
  VirtAddr start;  // unique in the table: a region's identity
  VirtAddr end;

  // Profiling state (§5.2): number of page samples this region receives per
  // interval, and the current interval's samples.
  u32 sample_quota = 1;
  bool whi_initialized = false;
  std::vector<Sample> samples;

  // Hotness indication (§6.1): HI of the last two intervals and the EMA WHI.
  double hi = 0.0;
  double prev_hi = 0.0;
  double whi = 0.0;

  // Multi-view support: per-socket hint-fault tallies (decayed), §6.2.
  std::array<u32, kMaxSockets> socket_hits{};

  Bytes bytes() const { return Bytes(end - start); }
  double HotnessVariance() const {
    double d = hi - prev_hi;
    return d < 0 ? -d : d;
  }
};

// The table moves regions when it compacts merges and inserts split halves;
// a throwing move would make std::vector copy them instead, which drops the
// sample vectors' capacity that MtmProfiler::MemoryOverheadBytes reads.
static_assert(std::is_nothrow_move_constructible_v<Region>);

// The metadata bytes one region is priced at in the profilers' memory
// overhead (Table 5), per §5.3's accounting: begin address and length,
// current and historical hotness, sample quota and bookkeeping. A modeled
// constant, so the host layout of Region does not move a simulated output.
inline constexpr u64 kModeledRegionBytes = 136;

// Ordered, non-overlapping regions in one address-ordered vector.
class RegionMap {
 public:
  // Right halves cut off during a Walk; the table inserts them when the walk
  // ends.
  class Cuts {
   public:
    // Cuts `region` at `at` (the exclusive end of the left half) and returns
    // the right half, valid until the next Cut; null, and no cut, if `at` is
    // not strictly inside the region. Both halves keep the region's state
    // (its hotness history, quota and socket tallies); the left keeps the
    // samples. Cuts go in address order.
    Region* Cut(Region& region, VirtAddr at);

   private:
    friend class RegionMap;
    Cuts() = default;
    std::vector<Region> rights_;
  };

  // Carves [start, end) into regions of at most `region_bytes`, aligned so
  // every boundary except the ends is a multiple of region_bytes.
  void SeedRange(VirtAddr start, VirtAddr end, Bytes region_bytes);

  // Inserts [start, end) as one region (DAMON-style one-region-per-VMA
  // seeding).
  void SeedWhole(VirtAddr start, VirtAddr end);

  std::size_t size() const { return regions_.size(); }
  bool empty() const { return regions_.empty(); }

  auto begin() { return regions_.begin(); }
  auto end() { return regions_.end(); }
  auto begin() const { return regions_.begin(); }
  auto end() const { return regions_.end(); }
  Region& operator[](std::size_t i) { return regions_[i]; }
  const Region& operator[](std::size_t i) const { return regions_[i]; }

  // Region containing addr, or null. A binary search.
  Region* FindContaining(VirtAddr addr);

  // Region starting at `start`, or null. A binary search.
  Region* Find(VirtAddr start);

  // The one structural pass, in address order:
  //  * visit(r) runs once on every region, before any test reads it;
  //  * absorb(acc, next) runs on every adjacent pair (acc ends where next
  //    starts) and returns whether it folded next's state into acc; the
  //    table then extends acc over next and drops next, and acc goes on to
  //    meet next's successor;
  //  * close(r, cuts) runs once on every region whose merge run has ended,
  //    and may cut it in two.
  // Merges compact the table in place behind a write cursor, and the right
  // halves are inserted in one backward pass after the walk, so neither
  // operation costs O(regions) on its own.
  template <typename Visit, typename Absorb, typename Close>
  void Walk(Visit&& visit, Absorb&& absorb, Close&& close);

  // The huge-page-aligned midpoint for splitting `region`, per §5.4: the
  // middle of the region rounded to the nearest huge-page boundary if the
  // region spans more than one huge page; otherwise the page-aligned middle.
  // Returns 0 if the region cannot be split (single page).
  static VirtAddr SplitPoint(const Region& region);

 private:
  void Insert(std::vector<Region> seeded);
  void InsertCuts();

  std::vector<Region> regions_;
  Cuts cuts_;
};

template <typename Visit, typename Absorb, typename Close>
void RegionMap::Walk(Visit&& visit, Absorb&& absorb, Close&& close) {
  if (regions_.empty()) {
    return;
  }
  std::size_t w = 0;  // the region whose merge run is open
  visit(regions_[0]);
  for (std::size_t r = 1; r < regions_.size(); ++r) {
    Region& next = regions_[r];
    visit(next);
    Region& acc = regions_[w];
    if (acc.end == next.start && absorb(acc, next)) {
      acc.end = next.end;
      continue;
    }
    close(acc, cuts_);
    if (++w != r) {
      regions_[w] = std::move(next);
    }
  }
  close(regions_[w], cuts_);
  regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(w + 1), regions_.end());
  InsertCuts();
  // Merges shrink the table from its seeded size to a fraction of it; give
  // the slack back once it is three quarters of the capacity.
  if (regions_.capacity() > 4 * regions_.size()) {
    regions_.shrink_to_fit();
  }
}

}  // namespace mtm
