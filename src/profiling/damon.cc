#include "src/profiling/damon.h"

#include <algorithm>

#include "src/common/types.h"

namespace mtm {

void DamonProfiler::Initialize() {
  // One region per VMA: DAMON seeds its regions from the virtual memory
  // area tree.
  for (const Vma& vma : address_space_.vmas()) {
    regions_.SeedWhole(vma.start, vma.end());
  }
}

void DamonProfiler::OnIntervalStart() {
  scans_this_interval_ = 0;
  for (const Region& region : regions_) {
    state_[region.start.value()].nr_accesses = 0;
  }
}

void DamonProfiler::OnScanTick(u32 /*tick*/) {
  // DAMON's access check: read the accessed bit of the page it mkold'ed at
  // the previous tick (so the bit reflects exactly one sampling window),
  // then pick a new random page and mkold it for the next tick.
  for (const Region& region : regions_) {
    DamonState& st = state_[region.start.value()];
    if (!st.sampled.IsZero() && st.sampled >= region.start && st.sampled < region.end) {
      bool accessed = false;
      if (page_table_.ScanAccessed(st.sampled, &accessed) && accessed) {
        ++st.nr_accesses;
      }
      ++scans_this_interval_;
    }
    u64 pages = region.bytes() / kPageBytes;
    VirtAddr addr = region.start + PagesToBytes(rng_.NextBounded(pages));
    bool ignored = false;
    page_table_.ScanAccessed(addr, &ignored);  // mkold: clear for the next check
    ++scans_this_interval_;
    st.sampled = addr;
  }
}

ProfileOutput DamonProfiler::OnIntervalEnd() {
  ProfileOutput out;

  // Merge walk: each region's age-smoothed estimate is updated before any
  // comparison reads it; adjacent regions with similar estimates merge.
  std::size_t live = regions_.size();
  regions_.Walk(
      [&](const Region& r) {
        DamonState& st = state_[r.start.value()];
        st.smoothed = 0.5 * st.smoothed + 0.5 * static_cast<double>(st.nr_accesses);
      },
      [&](const Region& a, const Region& b) {
        const DamonState sa = state_[a.start.value()];
        const DamonState sb = state_[b.start.value()];
        if (std::abs(sa.smoothed - sb.smoothed) > config_.merge_threshold ||
            live <= config_.min_regions) {
          return false;
        }
        state_.erase(b.start.value());
        DamonState& merged = state_[a.start.value()];
        merged.nr_accesses = std::max(sa.nr_accesses, sb.nr_accesses);
        merged.smoothed = std::max(sa.smoothed, sb.smoothed);
        --live;
        ++out.regions_merged;
        return true;
      },
      [](Region&, RegionMap::Cuts&) {});

  // Split walk: if fewer than half the budget exists, split every region in
  // two at a random point (DAMON's ad-hoc split).
  if (regions_.size() < config_.max_regions / 2) {
    regions_.Walk([](const Region&) {}, [](const Region&, const Region&) { return false; },
                  [&](Region& r, RegionMap::Cuts& cuts) {
                    u64 pages = r.bytes() / kPageBytes;
                    if (live >= config_.max_regions || pages < 2) {
                      return;
                    }
                    // Random split offset in [1, pages-1], page aligned,
                    // huge-unaware.
                    VirtAddr split_at =
                        r.start + PagesToBytes(1 + rng_.NextBounded(pages - 1));
                    if (cuts.Cut(r, split_at) != nullptr) {
                      const DamonState parent = state_[r.start.value()];
                      state_[split_at.value()] = parent;
                      ++live;
                      ++out.regions_split;
                    }
                  });
  }

  for (const Region& region : regions_) {
    const DamonState& st = state_[region.start.value()];
    HotnessEntry e;
    e.start = region.start;
    e.len = region.bytes();
    e.hotness = st.smoothed;
    out.entries.push_back(e);
    if (e.hotness >= config_.hot_threshold) {
      out.hot_bytes += e.len;
    }
  }
  out.pte_scans = scans_this_interval_;
  out.num_regions = regions_.size();
  out.profiling_cost_ns = scans_this_interval_ * config_.one_scan_overhead_ns;
  return out;
}

Bytes DamonProfiler::MemoryOverheadBytes() const {
  return Bytes(regions_.size() * (kModeledRegionBytes + sizeof(DamonState) + sizeof(void*) * 4));
}

}  // namespace mtm
