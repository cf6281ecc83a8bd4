// Dense per-page access counting over registered address ranges. It costs
// 8 bytes per 4 KiB page and a full clear at every interval boundary, so only
// a reader pays for it:
//  * in a simulation run, the Thermostat profiler model is the one reader.
//    Thermostat counts accesses to its sampled 4 KiB pages exactly (via
//    mprotect + protection faults), so its model is allowed to read the exact
//    count of *its sampled pages only*, paying the paper-reported higher
//    per-sample cost. `Solution` registers the VMAs and wires the tracker
//    into the access engine for thermostat+mtm-migration alone; every other
//    solution keeps an empty, unwired tracker whose ResetEpoch does nothing.
//  * the Figure 1 and Figure 6 benches build their own tracker as ground
//    truth for recall/accuracy and heatmaps — they may read exact counts
//    because they are measurement infrastructure, not a profiler under test.
#pragma once

#include <vector>

#include "src/common/types.h"

namespace mtm {

class AccessTracker {
 public:
  struct Range {
    Vpn first_vpn;
    u64 num_pages = 0;
    std::vector<u32> reads;
    std::vector<u32> writes;
  };

  void Register(VirtAddr start, Bytes len) {
    Range r;
    r.first_vpn = VpnOf(start);
    r.num_pages = (PageAlignUp(start + len) - PageAlignDown(start)) / kPageSize;
    r.reads.assign(r.num_pages, 0);
    r.writes.assign(r.num_pages, 0);
    ranges_.push_back(std::move(r));
  }

  void OnAccess(VirtAddr addr, bool is_write) {
    Vpn vpn = VpnOf(addr);
    for (Range& r : ranges_) {
      if (vpn >= r.first_vpn && vpn < r.first_vpn + r.num_pages) {
        u64 index = vpn - r.first_vpn;
        if (is_write) {
          ++r.writes[index];
        } else {
          ++r.reads[index];
        }
        return;
      }
    }
  }

  u64 CountSince(Vpn vpn) const {
    for (const Range& r : ranges_) {
      if (vpn >= r.first_vpn && vpn < r.first_vpn + r.num_pages) {
        u64 i = vpn - r.first_vpn;
        return r.reads[i] + r.writes[i];
      }
    }
    return 0;
  }

  u64 WritesSince(Vpn vpn) const {
    for (const Range& r : ranges_) {
      if (vpn >= r.first_vpn && vpn < r.first_vpn + r.num_pages) {
        return r.writes[vpn - r.first_vpn];
      }
    }
    return 0;
  }

  // Visits (vpn, reads, writes) for every page with a nonzero count.
  template <typename Fn>
  void ForEachTouched(Fn&& fn) const {
    for (const Range& r : ranges_) {
      for (u64 i = 0; i < r.num_pages; ++i) {
        if (r.reads[i] + r.writes[i] > 0) {
          fn(r.first_vpn + i, r.reads[i], r.writes[i]);
        }
      }
    }
  }

  u64 TotalPages() const {
    u64 n = 0;
    for (const Range& r : ranges_) {
      n += r.num_pages;
    }
    return n;
  }

  // Clears the epoch counters (called at each profiling-interval boundary by
  // the measurement layer).
  void ResetEpoch() {
    for (Range& r : ranges_) {
      std::fill(r.reads.begin(), r.reads.end(), 0);
      std::fill(r.writes.begin(), r.writes.end(), 0);
    }
  }

 private:
  std::vector<Range> ranges_;
};

}  // namespace mtm
