// DAMON baseline profiler (the Linux data-access monitor, §3).
//
// Faithful to the behaviors the paper critiques:
//  * regions are initially formed from the VMA tree (one region per VMA) —
//    "too coarse-grained to capture B even after splitting" (Figure 6);
//  * exactly one random page per region is checked per sampling tick;
//  * adjacent regions with similar access counts merge;
//  * when fewer than half of max_regions exist, every region is split into
//    two *randomly sized* regions — the "ad-hoc" splitting of §3;
//  * overhead is controlled by bounding the region count in
//    [min_regions, max_regions], not by counting PTE scans;
//  * no huge-page awareness in region formation.
#pragma once

#include <unordered_map>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/profiling/profiler.h"
#include "src/profiling/region.h"
#include "src/sim/page_table.h"

namespace mtm {

class DamonProfiler : public Profiler {
 public:
  struct Config {
    u32 min_regions = 10;
    u32 max_regions = 1000;
    // Regions merge when their (age-smoothed) access estimates differ by
    // at most this value. Real DAMON compares counts aggregated over many
    // sampling intervals; comparing smoothed values models that.
    double merge_threshold = 0.35;
    SimNanos one_scan_overhead_ns = Nanos(120);
    double hot_threshold = 1.0;  // nr_accesses at/above which a region is hot
    u64 seed = 0xda3017;
  };

  DamonProfiler(PageTable& page_table, const AddressSpace& address_space, Config config)
      : page_table_(page_table), address_space_(address_space), config_(config),
        rng_(config.seed) {}

  std::string name() const override { return "damon"; }
  void Initialize() override;
  void OnIntervalStart() override;
  void OnScanTick(u32 tick) override;
  ProfileOutput OnIntervalEnd() override;
  Bytes MemoryOverheadBytes() const override;

  const RegionMap& regions() const { return regions_; }

 private:
  struct DamonState {
    u32 nr_accesses = 0;   // hits this aggregation interval
    double smoothed = 0.0;  // age-weighted access estimate across intervals
    VirtAddr sampled;
  };

  PageTable& page_table_;
  const AddressSpace& address_space_;
  Config config_;
  Rng rng_;
  RegionMap regions_;
  // Keyed by region start (Region's MTM sample state is unused by DAMON).
  std::unordered_map<u64, DamonState> state_;
  u64 scans_this_interval_ = 0;
};

}  // namespace mtm
