// MTM's adaptive memory profiler (§5 of the paper).
//
// Key properties, each mapping to a paper mechanism:
//  * Profiling overhead is controlled by the total number of PTE scans, not
//    the number of regions: the per-interval page-sample budget num_ps
//    follows Equation 1, with the 1-in-12 hint-fault cost amortized into
//    one_scan_overhead (§5.3, §6.2).
//  * Each sampled page is scanned num_scans (= 3) times per interval; a
//    region's hotness indication HI is the mean hit count of its sampled
//    pages, in [0, num_scans] (§5.1).
//  * Adjacent regions merge when their latest HIs differ by less than τm;
//    a region splits when the max-min disparity across its sampled pages
//    exceeds τs. Split points are huge-page aligned (§5.1, §5.4).
//  * Sample quota freed by merges is redistributed to the regions with the
//    top-5 hotness-indication variance over the last two intervals (§5.2).
//  * When the region count exceeds num_ps, τm escalates across intervals
//    until merging brings the count back under budget, then resets (§5.3).
//  * The slowest tier is profiled event-driven: PEBS nominates regions with
//    observed accesses and only those receive a PTE-scanned sample — the
//    page PEBS captured (§5.5).
//  * WHI (EMA of HI, Equation 2, α = 0.5) is maintained per region and is
//    the hotness the migration policy consumes (§6.1).
//
// Ablation switches (adaptive_regions, adaptive_sampling, overhead_control,
// use_pebs) reproduce the §9.3 "w/o AMR / APS / OC / PEBS" variants.
#pragma once

#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/profiling/profiler.h"
#include "src/profiling/region.h"
#include "src/sim/access_engine.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"

namespace mtm {

class MtmProfiler : public Profiler {
 public:
  struct Config {
    u32 num_scans = 3;
    double overhead_fraction = 0.05;
    SimNanos interval_ns;            // required
    SimNanos one_scan_overhead_ns = Nanos(120);  // measured offline in the paper
    double tau_m = 1.0;                   // default num_scans / 3
    double tau_s = 2.0;                   // default 2 * num_scans / 3
    double alpha = 0.5;                   // Equation 2
    u32 hint_fault_period = 12;           // 1 hint fault per 12 PTE scans
    u32 top_variance_k = 5;               // "top-five" variance records
    Bytes default_region_bytes = kHugePageBytes;
    double hot_whi_threshold = 1.0;       // WHI above which a region is "hot"
    SimNanos pebs_drain_per_sample_ns = Nanos(40);

    // Ablations (§9.3).
    bool adaptive_regions = true;   // AMR
    bool adaptive_sampling = true;  // APS
    bool overhead_control = true;   // OC
    bool use_pebs = true;           // performance-counter assistance

    u64 seed = 0x4d544d;  // deterministic page sampling
  };

  MtmProfiler(const Machine& machine, PageTable& page_table,
              const AddressSpace& address_space, AccessEngine& engine, PebsEngine* pebs,
              Config config);

  std::string name() const override { return "mtm"; }
  void Initialize() override;
  void OnIntervalStart() override;
  void OnScanTick(u32 tick) override;
  ProfileOutput OnIntervalEnd() override;
  Bytes MemoryOverheadBytes() const override;

  // Equation 1: the per-interval page-sample budget.
  u64 NumPageSamples() const;

  // Introspection for tests and Table 7.
  const RegionMap& regions() const { return regions_; }
  double current_tau_m() const { return tau_m_current_; }
  u64 last_interval_scans() const { return last_scans_; }

 private:
  // The two passes over sampled pages: the interval-start priming pass
  // (clear stale accessed bits, count scans) and the per-tick hit-counting
  // pass (count hits, arm hint faults).
  enum class ScanMode { kPrime, kScan };

  // Effective per-scan cost including the amortized hint fault (§6.2).
  double EffectiveScanCost() const;

  bool IsSlowTierRegion(const Region& r) const;

  void SelectSamples();
  void NominateFromPebs();
  void DoScan();

  // One pass over every sampled page, in region then sample order (§9).
  // Hint faults are armed after the pass, by global scan index.
  void ScanSampledPages(ScanMode mode);

  // The interval-end walk's three steps. UpdateHotness: HI and WHI
  // (§5.1, §6.1) and the socket-attribution decay. TryMerge: folds the
  // adjacent `b` into `a` if they qualify (§5.1, §5.2). Close: the split
  // test on a region whose merge run has ended, and its entries.
  void UpdateHotness(Region& region);
  bool TryMerge(Region& a, const Region& b, ProfileOutput& out);
  void Close(Region& region, RegionMap::Cuts& cuts, ProfileOutput& out) const;
  void Emit(const Region& region, u32 spread, ProfileOutput& out) const;
  void RedistributeQuota();
  void UpdateSocketAttribution();

  const Machine& machine_;
  PageTable& page_table_;
  const AddressSpace& address_space_;
  AccessEngine& engine_;
  PebsEngine* pebs_;
  Config config_;
  Rng rng_;

  RegionMap regions_;
  double tau_m_current_;
  u64 quota_pool_ = 0;  // samples freed by merges, pending redistribution

  // Per-interval working state.
  u64 scans_this_interval_ = 0;
  u64 last_scans_ = 0;
  u64 scans_since_hint_ = 0;
  u64 pebs_samples_drained_ = 0;
  bool pebs_window_open_ = false;
  std::vector<VirtAddr> pebs_nominations_;
  // Start addresses of the regions holding samples this interval, in
  // address order: the only regions the scan passes and the next interval's
  // sample reset visit, so their cost follows the sample budget rather than
  // the region count (§5.3).
  std::vector<VirtAddr> sampled_starts_;
};

}  // namespace mtm
