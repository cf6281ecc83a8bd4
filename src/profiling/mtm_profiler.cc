#include "src/profiling/mtm_profiler.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/types.h"

namespace mtm {

MtmProfiler::MtmProfiler(const Machine& machine, PageTable& page_table,
                         const AddressSpace& address_space, AccessEngine& engine,
                         PebsEngine* pebs, Config config)
    : machine_(machine),
      page_table_(page_table),
      address_space_(address_space),
      engine_(engine),
      pebs_(pebs),
      config_(config),
      rng_(config.seed),
      tau_m_current_(config.tau_m) {
  MTM_CHECK_GT(config_.interval_ns, SimNanos{});
  MTM_CHECK_GT(config_.num_scans, 0u);
  MTM_CHECK_GT(config_.hint_fault_period, 0u);
  if (!config_.use_pebs) {
    pebs_ = nullptr;
  }
}

double MtmProfiler::EffectiveScanCost() const {
  // One hint fault (12x a scan) per hint_fault_period scans.
  double hint_extra = 12.0 / static_cast<double>(config_.hint_fault_period);
  return static_cast<double>(config_.one_scan_overhead_ns.value()) * (1.0 + hint_extra);
}

u64 MtmProfiler::NumPageSamples() const {
  double budget_ns = static_cast<double>(config_.interval_ns.value()) * config_.overhead_fraction;
  double per_sample = EffectiveScanCost() * static_cast<double>(config_.num_scans);
  u64 n = static_cast<u64>(budget_ns / per_sample);
  return n == 0 ? 1 : n;
}

void MtmProfiler::Initialize() {
  for (const Vma& vma : address_space_.vmas()) {
    regions_.SeedRange(vma.start, vma.end(), config_.default_region_bytes);
  }
  for (auto& [start, region] : regions_) {
    region.socket_hits.assign(machine_.num_sockets(), 0);
  }
}

bool MtmProfiler::IsSlowTierRegion(const Region& r) const {
  ComponentId c = page_table_.RangeComponent(r.start, r.bytes());
  return c != kInvalidComponent && machine_.IsSlowestTier(c);
}

void MtmProfiler::OnIntervalStart() {
  scans_this_interval_ = 0;
  pebs_nominations_.clear();
  if (pebs_ != nullptr) {
    // Brief counter window at the head of the interval (§5.5).
    pebs_->SetEnabled(true);
    pebs_window_open_ = true;
  }
  SelectSamples();
}

void MtmProfiler::SelectSamples() {
  // Distribute the Equation-1 budget over the regions profiled this
  // interval. Slow-tier regions wait for PEBS nominations (1 sample each);
  // all other regions receive their quota of random pages.
  const u64 num_ps = NumPageSamples();
  u64 used = 0;

  // Only last interval's listed regions hold samples. A merge may have
  // erased one; a merge product or a left split half keeps its start (and
  // its samples), and a right split half starts with none.
  for (VirtAddr start : sampled_starts_) {
    if (auto it = regions_.Find(start); it != regions_.end()) {
      it->second.sampled_pages.clear();
      it->second.sample_hits.clear();
    }
  }
  sampled_starts_.clear();

  for (auto& [start, region] : regions_) {
    if (used >= num_ps) {
      break;  // over budget: overhead control will merge regions down
    }
    if (pebs_ != nullptr && IsSlowTierRegion(region)) {
      continue;  // nominated lazily by the PEBS window
    }
    u32 quota = region.sample_quota;
    if (!config_.adaptive_sampling) {
      quota = 1;  // w/o APS: flat random sampling, one page per region
    }
    quota = static_cast<u32>(std::min<u64>(quota, num_ps - used));
    if (quota == 0) {
      quota = 1;
    }
    u64 pages = region.bytes() / kPageBytes;
    quota = static_cast<u32>(std::min<u64>(quota, pages));
    // Distinct pages: re-scanning the same PTE within a tick would read the
    // bit it just cleared and destroy the hit count.
    std::unordered_set<u64> chosen;
    while (chosen.size() < quota) {
      chosen.insert(rng_.NextBounded(pages));
    }
    for (u64 page : chosen) {
      region.sampled_pages.push_back(region.start + PagesToBytes(page));
      region.sample_hits.push_back(0);
    }
    sampled_starts_.push_back(start);
    used += quota;
  }
  // Prime: clear any stale accessed bit so the first scan measures this
  // interval, not history.
  ScanSampledPages(ScanMode::kPrime);
}

void MtmProfiler::NominateFromPebs() {
  if (pebs_ == nullptr || !pebs_window_open_) {
    return;
  }
  pebs_->SetEnabled(false);
  pebs_window_open_ = false;
  std::vector<PebsSample> samples = pebs_->Drain();
  pebs_samples_drained_ += samples.size();
  std::unordered_set<u64> nominated;
  for (const PebsSample& s : samples) {
    auto it = regions_.FindContaining(s.addr);
    if (it == regions_.end()) {
      continue;
    }
    Region& region = it->second;
    if (!IsSlowTierRegion(region)) {
      continue;  // fast-tier regions are already sampled
    }
    if (!nominated.insert(region.id).second) {
      continue;  // one sample per slow region: the PEBS-captured page
    }
    // No priming here: the PEBS event itself proves this page was accessed
    // this interval, so the first scan's accessed bit is evidence.
    if (region.sampled_pages.empty()) {
      sampled_starts_.push_back(region.start);
    }
    region.sampled_pages.push_back(PageAlignDown(s.addr));
    region.sample_hits.push_back(0);
    pebs_nominations_.push_back(s.addr);
  }
  std::sort(sampled_starts_.begin(), sampled_starts_.end());
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_->Counter("profiler/pebs_samples_drained"), samples.size());
    metrics_->Add(metrics_->Counter("profiler/pebs_nominations"), pebs_nominations_.size());
  }
}

void MtmProfiler::DoScan() { ScanSampledPages(ScanMode::kScan); }

void MtmProfiler::ScanSampledPages(ScanMode mode) {
  const u64 hint_base = scans_since_hint_;
  const u64 hint_period = config_.hint_fault_period;
  u64 scanned = 0;  // 1-based global scan index after each increment
  for (VirtAddr start : sampled_starts_) {
    auto it = regions_.Find(start);
    if (it == regions_.end()) {
      continue;  // merged away since it was sampled: its samples went with it
    }
    Region& region = it->second;
    for (std::size_t i = 0; i < region.sampled_pages.size(); ++i) {
      bool accessed = false;
      const bool mapped = page_table_.ScanAccessed(region.sampled_pages[i], &accessed);
      ++scanned;
      if (mode == ScanMode::kPrime) {
        continue;  // clearing the stale bit is the whole job
      }
      if (mapped && accessed) {
        ++region.sample_hits[i];
      }
      // Every hint_fault_period-th scan arms a hint fault on the scanned
      // page so the next access reveals the accessing socket (§6.2).
      if (mapped && (hint_base + scanned) % hint_period == 0) {
        page_table_.Find(region.sampled_pages[i])->Set(Pte::kHintArmed);
      }
    }
  }
  scans_this_interval_ += scanned;
  if (mode == ScanMode::kScan) {
    if (metrics_ != nullptr) {
      metrics_->Add(metrics_->Counter("profiler/pte_scans"), scanned);
    }
    scans_since_hint_ = (hint_base + scanned) % hint_period;
  }
}

void MtmProfiler::OnScanTick(u32 tick) {
  if (tick == 0) {
    // The PEBS window closes at the first scan tick; nominated slow-tier
    // regions join the scan set from here on.
    NominateFromPebs();
  }
  DoScan();
}

void MtmProfiler::UpdateSocketAttribution() {
  std::vector<HintFaultEvent> events = engine_.DrainHintFaults();
  for (const HintFaultEvent& e : events) {
    auto it = regions_.FindContaining(e.addr);
    if (it != regions_.end()) {
      if (it->second.socket_hits.size() != machine_.num_sockets()) {
        it->second.socket_hits.assign(machine_.num_sockets(), 0);
      }
      ++it->second.socket_hits[e.socket];
    }
  }
}

void MtmProfiler::UpdateHotness(Region& region) {
  region.prev_hi = region.hi;
  if (!region.sampled_pages.empty()) {
    double sum = 0.0;
    for (u32 hits : region.sample_hits) {
      sum += static_cast<double>(hits);
    }
    region.hi = sum / static_cast<double>(region.sampled_pages.size());
  } else {
    // Unprofiled slow-tier region with no PEBS activity: observed cold.
    region.hi = 0.0;
  }
  if (region.whi_initialized) {
    region.whi = config_.alpha * region.hi + (1.0 - config_.alpha) * region.whi;
  } else {
    region.whi = region.hi;
    region.whi_initialized = true;
  }
  // Socket-attribution decay so stale views age out.
  for (u32& hits : region.socket_hits) {
    hits /= 2;
  }
}

void MtmProfiler::MergePass(ProfileOutput& out) {
  // Each region's hotness is updated just before its first comparison: the
  // first region here, every other one when it becomes `next`. One walk
  // thus does both jobs, and every merge sees this interval's HI.
  auto it = regions_.begin();
  if (it != regions_.end()) {
    UpdateHotness(it->second);
  }
  while (it != regions_.end()) {
    auto next = std::next(it);
    if (next == regions_.end()) {
      break;
    }
    UpdateHotness(next->second);
    Region& a = it->second;
    Region& b = next->second;
    bool adjacent = a.end == b.start;
    bool similar = std::abs(a.hi - b.hi) < tau_m_current_;
    bool both_profiled = !a.sampled_pages.empty() || !b.sampled_pages.empty();
    // Never merge a union whose combined sample disparity already exceeds
    // the split threshold: the merged region would immediately qualify for
    // splitting, and the merge/split churn would erase refinement.
    u32 min_hit = ~0u;
    u32 max_hit = 0;
    for (const Region* r : {&a, &b}) {
      for (u32 h : r->sample_hits) {
        min_hit = std::min(min_hit, h);
        max_hit = std::max(max_hit, h);
      }
    }
    bool split_worthy =
        min_hit != ~0u && static_cast<double>(max_hit - min_hit) > config_.tau_s;
    // Regions resident on different components never merge: a merged region
    // headed by fast-tier pages would hide its slow-tier tail from the
    // PEBS-assisted slow-tier profiling path and from residency probes. This
    // test costs two page-table lookups, so it runs only when every cheap
    // test has passed.
    if (adjacent && similar && both_profiled && !split_worthy &&
        page_table_.RangeComponent(a.start, a.bytes()) ==
            page_table_.RangeComponent(b.start, b.bytes())) {
      // Combined sample total is halved, floor one (§5.2); the freed quota
      // goes to the redistribution pool.
      u32 combined = a.sample_quota + b.sample_quota;
      u32 new_quota = std::max<u32>(1, combined / 2);
      quota_pool_ += combined - new_quota;
      double merged_hi = (a.hi * static_cast<double>(a.bytes().value()) +
                          b.hi * static_cast<double>(b.bytes().value())) /
                         static_cast<double>((a.bytes() + b.bytes()).value());
      double merged_whi;
      bool whi_init = a.whi_initialized || b.whi_initialized;
      if (a.whi_initialized && b.whi_initialized) {
        merged_whi = (a.whi + b.whi) / 2.0;
      } else {
        merged_whi = a.whi_initialized ? a.whi : b.whi;
      }
      for (u32 s = 0; s < machine_.num_sockets(); ++s) {
        a.socket_hits[s] += s < b.socket_hits.size() ? b.socket_hits[s] : 0;
      }
      it = regions_.MergeWithNext(it);
      MTM_CHECK(it != regions_.end());
      it->second.sample_quota = new_quota;
      it->second.hi = merged_hi;
      it->second.whi = merged_whi;
      it->second.whi_initialized = whi_init;
      ++out.regions_merged;
      continue;  // try to extend the merge run
    }
    ++it;
  }
}

void MtmProfiler::SplitPass(ProfileOutput& out) {
  std::vector<VirtAddr> to_split;
  for (VirtAddr start : sampled_starts_) {
    auto it = regions_.Find(start);
    if (it == regions_.end()) {
      continue;  // merged into its predecessor, which holds none of its samples
    }
    const Region& region = it->second;
    if (region.sample_hits.size() < 2) {
      continue;
    }
    auto [min_it, max_it] =
        std::minmax_element(region.sample_hits.begin(), region.sample_hits.end());
    if (static_cast<double>(*max_it - *min_it) > config_.tau_s) {
      to_split.push_back(start);
    }
  }
  for (VirtAddr start : to_split) {
    auto it = regions_.FindContaining(start);
    MTM_CHECK(it != regions_.end());
    VirtAddr split_at = RegionMap::SplitPoint(it->second);
    if (split_at.IsZero()) {
      continue;
    }
    RegionMap::iterator first;
    RegionMap::iterator second;
    if (!regions_.Split(it, split_at, &first, &second)) {
      continue;
    }
    // Quota splits evenly; total scans unchanged (§5.2). Both halves
    // inherit the parent's hotness history.
    Region& left = first->second;
    Region& right = second->second;
    u32 q = left.sample_quota;
    left.sample_quota = std::max<u32>(1, q / 2);
    right.sample_quota = std::max<u32>(1, q - q / 2);
    right.hi = left.hi;
    right.prev_hi = left.prev_hi;
    right.whi = left.whi;
    right.whi_initialized = left.whi_initialized;
    right.socket_hits = left.socket_hits;
    ++out.regions_split;
  }
}

void MtmProfiler::RedistributeQuota() {
  // Enforce sum(quota) == num_ps: the merge pool plus any imbalance goes to
  // the regions with the largest HI variance across the last two intervals
  // (top-five records, §5.2); excess is reclaimed from the least-varying.
  const u64 num_ps = NumPageSamples();
  quota_pool_ = 0;  // consumed by the normalization below
  if (regions_.size() >= num_ps) {
    // Every quota is one here. The branch below leaves the quotas summing
    // to num_ps over fewer regions; a merge turns two quotas into at most
    // their sum, and a split needs two samples, which SelectSamples gives
    // only a region with a quota of at least two, and halves it. So the
    // quota above one stays within num_ps minus the region count, zero
    // here. The exception: a region demoted to the slow tier after
    // SelectSamples can gain a PEBS-nominated second sample and split from
    // a quota of one. A quota it leaves above one still spends only the
    // budget SelectSamples grants.
    return;
  }
  u64 total = 0;
  std::vector<Region*> all;
  all.reserve(regions_.size());
  for (auto& [start, region] : regions_) {
    total += region.sample_quota;
    all.push_back(&region);
  }

  if (all.empty()) {
    return;
  }
  auto variance_desc = [](Region* a, Region* b) {
    return a->HotnessVariance() > b->HotnessVariance();
  };
  if (total < num_ps) {
    u64 extra = num_ps - total;
    if (config_.adaptive_sampling) {
      std::partial_sort(all.begin(),
                        all.begin() + std::min<std::size_t>(config_.top_variance_k, all.size()),
                        all.end(), variance_desc);
      std::size_t k = std::min<std::size_t>(config_.top_variance_k, all.size());
      for (u64 i = 0; i < extra; ++i) {
        ++all[i % k]->sample_quota;
      }
    } else {
      for (u64 i = 0; i < extra; ++i) {
        ++all[rng_.NextBounded(all.size())]->sample_quota;
      }
    }
  } else if (total > num_ps) {
    u64 excess = total - num_ps;
    std::sort(all.begin(), all.end(),
              [](Region* a, Region* b) { return a->HotnessVariance() < b->HotnessVariance(); });
    for (Region* r : all) {
      while (excess > 0 && r->sample_quota > 1) {
        --r->sample_quota;
        --excess;
      }
      if (excess == 0) {
        break;
      }
    }
  }
}

ProfileOutput MtmProfiler::OnIntervalEnd() {
  ProfileOutput out;
  UpdateSocketAttribution();

  if (config_.adaptive_regions) {
    MergePass(out);  // updates every region's hotness on the way
    SplitPass(out);
  } else {
    for (auto& [start, region] : regions_) {
      UpdateHotness(region);
    }
  }

  // Overhead control (§5.3): if the region count exceeds the sample budget,
  // escalate tau_m across intervals until merging catches up, then reset.
  if (config_.overhead_control) {
    const u64 num_ps = NumPageSamples();
    if (regions_.size() > num_ps) {
      tau_m_current_ = std::min(tau_m_current_ * 1.5 + 0.1,
                                static_cast<double>(config_.num_scans));
    } else {
      tau_m_current_ = config_.tau_m;
    }
    RedistributeQuota();
  }

  // Emit the policy view.
  out.entries.reserve(regions_.size());
  for (auto& [start, region] : regions_) {
    HotnessEntry e;
    e.start = region.start;
    e.len = region.bytes();
    e.hotness = region.whi;
    e.latest_hi = region.hi;
    e.prev_hi = region.prev_hi;
    // Intra-region disparity of this interval's sample hits, the same
    // signal the split pass thresholds with tau_s, normalized to [0, 1].
    if (region.sample_hits.size() >= 2) {
      u32 min_hits = region.sample_hits[0];
      u32 max_hits = region.sample_hits[0];
      for (u32 hits : region.sample_hits) {
        min_hits = std::min(min_hits, hits);
        max_hits = std::max(max_hits, hits);
      }
      e.skew = static_cast<double>(max_hits - min_hits) /
               static_cast<double>(std::max<u32>(1, config_.num_scans));
    }
    u32 best_socket = 0;
    u32 best_hits = 0;
    for (u32 s = 0; s < region.socket_hits.size(); ++s) {
      if (region.socket_hits[s] > best_hits) {
        best_hits = region.socket_hits[s];
        best_socket = s;
      }
    }
    e.preferred_socket = best_socket;
    out.entries.push_back(e);
    if (region.whi >= config_.hot_whi_threshold) {
      out.hot_bytes += region.bytes();
    }
  }

  out.pte_scans = scans_this_interval_;
  out.num_regions = regions_.size();
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_->Counter("profiler/regions_merged"), out.regions_merged);
    metrics_->Add(metrics_->Counter("profiler/regions_split"), out.regions_split);
    metrics_->Set(metrics_->Gauge("profiler/num_regions"),
                  static_cast<double>(regions_.size()));
  }
  out.profiling_cost_ns =
      NanosFromDouble(static_cast<double>(scans_this_interval_) * EffectiveScanCost()) +
      pebs_samples_drained_ * config_.pebs_drain_per_sample_ns;
  last_scans_ = scans_this_interval_;
  pebs_samples_drained_ = 0;
  return out;
}

Bytes MtmProfiler::MemoryOverheadBytes() const {
  // Region metadata: begin address + offset, current and historical hotness
  // (two floats), quota, and the socket tallies — per §5.3's accounting.
  u64 per_region = sizeof(Region) + machine_.num_sockets() * sizeof(u32);
  u64 samples = 0;
  for (const auto& [start, region] : regions_) {
    samples += region.sampled_pages.capacity() * sizeof(VirtAddr) +
               region.sample_hits.capacity() * sizeof(u32);
  }
  // Hash-map index over address ranges (§9.1) modeled at ~1.5x node cost.
  u64 index = regions_.size() * (sizeof(void*) * 4 + sizeof(u64));
  return Bytes(regions_.size() * per_region + samples + index);
}

}  // namespace mtm
