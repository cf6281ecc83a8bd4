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
    if (Region* region = regions_.Find(start)) {
      region->samples.clear();
    }
  }
  sampled_starts_.clear();

  for (Region& region : regions_) {
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
      region.samples.push_back(Sample{region.start + PagesToBytes(page)});
    }
    sampled_starts_.push_back(region.start);
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
    Region* region = regions_.FindContaining(s.addr);
    if (region == nullptr || !IsSlowTierRegion(*region)) {
      continue;  // fast-tier regions are already sampled
    }
    if (!nominated.insert(region->start.value()).second) {
      continue;  // one sample per slow region: the PEBS-captured page
    }
    // No priming here: the PEBS event itself proves this page was accessed
    // this interval, so the first scan's accessed bit is evidence.
    if (region->samples.empty()) {
      sampled_starts_.push_back(region->start);
    }
    region->samples.push_back(Sample{PageAlignDown(s.addr)});
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
    Region* region = regions_.Find(start);
    if (region == nullptr) {
      continue;  // merged away since it was sampled: its samples went with it
    }
    for (Sample& sample : region->samples) {
      bool accessed = false;
      const bool mapped = page_table_.ScanAccessed(sample.page, &accessed);
      ++scanned;
      if (mode == ScanMode::kPrime) {
        continue;  // clearing the stale bit is the whole job
      }
      if (mapped && accessed) {
        ++sample.hits;
      }
      // Every hint_fault_period-th scan arms a hint fault on the scanned
      // page so the next access reveals the accessing socket (§6.2).
      if (mapped && (hint_base + scanned) % hint_period == 0) {
        page_table_.Find(sample.page)->Set(Pte::kHintArmed);
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
    if (Region* region = regions_.FindContaining(e.addr)) {
      ++region->socket_hits[e.socket];
    }
  }
}

void MtmProfiler::UpdateHotness(Region& region) {
  region.prev_hi = region.hi;
  if (!region.samples.empty()) {
    double sum = 0.0;
    for (const Sample& sample : region.samples) {
      sum += static_cast<double>(sample.hits);
    }
    region.hi = sum / static_cast<double>(region.samples.size());
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

bool MtmProfiler::TryMerge(Region& a, const Region& b, ProfileOutput& out) {
  if (std::abs(a.hi - b.hi) >= tau_m_current_ || (a.samples.empty() && b.samples.empty())) {
    return false;  // dissimilar, or neither region profiled
  }
  // Never merge a union whose combined sample disparity already exceeds
  // the split threshold: the merged region would immediately qualify for
  // splitting, and the merge/split churn would erase refinement.
  u32 min_hit = ~0u;
  u32 max_hit = 0;
  for (const Region* r : {static_cast<const Region*>(&a), &b}) {
    for (const Sample& sample : r->samples) {
      min_hit = std::min(min_hit, sample.hits);
      max_hit = std::max(max_hit, sample.hits);
    }
  }
  if (min_hit != ~0u && static_cast<double>(max_hit - min_hit) > config_.tau_s) {
    return false;
  }
  // Regions resident on different components never merge: a merged region
  // headed by fast-tier pages would hide its slow-tier tail from the
  // PEBS-assisted slow-tier profiling path and from residency probes. This
  // test costs two page-table lookups, so it runs only when every cheap
  // test has passed.
  if (page_table_.RangeComponent(a.start, a.bytes()) !=
      page_table_.RangeComponent(b.start, b.bytes())) {
    return false;
  }
  // Combined sample total is halved, floor one (§5.2); the freed quota
  // goes to the redistribution pool. The merged region keeps a's samples.
  u32 combined = a.sample_quota + b.sample_quota;
  u32 new_quota = std::max<u32>(1, combined / 2);
  quota_pool_ += combined - new_quota;
  a.sample_quota = new_quota;
  a.hi = (a.hi * static_cast<double>(a.bytes().value()) +
          b.hi * static_cast<double>(b.bytes().value())) /
         static_cast<double>((a.bytes() + b.bytes()).value());
  if (a.whi_initialized && b.whi_initialized) {
    a.whi = (a.whi + b.whi) / 2.0;
  } else if (!a.whi_initialized) {
    a.whi = b.whi;
  }
  a.whi_initialized = a.whi_initialized || b.whi_initialized;
  for (u32 s = 0; s < kMaxSockets; ++s) {
    a.socket_hits[s] += b.socket_hits[s];
  }
  ++out.regions_merged;
  return true;
}

void MtmProfiler::Close(Region& region, RegionMap::Cuts& cuts, ProfileOutput& out) const {
  // Intra-region disparity of this interval's sample hits: the split test
  // and the policy view's skew.
  u32 spread = 0;
  if (region.samples.size() >= 2) {
    auto [min_it, max_it] = std::minmax_element(
        region.samples.begin(), region.samples.end(),
        [](const Sample& x, const Sample& y) { return x.hits < y.hits; });
    spread = max_it->hits - min_it->hits;
  }
  Region* right = nullptr;
  if (config_.adaptive_regions && region.samples.size() >= 2 &&
      static_cast<double>(spread) > config_.tau_s) {
    right = cuts.Cut(region, RegionMap::SplitPoint(region));
  }
  if (right != nullptr) {
    // Quota splits evenly; total scans unchanged (§5.2).
    u32 q = region.sample_quota;
    region.sample_quota = std::max<u32>(1, q / 2);
    right->sample_quota = std::max<u32>(1, q - q / 2);
    ++out.regions_split;
  }
  Emit(region, spread, out);
  if (right != nullptr) {
    Emit(*right, 0, out);
  }
}

void MtmProfiler::Emit(const Region& region, u32 spread, ProfileOutput& out) const {
  HotnessEntry& e = out.entries.emplace_back();
  e.start = region.start;
  e.len = region.bytes();
  e.hotness = region.whi;
  e.latest_hi = region.hi;
  e.prev_hi = region.prev_hi;
  e.skew = static_cast<double>(spread) / static_cast<double>(std::max<u32>(1, config_.num_scans));
  u32 best_hits = 0;
  for (u32 s = 0; s < kMaxSockets; ++s) {
    if (region.socket_hits[s] > best_hits) {
      best_hits = region.socket_hits[s];
      e.preferred_socket = s;
    }
  }
  if (region.whi >= config_.hot_whi_threshold) {
    out.hot_bytes += region.bytes();
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
  for (Region& region : regions_) {
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

  // One walk over the table: every region's HI/WHI update, the merge with
  // its successor (which needs both fresh HIs), the split test and its
  // entries in the policy view. Without adaptive regions nothing merges or
  // splits.
  out.entries.reserve(regions_.size());
  regions_.Walk([this](Region& r) { UpdateHotness(r); },
                [&](Region& a, const Region& b) {
                  return config_.adaptive_regions && TryMerge(a, b, out);
                },
                [&](Region& r, RegionMap::Cuts& cuts) { Close(r, cuts, out); });

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
  u64 per_region = kModeledRegionBytes + machine_.num_sockets() * sizeof(u32);
  // Each sample is priced as its page address and its hit count.
  u64 samples = 0;
  for (const Region& region : regions_) {
    samples += region.samples.capacity() * (sizeof(VirtAddr) + sizeof(u32));
  }
  // Hash-map index over address ranges (§9.1) modeled at ~1.5x node cost.
  u64 index = regions_.size() * (sizeof(void*) * 4 + sizeof(u64));
  return Bytes(regions_.size() * per_region + samples + index);
}

}  // namespace mtm
