#include "src/profiling/autonuma.h"

#include "src/common/logging.h"
#include "src/common/types.h"

namespace mtm {

void AutoNumaProfiler::OnIntervalStart() {
  // Arm hint faults over the next scan_window_bytes of mapped space,
  // walking VMAs cyclically.
  armed_this_interval_ = 0;
  const Bytes total = address_space_.total_bytes();
  MTM_CHECK_GT(total, Bytes{});
  MTM_CHECK_GT(config_.scan_window_bytes, Bytes{});
  Bytes remaining = std::min(config_.scan_window_bytes, total);
  while (remaining > Bytes{}) {
    // Translate the linear cursor into (vma, offset).
    Bytes offset = scan_cursor_ % total;
    const Vma* target = nullptr;
    Bytes within;
    Bytes walked;
    for (const Vma& vma : address_space_.vmas()) {
      if (offset < walked + vma.len) {
        target = &vma;
        within = offset - walked;
        break;
      }
      walked += vma.len;
    }
    MTM_CHECK(target != nullptr);
    Bytes chunk = std::min(remaining, target->len - within);
    page_table_.ForEachMapping(target->start + within, chunk,
                               [&](VirtAddr, Bytes, Pte& pte) {
                                 pte.Set(Pte::kHintArmed);
                                 ++armed_this_interval_;
                               });
    scan_cursor_ = (scan_cursor_ + chunk) % total;
    remaining -= chunk;
  }
}

ProfileOutput AutoNumaProfiler::OnIntervalEnd() {
  ProfileOutput out;
  for (auto& [vpn, stat] : stats_) {
    stat.faults *= config_.decay;
  }
  for (const HintFaultEvent& e : engine_.DrainHintFaults()) {
    PageStat& stat = stats_[VpnOf(e.addr)];
    stat.faults += 1.0;
    stat.last_socket = e.socket;
  }

  // Emit per-page entries at the granularity of the underlying mapping
  // (base or huge page).
  for (auto it = stats_.begin(); it != stats_.end();) {
    const Vpn vpn = it->first;
    PageStat& stat = it->second;
    if (stat.faults < 0.05) {
      it = stats_.erase(it);  // fully decayed
      continue;
    }
    Bytes size = kPageBytes;
    const Pte* pte = page_table_.Find(AddrOfVpn(vpn), &size);
    if (pte != nullptr) {
      HotnessEntry e;
      e.start = AddrOfVpn(vpn).AlignDown(size.value());
      e.len = size;
      // Vanilla: binary two-touch signal. Patched: MFU fault count.
      e.hotness = config_.patched ? stat.faults
                                  : (stat.faults >= config_.hot_threshold ? 1.0 : 0.0);
      e.preferred_socket = stat.last_socket;
      out.entries.push_back(e);
      if (stat.faults >= config_.hot_threshold) {
        out.hot_bytes += size;
      }
    }
    ++it;
  }
  out.num_regions = stats_.size();
  out.pte_scans = armed_this_interval_;
  out.profiling_cost_ns = armed_this_interval_ * config_.arm_cost_ns;
  return out;
}

Bytes AutoNumaProfiler::MemoryOverheadBytes() const {
  return Bytes(stats_.size() * (sizeof(Vpn) + sizeof(PageStat) + sizeof(void*) * 2));
}

}  // namespace mtm
