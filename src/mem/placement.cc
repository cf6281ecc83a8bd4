#include "src/mem/placement.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/sim/tier.h"

namespace mtm {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstTouch:
      return "first-touch";
    case PlacementPolicy::kSlowTierFirst:
      return "slow-tier-first";
    case PlacementPolicy::kPmOnly:
      return "pm-only";
  }
  return "?";
}

void PlacementFaultHandler::CandidateOrder(u32 socket, ComponentId out[], u32* count) const {
  const auto& order = machine_.TierOrder(socket);
  u32 n = 0;
  switch (policy_) {
    case PlacementPolicy::kFirstTouch:
      for (ComponentId c : order) {
        out[n++] = c;
      }
      break;
    case PlacementPolicy::kSlowTierFirst:
      // Slow (PM) components first, nearest first; then DRAM, nearest first.
      for (ComponentId c : order) {
        if (machine_.component(c).mem_class == MemClass::kPm) {
          out[n++] = c;
        }
      }
      for (ComponentId c : order) {
        if (machine_.component(c).mem_class == MemClass::kDram) {
          out[n++] = c;
        }
      }
      break;
    case PlacementPolicy::kPmOnly:
      for (ComponentId c : order) {
        if (machine_.component(c).mem_class == MemClass::kPm) {
          out[n++] = c;
        }
      }
      break;
  }
  *count = n;
}

Bytes PlacementFaultHandler::PlaceableBytes() const {
  std::vector<bool> placeable(machine_.num_components(), false);
  for (u32 socket = 0; socket < machine_.num_sockets(); ++socket) {
    ComponentId candidates[16];
    u32 count = 0;
    CandidateOrder(socket, candidates, &count);
    for (u32 i = 0; i < count; ++i) {
      placeable[candidates[i].value()] = true;
    }
  }
  Bytes total;
  for (ComponentId c{0}; c < machine_.end_component(); ++c) {
    if (placeable[c.value()]) {
      total += PageAlignDown(frames_.capacity(c));
    }
  }
  return total;
}

u32 PlacementFaultHandler::HealthyCandidates(u32 socket, ComponentId out[]) const {
  u32 count = 0;
  CandidateOrder(socket, out, &count);
  // Offline components take no new allocations; compact them out of the
  // candidate list (preserving order) rather than in CandidateOrder so the
  // policy's tier preferences stay health-agnostic.
  u32 healthy = 0;
  for (u32 i = 0; i < count; ++i) {
    if (!machine_.IsOffline(out[i])) {
      out[healthy++] = out[i];
    }
  }
  MTM_CHECK_GT(healthy, 0u);
  return healthy;
}

PlacedRun PlacementFaultHandler::PlaceRun(VirtAddr addr, u64 count, bool huge, u32 socket) {
  ComponentId candidates[16];
  const u32 healthy = HealthyCandidates(socket, candidates);
  const Bytes size = huge ? kHugePageBytes : kPageBytes;
  const VirtAddr start = huge ? HugeAlignDown(addr) : PageAlignDown(addr);
  for (u32 i = 0; i < healthy; ++i) {
    const ComponentId c = candidates[i];
    const u64 fit = std::min(count, frames_.free_bytes(c) / size);
    if (fit == 0) {
      continue;
    }
    MTM_CHECK(frames_.Reserve(c, size * fit).ok());
    Status s = page_table_.MapRange(start, size * fit, c, huge);
    MTM_CHECK(s.ok()) << s.ToString();
    (huge ? huge_faults_ : base_faults_) += fit;
    return PlacedRun{c, fit, huge};
  }
  // A huge block may fit nowhere while a base page still does.
  return huge ? PlaceRun(addr, 1, /*huge=*/false, socket) : PlacedRun{};
}

ComponentId PlacementFaultHandler::HandlePageFault(VirtAddr addr, u32 socket, bool /*is_write*/) {
  const Vma* vma = address_space_.FindVma(addr);
  bool want_huge = vma != nullptr && vma->thp;
  if (want_huge) {
    // The whole huge block must be inside the VMA and fully unmapped.
    const VirtAddr huge_start = HugeAlignDown(addr);
    if (huge_start < vma->start || huge_start + kHugePageSize > vma->end()) {
      want_huge = false;
    } else {
      const VirtAddr first_mapped = page_table_.FindMapping(
          huge_start, kHugePageBytes, [](VirtAddr, Bytes, Pte&) { return true; });
      if (!first_mapped.IsZero()) {
        want_huge = false;
      }
    }
  }
  return PlaceRun(addr, 1, want_huge, socket).component;
}

}  // namespace mtm
