#include "src/mem/placement.h"

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

ComponentId PlacementFaultHandler::HandlePageFault(VirtAddr addr, u32 socket, bool /*is_write*/) {
  ComponentId candidates[16];
  u32 count = 0;
  CandidateOrder(socket, candidates, &count);
  // Offline components take no new allocations; compact them out of the
  // candidate list (preserving order) rather than in CandidateOrder so the
  // policy's tier preferences stay health-agnostic.
  u32 healthy = 0;
  for (u32 i = 0; i < count; ++i) {
    if (!machine_.IsOffline(candidates[i])) {
      candidates[healthy++] = candidates[i];
    }
  }
  count = healthy;
  MTM_CHECK_GT(count, 0u);

  const Vma* vma = address_space_.FindVma(addr);
  bool want_huge = vma != nullptr && vma->thp;
  VirtAddr huge_start = HugeAlignDown(addr);
  if (want_huge) {
    // The whole huge block must be inside the VMA and fully unmapped.
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

  for (u32 i = 0; i < count; ++i) {
    ComponentId c = candidates[i];
    if (want_huge && frames_.Reserve(c, kHugePageBytes).ok()) {
      Status s = page_table_.MapRange(huge_start, kHugePageBytes, c, /*huge=*/true);
      MTM_CHECK(s.ok()) << s.ToString();
      ++huge_faults_;
      return c;
    }
    if (!want_huge && frames_.Reserve(c, kPageBytes).ok()) {
      Status s = page_table_.MapRange(PageAlignDown(addr), kPageBytes, c, /*huge=*/false);
      MTM_CHECK(s.ok()) << s.ToString();
      ++base_faults_;
      return c;
    }
  }
  // A huge reservation may fail everywhere while a base page still fits.
  if (want_huge) {
    for (u32 i = 0; i < count; ++i) {
      ComponentId c = candidates[i];
      if (frames_.Reserve(c, kPageBytes).ok()) {
        Status s = page_table_.MapRange(PageAlignDown(addr), kPageBytes, c, /*huge=*/false);
        MTM_CHECK(s.ok()) << s.ToString();
        ++base_faults_;
        return c;
      }
    }
  }
  return kInvalidComponent;
}

}  // namespace mtm
