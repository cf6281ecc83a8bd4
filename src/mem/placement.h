// Initial page placement policies (fault handlers).
//
// * kFirstTouch       — Linux default: allocate in the fastest tier with free
//                       space as seen from the faulting thread's socket.
// * kSlowTierFirst    — MTM's initial placement (§9.1, Table 4): allocate in
//                       the local slow tier first, relying on promotion to
//                       pull hot pages up.
// * kPmOnly           — Memory Mode: DRAM is a hardware cache, so pages only
//                       ever reside on PM components.
//
// One routine places every fault, a run at a time: from the faulting
// socket's candidates (healthy ones, in the policy's order) it takes the
// first with room and maps as many of the run's mappings there as fit, with
// one reservation and one MapRange. Initialization faults whole VMAs in
// through it; a runtime fault is a run of one.
//
// The handler honors THP: on a fault inside a THP-eligible VMA, it maps the
// whole 2 MiB block as a huge page when the block fits the VMA and some
// candidate has room, falling back to one base page otherwise.
#pragma once

#include "src/common/types.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/sim/access_engine.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {

enum class PlacementPolicy {
  kFirstTouch,
  kSlowTierFirst,
  kPmOnly,
};

const char* PlacementPolicyName(PlacementPolicy policy);

class PlacementFaultHandler final : public FaultHandler {
 public:
  PlacementFaultHandler(const Machine& machine, PageTable& page_table,
                        FrameAllocator& frames, const AddressSpace& address_space,
                        PlacementPolicy policy)
      : machine_(machine),
        page_table_(page_table),
        frames_(frames),
        address_space_(address_space),
        policy_(policy) {}

  PlacedRun PlaceRun(VirtAddr addr, u64 count, bool huge, u32 socket) override;
  ComponentId HandlePageFault(VirtAddr addr, u32 socket, bool is_write) override;

  // Whole-page capacity of the components this policy may place on from
  // any socket, offline or not.
  Bytes PlaceableBytes() const;

  PlacementPolicy policy() const { return policy_; }
  u64 huge_faults() const { return huge_faults_; }
  u64 base_faults() const { return base_faults_; }

 private:
  // Candidate components in preference order for a fault from `socket`.
  void CandidateOrder(u32 socket, ComponentId out[], u32* count) const;
  // CandidateOrder without its offline components; at least one.
  u32 HealthyCandidates(u32 socket, ComponentId out[]) const;

  const Machine& machine_;
  PageTable& page_table_;
  FrameAllocator& frames_;
  const AddressSpace& address_space_;
  PlacementPolicy policy_;
  u64 huge_faults_ = 0;
  u64 base_faults_ = 0;
};

}  // namespace mtm
