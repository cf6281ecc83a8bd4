// Machine topology: sockets, memory components, and the latency/bandwidth
// matrix between them. Provides the two configurations evaluated in the
// paper: the two-socket four-tier Optane system (Table 1) and a
// single-socket two-tier DRAM+PM system (§9.6).
#pragma once

#include <string>
#include <vector>

#include "src/common/strong_types.h"
#include "src/common/types.h"
#include "src/sim/tier.h"

namespace mtm {

// The most sockets a machine may have. Per-socket tallies that live in hot
// per-region state are fixed arrays of this size.
inline constexpr u32 kMaxSockets = 4;

class Machine {
 public:
  Machine(u32 num_sockets, std::vector<ComponentSpec> components,
          std::vector<std::vector<LinkSpec>> links);

  // The paper's testbed (Table 1), capacities divided by `scale` (the
  // simulation also scales workload footprints and time constants by the
  // same factor, preserving every capacity ratio):
  //   tier 1 (local DRAM):   90 ns, 95 GB/s, 96 GB / scale
  //   tier 2 (remote DRAM): 145 ns, 35 GB/s, 96 GB / scale
  //   tier 3 (local PM):    275 ns, 35 GB/s, 756 GB / scale
  //   tier 4 (remote PM):   340 ns,  1 GB/s, 756 GB / scale
  static Machine OptaneFourTier(u64 scale);

  // Single socket with one DRAM (tier 1) and one PM (tier 2) component, as
  // used for the HeMem comparison in §9.6.
  static Machine TwoTier(u64 scale);

  u32 num_sockets() const { return num_sockets_; }
  u32 num_components() const { return static_cast<u32>(components_.size()); }
  // One-past-the-last valid ComponentId, for indexed loops:
  //   for (ComponentId c{0}; c < machine.end_component(); ++c)
  ComponentId end_component() const { return components_.end_id(); }

  const ComponentSpec& component(ComponentId id) const { return components_[id]; }
  const LinkSpec& link(u32 socket, ComponentId id) const { return links_[socket][id]; }

  // Components ordered fastest-to-slowest as seen from `socket` (the
  // socket's tier order). TierRank(socket, c) is the 0-based tier rank of
  // component c in that order (TierId(0) == the paper's tier 1).
  const std::vector<ComponentId>& TierOrder(u32 socket) const { return tier_order_[socket]; }
  TierId TierRank(u32 socket, ComponentId id) const { return tier_rank_[socket][id]; }

  // The slowest components from any view: every component whose rank is last
  // from its *best* socket. Used by MTM's PEBS-assisted profiling, which
  // treats the slowest tier specially (§5.5).
  bool IsSlowestTier(ComponentId id) const;

  // Latency of a component from its own home socket — its intrinsic speed
  // class. Demotion paths only ever step to a strictly slower class
  // (DRAM -> PM), mirroring the kernel's node-demotion targets; lateral
  // moves between same-class components are NUMA balancing, not demotion.
  SimNanos LocalLatency(ComponentId id) const {
    return links_[components_[id].home_socket][id].latency_ns;
  }
  bool IsSlowerClass(ComponentId from, ComponentId to) const {
    return LocalLatency(to) > LocalLatency(from);
  }

  // Total capacity across all components.
  Bytes TotalCapacity() const;

  // --- Device health (fault injection / chaos runs) ---
  //
  // A component can degrade at runtime: a bandwidth derate models a CXL or
  // PMEM device browning out (all links to it slow down proportionally); a
  // full offline models the device dropping off the bus. Offline components
  // take no new allocations or migrations, and the MigrationEngine drains
  // their residents. Latency and tier ordering are unchanged — a degraded
  // device is still the same distance away, it just moves data slower.
  void SetBandwidthDerate(ComponentId id, double factor);  // in (0, 1]
  // Counts the link changes so far (each SetBandwidthDerate is one), so a
  // cache of per-link costs can tell when to rebuild.
  u64 link_generation() const { return link_generation_; }
  void SetOffline(ComponentId id, bool offline);
  bool IsOffline(ComponentId id) const { return health_[id].offline; }
  double BandwidthDerate(ComponentId id) const { return health_[id].bandwidth_derate; }
  bool AnyUnhealthy() const;
  // Healthy components ordered fastest-to-slowest from `socket`; empty
  // result means every component is offline (the machine is dead).
  std::vector<ComponentId> HealthyTierOrder(u32 socket) const;

  std::string DebugString() const;

 private:
  struct ComponentHealth {
    bool offline = false;
    double bandwidth_derate = 1.0;
  };

  u32 num_sockets_;
  IdMap<ComponentId, ComponentSpec> components_;
  std::vector<IdMap<ComponentId, LinkSpec>> links_;       // [socket][component]
  std::vector<IdMap<ComponentId, LinkSpec>> base_links_;  // pristine copy for derates
  IdMap<ComponentId, ComponentHealth> health_;
  u64 link_generation_ = 0;
  std::vector<std::vector<ComponentId>> tier_order_;  // [socket] -> ranked components
  std::vector<IdMap<ComponentId, TierId>> tier_rank_;  // [socket][component] -> rank
};

}  // namespace mtm
