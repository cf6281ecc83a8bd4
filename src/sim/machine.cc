#include "src/sim/machine.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/strong_types.h"
#include "src/common/units.h"

namespace mtm {

Machine::Machine(u32 num_sockets, std::vector<ComponentSpec> components,
                 std::vector<std::vector<LinkSpec>> links)
    : num_sockets_(num_sockets), components_(std::move(components)) {
  MTM_CHECK_GT(num_sockets_, 0u);
  MTM_CHECK_LE(num_sockets_, kMaxSockets);
  MTM_CHECK_EQ(links.size(), num_sockets_);
  for (auto& row : links) {
    MTM_CHECK_EQ(row.size(), components_.size());
    links_.push_back(IdMap<ComponentId, LinkSpec>(std::move(row)));
  }
  base_links_ = links_;
  health_.assign(components_.size(), ComponentHealth{});
  tier_order_.resize(num_sockets_);
  tier_rank_.assign(num_sockets_, IdMap<ComponentId, TierId>(components_.size()));
  for (u32 s = 0; s < num_sockets_; ++s) {
    auto& order = tier_order_[s];
    order.resize(components_.size());
    std::iota(order.begin(), order.end(), ComponentId{0});
    std::stable_sort(order.begin(), order.end(), [&](ComponentId a, ComponentId b) {
      return links_[s][a].latency_ns < links_[s][b].latency_ns;
    });
    for (u32 rank = 0; rank < order.size(); ++rank) {
      tier_rank_[s][order[rank]] = TierId(rank);
    }
  }
}

Machine Machine::OptaneFourTier(u64 scale) {
  MTM_CHECK_GT(scale, 0ull);
  const Bytes dram = GiB(96) / scale;
  const Bytes pm = GiB(756) / scale;
  std::vector<ComponentSpec> comps = {
      {"DRAM0", MemClass::kDram, /*home_socket=*/0, dram},
      {"DRAM1", MemClass::kDram, /*home_socket=*/1, dram},
      {"PM0", MemClass::kPm, /*home_socket=*/0, pm},
      {"PM1", MemClass::kPm, /*home_socket=*/1, pm},
  };
  // Table 1 of the paper. Rows are sockets, columns are components.
  const LinkSpec dram_local{Nanos(90), 95.0};
  const LinkSpec dram_remote{Nanos(145), 35.0};
  const LinkSpec pm_local{Nanos(275), 35.0};
  const LinkSpec pm_remote{Nanos(340), 1.0};
  std::vector<std::vector<LinkSpec>> links = {
      {dram_local, dram_remote, pm_local, pm_remote},
      {dram_remote, dram_local, pm_remote, pm_local},
  };
  return Machine(2, std::move(comps), std::move(links));
}

Machine Machine::TwoTier(u64 scale) {
  MTM_CHECK_GT(scale, 0ull);
  std::vector<ComponentSpec> comps = {
      {"DRAM0", MemClass::kDram, 0, GiB(96) / scale},
      {"PM0", MemClass::kPm, 0, GiB(756) / scale},
  };
  std::vector<std::vector<LinkSpec>> links = {
      {{Nanos(90), 95.0}, {Nanos(275), 35.0}},
  };
  return Machine(1, std::move(comps), std::move(links));
}

bool Machine::IsSlowestTier(ComponentId id) const {
  // The slowest tier is the slowest memory *class* present: on the Optane
  // machine both PM components (tiers 3 and 4 from either view), and the PM
  // of the two-tier machine.
  MemClass slowest = MemClass::kDram;
  for (const auto& c : components_) {
    if (c.mem_class == MemClass::kPm) {
      slowest = MemClass::kPm;
    }
  }
  return component(id).mem_class == slowest;
}

void Machine::SetBandwidthDerate(ComponentId id, double factor) {
  MTM_CHECK_LT(id.value(), components_.size());
  MTM_CHECK(factor > 0.0 && factor <= 1.0) << "derate factor out of (0,1]: " << factor;
  health_[id].bandwidth_derate = factor;
  ++link_generation_;
  for (u32 s = 0; s < num_sockets_; ++s) {
    links_[s][id].bandwidth_gbps = base_links_[s][id].bandwidth_gbps * factor;
  }
}

void Machine::SetOffline(ComponentId id, bool offline) {
  MTM_CHECK_LT(id.value(), components_.size());
  health_[id].offline = offline;
}

bool Machine::AnyUnhealthy() const {
  for (const ComponentHealth& h : health_) {
    if (h.offline || h.bandwidth_derate < 1.0) {
      return true;
    }
  }
  return false;
}

std::vector<ComponentId> Machine::HealthyTierOrder(u32 socket) const {
  std::vector<ComponentId> order;
  for (ComponentId c : tier_order_[socket]) {
    if (!health_[c].offline) {
      order.push_back(c);
    }
  }
  return order;
}

Bytes Machine::TotalCapacity() const {
  Bytes total;
  for (const auto& c : components_) {
    total += c.capacity_bytes;
  }
  return total;
}

std::string Machine::DebugString() const {
  std::ostringstream os;
  os << num_sockets_ << " sockets, " << components_.size() << " components\n";
  for (u32 s = 0; s < num_sockets_; ++s) {
    os << "  socket " << s << " tier order:";
    for (u32 rank = 0; rank < tier_order_[s].size(); ++rank) {
      ComponentId c = tier_order_[s][rank];
      const LinkSpec& l = links_[s][c];
      os << " [t" << rank + 1 << " " << components_[c].name << " " << l.latency_ns << "ns "
         << l.bandwidth_gbps << "GB/s " << ToGiB(components_[c].capacity_bytes) << "GiB]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace mtm
