#include "src/migration/policy.h"

#include <algorithm>

#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/strong_types.h"
#include "src/common/types.h"
#include "src/migration/admission/admission.h"
#include "src/sim/tier.h"

namespace mtm {
namespace {

// MTM's histogram resolution, and the score below which a region is
// stone-cold and never promotes.
constexpr u32 kNumBuckets = 16;
constexpr double kMinHotness = 1e-9;

i64 FramesCapacity(PolicyContext& ctx, ComponentId c) {
  return static_cast<i64>(ctx.frames->capacity(c).value());
}

// Finds the first mapping in `e` residing on `component` and returns a
// slice of at most max_len from there; len 0 when none. Lets partial
// promotions/demotions of large merged regions progress across intervals
// instead of re-targeting already-moved pages.
std::pair<VirtAddr, Bytes> SliceOn(PolicyContext& ctx, const HotnessEntry& e,
                                   ComponentId component, Bytes max_len) {
  const VirtAddr found = ctx.page_table->FindMappingOn(e.start, e.len, ComponentBit(component));
  if (found.IsZero()) {
    return {VirtAddr{}, Bytes{}};
  }
  return {found, std::min(max_len, Bytes(e.end() - found))};
}

// Finds the first mapping in `e` whose tier rank (seen from `socket`)
// exceeds `min_rank`; returns {addr, component} or {0, kInvalidComponent}.
// A large merged region may straddle tiers after partial promotion, so
// residency must be probed per-mapping, not at the region head; the page
// table skips every chunk with nothing on the slower components.
std::pair<VirtAddr, ComponentId> SlowestSliceStart(PolicyContext& ctx, const HotnessEntry& e,
                                                   u32 socket, TierId min_rank) {
  const Machine& machine = *ctx.machine;
  u32 slower = 0;
  for (ComponentId c{0}; c < machine.end_component(); ++c) {
    if (machine.TierRank(socket, c) > min_rank) {
      slower |= ComponentBit(c);
    }
  }
  ComponentId comp = kInvalidComponent;
  const VirtAddr found = ctx.page_table->FindMappingOn(e.start, e.len, slower, &comp);
  return {found, comp};
}

}  // namespace

std::vector<MigrationOrder> MtmPolicy::Decide(const ProfileOutput& profile,
                                              PolicyContext& ctx) {
  // The raw WHI is the score (§6).
  std::vector<double> scores;
  scores.reserve(profile.entries.size());
  for (const HotnessEntry& e : profile.entries) {
    scores.push_back(e.hotness);
  }
  return DecideByScore(profile, scores, ctx, params_);
}

std::vector<MigrationOrder> DecideByScore(const ProfileOutput& profile,
                                          const std::vector<double>& scores, PolicyContext& ctx,
                                          const PolicyParams& params) {
  MTM_CHECK_GT(params.promote_batch_bytes, Bytes{});
  MTM_CHECK_EQ(scores.size(), profile.entries.size());
  const Machine& machine = *ctx.machine;
  std::vector<MigrationOrder> orders;

  // Histogram of scores across all regions in all tiers — the global view.
  // A non-positive hotness_max adapts to the scorer's scale (used when
  // MTM's policy runs on a foreign profiler's output, §9.3, and by fitted
  // scorers whose range is not [0, num_scans]).
  double hotness_max = params.hotness_max;
  if (hotness_max <= 0.0) {
    for (double s : scores) {
      hotness_max = std::max(hotness_max, s);
    }
    if (hotness_max <= 0.0) {
      return {};
    }
  }
  const BucketOrders by_bucket = OrderByBucket(scores, 0.0, hotness_max, kNumBuckets);
  const std::vector<std::size_t>& hottest = by_bucket.hottest;

  // Planned free space per component, adjusted as orders accumulate.
  IdMap<ComponentId, i64> planned_free(machine.num_components());
  for (ComponentId c{0}; c < machine.end_component(); ++c) {
    planned_free[c] = static_cast<i64>(ctx.frames->free_bytes(c).value());
  }
  // Demotion candidates, coldest first.
  const std::vector<std::size_t>& coldest = by_bucket.coldest;
  std::vector<bool> planned(profile.entries.size());  // entries already part of an order

  // Tries to free `need` bytes on dst by demoting colder-than-`score`
  // resident entries one tier down ("slow demotion"). Appends demotion
  // orders; returns true once planned_free[dst] >= need.
  const double hysteresis = hotness_max / static_cast<double>(kNumBuckets) * 2.0;
  auto make_room = [&](ComponentId dst, i64 need, double score, u32 /*socket*/) -> bool {
    if (planned_free[dst] >= need) {
      return true;
    }
    u32 home = machine.component(dst).home_socket;
    const auto& tiers = machine.TierOrder(home);
    u32 dst_rank = machine.TierRank(home, dst).value();
    for (std::size_t idx : coldest) {
      if (planned_free[dst] >= need) {
        break;
      }
      if (planned[idx]) {
        continue;
      }
      const HotnessEntry& victim = profile.entries[idx];
      // Hysteresis: only displace victims meaningfully colder than the
      // incoming region, or near-ties ping-pong across intervals and the
      // migration budget burns on churn.
      if (scores[idx] >= score - hysteresis) {
        break;  // coldest-first order: everything beyond is hotter
      }
      // Demote only as much of the victim as the deficit requires; large
      // merged regions step down in huge-page-aligned slices.
      Bytes deficit(static_cast<u64>(need - planned_free[dst]));
      auto [slice_start, demote_len] =
          SliceOn(ctx, victim, dst, std::min(victim.len, HugeAlignUp(deficit)));
      if (demote_len.IsZero()) {
        continue;
      }
      // Next lower tier with planned space; demotion only steps to a
      // strictly slower class (§6.2 "next lower memory tier").
      for (u32 r = dst_rank + 1; r < tiers.size(); ++r) {
        ComponentId lower = tiers[r];
        if (!machine.IsSlowerClass(dst, lower)) {
          continue;
        }
        if (machine.IsOffline(lower)) {
          continue;  // never demote onto a dead device
        }
        if (planned_free[lower] >= static_cast<i64>(demote_len.value())) {
          orders.push_back(MigrationOrder{slice_start, demote_len, lower, home, scores[idx]});
          planned[idx] = true;
          planned_free[lower] -= static_cast<i64>(demote_len.value());
          planned_free[dst] += static_cast<i64>(demote_len.value());
          break;
        }
      }
    }
    return planned_free[dst] >= need;
  };

  i64 budget = static_cast<i64>(params.promote_batch_bytes.value());
  for (std::size_t idx : hottest) {
    if (budget <= 0) {
      break;
    }
    const HotnessEntry& e = profile.entries[idx];
    if (scores[idx] < kMinHotness || planned[idx]) {
      continue;
    }
    u32 socket = e.preferred_socket;
    const auto& tiers = machine.TierOrder(socket);
    // Probe per-mapping residency: after partial promotion a merged region
    // straddles tiers, and the remaining slow-resident slice is what needs
    // promoting.
    auto [slice_start, cur] = SlowestSliceStart(ctx, e, socket, /*min_rank=*/TierId(0));
    if (cur == kInvalidComponent) {
      continue;  // fully resident in the fastest tier
    }
    u32 cur_rank = machine.TierRank(socket, cur).value();
    // The accumulated size of migrated regions is capped at N (§6.1): a
    // merged region larger than the remaining budget promotes in a
    // huge-page-aligned slice and continues next interval.
    Bytes promote_len =
        std::min(Bytes(e.end() - slice_start),
                 std::max(HugeAlignDown(Bytes(static_cast<u64>(budget))), kHugePageBytes));
    // Fast promotion: aim for the fastest tier; if its residents are all
    // hotter (no room can be made), fall through to the next tier — the
    // paper's "2nd highest bucket to the 2nd-fastest tier" behavior.
    for (u32 target = 0; target < cur_rank; ++target) {
      ComponentId dst = tiers[target];
      if (machine.IsOffline(dst)) {
        continue;  // degraded device: fall through to the next tier
      }
      if (static_cast<u64>(FramesCapacity(ctx, dst)) < promote_len.value()) {
        continue;
      }
      if (!make_room(dst, static_cast<i64>(promote_len.value()), scores[idx], socket)) {
        continue;
      }
      orders.push_back(MigrationOrder{slice_start, promote_len, dst, socket, scores[idx]});
      planned[idx] = true;
      planned_free[dst] -= static_cast<i64>(promote_len.value());
      planned_free[cur] += static_cast<i64>(promote_len.value());
      budget -= static_cast<i64>(promote_len.value());
      break;
    }
  }
  return orders;
}

std::vector<MigrationOrder> AutoNumaPolicy::Decide(const ProfileOutput& profile,
                                                   PolicyContext& ctx) {
  MTM_CHECK_GT(params_.promote_batch_bytes, Bytes{});
  const Machine& machine = *ctx.machine;
  std::vector<const HotnessEntry*> candidates;
  for (const HotnessEntry& e : profile.entries) {
    if (e.hotness > 0.0) {
      candidates.push_back(&e);
    }
  }
  if (patched_) {
    // MFU with auto threshold: rank by fault count; the budget cut-off is
    // the automatically adjusted hot threshold.
    std::sort(candidates.begin(), candidates.end(),
              [](const HotnessEntry* a, const HotnessEntry* b) {
                return a->hotness > b->hotness;
              });
  }
  std::vector<MigrationOrder> orders;
  i64 budget = static_cast<i64>(params_.promote_batch_bytes.value());
  for (const HotnessEntry* e : candidates) {
    if (budget <= 0) {
      break;
    }
    ComponentId cur = ctx.page_table->RangeComponent(e->start, e->len);
    if (cur == kInvalidComponent) {
      continue;
    }
    u32 socket = e->preferred_socket;
    // Kernel-faithful one-step moves — the traditional NUMA abstraction the
    // paper identifies as the latency problem for deep hierarchies:
    //  * a PM page promotes to the DRAM of its own socket;
    //  * a DRAM page on the wrong socket rebalances to the faulting
    //    socket's DRAM (classic NUMA balancing).
    // Reaching the application's top tier from remote PM therefore takes
    // two separate migration decisions across intervals.
    ComponentId dst = kInvalidComponent;
    u32 cur_home = machine.component(cur).home_socket;
    if (machine.component(cur).mem_class == MemClass::kPm) {
      dst = machine.TierOrder(cur_home)[0];  // local DRAM of the page's socket
    } else if (cur_home != socket) {
      dst = machine.TierOrder(socket)[0];  // NUMA-balance toward the tasks
    } else {
      continue;  // already in the task-local DRAM
    }
    orders.push_back(MigrationOrder{e->start, e->len, dst, socket, e->hotness});
    budget -= static_cast<i64>(e->len.value());
  }
  return orders;
}

std::vector<MigrationOrder> AutoTieringPolicy::Decide(const ProfileOutput& profile,
                                                      PolicyContext& ctx) {
  MTM_CHECK_GT(params_.promote_batch_bytes, Bytes{});
  const Machine& machine = *ctx.machine;
  std::vector<MigrationOrder> orders;
  IdMap<ComponentId, i64> planned_free(machine.num_components());
  for (ComponentId c{0}; c < machine.end_component(); ++c) {
    planned_free[c] = static_cast<i64>(ctx.frames->free_bytes(c).value());
  }
  i64 budget = static_cast<i64>(params_.promote_batch_bytes.value());
  for (const HotnessEntry& e : profile.entries) {
    if (budget <= 0) {
      break;
    }
    if (e.hotness <= 0.0) {
      continue;
    }
    ComponentId cur = ctx.page_table->RangeComponent(e.start, e.len);
    if (cur == kInvalidComponent) {
      continue;
    }
    u32 socket = e.preferred_socket;
    u32 cur_rank = machine.TierRank(socket, cur).value();
    // Opportunistic: the fastest tier that currently has room, regardless
    // of how hot the chunk is relative to anything else; when every faster
    // tier is full, promote to the fastest anyway and let opportunistic
    // (reclaim-based) demotion evict a victim.
    ComponentId dst = machine.TierOrder(socket)[0];
    for (u32 target = 0; target < cur_rank; ++target) {
      ComponentId candidate = machine.TierOrder(socket)[target];
      if (planned_free[candidate] >= static_cast<i64>(e.len.value())) {
        dst = candidate;
        break;
      }
    }
    orders.push_back(MigrationOrder{e.start, e.len, dst, socket, e.hotness});
    planned_free[dst] -= static_cast<i64>(e.len.value());
    planned_free[cur] += static_cast<i64>(e.len.value());
    budget -= static_cast<i64>(e.len.value());
  }
  return orders;
}

std::vector<MigrationOrder> HememPolicy::Decide(const ProfileOutput& profile,
                                                PolicyContext& ctx) {
  MTM_CHECK_GT(params_.promote_batch_bytes, Bytes{});
  const Machine& machine = *ctx.machine;
  ComponentId dram = machine.TierOrder(0)[0];
  std::vector<const HotnessEntry*> hot;
  for (const HotnessEntry& e : profile.entries) {
    if (e.hotness >= kHotThreshold) {
      hot.push_back(&e);
    }
  }
  std::sort(hot.begin(), hot.end(), [](const HotnessEntry* a, const HotnessEntry* b) {
    return a->hotness > b->hotness;
  });
  std::vector<MigrationOrder> orders;
  i64 budget = static_cast<i64>(params_.promote_batch_bytes.value());
  for (const HotnessEntry* e : hot) {
    if (budget <= 0) {
      break;
    }
    ComponentId cur = ctx.page_table->RangeComponent(e->start, e->len);
    if (cur == kInvalidComponent || cur == dram) {
      continue;
    }
    orders.push_back(MigrationOrder{e->start, e->len, dram, 0, e->hotness});
    budget -= static_cast<i64>(e->len.value());
  }
  return orders;
}

}  // namespace mtm
