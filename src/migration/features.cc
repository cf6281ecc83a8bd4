#include "src/migration/features.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {
namespace {

// Sim-time distance from the region's most recent committed move,
// normalized by the profiling interval and capped at 32 intervals. Never
// migrated (or no history wired in) saturates to 1.0.
double MoveRecency(const PolicyContext& ctx, VirtAddr start) {
  if (ctx.history == nullptr || ctx.interval_ns.IsZero()) {
    return 1.0;
  }
  const RegionMigrationHistory* rec = ctx.history->Find(start);
  if (rec == nullptr) {
    return 1.0;
  }
  SimNanos last = std::max(rec->last_promote_at, rec->last_demote_at);
  if (last > ctx.now) {
    return 0.0;
  }
  double intervals = static_cast<double>((ctx.now - last).value()) /
                     static_cast<double>(ctx.interval_ns.value());
  return std::min(intervals, 32.0) / 32.0;
}

}  // namespace

const char* const kFeatureNames[kNumFeatures] = {
    "whi", "hi", "trend", "skew", "log_size", "tier_rank", "pingpong", "move_recency",
};

std::vector<FeatureVector> BuildFeatures(const ProfileOutput& profile, const PolicyContext& ctx) {
  MTM_CHECK(ctx.machine != nullptr);
  MTM_CHECK(ctx.page_table != nullptr);
  const Machine& machine = *ctx.machine;
  std::vector<FeatureVector> features;
  features.reserve(profile.entries.size());
  for (const HotnessEntry& e : profile.entries) {
    FeatureVector f;
    f.start = e.start;
    f.len = e.len;
    f.preferred_socket = e.preferred_socket;
    f.resident = ctx.page_table->RangeComponent(e.start, e.len);
    const auto& tiers = machine.TierOrder(e.preferred_socket);
    // Unmapped regions rank below the slowest tier: nothing to promote.
    f.tier_rank = f.resident == kInvalidComponent
                      ? static_cast<u32>(tiers.size())
                      : machine.TierRank(e.preferred_socket, f.resident).value();
    f.x[kFeatWhi] = e.hotness;
    f.x[kFeatHi] = e.latest_hi;
    f.x[kFeatTrend] = e.latest_hi - e.prev_hi;
    f.x[kFeatSkew] = e.skew;
    u64 pages = std::max<u64>(1, e.len.value() / kPageBytes.value());
    f.x[kFeatLogSizePages] = std::log2(static_cast<double>(pages)) / 16.0;
    f.x[kFeatTierRank] = tiers.size() > 1 ? static_cast<double>(f.tier_rank) /
                                                static_cast<double>(tiers.size() - 1)
                                          : 0.0;
    if (ctx.history != nullptr) {
      const RegionMigrationHistory* rec = ctx.history->Find(e.start);
      f.x[kFeatPingPong] = rec == nullptr ? 0.0 : rec->pingpong_score;
    }
    f.x[kFeatMoveRecency] = MoveRecency(ctx, e.start);
    features.push_back(f);
  }
  return features;
}

void FeatureExporter::OnInterval(u64 interval, SimNanos now, const ProfileOutput& profile,
                                 const std::vector<FeatureVector>& features,
                                 const std::vector<MigrationOrder>& orders,
                                 const PolicyContext& ctx) {
  MTM_CHECK_EQ(features.size(), profile.entries.size());
  const Machine& machine = *ctx.machine;

  // Label the previous interval's rows with the hotness the region realized
  // this interval. Region boundaries drift (merge/split), so the lookup is
  // by containment of the old region start; vanished regions drop.
  std::map<VirtAddr, std::pair<VirtAddr, double>> by_start;  // start -> (end, hotness)
  for (const HotnessEntry& e : profile.entries) {
    by_start[e.start] = {e.end(), e.hotness};
  }
  for (const PendingRow& row : pending_) {
    auto it = by_start.upper_bound(row.start);
    if (it == by_start.begin()) {
      continue;
    }
    --it;
    if (row.start >= it->second.first) {
      continue;  // past that region's end: the old start is unprofiled now
    }
    sink_.Append(row.prefix + JsonlDouble(it->second.second) + "}");
  }
  pending_.clear();

  // Attach the policy's action to the region each order targets. First
  // matching order wins; MTM plans at most one order per region.
  std::map<VirtAddr, std::size_t> row_index;  // region start -> features index
  for (std::size_t i = 0; i < features.size(); ++i) {
    row_index[features[i].start] = i;
  }
  std::vector<const MigrationOrder*> row_order(features.size(), nullptr);
  for (const MigrationOrder& order : orders) {
    auto it = row_index.upper_bound(order.start);
    if (it == row_index.begin()) {
      continue;
    }
    --it;
    std::size_t i = it->second;
    if (order.start < features[i].start + features[i].len && row_order[i] == nullptr) {
      row_order[i] = &order;
    }
  }

  for (std::size_t i = 0; i < features.size(); ++i) {
    const FeatureVector& f = features[i];
    int action = 0;
    int dst_tier = -1;
    if (row_order[i] != nullptr) {
      const MigrationOrder& order = *row_order[i];
      dst_tier = static_cast<int>(machine.TierRank(order.socket, order.dst).value());
      action = static_cast<u32>(dst_tier) < f.tier_rank ? 1 : -1;
    }
    std::string line = "{\"interval\":" + std::to_string(interval) +
                       ",\"sim_ns\":" + std::to_string(now.value()) +
                       ",\"start\":" + std::to_string(f.start.value()) +
                       ",\"len\":" + std::to_string(f.len.value()) +
                       ",\"socket\":" + std::to_string(f.preferred_socket) +
                       ",\"tier\":" + std::to_string(f.tier_rank);
    for (u32 k = 0; k < kNumFeatures; ++k) {
      line += ",\"";
      line += kFeatureNames[k];
      line += "\":" + JsonlDouble(f.x[k]);
    }
    line += ",\"action\":" + std::to_string(action) +
            ",\"dst_tier\":" + std::to_string(dst_tier) + ",\"label\":";
    pending_.push_back(PendingRow{std::move(line), f.start});
  }
}

void HeatmapExporter::OnInterval(u64 interval, SimNanos now, const ProfileOutput& profile,
                                 const std::vector<FeatureVector>& features) {
  MTM_CHECK_EQ(features.size(), profile.entries.size());
  std::vector<std::size_t> order(features.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (features[a].start != features[b].start) {
      return features[a].start < features[b].start;
    }
    return a < b;
  });
  std::string line = "{\"interval\":" + std::to_string(interval) +
                     ",\"sim_ns\":" + std::to_string(now.value()) + ",\"regions\":[";
  bool first = true;
  for (std::size_t i : order) {
    const FeatureVector& f = features[i];
    const HotnessEntry& e = profile.entries[i];
    if (!first) {
      line += ',';
    }
    first = false;
    line += "{\"start\":" + std::to_string(f.start.value()) +
            ",\"len\":" + std::to_string(f.len.value()) + ",\"whi\":" + JsonlDouble(e.hotness) +
            ",\"hi\":" + JsonlDouble(e.latest_hi) + ",\"tier\":" + std::to_string(f.tier_rank) +
            ",\"pingpong\":" + JsonlDouble(f.x[kFeatPingPong]) + "}";
  }
  line += "]}";
  sink_.Append(line);
}

}  // namespace mtm
