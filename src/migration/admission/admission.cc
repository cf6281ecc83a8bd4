#include "src/migration/admission/admission.h"

#include <algorithm>
#include <array>

#include "src/common/logging.h"
#include "src/common/types.h"

namespace mtm {

MigrationHistory::Outcome MigrationHistory::RecordMove(VirtAddr start, bool is_promotion,
                                                       Bytes bytes, SimNanos now) {
  MTM_CHECK_GT(bytes, Bytes{});
  RegionMigrationHistory& e = table_[HugeAlignDown(start)];
  Outcome out;
  const int direction = is_promotion ? 1 : -1;
  const SimNanos opposite_at = is_promotion ? e.last_demote_at : e.last_promote_at;
  // A reversal counts as a flip only when the opposite move is recent: a
  // promotion long after an old demotion is a genuine phase change, not
  // ping-pong.
  if (e.last_direction == -direction && !opposite_at.IsZero() &&
      now - opposite_at <= tuning_.flip_window_ns) {
    ++e.flips;
    if (e.pingpong_score == 0.0) {
      scored_.push_back(HugeAlignDown(start));
    }
    e.pingpong_score += 1.0;
    out.flipped = true;
  }
  if (is_promotion) {
    ++e.promotions;
    e.last_promote_at = now;
  } else {
    ++e.demotions;
    e.last_demote_at = now;
  }
  e.last_direction = direction;
  return out;
}

void MigrationHistory::EndInterval() {
  // A zero score stays zero, so only the scored records decay; one that
  // decays to zero leaves the list.
  for (std::size_t i = 0; i < scored_.size();) {
    double& score = table_.find(scored_[i])->second.pingpong_score;
    score *= tuning_.score_decay;
    if (score == 0.0) {
      scored_[i] = scored_.back();
      scored_.pop_back();
    } else {
      ++i;
    }
  }
}

const RegionMigrationHistory* MigrationHistory::Find(VirtAddr addr) const {
  auto it = table_.find(HugeAlignDown(addr));
  return it == table_.end() ? nullptr : &it->second;
}

double MigrationHistory::MaxPingPongScore() const {
  double max_score = 0.0;
  for (VirtAddr start : scored_) {
    max_score = std::max(max_score, table_.find(start)->second.pingpong_score);
  }
  return max_score;
}

AdmissionDecision AdmissionController::DecideOrder(const AdmissionRequest& request,
                                                   const MigrationHistory& history,
                                                   const AdmissionBudget& budget) {
  return AdmissionDecision{Admit(request, history, budget), Bytes{}};
}

void AdmissionController::Sequence(std::vector<AdmissionRequest>& batch) { (void)batch; }

void AdmissionController::BeginInterval(SimNanos now, AdmissionBudget& budget) {
  (void)now;
  (void)budget;
}

namespace {

// The determinism anchor: admits everything, reads nothing. A run with this
// controller is byte-identical to a build without the admission stage.
class VanillaAdmission : public AdmissionController {
 public:
  AdmissionKind kind() const override { return AdmissionKind::kVanilla; }
  AdmissionVerdict Admit(const AdmissionRequest&, const MigrationHistory&,
                         const AdmissionBudget&) override {
    return AdmissionVerdict::kAdmit;
  }
};

// Ping-pong throttling: after a region is demoted, its re-promotion must
// wait out a cooldown that doubles with every recorded flip. Demotions are
// never throttled — slow demotion is what relieves pressure, and blocking
// it would turn ping-pong into tier overflow.
class PptAdmission : public AdmissionController {
 public:
  explicit PptAdmission(const AdmissionTuning& tuning) : tuning_(tuning) {}

  AdmissionKind kind() const override { return AdmissionKind::kPpt; }

  AdmissionVerdict Admit(const AdmissionRequest& request, const MigrationHistory& history,
                         const AdmissionBudget&) override {
    if (!request.is_promotion) {
      return AdmissionVerdict::kAdmit;
    }
    // An order may span several huge regions; if ANY of them is still in
    // its cooldown the whole order waits, so a hot region cannot smuggle
    // recently demoted neighbors back up with it.
    const VirtAddr end = request.order.start + request.order.len;
    for (VirtAddr r = HugeAlignDown(request.order.start); r < end; r += kHugePageBytes) {
      const RegionMigrationHistory* e = history.Find(r);
      if (e == nullptr || e->last_demote_at.IsZero()) {
        continue;  // never demoted: nothing to throttle
      }
      if (request.now - e->last_demote_at < CooldownFor(e->flips)) {
        return AdmissionVerdict::kDefer;
      }
    }
    return AdmissionVerdict::kAdmit;
  }

  // base << min(flips, cap), saturating at max_cooldown on overflow.
  SimNanos CooldownFor(u32 flips) const {
    const u64 base = tuning_.ppt_base_cooldown_ns.value();
    const u64 max = tuning_.ppt_max_cooldown_ns.value();
    const u32 shift = std::min(flips, tuning_.ppt_flip_shift_cap);
    if (base != 0 && shift < 64 && base <= (max >> shift)) {
      return SimNanos(base << shift);
    }
    return SimNanos(max);
  }

 private:
  AdmissionTuning tuning_;
};

// Bandwidth-aware degradation: one interval may admit at most
// interval_budget_bytes of migration traffic. Promotions are re-sequenced
// hottest-first so that when the budget runs out, the lowest-value orders
// are the ones shed; demotions keep their original order ahead of all
// promotions (they make the room promotions need) and are not charged.
class BandwidthAdmission : public AdmissionController {
 public:
  AdmissionKind kind() const override { return AdmissionKind::kBandwidth; }

  AdmissionVerdict Admit(const AdmissionRequest& request, const MigrationHistory&,
                         const AdmissionBudget& budget) override {
    if (!request.is_promotion) {
      return AdmissionVerdict::kAdmit;
    }
    if (request.bytes > budget.remaining()) {
      return AdmissionVerdict::kReject;
    }
    return AdmissionVerdict::kAdmit;
  }

  // Partial admission: instead of shedding a whole order that straddles the
  // budget boundary, admit the largest huge-page-aligned prefix that still
  // fits — the budget fills completely and the hottest region's head still
  // moves. Below one huge page nothing can split, so reject as before.
  AdmissionDecision DecideOrder(const AdmissionRequest& request, const MigrationHistory& history,
                                const AdmissionBudget& budget) override {
    if (!request.is_promotion || request.bytes <= budget.remaining()) {
      return AdmissionDecision{Admit(request, history, budget), Bytes{}};
    }
    const Bytes fit = HugeAlignDown(budget.remaining());
    if (fit < kHugePageBytes) {
      return AdmissionDecision{AdmissionVerdict::kReject, Bytes{}};
    }
    return AdmissionDecision{AdmissionVerdict::kAdmit, fit};
  }

  void Sequence(std::vector<AdmissionRequest>& batch) override {
    // Stable: demotions first in policy order, then promotions by
    // descending hotness (ties keep policy order).
    std::stable_sort(batch.begin(), batch.end(),
                     [](const AdmissionRequest& a, const AdmissionRequest& b) {
                       if (a.is_promotion != b.is_promotion) {
                         return !a.is_promotion;
                       }
                       if (!a.is_promotion) {
                         return false;  // demotions keep policy order
                       }
                       return a.order.hotness > b.order.hotness;
                     });
  }
};

template <typename Controller>
std::unique_ptr<AdmissionController> Make(const AdmissionTuning& tuning) {
  if constexpr (requires { Controller(tuning); }) {
    return std::make_unique<Controller>(tuning);
  } else {
    return std::make_unique<Controller>();
  }
}

// One row per AdmissionKind: the single declaration of each controller's
// name and constructor.
struct AdmissionEntry {
  AdmissionKind kind;
  const char* name;
  std::unique_ptr<AdmissionController> (*make)(const AdmissionTuning&);
};
constexpr std::array<AdmissionEntry, 3> kAdmissions = {{
    {AdmissionKind::kVanilla, "vanilla", Make<VanillaAdmission>},
    {AdmissionKind::kPpt, "ppt", Make<PptAdmission>},
    {AdmissionKind::kBandwidth, "bandwidth", Make<BandwidthAdmission>},
}};

const AdmissionEntry& EntryOf(AdmissionKind kind) {
  for (const AdmissionEntry& entry : kAdmissions) {
    if (entry.kind == kind) {
      return entry;
    }
  }
  MTM_CHECK(false) << "unknown admission kind";
  return kAdmissions[0];
}

}  // namespace

const char* AdmissionKindName(AdmissionKind kind) { return EntryOf(kind).name; }

bool AdmissionKindFromName(const std::string& name, AdmissionKind* out) {
  for (const AdmissionEntry& entry : kAdmissions) {
    if (name == entry.name) {
      *out = entry.kind;
      return true;
    }
  }
  return false;
}

std::unique_ptr<AdmissionController> MakeAdmissionController(AdmissionKind kind,
                                                             const AdmissionTuning& tuning) {
  return EntryOf(kind).make(tuning);
}

}  // namespace mtm
