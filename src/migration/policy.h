// Tiering policies: given a profiler's hotness view, decide which extents
// move where (§6).
#pragma once

#include <vector>

#include "src/common/types.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/migration_engine.h"
#include "src/profiling/profiler.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {

struct PolicyContext {
  const Machine* machine = nullptr;
  PageTable* page_table = nullptr;
  FrameAllocator* frames = nullptr;
  // Decision-time signals for feature-driven policies (src/migration/
  // features.h). The driver fills them every interval; standalone callers
  // may leave them null/zero — feature builders degrade gracefully.
  const MigrationHistory* history = nullptr;  // per-region migration history
  SimNanos now;          // simulated time of this decision
  SimNanos interval_ns;  // profiling-interval length (recency normalization)
};

// Construction knobs every registered policy is built from
// (src/migration/policy_registry.h).
struct PolicyParams {
  Bytes promote_batch_bytes;  // required: N in §6.1 (200 MB on testbed)
  // Score range of the histogram policies (mtm, logistic); non-positive
  // adapts to the profiler's scale each interval (§9.3 ablations).
  double hotness_max = -1.0;
};

class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  // Returns orders in execution sequence (demotions that make room come
  // before the promotions that need it).
  virtual std::vector<MigrationOrder> Decide(const ProfileOutput& profile,
                                             PolicyContext& ctx) = 0;
};

// No migration at all (first-touch NUMA, HMC).
class NullPolicy : public TieringPolicy {
 public:
  std::vector<MigrationOrder> Decide(const ProfileOutput&, PolicyContext&) override {
    return {};
  }
};

// MTM's policy (§6): histogram over the per-region WHI; fast promotion
// (hottest regions anywhere go straight to the fastest tier of their
// dominant socket's view, up to promote_batch_bytes per interval) and slow
// demotion (colder-than-incoming regions step down one tier with space).
class MtmPolicy : public TieringPolicy {
 public:
  explicit MtmPolicy(const PolicyParams& params) : params_(params) {}
  std::vector<MigrationOrder> Decide(const ProfileOutput& profile, PolicyContext& ctx) override;

 private:
  PolicyParams params_;
};

// The fast-promotion / slow-demotion core of MtmPolicy::Decide, driven by an
// explicit per-entry score vector (`scores[i]` ranks `profile.entries[i]`;
// higher promotes first, colder demotes first). MtmPolicy passes the raw WHI
// as the score; feature policies (src/migration/feature_policy.h) substitute
// any fitted scorer and inherit the same histogram thresholds, make-room
// hysteresis, and huge-page slicing. `scores.size()` must equal
// `profile.entries.size()`.
std::vector<MigrationOrder> DecideByScore(const ProfileOutput& profile,
                                          const std::vector<double>& scores, PolicyContext& ctx,
                                          const PolicyParams& params);

// Tiered-AutoNUMA policy: pages promote one tier at a time toward the
// faulting socket's faster memory. Vanilla uses the binary two-touch
// signal in arrival order; patched ranks by MFU fault count with the
// threshold auto-adjusted to the promotion budget.
class AutoNumaPolicy : public TieringPolicy {
 public:
  AutoNumaPolicy(const PolicyParams& params, bool patched)
      : params_(params), patched_(patched) {}
  std::vector<MigrationOrder> Decide(const ProfileOutput& profile, PolicyContext& ctx) override;

 private:
  PolicyParams params_;
  bool patched_;
};

// AutoTiering policy: opportunistic promotion of any sampled-hot chunk
// directly to the fastest tier with free space; no hotness ranking.
class AutoTieringPolicy : public TieringPolicy {
 public:
  explicit AutoTieringPolicy(const PolicyParams& params) : params_(params) {}
  std::vector<MigrationOrder> Decide(const ProfileOutput& profile, PolicyContext& ctx) override;

 private:
  PolicyParams params_;
};

// HeMem policy (two tiers): PEBS-hot pages promote to DRAM; eviction under
// pressure is reclaim-based demotion of inactive pages.
class HememPolicy : public TieringPolicy {
 public:
  static constexpr double kHotThreshold = 2.0;  // PEBS samples per interval

  explicit HememPolicy(const PolicyParams& params) : params_(params) {}
  std::vector<MigrationOrder> Decide(const ProfileOutput& profile, PolicyContext& ctx) override;

 private:
  PolicyParams params_;
};

}  // namespace mtm
