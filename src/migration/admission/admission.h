// Migration admission control: the pluggable stage between the tiering
// policy (which proposes orders) and the migration mechanism (which
// executes them). The engine consults an AdmissionController before every
// order is armed; the controller answers admit / defer / reject against a
// per-region MigrationHistory and a per-interval bandwidth budget.
//
// PR 1's thrash guard reacts only after aborts; admission control acts
// before bandwidth is spent. TierBPF casts admission as a swappable program
// between policy and mechanism, and Jenga shows that responsiveness without
// thrashing needs per-page migration history rather than global caps
// (PAPERS.md) — this module reproduces that layering:
//   * vanilla    admits everything (byte-identical to a build without the
//                admission stage — the determinism anchor);
//   * ppt        ping-pong throttling: a region's re-promotion backs off
//                exponentially with its demote->promote flip count, as a
//                cooldown window in simulated time;
//   * bandwidth  graceful degradation: orders are admitted against a
//                per-interval migration-byte budget, promotions ordered by
//                hotness so the lowest-value orders shed first instead of
//                the batch failing mid-interval.
//
// Determinism rules: controllers are pure functions of (request, history,
// budget) — no wall clock, no randomness, no host-pointer iteration. The
// history table is a std::map so every walk is address-ordered.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace mtm {

// One policy decision: move [start, start+len) to component dst, using the
// tier view of `socket` for any cascading demotions. `hotness` carries the
// policy's value estimate for the region (WHI units for MTM) so admission
// can rank orders; policies that do not rank leave it zero.
struct MigrationOrder {
  VirtAddr start;
  Bytes len;
  ComponentId dst = kInvalidComponent;
  u32 socket = 0;
  double hotness = 0.0;
};

enum class AdmissionVerdict {
  kAdmit,   // arm the order now
  kDefer,   // drop this interval; the policy re-decides next interval
  kReject,  // shed: over budget, not worth the bandwidth
};

enum class AdmissionKind {
  kVanilla,    // admit-all
  kPpt,        // ping-pong throttling with exponential re-promotion backoff
  kBandwidth,  // per-interval byte budget, hotness-ordered shedding
};

const char* AdmissionKindName(AdmissionKind kind);
// Returns false (and leaves *out untouched) for an unknown name.
bool AdmissionKindFromName(const std::string& name, AdmissionKind* out);

// Tuning shared by the history table and the shipped controllers. The
// sim-time windows default to zero, meaning "derive from the profiling
// interval" — Solution fills them in; standalone users set them explicitly.
struct AdmissionTuning {
  // History: a promote<->demote reversal within this window of the previous
  // move counts as a flip; per-region ping-pong scores decay by this factor
  // at every interval boundary.
  SimNanos flip_window_ns;      // 0: 5 profiling intervals
  double score_decay = 0.5;     // EMA decay per interval, in [0, 1)
  // ppt: a region's re-promotion cooldown after a demotion is
  //   base_cooldown << min(flips, flip_shift_cap), capped at max_cooldown.
  SimNanos ppt_base_cooldown_ns;  // 0: one profiling interval
  SimNanos ppt_max_cooldown_ns;   // 0: 32 profiling intervals
  u32 ppt_flip_shift_cap = 10;
  // bandwidth: migration bytes admitted per interval.
  Bytes interval_budget_bytes;  // 0: the experiment's promote batch (N)
};

// Per-region record of migration activity, keyed by the huge-aligned region
// start. Generation counts and timestamps are in simulated time.
struct RegionMigrationHistory {
  SimNanos last_promote_at;
  SimNanos last_demote_at;
  u32 promotions = 0;       // promote generation count
  u32 demotions = 0;        // demote generation count
  u32 flips = 0;            // lifetime direction reversals within the window
  double pingpong_score = 0.0;  // flip EMA: +1 per flip, decayed per interval
  // Direction of the last recorded move: +1 promote, -1 demote, 0 never.
  int last_direction = 0;
};

// The per-region table the engine maintains and controllers read. Pure
// bookkeeping: recording is unconditional (even under vanilla) and has no
// effect on behavior until a controller consults it.
class MigrationHistory {
 public:
  explicit MigrationHistory(const AdmissionTuning& tuning) : tuning_(tuning) {}

  struct Outcome {
    bool flipped = false;  // this move reversed a recent opposite move
  };

  // Records a committed move of `bytes` for the region containing `start`.
  Outcome RecordMove(VirtAddr start, bool is_promotion, Bytes bytes, SimNanos now);

  // Interval boundary: decays every region's ping-pong score. Its cost
  // follows the regions with a nonzero score, not the table.
  void EndInterval();

  // Entry for the region containing `addr`, or null if it never migrated.
  const RegionMigrationHistory* Find(VirtAddr addr) const;

  // Maximum ping-pong score across all regions (0 when none is scored).
  double MaxPingPongScore() const;

  std::size_t size() const { return table_.size(); }
  const AdmissionTuning& tuning() const { return tuning_; }

 private:
  AdmissionTuning tuning_;
  std::map<VirtAddr, RegionMigrationHistory> table_;
  // Keys of the records whose ping-pong score is nonzero, in no order. Keys,
  // not pointers: a copy of the history must not point into the original.
  std::vector<VirtAddr> scored_;
};

// One order as seen by the admission stage. `bytes` is what actually still
// needs to move (already-resident pages excluded).
struct AdmissionRequest {
  MigrationOrder order;
  Bytes bytes;
  bool is_promotion = false;
  u32 attempt = 1;  // 1 = first submission; >1 = retry of an aborted order
  SimNanos now;
};

// Per-interval migration-byte budget. A zero limit means unlimited.
struct AdmissionBudget {
  Bytes interval_limit;
  Bytes admitted_bytes;  // admitted so far this interval

  Bytes remaining() const {
    if (interval_limit.IsZero()) {
      return Bytes(~u64{0});
    }
    return admitted_bytes >= interval_limit ? Bytes{} : interval_limit - admitted_bytes;
  }
};

// Verdict plus the optional partial-admission boundary. When the verdict is
// kAdmit and admit_bytes is nonzero and smaller than request.bytes, the
// engine splits the order at the largest huge-page-aligned prefix whose
// to-move bytes fit admit_bytes; the armed prefix migrates and the
// remainder is shed as rejected (per-order partial admission at the
// bandwidth-budget boundary). A zero admit_bytes admits the whole order.
struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::kAdmit;
  Bytes admit_bytes;
};

class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  // Reports name the controller by AdmissionKindName(kind()).
  virtual AdmissionKind kind() const = 0;

  // The per-order gate, consulted by the engine after an order passes its
  // validity checks and before any cost is charged or tracking armed.
  virtual AdmissionVerdict Admit(const AdmissionRequest& request,
                                 const MigrationHistory& history,
                                 const AdmissionBudget& budget) = 0;

  // Gate with partial-admission support; this is what the engine actually
  // calls. The default delegates to Admit() and never splits, so
  // controllers that think in whole orders stay byte-identical; controllers
  // that can split at a byte boundary (bandwidth) override it.
  virtual AdmissionDecision DecideOrder(const AdmissionRequest& request,
                                        const MigrationHistory& history,
                                        const AdmissionBudget& budget);

  // Reorders one interval's batch before per-order admission. The default
  // keeps the policy's execution sequence (demotions that make room come
  // before the promotions that need it); overrides must preserve that
  // property.
  virtual void Sequence(std::vector<AdmissionRequest>& batch);

  // Interval-boundary hook; the engine has already zeroed
  // budget.admitted_bytes when this runs.
  virtual void BeginInterval(SimNanos now, AdmissionBudget& budget);
};

std::unique_ptr<AdmissionController> MakeAdmissionController(AdmissionKind kind,
                                                             const AdmissionTuning& tuning);

// Outcome counters of the admission stage over a run.
struct AdmissionStats {
  u64 admitted = 0;
  u64 deferred = 0;
  u64 rejected = 0;
  Bytes admitted_bytes;
  Bytes deferred_bytes;
  Bytes rejected_bytes;
  u64 flip_moves = 0;  // committed moves that reversed a recent move
  Bytes flip_bytes;    // migrated bytes wasted on those reversals
  // Partial admission: orders split at the budget boundary instead of shed
  // whole, and the remainder bytes those splits dropped (a subset of
  // rejected_bytes).
  u64 split_orders = 0;
  Bytes split_shed_bytes;
};

}  // namespace mtm
