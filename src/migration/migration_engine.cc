#include "src/migration/migration_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strong_types.h"
#include "src/common/units.h"
#include "src/migration/cost_model.h"
#include "src/obs/metric_id.h"

namespace mtm {

MigrationEngine::MigrationEngine(const Machine& machine, PageTable& page_table,
                                 FrameAllocator& frames, const AddressSpace& address_space,
                                 MemCounters& counters, SimClock& clock, MechanismKind kind,
                                 MigrationCostModel model)
    : machine_(machine),
      page_table_(page_table),
      frames_(frames),
      address_space_(address_space),
      counters_(counters),
      clock_(clock),
      kind_(kind),
      model_(model) {}

MechanismCost MigrationEngine::PlanCost(const MigrationOrder& order, MechanismKind kind,
                                        Bytes* bytes_out, ComponentId* src_out) {
  // Group the range's still-to-move mappings by source component. The sums
  // are integer nanoseconds, so the order of the sources does not matter.
  const u32 to_move = ~ComponentBit(order.dst);
  const PageTable::Residency residency = page_table_.CountMappings(order.start, order.len, to_move);
  MechanismCost total;
  Bytes bytes;
  for (u32 c = 0; c < PageTable::kMaxComponents; ++c) {
    const u64 base_pages = residency.base_pages[c];
    const u64 huge_pages = residency.huge_pages[c];
    if (base_pages == 0 && huge_pages == 0) {
      continue;
    }
    MechanismCost cost = ComputeMechanismCost(kind, model_, machine_, order.socket, ComponentId(c),
                                              order.dst, base_pages, huge_pages);
    total.critical += cost.critical;
    total.background += cost.background;
    bytes += PagesToBytes(base_pages) + HugePagesToBytes(huge_pages);
  }
  if (bytes_out != nullptr) {
    *bytes_out = bytes;
  }
  if (src_out != nullptr) {
    // The source of the first still-to-move mapping in address order.
    *src_out = kInvalidComponent;
    if (!bytes.IsZero()) {
      page_table_.FindMappingOn(order.start, order.len, to_move, src_out);
    }
  }
  return total;
}

bool MigrationEngine::IsPromotion(const MigrationOrder& order, ComponentId src) const {
  if (src == kInvalidComponent || order.dst >= machine_.end_component()) {
    return false;
  }
  return machine_.TierRank(order.socket, order.dst) < machine_.TierRank(order.socket, src);
}

void MigrationEngine::RecordHistory(const MigrationOrder& order, ComponentId src, Bytes moved) {
  if (moved.IsZero() || src == kInvalidComponent) {
    return;
  }
  // Book every huge region the order covers, not just the first: reclaim
  // records demotions at region granularity, so the promote side must match
  // or re-promotions of the later regions in a span would escape the
  // ping-pong accounting (and the ppt gate that reads it).
  const bool is_promotion = IsPromotion(order, src);
  const VirtAddr end = order.start + order.len;
  for (VirtAddr r = HugeAlignDown(order.start); r < end; r += kHugePageBytes) {
    const VirtAddr seg_begin = std::max(r, order.start);
    const VirtAddr seg_end = std::min(r + kHugePageBytes, end);
    const Bytes seg(seg_end - seg_begin);
    MigrationHistory::Outcome out = history_.RecordMove(r, is_promotion, seg, clock_.now());
    if (out.flipped) {
      ++admission_stats_.flip_moves;
      admission_stats_.flip_bytes += seg;
    }
  }
}

bool MigrationEngine::ReclaimFrom(ComponentId component, Bytes bytes_needed, int depth) {
  if (depth > static_cast<int>(machine_.num_components())) {
    return false;
  }
  if (reclaim_cursor_.size() < machine_.num_components()) {
    reclaim_cursor_.assign(machine_.num_components(), VirtAddr{});
  }
  // Demotion target: the next lower tier with space, from the view of the
  // component's home socket (§6.2 "slow demotion").
  u32 home = machine_.component(component).home_socket;
  const auto& order = machine_.TierOrder(home);
  u32 rank = machine_.TierRank(home, component).value();

  // Like kswapd, free a batch beyond the immediate need so back-to-back
  // small promotions don't each pay a full victim scan.
  const Bytes target = std::max(bytes_needed, 2 * kHugePageBytes);

  // Two victim passes: inactive (accessed-bit clear) pages first, then any.
  // The per-component clock hand resumes where the last scan stopped, so
  // repeatedly reclaimed components rotate victims instead of always
  // evicting the lowest addresses.
  u32 hopeless_lower = 0;  // bitmask of lower tiers whose reclaim failed
  for (int pass = 0; pass < 2 && frames_.free_bytes(component) < target; ++pass) {
    const auto& vmas = address_space_.vmas();
    if (vmas.empty()) {
      break;
    }
    std::size_t start_vma = 0;
    for (std::size_t v = 0; v < vmas.size(); ++v) {
      if (vmas[v].Contains(reclaim_cursor_[component])) {
        start_vma = v;
        break;
      }
    }
    for (std::size_t step = 0; step <= vmas.size(); ++step) {
      if (frames_.free_bytes(component) >= target) {
        break;
      }
      const Vma& vma = vmas[(start_vma + step) % vmas.size()];
      VirtAddr begin = vma.start;
      Bytes len = vma.len;
      if (step == 0 && vma.Contains(reclaim_cursor_[component])) {
        begin = reclaim_cursor_[component];
        len = Bytes(vma.end() - begin);
      } else if (step == vmas.size()) {
        // Wrapped: rescan the head of the cursor VMA.
        len = reclaim_cursor_[component] > vma.start
                  ? Bytes(reclaim_cursor_[component] - vma.start)
                  : Bytes{};
        if (len.IsZero()) {
          break;
        }
      }
      page_table_.ForEachMapping(begin, len, [&](VirtAddr addr, Bytes size, Pte& pte) {
        if (frames_.free_bytes(component) >= target) {
          return;
        }
        if (pte.component() != component) {
          return;
        }
        if (pass == 0 && pte.accessed()) {
          return;  // keep active pages in the first pass
        }
        // Find a lower tier with room, cascading reclaim once if needed.
        // Only strictly slower classes are demotion targets (DRAM -> PM).
        for (u32 r = rank + 1; r < order.size(); ++r) {
          ComponentId lower = order[r];
          if (!machine_.IsSlowerClass(component, lower)) {
            continue;
          }
          if (machine_.IsOffline(lower)) {
            continue;  // never demote onto a dead device
          }
          if (hopeless_lower & (1u << lower.value())) {
            continue;  // cascading reclaim already failed there this scan
          }
          if (frames_.free_bytes(lower) < size && !ReclaimFrom(lower, size, depth + 1)) {
            hopeless_lower |= 1u << lower.value();
            continue;
          }
          if (!frames_.Reserve(lower, size).ok()) {
            continue;
          }
          // Demotion is a synchronous kernel move; charge its cost.
          MechanismKind k =
              kind_ == MechanismKind::kMoveMemoryRegions ? MechanismKind::kMmrSync : kind_;
          u64 base = size == kHugePageBytes ? 0 : 1;
          u64 huge = size == kHugePageBytes ? 1 : 0;
          MechanismCost c =
              ComputeMechanismCost(k, model_, machine_, home, component, lower, base, huge);
          clock_.AdvanceMigration(c.CriticalNs());
          stats_.critical_ns += c.CriticalNs();
          stats_.steps += c.critical;
          frames_.Release(component, size);
          page_table_.SetComponent(addr, pte, lower);
          RecordMigrationBytes(component, size);
          RecordMigrationBytes(lower, size);
          ++stats_.reclaim_demotions;
          stats_.bytes_migrated += size;
          // Reclaim bypasses the admission gate (it relieves pressure), but
          // it IS the demote half of every ping-pong cycle, so it must be
          // booked into the history for re-promotion throttling to see it.
          MigrationHistory::Outcome hist =
              history_.RecordMove(addr, /*is_promotion=*/false, size, clock_.now());
          if (hist.flipped) {
            ++admission_stats_.flip_moves;
            admission_stats_.flip_bytes += size;
          }
          reclaim_cursor_[component] = addr + size;
          return;
        }
      });
    }
  }
  return frames_.free_bytes(component) >= bytes_needed;
}

MigrationEngine::CommitOutcome MigrationEngine::CommitMove(const MigrationOrder& order) {
  CommitOutcome out;
  bool reclaim_hopeless = false;  // don't rescan for every page of the range
  page_table_.ForEachMapping(order.start, order.len, [&](VirtAddr addr, Bytes size, Pte& pte) {
    if (pte.component() == order.dst) {
      return;
    }
    if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kAllocation)) {
      // Transient destination-frame allocation failure: the page is skipped
      // this attempt and retried with the rest of the order.
      ++stats_.injected_alloc_failures;
      out.failed_transient += size;
      return;
    }
    if (frames_.free_bytes(order.dst) < size) {
      if (reclaim_hopeless || !ReclaimFrom(order.dst, size, /*depth=*/0)) {
        reclaim_hopeless = true;
        out.failed_space += size;
        return;
      }
    }
    if (!frames_.Reserve(order.dst, size).ok()) {
      out.failed_space += size;
      return;
    }
    ComponentId src = pte.component();
    frames_.Release(src, size);
    page_table_.SetComponent(addr, pte, order.dst);
    pte.Clear(Pte::kWriteTracked);
    RecordMigrationBytes(src, size);
    RecordMigrationBytes(order.dst, size);
    out.moved += size;
  });
  stats_.bytes_migrated += out.moved;
  stats_.bytes_failed += out.failed_space;
  if (!out.moved.IsZero()) {
    ++stats_.regions_migrated;
  }
  return out;
}

void MigrationEngine::ArmWriteTracking(const MigrationOrder& order) {
  page_table_.ArmWriteTracking(order.start, order.len);
}

void MigrationEngine::DisarmWriteTracking(const MigrationOrder& order) {
  page_table_.DisarmWriteTracking(order.start, order.len);
}

std::vector<PageCopyRecord> MigrationEngine::SnapshotCopyRecords(
    const MigrationOrder& order) const {
  std::vector<PageCopyRecord> records;
  const PageTable& pt = page_table_;
  pt.ForEachMapping(order.start, order.len, [&](VirtAddr addr, Bytes size, const Pte& pte) {
    if (pte.component() == order.dst) {
      return;  // already resident: nothing to copy
    }
    records.push_back(PageCopyRecord{addr, size, pte.component(), pte.payload});
  });
  return records;
}

void MigrationEngine::AttachObservability(Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    return;
  }
  attempts_id_ = obs_->metrics.Counter("migration/attempts");
  commits_id_ = obs_->metrics.Counter("migration/commits");
  aborts_id_ = obs_->metrics.Counter("migration/aborts");
  retries_id_ = obs_->metrics.Counter("migration/retries");
  bytes_on_component_ids_ = IdMap<ComponentId, MetricId>();
  for (ComponentId c{0}; c < machine_.end_component(); ++c) {
    bytes_on_component_ids_.push_back(
        obs_->metrics.Counter("migration/bytes_on_c" + std::to_string(c.value())));
  }
}

void MigrationEngine::RecordMigrationBytes(ComponentId component, Bytes bytes) {
  counters_.CountMigrationBytes(component, bytes);
  if (obs_ != nullptr) {
    obs_->metrics.Add(bytes_on_component_ids_[component], bytes.value());
  }
}

void MigrationEngine::Bump(MetricId id, u64 delta) {
  if (obs_ != nullptr && delta != 0) {
    obs_->metrics.Add(id, delta);
  }
}

void MigrationEngine::EmitSpan(const char* span_name, SimNanos start, SimNanos duration) {
  if (obs_ != nullptr) {
    obs_->trace.AddSpan(span_name, "migration", start, duration);
  }
}

Status MigrationEngine::Submit(const MigrationOrder& order) {
  return SubmitAttempt(order, /*attempt=*/1);
}

void MigrationEngine::SubmitAll(const std::vector<MigrationOrder>& orders) {
  if (admission_ == nullptr) {
    for (const MigrationOrder& order : orders) {
      (void)Submit(order);  // batch path: per-order outcomes land in stats_
    }
    return;
  }
  // Let the controller re-sequence the interval's batch before the
  // per-order gate; planning here is read-only (no cost charged, no
  // tracking armed), so a shed order leaves no trace.
  std::vector<AdmissionRequest> batch;
  batch.reserve(orders.size());
  for (const MigrationOrder& order : orders) {
    AdmissionRequest request;
    request.order = order;
    ComponentId src = kInvalidComponent;
    PlanCost(order, kind_, &request.bytes, &src);
    request.is_promotion = IsPromotion(order, src);
    request.now = clock_.now();
    batch.push_back(request);
  }
  admission_->Sequence(batch);
  for (const AdmissionRequest& request : batch) {
    (void)Submit(request.order);  // batch path: per-order outcomes land in stats_
  }
}

void MigrationEngine::set_admission(AdmissionController* controller,
                                    const AdmissionTuning& tuning) {
  admission_ = controller;
  history_ = MigrationHistory(tuning);
  budget_ = AdmissionBudget{tuning.interval_budget_bytes, Bytes{}};
}

Bytes MigrationEngine::SplitLenForBudget(const MigrationOrder& order, Bytes admit_bytes) {
  // Per-huge-region to-move bytes, in address order (std::map).
  std::map<VirtAddr, Bytes> chunks;
  page_table_.ForEachMapping(order.start, order.len, [&](VirtAddr addr, Bytes size, Pte& pte) {
    if (pte.component() == order.dst) {
      return;  // already resident: free to keep in the prefix
    }
    chunks[HugeAlignDown(addr)] += size;
  });
  VirtAddr split_end = order.start;
  Bytes moving;
  for (const auto& [chunk, bytes] : chunks) {
    if (moving + bytes > admit_bytes) {
      break;
    }
    moving += bytes;
    split_end = chunk + kHugePageBytes;
  }
  if (split_end <= order.start) {
    return Bytes{};
  }
  return std::min(order.len, Bytes(split_end - order.start));
}

Status MigrationEngine::SubmitAttempt(const MigrationOrder& submitted, u32 attempt) {
  MigrationOrder order = submitted;
  if (order.len.IsZero()) {
    return InvalidArgumentError("zero-length migration order");
  }
  if (order.dst >= machine_.end_component()) {
    return InvalidArgumentError("migration order targets unknown component");
  }
  if (machine_.IsOffline(order.dst)) {
    return UnavailableError("migration target offline: " + machine_.component(order.dst).name);
  }
  // Drop orders overlapping an in-flight async move.
  for (const Pending& p : pending_) {
    if (order.start < p.order.start + p.order.len.value() &&
        p.order.start < order.start + order.len) {
      return AlreadyExistsError("order overlaps an in-flight migration");
    }
  }
  Bytes bytes;
  ComponentId src = kInvalidComponent;
  MechanismCost cost = PlanCost(order, kind_, &bytes, &src);
  if (bytes.IsZero()) {
    return OkStatus();  // already fully resident on dst
  }
  const bool is_promotion = IsPromotion(order, src);
  if (admission_ != nullptr) {
    AdmissionRequest request{order, bytes, is_promotion, attempt, clock_.now()};
    AdmissionDecision decision = admission_->DecideOrder(request, history_, budget_);
    if (decision.verdict == AdmissionVerdict::kAdmit && !decision.admit_bytes.IsZero() &&
        decision.admit_bytes < bytes) {
      // Partial admission: truncate to the largest huge-aligned prefix that
      // fits the granted bytes and shed the rest as rejected. The truncated
      // order re-plans so every downstream cost and byte count matches what
      // actually moves.
      const Bytes split_len = SplitLenForBudget(order, decision.admit_bytes);
      if (split_len.IsZero()) {
        decision.verdict = AdmissionVerdict::kReject;
      } else {
        order.len = split_len;
        const Bytes whole = bytes;
        cost = PlanCost(order, kind_, &bytes, &src);
        ++admission_stats_.split_orders;
        admission_stats_.split_shed_bytes += whole - bytes;
        ++admission_stats_.rejected;
        admission_stats_.rejected_bytes += whole - bytes;
      }
    }
    switch (decision.verdict) {
      case AdmissionVerdict::kAdmit:
        ++admission_stats_.admitted;
        admission_stats_.admitted_bytes += bytes;
        // Only promotions draw on the budget: demotions relieve pressure
        // and blocking them would turn ping-pong into tier overflow.
        if (is_promotion) {
          budget_.admitted_bytes += bytes;
        }
        break;
      case AdmissionVerdict::kDefer:
        // Dropped, not queued: the next interval's policy decision re-derives
        // the order if the region is still worth moving.
        ++admission_stats_.deferred;
        admission_stats_.deferred_bytes += bytes;
        return FailedPreconditionError("admission deferred order");
      case AdmissionVerdict::kReject:
        ++admission_stats_.rejected;
        admission_stats_.rejected_bytes += bytes;
        return ResourceExhaustedError("admission rejected order");
    }
  }
  Bump(attempts_id_);

  if (kind_ != MechanismKind::kMoveMemoryRegions) {
    // Fully synchronous mechanisms: charge and commit now.
    const SimNanos span_start = clock_.now();
    clock_.AdvanceMigration(cost.CriticalNs());
    stats_.critical_ns += cost.CriticalNs();
    stats_.steps += cost.critical;
    if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kMigrationCopy)) {
      // The copy failed after its cost was spent. Nothing was remapped yet,
      // so the rollback leaves sources mapped and frame accounting intact.
      ++stats_.injected_copy_failures;
      ++stats_.rollbacks;
      HandleAbort(order, attempt);
      return UnavailableError("injected copy failure");
    }
    if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kMigrationRemap)) {
      ++stats_.injected_remap_failures;
      ++stats_.rollbacks;
      HandleAbort(order, attempt);
      return UnavailableError("injected remap failure");
    }
    CommitOutcome out = CommitMove(order);
    RecordHistory(order, src, out.moved);
    EmitSpan("migrate", span_start, cost.CriticalNs());
    if (!out.failed_transient.IsZero()) {
      HandleAbort(order, attempt);
      if (out.moved.IsZero()) {
        return UnavailableError("transient allocation failure; retry queued");
      }
    }
    Bump(commits_id_);
    return OkStatus();
  }

  // move_memory_regions: arm dirty tracking now (TLB flushed once), copy in
  // the background, finalize at the deadline.
  const SimNanos arm_start = clock_.now();
  clock_.AdvanceMigration(cost.critical.dirty_tracking_ns);
  stats_.critical_ns += cost.critical.dirty_tracking_ns;
  stats_.steps.dirty_tracking_ns += cost.critical.dirty_tracking_ns;
  ArmWriteTracking(order);
  EmitSpan("migrate_arm", arm_start, cost.critical.dirty_tracking_ns);

  Pending p;
  p.order = order;
  p.submitted_at = clock_.now();
  p.background_ns = cost.BackgroundNs();
  p.complete_at = clock_.now() + p.background_ns;
  p.cost = cost;
  p.attempt = attempt;
  if (MechanismUsesAsyncCopy(kind_)) {
    // Stage the copy from a snapshot of the still-to-move pages, taken while
    // the arming TLB flush is fresh. A tracked write forces the §7.2
    // fallback, so no simulated write can change a page between this
    // snapshot and an async commit, which copies it.
    p.staged_pages = SnapshotCopyRecords(order);
  }
  if (obs_ != nullptr && obs_->async_flows) {
    p.flow_id = next_flow_id_++;
    obs_->trace.AddFlowStart("migrate_window", "migration", p.flow_id, arm_start);
  }
  pending_.push_back(std::move(p));
  return OkStatus();
}

void MigrationEngine::FinishPending(std::size_t index, bool forced_sync,
                                    double remaining_fraction) {
  Pending p = std::move(pending_[index]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));

  SimNanos exposed = p.cost.critical.unmap_remap_ns + p.cost.critical.page_table_ns;
  stats_.steps.unmap_remap_ns += p.cost.critical.unmap_remap_ns;
  stats_.steps.page_table_ns += p.cost.critical.page_table_ns;
  if (forced_sync) {
    // The write-protect fault switched this region to synchronous copy.
    // Pages copied so far are stale and "must be copied again" (§7.2): the
    // full copy lands on the critical path, and the fallback goes through
    // the regular per-page kernel migration path, losing the batched-PTE
    // advantage — write-intensive migrations perform like move_pages().
    SimNanos unbatched_extra = NanosFromDouble(
        static_cast<double>(p.cost.critical.unmap_remap_ns.value()) *
        (1.0 / model_.mmr_pte_batch_factor - 1.0));
    exposed += p.background_ns + unbatched_extra;
    stats_.steps.copy_ns += p.background_ns;
    stats_.steps.unmap_remap_ns += unbatched_extra;
    ++stats_.sync_fallbacks;
    (void)remaining_fraction;
    // The staged pages are stale the moment the tracked write lands: the
    // commit path below drops the staged copy and re-reads the live
    // contents.
    DisarmWriteTracking(p.order);
  } else {
    stats_.background_ns += p.background_ns;
    stats_.steps.allocate_ns += SimNanos{};  // async allocation is off the critical path
    EmitSpan("migrate_copy_async", p.submitted_at, p.background_ns);
  }
  const SimNanos finish_start = clock_.now();
  clock_.AdvanceMigration(exposed);
  stats_.critical_ns += exposed;
  EmitSpan(forced_sync ? "migrate_finish_sync" : "migrate_finish", finish_start, exposed);
  if (p.flow_id != 0 && obs_ != nullptr) {
    // Close the async-flow arrow inside the finish span just emitted.
    obs_->trace.AddFlowEnd("migrate_window", "migration", p.flow_id, finish_start);
  }

  if (injector_ != nullptr) {
    // The finalize step is where an async attempt can die: the device lost
    // the copy, the remap failed, or the target went offline mid-flight.
    // All three roll back identically — staged copy dropped, tracking
    // disarmed, no page moved.
    if (machine_.IsOffline(p.order.dst)) {
      DisarmWriteTracking(p.order);
      ++stats_.rollbacks;
      ++stats_.orders_abandoned;  // offline is permanent: no retry
      Bytes remaining;
      PlanCost(p.order, kind_, &remaining);
      stats_.bytes_abandoned += remaining;
      return;
    }
    if (injector_->ShouldFail(FaultSite::kMigrationCopy)) {
      DisarmWriteTracking(p.order);
      ++stats_.injected_copy_failures;
      ++stats_.rollbacks;
      HandleAbort(p.order, p.attempt);
      return;
    }
    if (injector_->ShouldFail(FaultSite::kMigrationRemap)) {
      DisarmWriteTracking(p.order);
      ++stats_.injected_remap_failures;
      ++stats_.rollbacks;
      HandleAbort(p.order, p.attempt);
      return;
    }
  }
  Bytes still_to_move;
  ComponentId src = kInvalidComponent;
  PlanCost(p.order, kind_, &still_to_move, &src);
  if (MechanismUsesAsyncCopy(kind_)) {
    if (forced_sync) {
      // §7.2 synchronous re-copy: the committed contents are re-read from
      // the live payloads on the critical path (charged above), so the
      // post-write values land on the destination — no lost updates.
      p.staged_pages = SnapshotCopyRecords(p.order);
    }
    // An async commit copies the staged snapshot: no write hit the window
    // (the fault would have forced sync), so it still holds the live
    // payloads.
    const RegionCopyResult copy = CopyRegion(p.staged_pages);
    stats_.copy_checksum = FoldCopyChecksum(stats_.copy_checksum, copy.checksum);
    if (forced_sync) {
      stats_.fallback_copy_bytes += copy.bytes;
    } else {
      stats_.async_copy_bytes += copy.bytes;
      ++stats_.async_copies;
    }
  }
  CommitOutcome out = CommitMove(p.order);
  RecordHistory(p.order, src, out.moved);
  if (!out.failed_transient.IsZero()) {
    HandleAbort(p.order, p.attempt);
  } else {
    Bump(commits_id_);
  }
}

void MigrationEngine::HandleAbort(const MigrationOrder& order, u32 attempt) {
  Bump(aborts_id_);
  Bytes remaining;
  PlanCost(order, kind_, &remaining);  // bytes still off the target
  u32 aborts = ++interval_aborts_[order.start];
  if (aborts >= retry_policy_.thrash_abort_limit) {
    // Thrash guard: this region keeps aborting inside one interval window
    // (a write storm or a flapping device); stop burning migration
    // bandwidth on it until the next interval's policy decision.
    ++stats_.thrash_aborts;
    ++stats_.orders_abandoned;
    stats_.bytes_abandoned += remaining;
    return;
  }
  if (attempt >= retry_policy_.max_attempts) {
    ++stats_.orders_abandoned;
    stats_.bytes_abandoned += remaining;
    return;
  }
  // initial_backoff_ns << (attempt - 1), saturating at max_backoff_ns: the
  // shifted-out comparison detects overflow without a doubling loop.
  const u64 initial = retry_policy_.initial_backoff_ns.value();
  const u64 max = retry_policy_.max_backoff_ns.value();
  const u32 shift = attempt - 1;
  SimNanos backoff = SimNanos(max);
  if (initial != 0 && shift < 64 && initial <= (max >> shift)) {
    backoff = SimNanos(initial << shift);
  } else if (initial == 0) {
    backoff = SimNanos{};
  }
  retry_queue_.push_back(RetryEntry{order, attempt + 1, clock_.now() + backoff});
}

void MigrationEngine::ProcessRetries() {
  if (retry_queue_.empty()) {
    return;
  }
  // One pass over the entries present at entry; resubmitted orders that
  // abort again re-queue behind them with a later deadline and are seen
  // next Poll, so this cannot loop.
  std::size_t n = retry_queue_.size();
  for (std::size_t i = 0; i < n && !retry_queue_.empty(); ++i) {
    RetryEntry e = retry_queue_.front();
    retry_queue_.pop_front();
    if (e.ready_at > clock_.now()) {
      retry_queue_.push_back(e);  // still backing off; rotate past it
      continue;
    }
    ++stats_.retries;
    Bump(retries_id_);
    // The retry's outcome is tracked via stats_ and retry_queue_.
    (void)SubmitAttempt(e.order, e.attempt);
  }
}

void MigrationEngine::BeginInterval() {
  interval_aborts_.clear();
  history_.EndInterval();
  budget_.admitted_bytes = Bytes{};
  if (admission_ != nullptr) {
    admission_->BeginInterval(clock_.now(), budget_);
  }
}

void MigrationEngine::Poll() {
  for (std::size_t i = 0; i < pending_.size();) {
    if (pending_[i].complete_at <= clock_.now()) {
      FinishPending(i, /*forced_sync=*/false, 0.0);
      // FinishPending erased element i; stay at the same index.
    } else {
      ++i;
    }
  }
  ProcessRetries();
}

void MigrationEngine::Flush() {
  while (!pending_.empty()) {
    FinishPending(0, /*forced_sync=*/false, 0.0);
  }
  // Run down the retry backlog ignoring backoff deadlines: each attempt
  // either commits, re-queues with a higher attempt number (bounded by
  // max_attempts and the thrash guard), or is abandoned.
  while (!retry_queue_.empty()) {
    RetryEntry e = retry_queue_.front();
    retry_queue_.pop_front();
    ++stats_.retries;
    Bump(retries_id_);
    // The retry's outcome is tracked via stats_ and retry_queue_.
    (void)SubmitAttempt(e.order, e.attempt);
    while (!pending_.empty()) {
      FinishPending(0, /*forced_sync=*/false, 0.0);
    }
  }
}

void MigrationEngine::OnWriteTrackFault(VirtAddr addr, u32 /*socket*/) {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    if (addr >= p.order.start && addr < p.order.start + p.order.len.value()) {
      double elapsed = static_cast<double>((clock_.now() - p.submitted_at).value());
      double remaining = p.background_ns.IsZero()
                             ? 0.0
                             : 1.0 - elapsed / static_cast<double>(p.background_ns.value());
      FinishPending(i, /*forced_sync=*/true, remaining);
      return;
    }
  }
}

void MigrationEngine::OnTierFault(const TierFaultEvent& event) {
  const ComponentId component = event.component;
  MTM_CHECK_LT(component.value(), machine_.num_components());
  if (!event.offline) {
    return;  // bandwidth derates only change costs; the Machine holds them
  }
  // Roll back in-flight orders targeting the dead component.
  for (std::size_t i = 0; i < pending_.size();) {
    if (pending_[i].order.dst == component) {
      const MigrationOrder order = pending_[i].order;
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      DisarmWriteTracking(order);
      ++stats_.rollbacks;
      ++stats_.orders_abandoned;  // offline is permanent: no retry
      Bytes remaining;
      PlanCost(order, kind_, &remaining);
      stats_.bytes_abandoned += remaining;
    } else {
      ++i;
    }
  }
  // Abandon queued retries for it.
  for (auto it = retry_queue_.begin(); it != retry_queue_.end();) {
    if (it->order.dst == component) {
      ++stats_.orders_abandoned;
      it = retry_queue_.erase(it);
    } else {
      ++it;
    }
  }
  DrainComponent(component);
}

Bytes MigrationEngine::DrainComponent(ComponentId component) {
  Bytes drained;
  Bytes failed;
  const u32 home = machine_.component(component).home_socket;
  const auto& order = machine_.TierOrder(home);
  const u32 rank = machine_.TierRank(home, component).value();
  // Candidate targets from the home-socket view: next lower tiers first (a
  // dead slow device's pages should not crowd the fast tiers), then faster
  // tiers as a last resort.
  std::vector<ComponentId> targets;
  for (u32 r = rank + 1; r < order.size(); ++r) {
    targets.push_back(order[r]);
  }
  for (u32 r = rank; r > 0; --r) {
    targets.push_back(order[r - 1]);
  }
  // The drain is a synchronous kernel sweep, like reclaim demotion.
  const MechanismKind k =
      kind_ == MechanismKind::kMoveMemoryRegions ? MechanismKind::kMmrSync : kind_;
  // Bitmask of targets whose reclaim already failed this drain: each reclaim
  // rescans the whole address space, and draining only adds pages to them.
  u32 reclaim_hopeless = 0;
  for (const Vma& vma : address_space_.vmas()) {
    page_table_.ForEachMapping(vma.start, vma.len, [&](VirtAddr addr, Bytes size, Pte& pte) {
      if (pte.component() != component) {
        return;
      }
      for (ComponentId dst : targets) {
        if (machine_.IsOffline(dst)) {
          continue;
        }
        if (frames_.free_bytes(dst) < size) {
          if ((reclaim_hopeless & (1u << dst.value())) != 0 ||
              !ReclaimFrom(dst, size, /*depth=*/0)) {
            reclaim_hopeless |= 1u << dst.value();
            continue;
          }
        }
        if (!frames_.Reserve(dst, size).ok()) {
          continue;
        }
        u64 base = size == kHugePageBytes ? 0 : 1;
        u64 huge = size == kHugePageBytes ? 1 : 0;
        MechanismCost c =
            ComputeMechanismCost(k, model_, machine_, home, component, dst, base, huge);
        clock_.AdvanceMigration(c.CriticalNs());
        stats_.critical_ns += c.CriticalNs();
        stats_.steps += c.critical;
        frames_.Release(component, size);
        page_table_.SetComponent(addr, pte, dst);
        pte.Clear(Pte::kWriteTracked);
        RecordMigrationBytes(component, size);
        RecordMigrationBytes(dst, size);
        drained += size;
        return;
      }
      failed += size;
    });
  }
  ++stats_.tier_drains;
  stats_.drained_bytes += drained;
  stats_.drain_failed_bytes += failed;
  return drained;
}

Status MigrationEngine::VerifyInvariants() const {
  if (frames_.total_used() != page_table_.mapped_bytes()) {
    return InternalError("frame accounting diverged from page table: used=" +
                         std::to_string(frames_.total_used().value()) +
                         " mapped=" + std::to_string(page_table_.mapped_bytes().value()));
  }
  IdMap<ComponentId, Bytes> resident(machine_.num_components());
  bool bad_component = false;
  const PageTable& pt = page_table_;
  for (const Vma& vma : address_space_.vmas()) {
    pt.ForEachMapping(vma.start, vma.len, [&](VirtAddr, Bytes size, const Pte& pte) {
      if (pte.component() < machine_.end_component()) {
        resident[pte.component()] += size;
      } else {
        bad_component = true;
      }
    });
  }
  if (bad_component) {
    return InternalError("mapped page references an unknown component");
  }
  if (Status counts = page_table_.AuditResidencyCounts(); !counts.ok()) {
    return counts;
  }
  for (ComponentId c{0}; c < machine_.end_component(); ++c) {
    if (resident[c] != frames_.used(c)) {
      return InternalError("component " + machine_.component(c).name +
                           " accounting diverged: resident=" +
                           std::to_string(resident[c].value()) +
                           " reserved=" + std::to_string(frames_.used(c).value()));
    }
    if (frames_.used(c) > frames_.capacity(c)) {
      return InternalError("component " + machine_.component(c).name + " over capacity");
    }
    if (machine_.IsOffline(c) && !resident[c].IsZero() && stats_.drain_failed_bytes.IsZero()) {
      return InternalError("offline component " + machine_.component(c).name +
                           " still holds " + std::to_string(resident[c].value()) + " bytes");
    }
  }
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    for (std::size_t j = i + 1; j < pending_.size(); ++j) {
      const MigrationOrder& a = pending_[i].order;
      const MigrationOrder& b = pending_[j].order;
      if (a.start < b.start + b.len && b.start < a.start + a.len) {
        return InternalError("in-flight migrations overlap");
      }
    }
  }
  return OkStatus();
}

}  // namespace mtm
