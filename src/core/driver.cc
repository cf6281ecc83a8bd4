#include "src/core/driver.h"

#include <array>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/strong_types.h"
#include "src/common/types.h"
#include "src/mem/address_space.h"
#include "src/migration/admission/admission.h"
#include "src/migration/policy.h"
#include "src/obs/metric_id.h"
#include "src/obs/trace.h"
#include "src/profiling/profiler.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/page_table.h"
#include "src/workloads/workload_factory.h"

namespace mtm {

void PrefaultWorkingSet(Solution& solution) {
  u32 rr = 0;
  for (const Vma& vma : solution.address_space().vmas()) {
    if (!vma.prefault) {
      continue;  // grows at runtime (e.g. append-only history)
    }
    solution.engine().Prefault(vma.start, vma.len, vma.thp, rr, solution.thread_sockets());
    rr += static_cast<u32>(vma.len / (vma.thp ? kHugePageBytes : kPageBytes));
  }
}

RunResult RunSimulation(Workload& workload, Solution& solution,
                        const ExperimentConfig& config, const RunOptions& options) {
  RunResult result;
  result.solution = solution.name();
  result.workload = workload.name();
  result.footprint_bytes = workload.params().footprint_bytes;
  if (solution.policy() != nullptr) {
    result.policy = solution.policy_name();
    result.policy_overridden = solution.policy_overridden();
  }

  // Observability wiring: attach the registry to every instrumented
  // component, then intern the driver's own metric ids once up front.
  Observability* obs = options.obs;
  MetricId interval_id = kInvalidMetricId;
  MetricId accesses_id = kInvalidMetricId;
  MetricId hot_bytes_id = kInvalidMetricId;
  MetricId app_ns_id = kInvalidMetricId;
  MetricId profiling_ns_id = kInvalidMetricId;
  MetricId migration_ns_id = kInvalidMetricId;
  MetricId rollbacks_id = kInvalidMetricId;
  MetricId abandoned_id = kInvalidMetricId;
  MetricId sync_fallbacks_id = kInvalidMetricId;
  MetricId thrash_id = kInvalidMetricId;
  MetricId retry_backlog_id = kInvalidMetricId;
  MetricId async_copies_id = kInvalidMetricId;
  MetricId fallback_copy_bytes_id = kInvalidMetricId;
  MetricId admitted_id = kInvalidMetricId;
  MetricId deferred_id = kInvalidMetricId;
  MetricId rejected_id = kInvalidMetricId;
  MetricId flip_bytes_id = kInvalidMetricId;
  MetricId pingpong_id = kInvalidMetricId;
  IdMap<ComponentId, MetricId> app_access_ids;
  IdMap<ComponentId, MetricId> migration_bytes_ids;
  // Resilience and admission metrics join the timeline only when the run
  // can produce them (chaos run, or a non-vanilla controller armed): the
  // timeline snapshots every interned metric, so interning them on
  // fault-free vanilla runs would change the seed goldens' schema.
  const bool admission_active = solution.migration() != nullptr &&
                                solution.migration()->admission() != nullptr &&
                                solution.migration()->admission()->kind() !=
                                    AdmissionKind::kVanilla;
  const bool chaos = solution.fault_injector() != nullptr;
  if (obs != nullptr) {
    if (solution.profiler() != nullptr) {
      solution.profiler()->set_metrics(&obs->metrics);
    }
    if (solution.pebs() != nullptr) {
      solution.pebs()->AttachMetrics(&obs->metrics);
    }
    if (solution.migration() != nullptr) {
      solution.migration()->AttachObservability(obs);
    }
    interval_id = obs->metrics.Counter("driver/intervals");
    accesses_id = obs->metrics.Counter("driver/accesses");
    hot_bytes_id = obs->metrics.Gauge("driver/hot_bytes");
    app_ns_id = obs->metrics.Gauge("time/app_ns");
    profiling_ns_id = obs->metrics.Gauge("time/profiling_ns");
    migration_ns_id = obs->metrics.Gauge("time/migration_ns");
    rollbacks_id = obs->metrics.Gauge("migration/rollbacks");
    abandoned_id = obs->metrics.Gauge("migration/orders_abandoned");
    sync_fallbacks_id = obs->metrics.Gauge("migration/sync_fallbacks");
    if (chaos || admission_active) {
      thrash_id = obs->metrics.Gauge("migration/thrash_aborts");
      retry_backlog_id = obs->metrics.Gauge("migration/retry_backlog");
    }
    if (obs->async_flows) {
      // Copy-engine gauges ride the same opt-in as the flow arrows: the
      // timeline snapshots every interned metric, so interning these
      // unconditionally would change the seed goldens' schema.
      async_copies_id = obs->metrics.Gauge("migration/async_copies");
      fallback_copy_bytes_id = obs->metrics.Gauge("migration/fallback_copy_bytes");
    }
    if (admission_active) {
      admitted_id = obs->metrics.Gauge("admission/admitted");
      deferred_id = obs->metrics.Gauge("admission/deferred");
      rejected_id = obs->metrics.Gauge("admission/rejected");
      flip_bytes_id = obs->metrics.Gauge("admission/flip_bytes");
      pingpong_id = obs->metrics.Gauge("admission/max_pingpong_score");
    }
    for (ComponentId c{0}; c < solution.machine().end_component(); ++c) {
      app_access_ids.push_back(
          obs->metrics.Counter("mem/app_accesses_c" + std::to_string(c.value())));
      migration_bytes_ids.push_back(
          obs->metrics.Gauge("mem/migration_bytes_c" + std::to_string(c.value())));
    }
  }

  const SimNanos interval_ns = config.IntervalNs();
  const u32 ticks = std::max<u32>(1, config.mtm.num_scans);
  SimClock& clock = solution.clock();
  AccessEngine& engine = solution.engine();
  MemCounters& counters = solution.counters();

  PolicyContext ctx;
  ctx.machine = &solution.machine();
  ctx.page_table = &solution.page_table();
  ctx.frames = &solution.frames();
  ctx.interval_ns = interval_ns;
  if (solution.migration() != nullptr) {
    ctx.history = &solution.migration()->history();
  }

  constexpr u32 kBatch = 2048;
  std::array<MemAccess, kBatch> batch;

  PrefaultWorkingSet(solution);

  u64 fast_tier_accesses_prev = 0;
  const ComponentId fast_tier = solution.machine().TierOrder(0)[0];

  // Chaos wiring: fire scheduled tier-degradation events once their
  // simulated time passes. The Machine's health state flips first (so cost
  // models and policies see it), then the migration engine reacts — rolling
  // back in-flight orders targeting a dead component and draining it.
  FaultInjector* injector = solution.fault_injector();
  auto apply_due_faults = [&]() {
    if (injector == nullptr) {
      return;
    }
    for (const TierFaultEvent& event : injector->TakeDue(clock.now())) {
      MTM_CHECK_LT(event.component.value(), solution.machine().num_components());
      ++result.faults.tier_events;
      if (event.offline) {
        solution.mutable_machine().SetOffline(event.component, true);
      } else {
        solution.mutable_machine().SetBandwidthDerate(event.component, event.bandwidth_derate);
      }
      if (solution.migration() != nullptr) {
        solution.migration()->OnTierFault(event);
      }
    }
  };
  result.faults.active = injector != nullptr;
  apply_due_faults();

  RunningStats hot_bytes_stats;
  RunningStats merged_stats;
  RunningStats split_stats;
  RunningStats regions_stats;

  for (u32 interval = 0; interval < config.num_intervals; ++interval) {
    if (config.target_accesses != 0 && result.total_accesses >= config.target_accesses) {
      break;
    }
    if (solution.profiler() != nullptr) {
      solution.profiler()->OnIntervalStart();
    }
    if (solution.migration() != nullptr) {
      solution.migration()->BeginInterval();  // fresh thrash-guard window
    }
    const SimNanos interval_start = clock.now();
    for (u32 tick = 0; tick < ticks; ++tick) {
      const SimNanos tick_end =
          interval_start + (static_cast<u64>(tick) + 1) * interval_ns / ticks;
      apply_due_faults();
      while (clock.now() < tick_end) {
        u32 n = workload.NextBatch(batch.data(), kBatch);
        engine.ApplyBatch(batch.data(), n, solution.thread_sockets());
        result.total_accesses += n;
        if (solution.migration() != nullptr) {
          solution.migration()->Poll();
        }
      }
      if (solution.profiler() != nullptr) {
        MTM_TRACE_SCOPE(obs != nullptr ? obs->wall_registry() : nullptr, "scan_tick");
        solution.profiler()->OnScanTick(tick);
      }
    }

    IntervalRecord record;
    record.fast_tier_accesses = counters.app_accesses(fast_tier) - fast_tier_accesses_prev;
    fast_tier_accesses_prev = counters.app_accesses(fast_tier);

    if (solution.profiler() != nullptr) {
      MTM_TRACE_SCOPE(obs != nullptr ? obs->wall_registry() : nullptr, "interval_end");
      const SimNanos profiling_start = clock.now();
      ProfileOutput profile = solution.profiler()->OnIntervalEnd();
      clock.AdvanceProfiling(profile.profiling_cost_ns);
      if (obs != nullptr) {
        // The interval's PTE-scan work is charged here as one modeled cost;
        // the span renders it on the profiling track in simulated time.
        obs->trace.AddSpan("pte_scan", "profiling", profiling_start,
                           profile.profiling_cost_ns);
        obs->metrics.Set(hot_bytes_id, static_cast<double>(profile.hot_bytes.value()));
        obs->trace.AddCounter("hot_bytes", clock.now(),
                              static_cast<double>(profile.hot_bytes.value()));
      }
      if (options.evaluate_quality) {
        std::vector<HotRange> truth = workload.TrueHotRanges();
        if (!truth.empty()) {
          record.quality = Oracle::Evaluate(std::move(truth), profile);
        }
      }
      record.hot_bytes = profile.hot_bytes;
      record.regions_merged = profile.regions_merged;
      record.regions_split = profile.regions_split;
      record.num_regions = profile.num_regions;
      hot_bytes_stats.Add(static_cast<double>(profile.hot_bytes.value()));
      merged_stats.Add(static_cast<double>(profile.regions_merged));
      split_stats.Add(static_cast<double>(profile.regions_split));
      regions_stats.Add(static_cast<double>(profile.num_regions));

      // Decide before exporting, submit after: the exporters see exactly
      // the residency and history state the policy consumed, plus the
      // orders it produced, before migration perturbs either.
      ctx.now = clock.now();
      const bool deciding = solution.policy() != nullptr && solution.migration() != nullptr;
      std::vector<MigrationOrder> orders;
      if (deciding) {
        orders = solution.policy()->Decide(profile, ctx);
      }
      if (options.feature_export != nullptr || options.heatmap_export != nullptr) {
        std::vector<FeatureVector> features = BuildFeatures(profile, ctx);
        if (options.heatmap_export != nullptr) {
          options.heatmap_export->OnInterval(interval, clock.now(), profile, features);
        }
        if (options.feature_export != nullptr) {
          options.feature_export->OnInterval(interval, clock.now(), profile, features, orders,
                                             ctx);
        }
      }
      if (deciding) {
        solution.migration()->SubmitAll(orders);
      }
    }
    record.end_time_ns = clock.now();
    if (obs != nullptr) {
      obs->trace.AddSpan("interval", "driver", interval_start, clock.now() - interval_start);
      obs->metrics.Add(interval_id);
      obs->metrics.Add(accesses_id, result.total_accesses - obs->metrics.counter(accesses_id));
      obs->metrics.Set(app_ns_id, static_cast<double>(clock.app_ns().value()));
      obs->metrics.Set(profiling_ns_id, static_cast<double>(clock.profiling_ns().value()));
      obs->metrics.Set(migration_ns_id, static_cast<double>(clock.migration_ns().value()));
      for (ComponentId c{0}; c < solution.machine().end_component(); ++c) {
        MetricId id = app_access_ids[c];
        u64 cumulative = counters.app_accesses(c);
        obs->metrics.Add(id, cumulative - obs->metrics.counter(id));
        obs->metrics.Set(migration_bytes_ids[c],
                         static_cast<double>(counters.migration_bytes(c).value()));
      }
      if (solution.migration() != nullptr) {
        const MigrationStats& ms = solution.migration()->stats();
        obs->metrics.Set(rollbacks_id, static_cast<double>(ms.rollbacks));
        obs->metrics.Set(abandoned_id, static_cast<double>(ms.orders_abandoned));
        obs->metrics.Set(sync_fallbacks_id, static_cast<double>(ms.sync_fallbacks));
        if (obs->async_flows) {
          obs->metrics.Set(async_copies_id, static_cast<double>(ms.async_copies));
          obs->metrics.Set(fallback_copy_bytes_id,
                           static_cast<double>(ms.fallback_copy_bytes.value()));
        }
        if (chaos || admission_active) {
          obs->metrics.Set(thrash_id, static_cast<double>(ms.thrash_aborts));
          obs->metrics.Set(retry_backlog_id,
                           static_cast<double>(solution.migration()->retry_backlog()));
        }
        if (admission_active) {
          const AdmissionStats& as = solution.migration()->admission_stats();
          obs->metrics.Set(admitted_id, static_cast<double>(as.admitted));
          obs->metrics.Set(deferred_id, static_cast<double>(as.deferred));
          obs->metrics.Set(rejected_id, static_cast<double>(as.rejected));
          obs->metrics.Set(flip_bytes_id, static_cast<double>(as.flip_bytes.value()));
          obs->metrics.Set(pingpong_id,
                           solution.migration()->history().MaxPingPongScore());
        }
      }
      obs->timeline.Snapshot(interval, clock.now(), obs->metrics);
    }
    if (options.record_intervals) {
      result.intervals.push_back(record);
    }
    if (injector != nullptr && solution.migration() != nullptr) {
      // Chaos runs audit transactional consistency after every interval.
      Status audit = solution.migration()->VerifyInvariants();
      if (!audit.ok()) {
        ++result.faults.invariant_violations;
        if (result.faults.first_violation.empty()) {
          result.faults.first_violation = audit.message();
        }
        MTM_LOG(Error) << "invariant violation after interval " << interval << ": "
                       << audit.ToString();
      }
    }
    solution.tracker().ResetEpoch();
  }
  apply_due_faults();  // events scheduled past the last interval still fire

  if (solution.migration() != nullptr) {
    solution.migration()->Flush();
    result.migration_stats = solution.migration()->stats();
    result.admission_stats = solution.migration()->admission_stats();
    if (solution.migration()->admission() != nullptr) {
      result.admission = AdmissionKindName(solution.migration()->admission()->kind());
      result.admission_active = admission_active;
    }
  }
  if (injector != nullptr) {
    result.faults.copy_failures = injector->injected(FaultSite::kMigrationCopy);
    result.faults.remap_failures = injector->injected(FaultSite::kMigrationRemap);
    result.faults.alloc_failures = injector->injected(FaultSite::kAllocation);
    result.faults.pebs_drops = injector->injected(FaultSite::kPebsDrop);
    if (solution.migration() != nullptr) {
      Status audit = solution.migration()->VerifyInvariants();
      if (!audit.ok()) {
        ++result.faults.invariant_violations;
        if (result.faults.first_violation.empty()) {
          result.faults.first_violation = audit.message();
        }
        MTM_LOG(Error) << "invariant violation after flush: " << audit.ToString();
      }
    }
  }
  result.app_ns = clock.app_ns();
  result.profiling_ns = clock.profiling_ns();
  result.migration_ns = clock.migration_ns();
  if (obs != nullptr) {
    obs->metrics.Add(accesses_id, result.total_accesses - obs->metrics.counter(accesses_id));
    obs->metrics.Set(app_ns_id, static_cast<double>(clock.app_ns().value()));
    obs->metrics.Set(profiling_ns_id, static_cast<double>(clock.profiling_ns().value()));
    obs->metrics.Set(migration_ns_id, static_cast<double>(clock.migration_ns().value()));
  }
  for (ComponentId c{0}; c < solution.machine().end_component(); ++c) {
    result.component_app_accesses.push_back(counters.app_accesses(c));
  }
  if (solution.profiler() != nullptr) {
    result.profiler_memory_bytes = solution.profiler()->MemoryOverheadBytes();
  }
  result.avg_hot_bytes = hot_bytes_stats.mean();
  result.avg_regions_merged = merged_stats.mean();
  result.avg_regions_split = split_stats.mean();
  result.avg_num_regions = regions_stats.mean();
  return result;
}

RunResult RunExperiment(const std::string& workload_name, SolutionKind kind,
                        const ExperimentConfig& config, const RunOptions& options) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(workload_name, config.sim_scale, config.num_threads, config.seed);
  Solution solution(kind, config, *workload);
  MTM_CHECK(solution.profiler() != nullptr || SolutionInfoOf(kind).default_policy == nullptr)
      << "solution missing profiler";
  return RunSimulation(*workload, solution, config, options);
}

}  // namespace mtm
