#include "src/core/report.h"

#include <fstream>
#include <sstream>

#include "src/common/units.h"
#include "src/migration/admission/admission.h"
#include "src/migration/migration_engine.h"

namespace mtm {
namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string CsvHeader() {
  return "workload,solution,app_s,profiling_s,migration_s,total_s,accesses,"
         "migrated_bytes,failed_bytes,sync_fallbacks,reclaim_demotions,"
         "profiler_memory_bytes,avg_regions,avg_hot_bytes,"
         "retries,rollbacks,orders_abandoned,drained_bytes,invariant_violations,"
         "async_copies,async_copy_bytes,fallback_copy_bytes,copy_checksum";
}

std::string CsvRow(const RunResult& r) {
  std::ostringstream os;
  os << r.workload << ',' << r.solution << ',' << ToSeconds(r.app_ns) << ','
     << ToSeconds(r.profiling_ns) << ',' << ToSeconds(r.migration_ns) << ','
     << ToSeconds(r.total_ns()) << ',' << r.total_accesses << ','
     << r.migration_stats.bytes_migrated << ',' << r.migration_stats.bytes_failed << ','
     << r.migration_stats.sync_fallbacks << ',' << r.migration_stats.reclaim_demotions << ','
     << r.profiler_memory_bytes << ',' << r.avg_num_regions << ',' << r.avg_hot_bytes << ','
     << r.migration_stats.retries << ',' << r.migration_stats.rollbacks << ','
     << r.migration_stats.orders_abandoned << ',' << r.migration_stats.drained_bytes << ','
     << r.faults.invariant_violations << ',' << r.migration_stats.async_copies << ','
     << r.migration_stats.async_copy_bytes << ',' << r.migration_stats.fallback_copy_bytes << ','
     << r.migration_stats.copy_checksum;
  return os.str();
}

std::string HumanReport(const RunResult& r) {
  std::ostringstream os;
  os << r.workload << " under " << r.solution << "\n";
  if (r.policy_overridden) {
    // Only when --policy swapped the default, so existing reports stay
    // byte-identical.
    os << "  policy: " << r.policy << " (overridden)\n";
  }
  os << "  time: app " << ToSeconds(r.app_ns) << "s, profiling " << ToSeconds(r.profiling_ns)
     << "s, migration " << ToSeconds(r.migration_ns) << "s, total " << ToSeconds(r.total_ns())
     << "s\n";
  os << "  work: " << r.total_accesses << " accesses ("
     << r.AccessesPerSecond() / 1e6 << "M/s simulated)\n";
  os << "  migration: " << ToMiB(r.migration_stats.bytes_migrated) << " MiB moved, "
     << r.migration_stats.regions_migrated << " region moves, "
     << r.migration_stats.sync_fallbacks << " sync fallbacks, "
     << r.migration_stats.reclaim_demotions << " reclaim demotions\n";
  if (r.migration_stats.async_copies > 0 || r.migration_stats.sync_fallbacks > 0) {
    // Staged-copy accounting (move_memory_regions only).
    os << "  async copy: " << r.migration_stats.async_copies << " staged commits ("
       << ToMiB(r.migration_stats.async_copy_bytes) << " MiB), "
       << ToMiB(r.migration_stats.fallback_copy_bytes) << " MiB re-copied sync, checksum "
       << r.migration_stats.copy_checksum << "\n";
  }
  os << "  per-component app accesses:";
  for (std::size_t c = 0; c < r.component_app_accesses.size(); ++c) {
    os << " c" << c << "=" << r.component_app_accesses[c];
  }
  os << "\n";
  if (r.admission_active) {
    const AdmissionStats& a = r.admission_stats;
    os << "  admission (" << r.admission << "): " << a.admitted << " admitted / " << a.deferred
       << " deferred / " << a.rejected << " rejected (" << ToMiB(a.admitted_bytes)
       << " MiB in, " << ToMiB(a.deferred_bytes + a.rejected_bytes) << " MiB shed), "
       << a.flip_moves << " flips (" << ToMiB(a.flip_bytes) << " MiB)\n";
    if (a.split_orders > 0) {
      os << "  partial admission: " << a.split_orders << " orders split at the budget ("
         << ToMiB(a.split_shed_bytes) << " MiB shed past the boundary)\n";
    }
  }
  if (r.faults.active) {
    const MigrationStats& m = r.migration_stats;
    os << "  resilience: " << r.faults.copy_failures << " copy / " << r.faults.remap_failures
       << " remap / " << r.faults.alloc_failures << " alloc faults injected, "
       << r.faults.pebs_drops << " pebs drops, " << m.rollbacks << " rollbacks, " << m.retries
       << " retries, " << m.orders_abandoned << " abandoned ("
       << m.thrash_aborts << " thrash)\n";
    if (r.faults.tier_events > 0) {
      os << "  degradation: " << r.faults.tier_events << " tier events, " << m.tier_drains
         << " drains, " << ToMiB(m.drained_bytes) << " MiB drained, "
         << ToMiB(m.drain_failed_bytes) << " MiB stranded\n";
    }
    os << "  audit: " << r.faults.invariant_violations << " invariant violations";
    if (!r.faults.first_violation.empty()) {
      os << " (first: " << r.faults.first_violation << ")";
    }
    os << "\n";
  }
  if (!r.profiler_memory_bytes.IsZero()) {
    os << "  profiler metadata: "
       << static_cast<double>(r.profiler_memory_bytes.value()) / 1024.0 << " KiB ("
       << 100.0 * static_cast<double>(r.profiler_memory_bytes.value()) /
              static_cast<double>(r.footprint_bytes.value())
       << "% of footprint)\n";
  }
  return os.str();
}

std::string JsonReport(const RunResult& r) {
  std::ostringstream os;
  os << "{";
  os << "\"workload\":\"" << EscapeJson(r.workload) << "\",";
  os << "\"solution\":\"" << EscapeJson(r.solution) << "\",";
  if (r.policy_overridden) {
    // Emitted only when --policy swapped the solution's default policy, so
    // existing JSON stays byte-identical.
    os << "\"policy\":\"" << EscapeJson(r.policy) << "\",";
  }
  os << "\"app_s\":" << ToSeconds(r.app_ns) << ",";
  os << "\"profiling_s\":" << ToSeconds(r.profiling_ns) << ",";
  os << "\"migration_s\":" << ToSeconds(r.migration_ns) << ",";
  os << "\"total_s\":" << ToSeconds(r.total_ns()) << ",";
  os << "\"accesses\":" << r.total_accesses << ",";
  os << "\"migrated_bytes\":" << r.migration_stats.bytes_migrated << ",";
  os << "\"sync_fallbacks\":" << r.migration_stats.sync_fallbacks << ",";
  os << "\"reclaim_demotions\":" << r.migration_stats.reclaim_demotions << ",";
  os << "\"profiler_memory_bytes\":" << r.profiler_memory_bytes << ",";
  os << "\"component_app_accesses\":[";
  for (std::size_t c = 0; c < r.component_app_accesses.size(); ++c) {
    os << (c == 0 ? "" : ",") << r.component_app_accesses[c];
  }
  os << "]";
  if (r.admission_active) {
    // Emitted only when a non-vanilla controller was armed, so existing
    // (and vanilla) JSON stays byte-identical.
    const AdmissionStats& a = r.admission_stats;
    os << ",\"admission\":{";
    os << "\"controller\":\"" << EscapeJson(r.admission) << "\",";
    os << "\"admitted\":" << a.admitted << ",";
    os << "\"deferred\":" << a.deferred << ",";
    os << "\"rejected\":" << a.rejected << ",";
    os << "\"admitted_bytes\":" << a.admitted_bytes << ",";
    os << "\"deferred_bytes\":" << a.deferred_bytes << ",";
    os << "\"rejected_bytes\":" << a.rejected_bytes << ",";
    os << "\"flip_moves\":" << a.flip_moves << ",";
    os << "\"flip_bytes\":" << a.flip_bytes << ",";
    os << "\"thrash_aborts\":" << r.migration_stats.thrash_aborts;
    if (a.split_orders > 0) {
      // Partial-admission fields appear only when a split happened, so the
      // ppt/vanilla goldens keep their exact bytes.
      os << ",\"split_orders\":" << a.split_orders;
      os << ",\"split_shed_bytes\":" << a.split_shed_bytes;
    }
    os << "}";
  }
  if (r.faults.active) {
    // Emitted only for chaos runs so fault-free JSON stays byte-identical
    // to builds without the fault framework.
    const MigrationStats& m = r.migration_stats;
    os << ",\"faults\":{";
    os << "\"copy_failures\":" << r.faults.copy_failures << ",";
    os << "\"remap_failures\":" << r.faults.remap_failures << ",";
    os << "\"alloc_failures\":" << r.faults.alloc_failures << ",";
    os << "\"pebs_drops\":" << r.faults.pebs_drops << ",";
    os << "\"tier_events\":" << r.faults.tier_events << ",";
    os << "\"rollbacks\":" << m.rollbacks << ",";
    os << "\"retries\":" << m.retries << ",";
    os << "\"orders_abandoned\":" << m.orders_abandoned << ",";
    os << "\"bytes_abandoned\":" << m.bytes_abandoned << ",";
    os << "\"thrash_aborts\":" << m.thrash_aborts << ",";
    os << "\"tier_drains\":" << m.tier_drains << ",";
    os << "\"drained_bytes\":" << m.drained_bytes << ",";
    os << "\"drain_failed_bytes\":" << m.drain_failed_bytes << ",";
    os << "\"invariant_violations\":" << r.faults.invariant_violations;
    if (!r.faults.first_violation.empty()) {
      os << ",\"first_violation\":\"" << EscapeJson(r.faults.first_violation) << "\"";
    }
    os << "}";
  }
  if (!r.intervals.empty()) {
    os << ",\"intervals\":[";
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
      const IntervalRecord& iv = r.intervals[i];
      os << (i == 0 ? "" : ",") << "{\"end_s\":" << ToSeconds(iv.end_time_ns)
         << ",\"fast_tier_accesses\":" << iv.fast_tier_accesses
         << ",\"hot_bytes\":" << iv.hot_bytes << ",\"regions\":" << iv.num_regions
         << ",\"recall\":" << iv.quality.recall << ",\"accuracy\":" << iv.quality.accuracy
         << "}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

Status WriteObservabilityFiles(const Observability& obs, const std::string& metrics_path,
                               const std::string& trace_path) {
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    if (!out) {
      return UnavailableError("cannot open metrics output: " + metrics_path);
    }
    obs.timeline.WriteJsonl(out, obs.metrics);
    if (!out) {
      return UnavailableError("short write to metrics output: " + metrics_path);
    }
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::trunc);
    if (!out) {
      return UnavailableError("cannot open trace output: " + trace_path);
    }
    obs.trace.WriteChromeTrace(out);
    if (!out) {
      return UnavailableError("short write to trace output: " + trace_path);
    }
  }
  return Status::Ok();
}

std::string Render(const RunResult& result, ReportFormat format) {
  switch (format) {
    case ReportFormat::kHuman:
      return HumanReport(result);
    case ReportFormat::kCsv:
      return CsvRow(result);
    case ReportFormat::kJson:
      return JsonReport(result);
  }
  return "";
}

}  // namespace mtm
