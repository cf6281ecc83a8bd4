// mtmsim — command-line runner for the MTM simulation framework.
//
// Runs one workload under one page-management solution and reports the
// result in human, CSV, or JSON form.
//
// Usage:
//   mtmsim --workload=gups --solution=mtm
//   mtmsim --workload=voltdb --solution=tiered-autonuma --format=csv
//   mtmsim --workload=gups --solution=mtm --two-tier --threads=16
//
// Flags (defaults in brackets):
//   --workload=NAME     gups|voltdb|cassandra|bfs|sssp|spark|
//                       pingpong (adversarial admission microbench)  [gups]
//   --solution=NAME     first-touch|hmc|vanilla-tiered-autonuma|
//                       tiered-autonuma|autotiering|hemem|mtm|
//                       thermostat+mtm-migration|autonuma+mtm-migration [mtm]
//   --scale=N           capacity/interval scale divisor              [512]
//   --threads=N         application threads                          [8]
//   --intervals=N       max profiling intervals                      [400]
//   --accesses=N        fixed work (0 = run all intervals)           [30000000]
//   --overhead=F        profiling overhead target                    [0.05]
//   --alpha=F           EMA weight (Equation 2)                      [0.5]
//   --num-scans=N       PTE scans per sample per interval            [3]
//   --two-tier          use the single-socket DRAM+PM machine        [false]
//   --spread-threads    spread threads over both sockets             [false]
//   --no-pebs           disable performance-counter assistance       [false]
//   --sync-migration    disable asynchronous page copy               [false]
//   --admission=NAME    migration admission controller               [vanilla]
//                       vanilla: admit-all (byte-identical to no stage)
//                       ppt: ping-pong throttling, exponential
//                       re-promotion backoff; bandwidth: per-interval
//                       byte budget, hottest promotions first
//   --admission-budget-mb=N  bandwidth budget per interval
//                       (0 = the promote batch N)                     [0]
//   --policy=NAME       override the solution's tiering policy with any
//                       registered one: none|mtm|logistic|autonuma|
//                       vanilla-autonuma|autotiering|hemem            [default]
//   --policy-features-out=PATH  per-region training rows (JSONL):
//                       features + policy action + next-interval label [off]
//   --heatmap-out=PATH  per-interval region hotness heatmap (JSONL)   [off]
//   --seed=N            deterministic seed                           [42]
//   --fault_spec=S      chaos spec, ';'-separated clauses            [none]
//                       copy_fail:p=P | remap_fail:p=P | alloc_fail:p=P |
//                       pebs_drop:p=P | tier_derate:c=C,at=T,f=F |
//                       tier_offline:c=C,at=T   (T accepts ns/us/ms/s)
//                       e.g. "copy_fail:p=0.01;tier_offline:c=3,at=100ms"
//   --format=F          human|csv|json                               [human]
//   --record-intervals  include per-interval records (json)          [false]
//   --metrics-out=PATH  write per-interval metrics timeline (JSONL)  [off]
//   --trace-out=PATH    write Chrome trace_event JSON (Perfetto)     [off]
//   --trace-flows       add async-flow arrows linking migrate_arm to
//                       the matching finish span (needs --trace-out) [false]
//
// Every argv error exits with status 2 before anything runs, after mtmsim
// prints it: an unknown flag, a malformed number (--alpha=abc, --seed=-1),
// a count that does not fit 32 bits (--threads=4294967296), zero --threads,
// --num-scans or --intervals, a --scale that leaves the workload below its
// minimum footprint, a memory component below one page, or the workload's
// pages more than the solution's placement may use (PM alone for hmc), an
// unknown --workload, --solution, --admission, --policy or --format name,
// or a --fault_spec that does not parse or names a component the machine
// lacks (c=0..3, or c=0..1 with --two-tier).
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/migration/admission/admission.h"
#include "src/migration/features.h"
#include "src/migration/mechanism.h"
#include "src/migration/policy_registry.h"
#include "src/obs/obs.h"
#include "src/sim/machine.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factory.h"

int main(int argc, char** argv) {
  mtm::FlagSet flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf("see the header of tools/mtmsim.cc for flag documentation\n");
    return 0;
  }

  mtm::ExperimentConfig config;
  config.sim_scale = flags.GetU64("scale", 512);
  config.num_threads = flags.GetU32("threads", 8);
  config.num_intervals = flags.GetU32("intervals", 400);
  config.target_accesses = flags.GetU64("accesses", 30'000'000);
  config.seed = flags.GetU64("seed", 42);
  config.two_tier = flags.GetBool("two-tier", false);
  config.spread_threads = flags.GetBool("spread-threads", false);
  config.mtm.overhead_fraction = flags.GetDouble("overhead", 0.05);
  config.mtm.alpha = flags.GetDouble("alpha", 0.5);
  config.mtm.num_scans = flags.GetU32("num-scans", 3);
  config.mtm.use_pebs = !flags.GetBool("no-pebs", false);
  if (flags.GetBool("sync-migration", false)) {
    config.mtm.mechanism = mtm::MechanismKind::kMmrSync;
  }
  std::string workload = flags.GetString("workload", "gups");
  if (!mtm::IsKnownWorkload(workload)) {
    std::fprintf(stderr, "bad --workload: %s (see --help)\n", workload.c_str());
    return 2;
  }
  // Values that parse but that no run can be built with.
  for (const auto& [name, value] : {std::pair<const char*, mtm::u32>{"threads", config.num_threads},
                                    {"num-scans", config.mtm.num_scans},
                                    {"intervals", config.num_intervals}}) {
    if (value == 0) {
      std::fprintf(stderr, "bad --%s: 0 is out of range (want at least 1)\n", name);
      return 2;
    }
  }
  if (mtm::Status status = mtm::CheckWorkloadScale(workload, config.sim_scale); !status.ok()) {
    std::fprintf(stderr, "bad --scale: %s\n", status.message().c_str());
    return 2;
  }
  const mtm::Machine machine = config.two_tier ? mtm::Machine::TwoTier(config.sim_scale)
                                               : mtm::Machine::OptaneFourTier(config.sim_scale);
  for (mtm::ComponentId c{0}; c < machine.end_component(); ++c) {
    if (machine.component(c).capacity_bytes < mtm::kPageBytes) {
      std::fprintf(stderr, "bad --scale: %llu leaves %s smaller than a page\n",
                   static_cast<unsigned long long>(config.sim_scale),
                   machine.component(c).name.c_str());
      return 2;
    }
  }
  std::string admission_name = flags.GetString("admission", "vanilla");
  if (!mtm::AdmissionKindFromName(admission_name, &config.mtm.admission)) {
    std::fprintf(stderr, "bad --admission: %s (see --help)\n", admission_name.c_str());
    return 2;
  }
  config.mtm.admission_budget_bytes = mtm::MiB(flags.GetU64("admission-budget-mb", 0));
  config.policy_override = flags.GetString("policy", "");
  if (!config.policy_override.empty() && !mtm::IsKnownPolicy(config.policy_override)) {
    std::string known;
    for (const std::string& name : mtm::KnownPolicyNames()) {
      known += known.empty() ? name : "|" + name;
    }
    std::fprintf(stderr, "bad --policy: %s (want %s)\n", config.policy_override.c_str(),
                 known.c_str());
    return 2;
  }
  config.fault_spec = flags.GetString("fault_spec", flags.GetString("fault-spec", ""));
  if (!config.fault_spec.empty()) {
    // Validate up front for a friendly error instead of a mid-run check.
    mtm::Result<mtm::FaultInjector> parsed =
        mtm::FaultInjector::Parse(config.fault_spec, config.seed);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --fault_spec: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    const mtm::u32 components = machine.num_components();
    for (const mtm::TierFaultEvent& event : parsed.value().schedule()) {
      if (event.component.value() >= components) {
        std::fprintf(stderr, "bad --fault_spec: component %u does not exist (the machine has %u)\n",
                     event.component.value(), components);
        return 2;
      }
    }
  }

  std::string solution_name = flags.GetString("solution", "mtm");
  mtm::SolutionKind solution = mtm::SolutionKind::kMtm;
  if (!mtm::SolutionKindFromName(solution_name, &solution)) {
    std::fprintf(stderr, "bad --solution: %s (see --help)\n", solution_name.c_str());
    return 2;
  }
  std::string format_name = flags.GetString("format", "human");
  mtm::ReportFormat format = mtm::ReportFormat::kHuman;
  if (format_name == "csv") {
    format = mtm::ReportFormat::kCsv;
  } else if (format_name == "json") {
    format = mtm::ReportFormat::kJson;
  } else if (format_name != "human") {
    std::fprintf(stderr, "bad --format: %s (want human|csv|json)\n", format_name.c_str());
    return 2;
  }

  mtm::RunOptions options;
  options.record_intervals = flags.GetBool("record-intervals", false);
  options.evaluate_quality = options.record_intervals;

  std::string metrics_out = flags.GetString("metrics-out", flags.GetString("metrics_out", ""));
  std::string trace_out = flags.GetString("trace-out", flags.GetString("trace_out", ""));
  mtm::Observability obs;
  obs.async_flows = flags.GetBool("trace-flows", flags.GetBool("trace_flows", false));
  if (!metrics_out.empty() || !trace_out.empty()) {
    options.obs = &obs;
  }
  std::string features_out =
      flags.GetString("policy-features-out", flags.GetString("policy_features_out", ""));
  std::string heatmap_out = flags.GetString("heatmap-out", flags.GetString("heatmap_out", ""));
  mtm::FeatureExporter feature_export;
  mtm::HeatmapExporter heatmap_export;
  if (!features_out.empty()) {
    options.feature_export = &feature_export;
  }
  if (!heatmap_out.empty()) {
    options.heatmap_export = &heatmap_export;
  }

  if (mtm::Status status = flags.Check(); !status.ok()) {
    std::fprintf(stderr, "mtmsim: %s (see --help)\n", status.message().c_str());
    return 2;
  }

  // The workload's layout, and so the least it maps, is known once built.
  std::unique_ptr<mtm::Workload> built =
      mtm::MakeWorkload(workload, config.sim_scale, config.num_threads, config.seed);
  mtm::Solution stack(solution, config, *built);
  if (mtm::Status status = stack.CheckFootprintFits(); !status.ok()) {
    std::fprintf(stderr, "bad --scale: %llu: %s\n",
                 static_cast<unsigned long long>(config.sim_scale), status.message().c_str());
    return 2;
  }
  mtm::RunResult result = mtm::RunSimulation(*built, stack, config, options);

  if (options.obs != nullptr) {
    mtm::Status status = mtm::WriteObservabilityFiles(obs, metrics_out, trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "observability export failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!features_out.empty()) {
    mtm::Status status = feature_export.WriteFile(features_out);
    if (!status.ok()) {
      std::fprintf(stderr, "feature export failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!heatmap_out.empty()) {
    mtm::Status status = heatmap_export.WriteFile(heatmap_out);
    if (!status.ok()) {
      std::fprintf(stderr, "heatmap export failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  if (format == mtm::ReportFormat::kCsv) {
    std::printf("%s\n", mtm::CsvHeader().c_str());
  }
  std::printf("%s\n", mtm::Render(result, format).c_str());
  return 0;
}
