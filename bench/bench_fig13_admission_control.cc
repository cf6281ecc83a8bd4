// Figure 13 (extension): migration admission control on the adversarial
// ping-pong workload. Runs MTM with each admission controller — vanilla
// (admit everything), ppt (re-promotion backoff scaled by flip count), and
// bandwidth (per-interval migration byte budget, hottest-first shedding) —
// both fault-free and under injected copy failures.
//
// Expected shape: vanilla re-migrates each set on every epoch flip and,
// under faults, trips the thrash guard; ppt defers re-promotions inside
// their cooldown, cutting flip-wasted bytes and thrash aborts; bandwidth
// sheds the coldest promotions so admitted bytes never exceed the budget.
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/migration/admission/admission.h"
#include "src/workloads/workload_factory.h"

namespace mtm {
namespace {

RunResult RunPingPong(AdmissionKind admission, const std::string& fault_spec) {
  ExperimentConfig config;
  // MTM places slow-tier-first, so the scaled 192 MiB fast tier only fills
  // after ~24 intervals of promotion; ping-pong dynamics (reclaim demotions
  // vs re-promotions) need the run to go well past that.
  config.num_intervals = 60;
  config.target_accesses = 0;  // run all intervals
  config.seed = 42;
  config.mtm.admission = admission;
  if (admission == AdmissionKind::kBandwidth) {
    // One promote batch per interval. The policy already sizes its batch to
    // this, so fault-free demand only exceeds it when orders fragment; under
    // injected faults, retry resubmissions re-charge the budget and the cap
    // bites hard.
    config.mtm.admission_budget_bytes = config.PromoteBatchBytes();
  }
  config.fault_spec = fault_spec;
  std::unique_ptr<Workload> workload =
      MakeWorkload("pingpong", config.sim_scale, config.num_threads, config.seed);
  Solution solution(SolutionKind::kMtm, config, *workload);
  return RunSimulation(*workload, solution, config);
}

constexpr AdmissionKind kAdmissions[] = {AdmissionKind::kVanilla, AdmissionKind::kPpt,
                                         AdmissionKind::kBandwidth};

// One row per admission controller; `runs` holds their results in order.
void PrintScenario(const char* title, const RunResult* runs) {
  std::printf("--- %s ---\n", title);
  benchutil::Table table({"admission", "migrated-mib", "flip-mib", "thrash-aborts", "admitted",
                          "deferred", "rejected", "shed-mib"});
  for (std::size_t i = 0; i < std::size(kAdmissions); ++i) {
    const RunResult& r = runs[i];
    const Bytes shed = r.admission_stats.deferred_bytes + r.admission_stats.rejected_bytes;
    table.AddRow({AdmissionKindName(kAdmissions[i]),
                  benchutil::Fmt("%.1f", ToMiB(r.migration_stats.bytes_migrated)),
                  benchutil::Fmt("%.1f", ToMiB(r.admission_stats.flip_bytes)),
                  benchutil::FmtU(r.migration_stats.thrash_aborts),
                  benchutil::FmtU(r.admission_stats.admitted),
                  benchutil::FmtU(r.admission_stats.deferred),
                  benchutil::FmtU(r.admission_stats.rejected),
                  benchutil::Fmt("%.1f", ToMiB(shed))});
  }
  table.Print();
}

}  // namespace
}  // namespace mtm

int main() {
  using namespace mtm;
  benchutil::PrintHeader("Figure 13", "admission control on the ping-pong workload");
  {
    ExperimentConfig config;
    config.num_intervals = 60;
    benchutil::PrintConfig(config);
  }

  const char* titles[] = {"fault-free", "chaos: copy_fail p=0.3"};
  const std::string specs[] = {"", "copy_fail:p=0.3"};
  std::vector<std::tuple<AdmissionKind, std::string>> cells;
  for (const std::string& spec : specs) {
    for (AdmissionKind kind : kAdmissions) {
      cells.emplace_back(kind, spec);
    }
  }
  const std::vector<RunResult> results =
      benchutil::RunMatrix(cells, [](const auto& cell) { return std::apply(RunPingPong, cell); });
  for (std::size_t i = 0; i < std::size(titles); ++i) {
    PrintScenario(titles[i], &results[i * std::size(kAdmissions)]);
  }

  std::printf("expected shape: ppt cuts flip-wasted MiB and (under faults) thrash aborts via\n"
              "deferrals; bandwidth holds admitted promotion bytes at one promote batch per\n"
              "interval, shedding the coldest orders when retries would exceed it.\n");
  return 0;
}
