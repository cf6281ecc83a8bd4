// Figure 7: contribution of each MTM technique, evaluated on VoltDB.
//
//  * Thermostat / tiered-AutoNUMA profilers paired with MTM's policy and
//    migration (isolating profiling quality);
//  * MTM without adaptive memory regions (AMR), without PEBS assistance,
//    without adaptive page sampling (APS), without overhead control (OC),
//    and without asynchronous migration.
//
// Expected shape: full MTM is fastest; each removed technique costs
// performance (paper: 22% w/o AMR, 21% w/o APS, ~11% w/o PEBS, 3x the
// profiling time w/o OC, +60% exposed migration w/o async).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/migration/mechanism.h"

int main() {
  using namespace mtm;
  ExperimentConfig base = benchutil::DefaultConfig();
  benchutil::PrintHeader("Figure 7", "MTM technique ablations on VoltDB (seconds)");
  benchutil::PrintConfig(base);

  struct Variant {
    const char* name;
    SolutionKind kind;
    ExperimentConfig config;
  };
  auto edited = [&base](auto edit) {
    ExperimentConfig config = base;
    edit(config.mtm);
    return config;
  };
  const std::vector<Variant> variants = {
      {"mtm (full)", SolutionKind::kMtm, base},
      {"thermostat-prof + mtm-mig", SolutionKind::kThermostatProfilerMtmMigration, base},
      {"autonuma-prof + mtm-mig", SolutionKind::kAutoNumaProfilerMtmMigration, base},
      {"mtm w/o AMR", SolutionKind::kMtm,
       edited([](MtmKnobs& m) { m.adaptive_regions = false; })},
      {"mtm w/o PEBS", SolutionKind::kMtm, edited([](MtmKnobs& m) { m.use_pebs = false; })},
      {"mtm w/o APS", SolutionKind::kMtm,
       edited([](MtmKnobs& m) { m.adaptive_sampling = false; })},
      // §9.3: tau_m = tau_s = 0, no merging/splitting control.
      {"mtm w/o OC", SolutionKind::kMtm, edited([](MtmKnobs& m) {
         m.overhead_control = false;
         m.tau_m = 0.0;
         m.tau_s = 0.0;
       })},
      {"mtm w/o async migration", SolutionKind::kMtm,
       edited([](MtmKnobs& m) { m.mechanism = MechanismKind::kMmrSync; })},
  };

  const std::vector<RunResult> results = benchutil::RunMatrix(variants, [](const Variant& v) {
    return RunExperiment("voltdb", v.kind, v.config);
  });

  benchutil::Table table({"variant", "app(s)", "profiling(s)", "migration(s)", "total(s)",
                          "vs mtm"});
  const double mtm_total = ToSeconds(results[0].total_ns());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const RunResult& r = results[i];
    double total = ToSeconds(r.total_ns());
    table.AddRow({variants[i].name, benchutil::Fmt("%.3f", ToSeconds(r.app_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.profiling_ns)),
                  benchutil::Fmt("%.3f", ToSeconds(r.migration_ns)),
                  benchutil::Fmt("%.3f", total),
                  benchutil::Fmt("%+.1f%%", (total - mtm_total) / mtm_total * 100.0)});
  }
  std::printf("\n");
  table.Print();
  return 0;
}
