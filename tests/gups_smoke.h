// The seeded gups run whose metrics JSONL, Chrome trace and report JSON are
// checked in as tests/golden/scan_gups_*, shared by the scan and migration
// determinism tests. A target including this defines MTM_TESTS_GOLDEN_DIR.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/migration/migration_engine.h"
#include "src/obs/obs.h"

namespace mtm {

struct RunArtifacts {
  std::string metrics_jsonl;
  std::string trace_json;
  std::string report_json;
  MigrationStats migration;
};

// Mirrors the CI observability smoke invocation of mtmsim:
//   mtmsim --workload=gups --solution=mtm --intervals=12 --accesses=3000000
inline RunArtifacts RunGupsSmoke(const std::string& fault_spec = "") {
  ExperimentConfig config;
  config.num_intervals = 12;
  config.target_accesses = 3'000'000;
  config.fault_spec = fault_spec;
  Observability obs;
  RunOptions options;
  options.obs = &obs;
  RunResult result = RunExperiment("gups", SolutionKind::kMtm, config, options);

  RunArtifacts artifacts;
  std::ostringstream metrics;
  obs.timeline.WriteJsonl(metrics, obs.metrics);
  artifacts.metrics_jsonl = metrics.str();
  std::ostringstream trace;
  obs.trace.WriteChromeTrace(trace);
  artifacts.trace_json = trace.str();
  // mtmsim prints the report with a trailing newline; the goldens carry it.
  artifacts.report_json = Render(result, ReportFormat::kJson) + "\n";
  artifacts.migration = result.migration_stats;
  return artifacts;
}

inline std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(MTM_TESTS_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace mtm
