// Every solution on every workload, against recorded rows: the `mtmsim
// --format=csv --accesses=1000000` row (exact copy checksum included) plus
// the per-component application access counts, which count the
// initialization writes too. One ctest entry per pair, so `ctest -j`
// spreads them.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"

namespace mtm {
namespace {

const char* const kWorkloads[] = {"gups", "voltdb", "cassandra", "bfs",
                                  "sssp", "spark",  "pingpong"};

// mtmsim's defaults, with --accesses=1000000.
ExperimentConfig MtmsimConfig() {
  ExperimentConfig config;
  config.num_intervals = 400;
  config.target_accesses = 1'000'000;
  return config;
}

// The golden line for `workload,solution`, or "" if it has none.
std::string GoldenRow(const std::string& workload, const std::string& solution) {
  std::ifstream in(std::string(MTM_TESTS_GOLDEN_DIR) + "/all_pairs.csv");
  const std::string key = workload + "," + solution + ",";
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with(key)) {
      return line;
    }
  }
  return "";
}

using Pair = std::tuple<const char*, SolutionKind>;

class AllPairsGoldenTest : public ::testing::TestWithParam<Pair> {};

TEST_P(AllPairsGoldenTest, MatchesRecordedRow) {
  const auto [workload, kind] = GetParam();
  const RunResult result = RunExperiment(workload, kind, MtmsimConfig());
  std::ostringstream row;
  row << CsvRow(result) << ',';
  for (std::size_t c = 0; c < result.component_app_accesses.size(); ++c) {
    row << (c == 0 ? "" : ";") << result.component_app_accesses[c];
  }
  EXPECT_EQ(row.str(), GoldenRow(workload, SolutionKindName(kind)));
}

std::vector<Pair> AllPairs() {
  std::vector<Pair> pairs;
  for (const char* workload : kWorkloads) {
    for (const SolutionInfo& row : AllSolutions()) {
      pairs.emplace_back(workload, row.kind);
    }
  }
  return pairs;
}

std::string PairName(const ::testing::TestParamInfo<Pair>& info) {
  std::string name =
      std::string(std::get<0>(info.param)) + "_" + SolutionKindName(std::get<1>(info.param));
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Pairs, AllPairsGoldenTest, ::testing::ValuesIn(AllPairs()), PairName);

}  // namespace
}  // namespace mtm
