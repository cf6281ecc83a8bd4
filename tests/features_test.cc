// Tests for the policy-as-plugin API: the FeatureVector stage, the policy
// registry, FeaturePolicy, and the export surfaces. The differential tests
// pin the key invariant: the registry-constructed mtm policy AND a
// feature-driven WHI scorer reproduce the goldens byte for byte.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/feature_policy.h"
#include "src/migration/features.h"
#include "src/migration/policy.h"
#include "src/migration/policy_registry.h"
#include "src/obs/obs.h"
#include "src/profiling/profiler.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {
namespace {

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(MTM_TESTS_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The WHI passthrough scorer: through FeaturePolicy (BuildFeatures ->
// Score -> DecideByScore) it must decide exactly what MtmPolicy decides
// under the same params, the proof that the feature path adds no decision
// drift.
class WhiScorePolicy : public FeaturePolicy {
 public:
  using FeaturePolicy::FeaturePolicy;
  double Score(const FeatureVector& features) const override { return features.x[kFeatWhi]; }
};

constexpr char kWhiScorerKey[] = "test-whi-scorer";

void RegisterWhiScorer() {
  RegisterPolicy(kWhiScorerKey, [](const PolicyParams& params) -> std::unique_ptr<TieringPolicy> {
    return std::make_unique<WhiScorePolicy>(params);
  });
}

TEST(PolicyRegistryTest, KnowsAllShippedPolicies) {
  // Sorted, as KnownPolicyNames() returns them.
  const std::vector<std::string> kShipped = {
      "autonuma", "autotiering", "hemem", "logistic", "mtm", "none", "vanilla-autonuma"};
  EXPECT_EQ(KnownPolicyNames(), kShipped);
  PolicyParams params;
  params.promote_batch_bytes = MiB(2);
  for (const std::string& name : kShipped) {
    EXPECT_TRUE(IsKnownPolicy(name)) << name;
    EXPECT_NE(MakePolicy(name, params), nullptr) << name;
  }
  for (const char* gone : {"mtm-feature", "mtm-policy", "tiered-autonuma",
                           "vanilla-tiered-autonuma", "nope"}) {
    EXPECT_FALSE(IsKnownPolicy(gone)) << gone;
    EXPECT_EQ(MakePolicy(gone, params), nullptr) << gone;
  }
}

TEST(PolicyRegistryTest, RegisterPolicyAddsPlugin) {
  class EchoPolicy : public TieringPolicy {
   public:
    std::vector<MigrationOrder> Decide(const ProfileOutput&, PolicyContext&) override {
      return {};
    }
  };
  RegisterPolicy("test-echo", [](const PolicyParams&) -> std::unique_ptr<TieringPolicy> {
    return std::make_unique<EchoPolicy>();
  });
  EXPECT_TRUE(IsKnownPolicy("test-echo"));
  PolicyParams params;
  params.promote_batch_bytes = MiB(2);
  std::unique_ptr<TieringPolicy> policy = MakePolicy("test-echo", params);
  ASSERT_NE(policy, nullptr);
  EXPECT_NE(dynamic_cast<EchoPolicy*>(policy.get()), nullptr);
}

class FeaturesTest : public ::testing::Test {
 protected:
  FeaturesTest() : machine_(Machine::OptaneFourTier(512)), frames_(machine_) {
    ctx_.machine = &machine_;
    ctx_.page_table = &page_table_;
    ctx_.frames = &frames_;
  }

  HotnessEntry MakeRegion(Bytes bytes, ComponentId component, double hotness, u32 socket = 0) {
    u32 vma = address_space_.Allocate(bytes, false, "r");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, false).ok());
    EXPECT_TRUE(frames_.Reserve(component, address_space_.vma(vma).len).ok());
    HotnessEntry e;
    e.start = start;
    e.len = bytes;
    e.hotness = hotness;
    e.preferred_socket = socket;
    return e;
  }

  static ProfileOutput Wrap(std::vector<HotnessEntry> entries) {
    ProfileOutput out;
    out.entries = std::move(entries);
    return out;
  }

  Machine machine_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  PolicyContext ctx_;
};

TEST_F(FeaturesTest, BuildFeaturesPopulatesProfileAndResidency) {
  ComponentId t3 = machine_.TierOrder(0)[2];
  HotnessEntry e = MakeRegion(MiB(2), t3, 2.5);
  e.latest_hi = 3.0;
  e.prev_hi = 1.0;
  e.skew = 0.25;
  std::vector<FeatureVector> features = BuildFeatures(Wrap({e}), ctx_);
  ASSERT_EQ(features.size(), 1u);
  const FeatureVector& f = features[0];
  EXPECT_EQ(f.start, e.start);
  EXPECT_EQ(f.len, e.len);
  EXPECT_EQ(f.resident, t3);
  EXPECT_EQ(f.tier_rank, 2u);
  EXPECT_DOUBLE_EQ(f.x[kFeatWhi], 2.5);
  EXPECT_DOUBLE_EQ(f.x[kFeatHi], 3.0);
  EXPECT_DOUBLE_EQ(f.x[kFeatTrend], 2.0);
  EXPECT_DOUBLE_EQ(f.x[kFeatSkew], 0.25);
  // 2 MiB = 512 base pages: log2(512)/16.
  EXPECT_DOUBLE_EQ(f.x[kFeatLogSizePages], 9.0 / 16.0);
  EXPECT_DOUBLE_EQ(f.x[kFeatTierRank], 2.0 / 3.0);
  // No history wired in: neutral ping-pong, never-moved recency.
  EXPECT_DOUBLE_EQ(f.x[kFeatPingPong], 0.0);
  EXPECT_DOUBLE_EQ(f.x[kFeatMoveRecency], 1.0);
}

TEST_F(FeaturesTest, BuildFeaturesReadsMigrationHistory) {
  ComponentId t3 = machine_.TierOrder(0)[2];
  HotnessEntry moved = MakeRegion(MiB(2), t3, 1.0);
  HotnessEntry still = MakeRegion(MiB(2), t3, 1.0);
  AdmissionTuning tuning;
  tuning.flip_window_ns = Millis(100);
  MigrationHistory history(tuning);
  history.RecordMove(moved.start, /*is_promotion=*/true, MiB(2), Millis(10));
  history.RecordMove(moved.start, /*is_promotion=*/false, MiB(2), Millis(20));
  history.RecordMove(moved.start, /*is_promotion=*/true, MiB(2), Millis(30));  // flip
  ctx_.history = &history;
  ctx_.now = Millis(50);
  ctx_.interval_ns = Millis(10);
  std::vector<FeatureVector> features = BuildFeatures(Wrap({moved, still}), ctx_);
  ASSERT_EQ(features.size(), 2u);
  EXPECT_GT(features[0].x[kFeatPingPong], 0.0);
  // Two intervals since the last move, capped at 32: 2/32.
  EXPECT_DOUBLE_EQ(features[0].x[kFeatMoveRecency], 2.0 / 32.0);
  EXPECT_DOUBLE_EQ(features[1].x[kFeatPingPong], 0.0);
  EXPECT_DOUBLE_EQ(features[1].x[kFeatMoveRecency], 1.0);
}

TEST_F(FeaturesTest, MtmScorePolicyMatchesMtmPolicyDecisions) {
  ComponentId t3 = machine_.TierOrder(0)[2];
  std::vector<HotnessEntry> entries;
  for (int i = 0; i < 6; ++i) {
    entries.push_back(MakeRegion(MiB(2), t3, 3.0 - 0.4 * i));
  }
  const PolicyParams params{.promote_batch_bytes = MiB(6), .hotness_max = 3.0};
  MtmPolicy heuristic(params);
  WhiScorePolicy feature_driven(params);
  std::vector<MigrationOrder> expected = heuristic.Decide(Wrap(entries), ctx_);
  std::vector<MigrationOrder> actual = feature_driven.Decide(Wrap(entries), ctx_);
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].start, expected[i].start);
    EXPECT_EQ(actual[i].len, expected[i].len);
    EXPECT_EQ(actual[i].dst, expected[i].dst);
    EXPECT_EQ(actual[i].socket, expected[i].socket);
    EXPECT_EQ(actual[i].hotness, expected[i].hotness);
  }
}

TEST_F(FeaturesTest, HeatmapExporterEmitsRegionsInAddressOrder) {
  ComponentId t3 = machine_.TierOrder(0)[2];
  HotnessEntry low = MakeRegion(MiB(2), t3, 0.5);
  HotnessEntry high = MakeRegion(MiB(2), t3, 2.0);
  ProfileOutput profile = Wrap({high, low});  // reversed entry order
  std::vector<FeatureVector> features = BuildFeatures(profile, ctx_);
  HeatmapExporter exporter;
  exporter.OnInterval(0, Millis(1), profile, features);
  ASSERT_EQ(exporter.sink().lines(), 1u);
  const std::string& line = exporter.sink().contents();
  std::size_t first = line.find("\"start\":" + std::to_string(low.start.value()));
  std::size_t second = line.find("\"start\":" + std::to_string(high.start.value()));
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);  // low.start < high.start in output, too
}

// Runs the CI observability smoke configuration with an optional policy
// override and optional exporters attached.
struct DifferentialArtifacts {
  std::string metrics_jsonl;
  std::string trace_json;
  std::string report_json;
  std::string features_jsonl;
};

DifferentialArtifacts RunGupsMtm(const std::string& policy_override,
                                 bool with_exporters = false) {
  ExperimentConfig config;
  config.num_intervals = 12;
  config.target_accesses = 3'000'000;
  config.policy_override = policy_override;
  Observability obs;
  FeatureExporter feature_export;
  HeatmapExporter heatmap_export;
  RunOptions options;
  options.obs = &obs;
  if (with_exporters) {
    options.feature_export = &feature_export;
    options.heatmap_export = &heatmap_export;
  }
  RunResult result = RunExperiment("gups", SolutionKind::kMtm, config, options);

  DifferentialArtifacts artifacts;
  std::ostringstream metrics;
  obs.timeline.WriteJsonl(metrics, obs.metrics);
  artifacts.metrics_jsonl = metrics.str();
  std::ostringstream trace;
  obs.trace.WriteChromeTrace(trace);
  artifacts.trace_json = trace.str();
  artifacts.report_json = Render(result, ReportFormat::kJson) + "\n";
  artifacts.features_jsonl = feature_export.sink().contents();
  return artifacts;
}

TEST(PolicyDifferentialTest, RegistryMtmOverrideMatchesGoldens) {
  // --policy=mtm resolves through the registry instead of the hand-wired
  // switch; every artifact must still match the pre-registry goldens.
  DifferentialArtifacts artifacts = RunGupsMtm("mtm");
  EXPECT_EQ(artifacts.metrics_jsonl, ReadGolden("scan_gups_metrics.jsonl"));
  EXPECT_EQ(artifacts.trace_json, ReadGolden("scan_gups_trace.json"));
  EXPECT_EQ(artifacts.report_json, ReadGolden("scan_gups_report.json"));
}

TEST(PolicyDifferentialTest, FeatureDrivenMtmMatchesGoldens) {
  // The feature path (BuildFeatures -> WHI scorer -> DecideByScore) must
  // make the exact decisions of the heuristic: metrics and trace are
  // byte-identical, and the report differs only by the gated policy
  // identity field.
  RegisterWhiScorer();
  DifferentialArtifacts artifacts = RunGupsMtm(kWhiScorerKey);
  EXPECT_EQ(artifacts.metrics_jsonl, ReadGolden("scan_gups_metrics.jsonl"));
  EXPECT_EQ(artifacts.trace_json, ReadGolden("scan_gups_trace.json"));
  std::string report = artifacts.report_json;
  const std::string policy_field = "\"policy\":\"" + std::string(kWhiScorerKey) + "\",";
  std::size_t at = report.find(policy_field);
  ASSERT_NE(at, std::string::npos);
  report.erase(at, policy_field.size());
  EXPECT_EQ(report, ReadGolden("scan_gups_report.json"));
}

TEST(PolicyDifferentialTest, ExportersDoNotPerturbTheRun) {
  // Attaching exporters is pure observation: the report stays byte-
  // identical to the golden run without them.
  DifferentialArtifacts artifacts = RunGupsMtm("", /*with_exporters=*/true);
  EXPECT_EQ(artifacts.report_json, ReadGolden("scan_gups_report.json"));
  EXPECT_EQ(artifacts.metrics_jsonl, ReadGolden("scan_gups_metrics.jsonl"));
  EXPECT_FALSE(artifacts.features_jsonl.empty());
}

TEST(PolicyDifferentialTest, FeatureExportIsDeterministic) {
  DifferentialArtifacts first = RunGupsMtm("", /*with_exporters=*/true);
  DifferentialArtifacts second = RunGupsMtm("", /*with_exporters=*/true);
  EXPECT_EQ(first.features_jsonl, second.features_jsonl);
}

TEST(PolicyDifferentialTest, LogisticFeatureDumpMatchesGolden) {
  // Mirrors the CI policy smoke invocation of mtmsim:
  //   mtmsim --workload=gups --solution=mtm --intervals=6 --accesses=1500000
  //          --policy=logistic --policy-features-out=...
  ExperimentConfig config;
  config.num_intervals = 6;
  config.target_accesses = 1'500'000;
  config.policy_override = "logistic";
  FeatureExporter feature_export;
  RunOptions options;
  options.feature_export = &feature_export;
  RunExperiment("gups", SolutionKind::kMtm, config, options);
  EXPECT_EQ(feature_export.sink().contents(), ReadGolden("features_gups_logistic.jsonl"));
}

}  // namespace
}  // namespace mtm
