// The plugin side of the policy API: a FeaturePolicy scores FeatureVectors
// (src/migration/features.h) and inherits MTM's fast-promotion /
// slow-demotion machinery (DecideByScore) for turning scores into orders.
// It is a TieringPolicy, so plugins slot into every experiment via the
// registry (src/migration/policy_registry.h) without touching the driver.
//
// One scorer ships here: LogisticPolicy, a fitted logistic scorer over the
// full feature vector, coefficients produced offline by
// tools/fit_logistic_policy.py from --policy-features-out dumps and checked
// in. The production MTM policy is MtmPolicy, which ranks by the raw WHI
// and so skips building features.
#pragma once

#include <array>
#include <vector>

#include "src/migration/admission/admission.h"
#include "src/migration/features.h"
#include "src/migration/policy.h"
#include "src/profiling/profiler.h"

namespace mtm {

class FeaturePolicy : public TieringPolicy {
 public:
  // `params` parameterize the shared DecideByScore machinery (promotion
  // budget, score range; a non-positive hotness_max adapts to the scorer's
  // output scale each interval).
  explicit FeaturePolicy(const PolicyParams& params) : params_(params) {}

  // Per-region score: higher promotes first, colder demotes first. Must be
  // a pure function of the features (determinism contract).
  virtual double Score(const FeatureVector& features) const = 0;

  // Builds the feature vectors, scores every region and runs DecideByScore.
  std::vector<MigrationOrder> Decide(const ProfileOutput& profile, PolicyContext& ctx) final;

 private:
  PolicyParams params_;
};

// Fitted logistic scorer: sigmoid(w . x + b) estimates the probability the
// region is hot next interval. Scores live in (0, 1), so the constructor
// forces an adaptive hotness_max. Stone-cold regions (zero WHI) score zero
// outright so the bias term alone can never promote them.
class LogisticPolicy : public FeaturePolicy {
 public:
  struct Coefficients {
    std::array<double, kNumFeatures> weights{};
    double bias = 0.0;
  };

  // Checked-in coefficients, fitted by tools/fit_logistic_policy.py on
  // --policy-features-out dumps of the Table-2 workloads under --policy=mtm.
  static Coefficients FittedCoefficients();

  explicit LogisticPolicy(const PolicyParams& params)
      : FeaturePolicy(Adaptive(params)), coef_(FittedCoefficients()) {}

  double Score(const FeatureVector& features) const override;

 private:
  static PolicyParams Adaptive(PolicyParams params) {
    params.hotness_max = -1.0;
    return params;
  }

  Coefficients coef_;
};

}  // namespace mtm
