#include "src/migration/feature_policy.h"

#include <cmath>
#include "src/migration/admission/admission.h"
#include "src/profiling/profiler.h"

namespace mtm {

std::vector<MigrationOrder> FeaturePolicy::Decide(const ProfileOutput& profile,
                                                  PolicyContext& ctx) {
  std::vector<double> scores;
  scores.reserve(profile.entries.size());
  for (const FeatureVector& f : BuildFeatures(profile, ctx)) {
    scores.push_back(Score(f));
  }
  return DecideByScore(profile, scores, ctx, params_);
}

LogisticPolicy::Coefficients LogisticPolicy::FittedCoefficients() {
  // Fitted by tools/fit_logistic_policy.py (see DESIGN.md §13 for the
  // workflow) on gups+voltdb feature dumps (10454 rows, 9.4% positive,
  // 94.6% train accuracy); label = next-interval WHI >= 1.
  Coefficients coef;
  coef.weights[kFeatWhi] = 2.8036;
  coef.weights[kFeatHi] = -0.2972;
  coef.weights[kFeatTrend] = -0.0243;
  coef.weights[kFeatSkew] = 0.2623;
  coef.weights[kFeatLogSizePages] = 0.7217;
  coef.weights[kFeatTierRank] = -0.7993;
  coef.weights[kFeatPingPong] = 0.0000;
  coef.weights[kFeatMoveRecency] = -1.1062;
  coef.bias = -2.4947;
  return coef;
}

double LogisticPolicy::Score(const FeatureVector& features) const {
  if (features.x[kFeatWhi] <= 0.0) {
    return 0.0;
  }
  double z = coef_.bias;
  for (u32 k = 0; k < kNumFeatures; ++k) {
    z += coef_.weights[k] * features.x[k];
  }
  return 1.0 / (1.0 + std::exp(-z));
}

}  // namespace mtm
