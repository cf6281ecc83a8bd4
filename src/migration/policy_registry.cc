#include "src/migration/policy_registry.h"

#include <map>
#include <utility>

#include "src/migration/feature_policy.h"

namespace mtm {
namespace {

template <typename Policy, auto... kArgs>
std::unique_ptr<TieringPolicy> Make(const PolicyParams& params) {
  return std::make_unique<Policy>(params, kArgs...);
}

std::unique_ptr<TieringPolicy> MakeNull(const PolicyParams&) {
  return std::make_unique<NullPolicy>();
}

// std::map keeps KnownPolicyNames() sorted without a second pass.
std::map<std::string, PolicyFactory>& Registry() {
  static auto* registry = new std::map<std::string, PolicyFactory>{
      {"none", MakeNull},
      {"mtm", Make<MtmPolicy>},
      {"logistic", Make<LogisticPolicy>},
      {"autonuma", Make<AutoNumaPolicy, /*patched=*/true>},
      {"vanilla-autonuma", Make<AutoNumaPolicy, /*patched=*/false>},
      {"autotiering", Make<AutoTieringPolicy>},
      {"hemem", Make<HememPolicy>},
  };
  return *registry;
}

}  // namespace

void RegisterPolicy(const std::string& name, PolicyFactory factory) {
  Registry()[name] = std::move(factory);
}

std::unique_ptr<TieringPolicy> MakePolicy(const std::string& name, const PolicyParams& params) {
  auto& registry = Registry();
  auto it = registry.find(name);
  if (it == registry.end()) {
    return nullptr;
  }
  return it->second(params);
}

bool IsKnownPolicy(const std::string& name) { return Registry().count(name) > 0; }

std::vector<std::string> KnownPolicyNames() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : Registry()) {
    names.push_back(name);
  }
  return names;
}

}  // namespace mtm
