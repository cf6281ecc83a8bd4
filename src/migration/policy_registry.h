// String-keyed policy registry: every tiering policy — built-in heuristics
// and feature-driven plugins alike — is constructible by name through one
// factory, and that name is the policy's only identity (reports print it).
// `--policy=<name>` anywhere resolves through this table, and out-of-tree
// code can RegisterPolicy its own plugin (examples/custom_policy.cpp)
// without touching the core. Shipped keys: none, mtm, logistic, autonuma,
// vanilla-autonuma, autotiering, hemem.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/migration/policy.h"

namespace mtm {

using PolicyFactory = std::function<std::unique_ptr<TieringPolicy>(const PolicyParams&)>;

// Registers `factory` under `name`, replacing any existing entry (latest
// wins, so tests and plugins can shadow built-ins).
void RegisterPolicy(const std::string& name, PolicyFactory factory);

// Constructs the policy registered under `name`; null for an unknown name.
std::unique_ptr<TieringPolicy> MakePolicy(const std::string& name, const PolicyParams& params);

bool IsKnownPolicy(const std::string& name);

// Every registered name, sorted.
std::vector<std::string> KnownPolicyNames();

}  // namespace mtm
