// Minimal command-line flag parsing for the tools: --key=value and --key
// boolean forms. No global registry; call sites query by name. The set
// remembers which names were queried and which numeric values failed to
// parse or fit, so a tool can reject what it did not understand (Check).
#pragma once

#include <cctype>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace mtm {

class FlagSet {
 public:
  FlagSet(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      arg = arg.substr(2);
      std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_.emplace_back(arg, "true");
      } else {
        flags_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
      }
    }
  }

  std::optional<std::string> Get(const std::string& name) {
    queried_.insert(name);
    for (const auto& [key, value] : flags_) {
      if (key == name) {
        return value;
      }
    }
    return std::nullopt;
  }

  std::string GetString(const std::string& name, const std::string& fallback) {
    return Get(name).value_or(fallback);
  }

  u64 GetU64(const std::string& name, u64 fallback) {
    auto v = Get(name);
    if (!v) {
      return fallback;
    }
    char* end = nullptr;
    const u64 parsed = std::strtoull(v->c_str(), &end, 10);
    // strtoull also skips leading whitespace and takes a sign (it negates
    // "-1" to 2^64-1), so an unsigned value must also start with a digit.
    if (std::isdigit(static_cast<unsigned char>((*v)[0])) == 0) {
      end = v->data();  // malformed, as if nothing parsed
    }
    return Parsed(name, *v, end) ? parsed : fallback;
  }

  // GetU64 for a value stored in 32 bits: one that does not fit is an
  // error for Check, not a silent truncation.
  u32 GetU32(const std::string& name, u32 fallback) {
    const u64 parsed = GetU64(name, fallback);
    if (parsed > std::numeric_limits<u32>::max()) {
      invalid_.push_back("out of range: --" + name + "=" + *Get(name));
      return fallback;
    }
    return static_cast<u32>(parsed);
  }

  double GetDouble(const std::string& name, double fallback) {
    auto v = Get(name);
    if (!v) {
      return fallback;
    }
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    return Parsed(name, *v, end) ? parsed : fallback;
  }

  bool GetBool(const std::string& name, bool fallback) {
    auto v = Get(name);
    if (!v) {
      return fallback;
    }
    return *v == "true" || *v == "1" || *v == "yes";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  // Fails on the first flag no getter asked for and on the first numeric
  // value that did not parse or fit. Call after the last query.
  Status Check() const {
    for (const auto& [key, value] : flags_) {
      if (queried_.count(key) == 0) {
        return InvalidArgumentError("unknown flag --" + key);
      }
    }
    if (!invalid_.empty()) {
      return InvalidArgumentError(invalid_.front());
    }
    return OkStatus();
  }

 private:
  // True when strto* consumed all of a non-empty `value`; otherwise records
  // the flag as malformed.
  bool Parsed(const std::string& name, const std::string& value, const char* end) {
    if (!value.empty() && *end == '\0') {
      return true;
    }
    invalid_.push_back("not a number: --" + name + "=" + value);
    return false;
  }

  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
  std::set<std::string> queried_;
  std::vector<std::string> invalid_;  // one message per bad numeric value
};

}  // namespace mtm
