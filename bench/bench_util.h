// Shared helpers for the paper-reproduction benches: consistent headers,
// simple aligned tables, the default experiment configuration used across
// figures, and a runner for independent cells.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/units.h"
#include "src/core/experiment.h"

namespace mtm {
namespace benchutil {

inline void PrintHeader(const char* experiment, const char* description) {
  std::printf("==============================================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("==============================================================================\n");
}

inline void PrintConfig(const ExperimentConfig& config) {
  std::printf("config: scale 1:%llu | interval %.1f ms | overhead target %.0f%% | "
              "N %.1f MiB/interval | threads %u%s\n\n",
              static_cast<unsigned long long>(config.sim_scale),
              ToMillis(config.IntervalNs()), config.mtm.overhead_fraction * 100.0,
              ToMiB(config.PromoteBatchBytes()), config.num_threads,
              config.two_tier ? " | two-tier" : "");
}

// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::string sep;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      sep += std::string(widths[c], '-') + "  ";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) {
      print_row(row);
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string FmtU(unsigned long long value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu", value);
  return buf;
}

// The §9 testbed configuration, scaled.
inline ExperimentConfig DefaultConfig() {
  ExperimentConfig config;
  config.sim_scale = 512;
  config.num_intervals = 400;        // safety cap; fixed work governs
  config.target_accesses = 45'000'000;
  config.seed = 42;
  return config;
}

// Returns run(cells[i]) for every cell, in cell order. The cells run on
// min(hardware threads, cells) host threads that take the next index from a
// shared counter, so each call must touch no state another cell touches.
// A thread runs whole cells one after another: each run keeps one host
// thread (DESIGN.md §15).
template <typename Cell, typename Run>
auto RunMatrix(const std::vector<Cell>& cells, Run run) {
  std::vector<decltype(run(cells.front()))> results(cells.size());
  std::atomic<std::size_t> next{0};
  const std::size_t threads =
      std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()), cells.size());
  std::vector<std::jthread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < cells.size(); i = next++) {
        results[i] = run(cells[i]);
      }
    });
  }
  pool.clear();  // joins
  return results;
}

}  // namespace benchutil
}  // namespace mtm
