// Per-component access counters, modeled on Intel Processor Counter Monitor
// as used for Table 6 of the paper: application accesses are counted
// separately from migration traffic so migrations don't pollute the
// application's tier-access statistics.
#pragma once

#include "src/common/strong_types.h"
#include "src/common/types.h"

namespace mtm {

class MemCounters {
 public:
  explicit MemCounters(u32 num_components)
      : app_reads_(num_components, 0),
        app_writes_(num_components, 0),
        migration_bytes_(num_components) {}

  void CountApp(ComponentId c, bool is_write, u64 n = 1) {
    if (is_write) {
      app_writes_[c] += n;
    } else {
      app_reads_[c] += n;
    }
  }

  void CountMigrationBytes(ComponentId c, Bytes bytes) { migration_bytes_[c] += bytes; }

  u64 app_reads(ComponentId c) const { return app_reads_[c]; }
  u64 app_writes(ComponentId c) const { return app_writes_[c]; }
  u64 app_accesses(ComponentId c) const { return app_reads_[c] + app_writes_[c]; }
  Bytes migration_bytes(ComponentId c) const { return migration_bytes_[c]; }

  u64 total_app_accesses() const {
    u64 total = 0;
    for (ComponentId c{0}; c < app_reads_.end_id(); ++c) {
      total += app_reads_[c] + app_writes_[c];
    }
    return total;
  }

  void Reset() {
    std::fill(app_reads_.begin(), app_reads_.end(), 0);
    std::fill(app_writes_.begin(), app_writes_.end(), 0);
    std::fill(migration_bytes_.begin(), migration_bytes_.end(), Bytes{});
  }

 private:
  IdMap<ComponentId, u64> app_reads_;
  IdMap<ComponentId, u64> app_writes_;
  IdMap<ComponentId, Bytes> migration_bytes_;
};

}  // namespace mtm
