// Workload interface: a workload owns a set of VMAs in the simulated
// address space and produces the application's memory-access stream.
//
// The six workloads model Table 2 of the paper (GUPS, VoltDB/TPC-C,
// Cassandra/YCSB-A, BFS, SSSP, Spark TeraSort) at footprints scaled by the
// same factor as the machine capacities, preserving every footprint:tier
// ratio the evaluation depends on.
#pragma once

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/mem/address_space.h"
#include "src/profiling/oracle.h"

namespace mtm {

class Workload {
 public:
  struct Params {
    Bytes footprint_bytes;  // required, already divided by the sim scale
    u32 num_threads = 8;
    u64 seed = 1;
  };

  explicit Workload(Params params) : params_(params), rng_(params.seed) {}
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  // Allocates the workload's VMAs. Called exactly once.
  virtual void Build(AddressSpace& address_space) = 0;

  // Fills `out` with the next `n` accesses, advancing internal phase state.
  // Returns the number filled (normally n).
  virtual u32 NextBatch(MemAccess* out, u32 n) = 0;

  // The currently hot extents, if the workload knows them a priori (GUPS
  // does — the paper's Figure 1/6 methodology). Empty when unknown.
  virtual std::vector<HotRange> TrueHotRanges() const { return {}; }

  // Approximate fraction of accesses that are reads (Table 2's R/W column).
  virtual double read_fraction() const = 0;

  const Params& params() const { return params_; }

 protected:
  u32 NextThread() { return thread_rr_++ % params_.num_threads; }

  Params params_;
  Rng rng_;
  u32 thread_rr_ = 0;
};

}  // namespace mtm
