// Factory building the Table 2 workloads at paper-faithful footprints
// (divided by the simulation scale).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/workloads/workload.h"

namespace mtm {

// Paper footprints (Table 2), in bytes at scale 1.
inline constexpr Bytes kGupsFootprint = GiB(512);
inline constexpr Bytes kVoltDbFootprint = GiB(300);
inline constexpr Bytes kCassandraFootprint = GiB(400);
inline constexpr Bytes kGraphFootprint = GiB(525);
inline constexpr Bytes kSparkFootprint = GiB(350);
// Adversarial admission-control microbenchmark, not part of Table 2.
inline constexpr Bytes kPingPongFootprint = GiB(400);

// names: gups, voltdb, cassandra, bfs, sssp, spark, pingpong. An unknown
// name is a CHECK failure; test it first with IsKnownWorkload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, u64 sim_scale,
                                       u32 num_threads, u64 seed);
bool IsKnownWorkload(const std::string& name);

// OK when `sim_scale` leaves the known workload `name` a footprint it can
// be built with; InvalidArgument otherwise, naming the largest scale that
// works. MakeWorkload CHECK-fails on a scale this rejects.
Status CheckWorkloadScale(const std::string& name, u64 sim_scale);

// The Table 2 set iterated by the paper's figures; excludes pingpong.
std::vector<std::string> AllWorkloadNames();

}  // namespace mtm
