#include "src/workloads/workload_factory.h"

#include <array>
#include <string>

#include "src/common/logging.h"
#include "src/workloads/cassandra.h"
#include "src/workloads/gups.h"
#include "src/workloads/graph.h"
#include "src/workloads/pingpong.h"
#include "src/workloads/spark.h"
#include "src/workloads/voltdb.h"

namespace mtm {

namespace {

using Params = Workload::Params;

template <typename W>
std::unique_ptr<Workload> Make(Params params) {
  return std::make_unique<W>(params);
}

std::unique_ptr<Workload> MakeGups(Params params) {
  GupsWorkload::Options options;
  // Hot set drifts every ~8M updates so profilers face pattern variance.
  options.phase_ops = 8'000'000;
  return std::make_unique<GupsWorkload>(params, options);
}

template <GraphWorkload::Algorithm kAlgorithm>
std::unique_ptr<Workload> MakeGraph(Params params) {
  GraphWorkload::Options options;
  options.algorithm = kAlgorithm;
  return std::make_unique<GraphWorkload>(params, options);
}

// The one workload name table: MakeWorkload builds from it, IsKnownWorkload
// checks against it and CheckWorkloadScale bounds the scale with it.
struct WorkloadEntry {
  const char* name;
  Bytes footprint;      // at scale 1
  Bytes min_footprint;  // the smallest the workload's layout is built for
  std::unique_ptr<Workload> (*make)(Params);
};
// Minimum footprints: gups and pingpong need more than 4 huge pages, voltdb
// more than 8; cassandra a huge page of rows beside its 2 MiB memtable and
// commit log; spark a huge page of output, a fifth of the footprint; a
// graph 17 vertices of 512 B.
constexpr std::array<WorkloadEntry, 7> kWorkloads = {{
    {"gups", kGupsFootprint, 4 * kHugePageBytes + Bytes(1), MakeGups},
    {"voltdb", kVoltDbFootprint, 8 * kHugePageBytes + Bytes(1), Make<VoltDbWorkload>},
    {"cassandra", kCassandraFootprint, 3 * kHugePageBytes, Make<CassandraWorkload>},
    {"bfs", kGraphFootprint, Bytes(17 * 512), MakeGraph<GraphWorkload::Algorithm::kBfs>},
    {"sssp", kGraphFootprint, Bytes(17 * 512), MakeGraph<GraphWorkload::Algorithm::kSssp>},
    {"spark", kSparkFootprint, 5 * kHugePageBytes, Make<SparkTeraSortWorkload>},
    {"pingpong", kPingPongFootprint, 4 * kHugePageBytes + Bytes(1), Make<PingPongWorkload>},
}};

const WorkloadEntry* FindWorkload(const std::string& name) {
  for (const WorkloadEntry& entry : kWorkloads) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, u64 sim_scale,
                                       u32 num_threads, u64 seed) {
  MTM_CHECK_GT(sim_scale, 0ull);
  const WorkloadEntry* entry = FindWorkload(name);
  MTM_CHECK(entry != nullptr) << "unknown workload: " << name;
  Params params;
  params.num_threads = num_threads;
  params.seed = seed;
  params.footprint_bytes = entry->footprint / sim_scale;
  return entry->make(params);
}

bool IsKnownWorkload(const std::string& name) { return FindWorkload(name) != nullptr; }

Status CheckWorkloadScale(const std::string& name, u64 sim_scale) {
  const WorkloadEntry* entry = FindWorkload(name);
  MTM_CHECK(entry != nullptr) << "unknown workload: " << name;
  // footprint / scale >= min holds exactly for scale <= footprint / min.
  const u64 max_scale = entry->footprint / entry->min_footprint;
  if (sim_scale == 0 || sim_scale > max_scale) {
    return InvalidArgumentError("scale " + std::to_string(sim_scale) + " is out of range for " +
                                name + ": its " + std::to_string(entry->min_footprint.value()) +
                                "-byte minimum footprint allows scales 1 to " +
                                std::to_string(max_scale));
  }
  return OkStatus();
}

std::vector<std::string> AllWorkloadNames() {
  return {"gups", "voltdb", "cassandra", "bfs", "sssp", "spark"};
}

}  // namespace mtm
