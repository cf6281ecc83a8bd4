#include "src/workloads/workload_factory.h"

#include <array>

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

// The one workload name table: MakeWorkload builds from it and
// IsKnownWorkload checks against it.
struct WorkloadEntry {
  const char* name;
  Bytes footprint;  // at scale 1
  std::unique_ptr<Workload> (*make)(Params);
};
constexpr std::array<WorkloadEntry, 7> kWorkloads = {{
    {"gups", kGupsFootprint, MakeGups},
    {"voltdb", kVoltDbFootprint, Make<VoltDbWorkload>},
    {"cassandra", kCassandraFootprint, Make<CassandraWorkload>},
    {"bfs", kGraphFootprint, MakeGraph<GraphWorkload::Algorithm::kBfs>},
    {"sssp", kGraphFootprint, MakeGraph<GraphWorkload::Algorithm::kSssp>},
    {"spark", kSparkFootprint, Make<SparkTeraSortWorkload>},
    {"pingpong", kPingPongFootprint, Make<PingPongWorkload>},
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

std::vector<std::string> AllWorkloadNames() {
  return {"gups", "voltdb", "cassandra", "bfs", "sssp", "spark"};
}

}  // namespace mtm
