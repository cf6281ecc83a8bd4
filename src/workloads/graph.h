// Graph analytics workloads: BFS and SSSP over a synthetic skewed graph
// (Table 2: parallel traversal/shortest-path on a 0.9B-node, 14B-edge graph,
// 525 GB, read-only).
//
// A real CSR graph is generated (analytic power-law degrees with hubs at low
// ids, uniform random endpoints) and real BFS / Bellman-Ford-style SSSP
// rounds are executed over it; the traversal's loads of the offset, edge, and
// per-vertex state arrays are emitted as simulated memory accesses at the
// arrays' simulated addresses. Hot structure emerges naturally: high-degree
// vertices' adjacency lists and the frontier state are touched far more
// often than the long tail.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/mem/address_space.h"
#include "src/workloads/workload.h"

namespace mtm {

// Compressed-sparse-row graph with skewed degree distribution. The edge
// targets are one sequential Rng stream; instead of storing them, the graph
// keeps the stream's state every kEdgesPerCheckpoint edges and regenerates
// a vertex's edges on demand (DESIGN.md "Graph host state").
class CsrGraph {
 public:
  static constexpr u64 kEdgesPerCheckpoint = 128;

  // Reads the edge stream forward from some index, one target per Next().
  struct EdgeCursor {
    u32 Next() { return static_cast<u32>(rng.NextBounded(num_vertices)); }
    Rng rng;
    u64 num_vertices;
  };

  // Builds a graph with ~avg_degree * num_vertices edges; vertex r gets a
  // degree share of 1/(r+1)^skew_theta, so hubs occupy low ids (RMAT-like
  // skew).
  CsrGraph(u64 num_vertices, double avg_degree, double skew_theta, u64 seed);

  u64 num_vertices() const { return num_vertices_; }
  u64 num_edges() const { return offsets_[num_vertices_]; }
  u64 OffsetOf(u64 v) const { return offsets_[v]; }
  u64 DegreeOf(u64 v) const { return offsets_[v + 1] - offsets_[v]; }
  // A cursor whose first Next() is edge `index`; index may equal num_edges().
  EdgeCursor EdgesFrom(u64 index) const;

 private:
  u64 num_vertices_;
  std::vector<u64> offsets_;      // size num_vertices + 1
  std::vector<Rng> checkpoints_;  // [k]: state before edge k * kEdgesPerCheckpoint
};

class GraphWorkload : public Workload {
 public:
  enum class Algorithm { kBfs, kSssp };

  struct Options {
    Algorithm algorithm = Algorithm::kBfs;
    double avg_degree = 15.5;  // 14B edges / 0.9B nodes
    double skew_theta = 0.6;
    u32 edges_per_access = 2;  // 64B line covers two 32B edge records
  };

  GraphWorkload(Params params, Options options);

  std::string name() const override {
    return options_.algorithm == Algorithm::kBfs ? "bfs" : "sssp";
  }
  void Build(AddressSpace& address_space) override;
  u32 NextBatch(MemAccess* out, u32 n) override;
  double read_fraction() const override { return 1.0; }  // Table 2: read-only

  const CsrGraph& graph() const { return *graph_; }

 private:
  void StartTraversal();
  // Expands one vertex, appending its accesses; returns accesses emitted.
  u32 ExpandVertex(u32 v, MemAccess* out, u32 capacity);

  Options options_;
  std::unique_ptr<CsrGraph> graph_;
  u64 num_vertices_ = 0;

  VirtAddr offsets_start_;
  VirtAddr edges_start_;
  VirtAddr state_start_;  // visited/distance array

  std::vector<bool> visited_;  // BFS only: a bitset
  std::vector<u32> dist_;      // SSSP only
  std::deque<u32> frontier_;
};

}  // namespace mtm
