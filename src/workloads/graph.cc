#include "src/workloads/graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/mem/address_space.h"

namespace mtm {
namespace {

// Simulated storage strides: an edge record carries the target plus weight
// and property payload (32 B), a vertex offset is 8 B, per-vertex state
// (distance, visited flag, padding) is 8 B. The simulated footprint is
// therefore ~512 B per vertex at the default average degree.
constexpr u64 kOffsetStride = 8;
constexpr u64 kEdgeStride = 32;
constexpr u64 kStateStride = 8;

}  // namespace

CsrGraph::CsrGraph(u64 num_vertices, double avg_degree, double skew_theta, u64 seed)
    : num_vertices_(num_vertices), offsets_(num_vertices + 1, 0) {
  MTM_CHECK_GT(num_vertices, 1ull);
  const u64 target_edges = static_cast<u64>(static_cast<double>(num_vertices) * avg_degree);

  // Analytic power-law degrees: deg(rank r) ~ 1/(r+1)^theta, scaled to the
  // edge target. Vertex id == degree rank: hubs occupy low ids, as in
  // degree-ordered CSR layouts; their offsets, adjacency runs, and state
  // cluster. offsets_[r + 1] holds rank r's weight (as double bits) until
  // the sum over all ranks is known, then its degree, then the prefix sum.
  double norm = 0.0;
  for (u64 r = 0; r < num_vertices; ++r) {
    double weight = 1.0 / std::pow(static_cast<double>(r + 1), skew_theta);
    norm += weight;
    offsets_[r + 1] = std::bit_cast<u64>(weight);
  }
  u64 assigned = 0;
  for (u64 r = 0; r < num_vertices; ++r) {
    double share = std::bit_cast<double>(offsets_[r + 1]) / norm;
    offsets_[r + 1] = static_cast<u32>(share * static_cast<double>(target_edges));
    assigned += offsets_[r + 1];
  }
  // Distribute rounding remainder one edge at a time.
  Rng rng(seed);
  for (; assigned < target_edges; ++assigned) {
    ++offsets_[rng.NextBounded(num_vertices) + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  // The edge targets continue the same stream, one Next() per edge. The
  // last checkpoint sits at or past num_edges, where a trailing zero-degree
  // vertex starts.
  checkpoints_.reserve(num_edges() / kEdgesPerCheckpoint + 1);
  while (checkpoints_.size() <= num_edges() / kEdgesPerCheckpoint) {
    checkpoints_.push_back(rng);
    for (u64 i = 0; i < kEdgesPerCheckpoint; ++i) {
      rng.Next();
    }
  }
}

CsrGraph::EdgeCursor CsrGraph::EdgesFrom(u64 index) const {
  MTM_CHECK_LT(index / kEdgesPerCheckpoint, checkpoints_.size());
  EdgeCursor cursor{checkpoints_[index / kEdgesPerCheckpoint], num_vertices_};
  for (u64 i = 0; i < index % kEdgesPerCheckpoint; ++i) {
    cursor.rng.Next();
  }
  return cursor;
}

GraphWorkload::GraphWorkload(Params params, Options options)
    : Workload(params), options_(options) {
  // footprint = n*(kOffsetStride + kStateStride) + n*avg_degree*kEdgeStride.
  double per_vertex = static_cast<double>(kOffsetStride + kStateStride) +
                      options_.avg_degree * static_cast<double>(kEdgeStride);
  num_vertices_ =
      static_cast<u64>(static_cast<double>(params_.footprint_bytes.value()) / per_vertex);
  MTM_CHECK_GT(num_vertices_, 16ull);
  graph_ = std::make_unique<CsrGraph>(num_vertices_, options_.avg_degree, options_.skew_theta,
                                      params_.seed ^ 0x9a4a9);
}

void GraphWorkload::Build(AddressSpace& address_space) {
  u32 off = address_space.Allocate(Bytes(num_vertices_ * kOffsetStride), true, "graph.offsets");
  u32 edg =
      address_space.Allocate(Bytes(graph_->num_edges() * kEdgeStride), true, "graph.edges");
  u32 st = address_space.Allocate(Bytes(num_vertices_ * kStateStride), true, "graph.state");
  offsets_start_ = address_space.vma(off).start;
  edges_start_ = address_space.vma(edg).start;
  state_start_ = address_space.vma(st).start;
  StartTraversal();
}

void GraphWorkload::StartTraversal() {
  frontier_.clear();
  // Bias sources toward hubs so traversals overlap: the hot adjacency lists
  // stay hot across restarts, as in repeated-query graph serving.
  u32 src = static_cast<u32>(rng_.NextBounded(std::max<u64>(1, num_vertices_ / 16)));
  // BFS never reads a distance and SSSP never reads a visited bit, so each
  // keeps only its own state.
  if (options_.algorithm == Algorithm::kBfs) {
    visited_.assign(num_vertices_, false);
    visited_[src] = true;
  } else {
    dist_.assign(num_vertices_, ~u32{0});
    dist_[src] = 0;
  }
  frontier_.push_back(src);
}

u32 GraphWorkload::ExpandVertex(u32 v, MemAccess* out, u32 capacity) {
  // Real traversal with emitted loads: offset lookup, edge-array scan (one
  // access per cache line of edge records), and per-neighbor state checks.
  // capacity >= 1: NextBatch only expands while room is left.
  u32 filled = 0;
  u32 thread = NextThread();
  out[filled++] = MemAccess{offsets_start_ + v * kOffsetStride, thread, false};
  const bool bfs = options_.algorithm == Algorithm::kBfs;
  u64 off = graph_->OffsetOf(v);
  u64 deg = graph_->DegreeOf(v);
  u64 relaxed = bfs || dist_[v] == ~u32{0} ? 0u : dist_[v] + 1;
  CsrGraph::EdgeCursor edges = graph_->EdgesFrom(off);
  for (u64 i = 0; i < deg && filled < capacity; ++i) {
    if (i % options_.edges_per_access == 0) {
      out[filled++] = MemAccess{edges_start_ + (off + i) * kEdgeStride, thread, false};
      if (filled >= capacity) {
        break;
      }
    }
    u32 w = edges.Next();
    out[filled++] = MemAccess{state_start_ + w * kStateStride, thread, false};
    if (bfs) {
      if (!visited_[w]) {
        visited_[w] = true;
        frontier_.push_back(w);
      }
    } else if (relaxed != 0 && relaxed < dist_[w]) {
      dist_[w] = static_cast<u32>(relaxed);
      frontier_.push_back(w);
    }
  }
  return filled;
}

u32 GraphWorkload::NextBatch(MemAccess* out, u32 n) {
  u32 filled = 0;
  while (filled < n) {
    if (frontier_.empty()) {
      StartTraversal();
    }
    u32 v = frontier_.front();
    frontier_.pop_front();
    filled += ExpandVertex(v, out + filled, n - filled);
    // A capacity-truncated expansion drops the rest of the vertex's edges;
    // the access distribution is what matters, not exact traversal order.
  }
  return filled;
}

}  // namespace mtm
