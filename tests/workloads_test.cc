// Tests for the Table 2 workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/profiling/oracle.h"
#include "src/workloads/cassandra.h"
#include "src/workloads/graph.h"
#include "src/workloads/gups.h"
#include "src/workloads/pingpong.h"
#include "src/workloads/spark.h"
#include "src/workloads/voltdb.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factory.h"

namespace mtm {
namespace {

Workload::Params SmallParams(Bytes footprint) {
  Workload::Params p;
  p.footprint_bytes = footprint;
  p.num_threads = 8;
  p.seed = 42;
  return p;
}

// Runs a batch and checks every address lies inside some VMA.
void CheckAddressesInVmas(Workload& w, AddressSpace& as, u32 n = 4096) {
  std::vector<MemAccess> buf(n);
  ASSERT_EQ(w.NextBatch(buf.data(), n), n);
  for (const MemAccess& a : buf) {
    EXPECT_NE(as.FindVma(a.addr), nullptr) << std::hex << a.addr;
    EXPECT_LT(a.thread, w.params().num_threads);
  }
}

double MeasuredWriteFraction(Workload& w, u32 n = 65536) {
  std::vector<MemAccess> buf(n);
  w.NextBatch(buf.data(), n);
  u32 writes = 0;
  for (const MemAccess& a : buf) {
    writes += a.is_write;
  }
  return static_cast<double>(writes) / n;
}

TEST(GupsTest, BuildAndAddresses) {
  GupsWorkload gups(SmallParams(MiB(64)));
  AddressSpace as;
  gups.Build(as);
  EXPECT_EQ(as.vmas().size(), 3u);  // table, index, info — Figure 6's C/A/B
  CheckAddressesInVmas(gups, as);
}

TEST(GupsTest, ReadWriteOneToOne) {
  GupsWorkload gups(SmallParams(MiB(64)));
  AddressSpace as;
  gups.Build(as);
  // Updates are read+write pairs; A/B object reads pull the ratio slightly
  // below 0.5 writes.
  double wf = MeasuredWriteFraction(gups);
  EXPECT_GT(wf, 0.35);
  EXPECT_LT(wf, 0.5);
}

TEST(GupsTest, HotSetReceivesMostAccesses) {
  GupsWorkload::Options options;
  GupsWorkload gups(SmallParams(MiB(64)), options);
  AddressSpace as;
  gups.Build(as);
  std::vector<HotRange> truth = gups.TrueHotRanges();
  ASSERT_EQ(truth.size(), 3u);
  std::vector<MemAccess> buf(65536);
  gups.NextBatch(buf.data(), buf.size());
  u64 hot = 0;
  for (const MemAccess& a : buf) {
    for (const HotRange& r : truth) {
      if (a.addr >= r.start && a.addr < r.end()) {
        ++hot;
        break;
      }
    }
  }
  // 80% of table updates + A/B traffic land in declared-hot ranges.
  EXPECT_GT(static_cast<double>(hot) / buf.size(), 0.75);
}

TEST(GupsTest, HotSetDriftsAcrossPhases) {
  GupsWorkload::Options options;
  options.phase_ops = 10000;
  GupsWorkload gups(SmallParams(MiB(64)), options);
  AddressSpace as;
  gups.Build(as);
  HotRange before = gups.object_c();
  std::vector<MemAccess> buf(4096);
  for (int i = 0; i < 20; ++i) {
    gups.NextBatch(buf.data(), buf.size());
  }
  HotRange after = gups.object_c();
  EXPECT_NE(before.start, after.start);
  EXPECT_EQ(before.len, after.len);
}

TEST(GupsTest, StaticHotSetWithoutPhases) {
  GupsWorkload::Options options;
  options.phase_ops = 0;
  GupsWorkload gups(SmallParams(MiB(64)), options);
  AddressSpace as;
  gups.Build(as);
  HotRange before = gups.object_c();
  std::vector<MemAccess> buf(8192);
  for (int i = 0; i < 10; ++i) {
    gups.NextBatch(buf.data(), buf.size());
  }
  EXPECT_EQ(before.start, gups.object_c().start);
}

TEST(VoltDbTest, BuildAndAddresses) {
  VoltDbWorkload voltdb(SmallParams(MiB(64)));
  AddressSpace as;
  voltdb.Build(as);
  EXPECT_EQ(as.vmas().size(), 4u);  // tables, index, order log, history
  // History grows at runtime rather than during initialization.
  EXPECT_FALSE(as.vma(3).prefault);
  CheckAddressesInVmas(voltdb, as);
}

TEST(VoltDbTest, WarehouseSkew) {
  VoltDbWorkload::Options options;
  options.num_warehouses = 64;
  VoltDbWorkload voltdb(SmallParams(MiB(64)), options);
  AddressSpace as;
  voltdb.Build(as);
  const Vma& tables = as.vma(0);
  std::vector<MemAccess> buf(65536);
  voltdb.NextBatch(buf.data(), buf.size());
  // Count accesses per warehouse block; zipf should concentrate them.
  u64 wh_bytes = (HugeAlignDown(tables.len) / 64).value();
  std::map<u64, u64> per_wh;
  for (const MemAccess& a : buf) {
    if (tables.Contains(a.addr)) {
      per_wh[(a.addr - tables.start) / wh_bytes]++;
    }
  }
  u64 max_count = 0;
  u64 total = 0;
  for (auto& [wh, count] : per_wh) {
    max_count = std::max(max_count, count);
    total += count;
  }
  EXPECT_GT(max_count, total / 64 * 3);  // hottest warehouse >> average
}

TEST(VoltDbTest, ReadWriteMix) {
  VoltDbWorkload voltdb(SmallParams(MiB(64)));
  AddressSpace as;
  voltdb.Build(as);
  double wf = MeasuredWriteFraction(voltdb);
  EXPECT_GT(wf, 0.35);
  EXPECT_LT(wf, 0.6);
}

TEST(CassandraTest, BuildAndAddresses) {
  CassandraWorkload cassandra(SmallParams(MiB(64)));
  AddressSpace as;
  cassandra.Build(as);
  EXPECT_EQ(as.vmas().size(), 3u);  // rows, memtable, commit log
  CheckAddressesInVmas(cassandra, as);
}

TEST(CassandraTest, UpdateHeavyMix) {
  CassandraWorkload cassandra(SmallParams(MiB(64)));
  AddressSpace as;
  cassandra.Build(as);
  double wf = MeasuredWriteFraction(cassandra);
  EXPECT_GT(wf, 0.3);  // YCSB-A: ~50% updates plus memtable/commitlog writes
  EXPECT_LT(wf, 0.65);
}

TEST(CassandraTest, ZipfKeysCluster) {
  CassandraWorkload cassandra(SmallParams(MiB(64)));
  AddressSpace as;
  cassandra.Build(as);
  const Vma& rows = as.vma(0);
  std::vector<MemAccess> buf(65536);
  cassandra.NextBatch(buf.data(), buf.size());
  std::map<u64, u64> per_block;  // 4 MiB blocks
  u64 total = 0;
  for (const MemAccess& a : buf) {
    if (rows.Contains(a.addr)) {
      per_block[(a.addr - rows.start) / MiB(4).value()]++;
      ++total;
    }
  }
  u64 max_count = 0;
  for (auto& [b, count] : per_block) {
    max_count = std::max(max_count, count);
  }
  u64 blocks = rows.len / MiB(4);
  EXPECT_GT(max_count, total / blocks * 2);
}

TEST(CsrGraphTest, StructureValid) {
  CsrGraph graph(10000, 15.5, 0.6, 7);
  EXPECT_EQ(graph.num_vertices(), 10000u);
  EXPECT_NEAR(static_cast<double>(graph.num_edges()), 155000.0, 155000.0 * 0.02);
  u64 prev = 0;
  for (u64 v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_GE(graph.OffsetOf(v), prev);
    prev = graph.OffsetOf(v);
    EXPECT_EQ(graph.OffsetOf(v) + graph.DegreeOf(v), graph.OffsetOf(v + 1));
  }
  CsrGraph::EdgeCursor edges = graph.EdgesFrom(0);
  for (u64 i = 0; i < std::min<u64>(graph.num_edges(), 10000); ++i) {
    EXPECT_LT(edges.Next(), graph.num_vertices());
  }
}

TEST(CsrGraphTest, DegreeSkewHubsAtLowIds) {
  CsrGraph graph(10000, 15.5, 0.6, 7);
  u64 head_degree = 0;
  for (u64 v = 0; v < 100; ++v) {
    head_degree += graph.DegreeOf(v);
  }
  u64 tail_degree = 0;
  for (u64 v = 9000; v < 9100; ++v) {
    tail_degree += graph.DegreeOf(v);
  }
  EXPECT_GT(head_degree, tail_degree * 5);
}

TEST(GraphWorkloadTest, BfsEmitsValidReadOnlyAccesses) {
  GraphWorkload::Options options;
  options.algorithm = GraphWorkload::Algorithm::kBfs;
  GraphWorkload bfs(SmallParams(MiB(64)), options);
  AddressSpace as;
  bfs.Build(as);
  EXPECT_EQ(as.vmas().size(), 3u);  // offsets, edges, state
  std::vector<MemAccess> buf(8192);
  ASSERT_EQ(bfs.NextBatch(buf.data(), buf.size()), buf.size());
  for (const MemAccess& a : buf) {
    EXPECT_NE(as.FindVma(a.addr), nullptr);
    EXPECT_FALSE(a.is_write);  // Table 2: read-only
  }
  EXPECT_DOUBLE_EQ(bfs.read_fraction(), 1.0);
}

TEST(GraphWorkloadTest, SsspRuns) {
  GraphWorkload::Options options;
  options.algorithm = GraphWorkload::Algorithm::kSssp;
  GraphWorkload sssp(SmallParams(MiB(64)), options);
  AddressSpace as;
  sssp.Build(as);
  EXPECT_EQ(sssp.name(), "sssp");
  std::vector<MemAccess> buf(8192);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(sssp.NextBatch(buf.data(), buf.size()), buf.size());
  }
}

TEST(GraphWorkloadTest, EdgeArrayDominatesTraffic) {
  GraphWorkload::Options options;
  GraphWorkload bfs(SmallParams(MiB(64)), options);
  AddressSpace as;
  bfs.Build(as);
  const Vma* edges = nullptr;
  for (const Vma& v : as.vmas()) {
    if (v.name == "graph.edges") {
      edges = &v;
    }
  }
  ASSERT_NE(edges, nullptr);
  std::vector<MemAccess> buf(65536);
  bfs.NextBatch(buf.data(), buf.size());
  u64 edge_hits = 0;
  for (const MemAccess& a : buf) {
    edge_hits += edges->Contains(a.addr);
  }
  EXPECT_GT(edge_hits, buf.size() / 12);
}

// A seed whose CsrGraph(1280, 1.0, 0.99) leaves the last vertex no edges.
constexpr u64 kExactSeed = 3;

// A CSR graph built straight from its definition: the analytic degrees, the
// rounding remainder spread by sequential draws, then one draw per edge.
struct ReferenceGraph {
  std::vector<u64> degree;
  std::vector<u32> edges;
};

ReferenceGraph BuildReferenceGraph(u64 n, double avg_degree, double theta, u64 seed) {
  const u64 target = static_cast<u64>(static_cast<double>(n) * avg_degree);
  double norm = 0.0;
  for (u64 r = 0; r < n; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r + 1), theta);
  }
  ReferenceGraph ref;
  u64 assigned = 0;
  for (u64 r = 0; r < n; ++r) {
    double share = (1.0 / std::pow(static_cast<double>(r + 1), theta)) / norm;
    ref.degree.push_back(static_cast<u32>(share * static_cast<double>(target)));
    assigned += ref.degree.back();
  }
  Rng rng(seed);
  for (; assigned < target; ++assigned) {
    ++ref.degree[rng.NextBounded(n)];
  }
  for (u64 i = 0; i < target; ++i) {
    ref.edges.push_back(static_cast<u32>(rng.NextBounded(n)));
  }
  return ref;
}

// The checkpointed edge stream equals a plain sequential replay: at a
// checkpoint, on either side of one, at the last edge, and read through.
void ExpectMatchesReference(const CsrGraph& graph, const ReferenceGraph& ref) {
  ASSERT_EQ(graph.num_edges(), ref.edges.size());
  for (u64 v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(graph.DegreeOf(v), ref.degree[v]) << v;
  }
  const u64 last = graph.num_edges() - 1;
  for (u64 i : {u64{0}, u64{127}, u64{128}, u64{129}, last}) {
    EXPECT_EQ(graph.EdgesFrom(i).Next(), ref.edges[i]) << i;
  }
  CsrGraph::EdgeCursor cursor = graph.EdgesFrom(0);
  for (u64 i = 0; i < graph.num_edges(); ++i) {
    ASSERT_EQ(cursor.Next(), ref.edges[i]) << i;
  }
}

TEST(CsrGraphTest, EdgesMatchSequentialStream) {
  ExpectMatchesReference(CsrGraph(10000, 15.5, 0.6, 7), BuildReferenceGraph(10000, 15.5, 0.6, 7));
  // 1280 edges fill exactly ten checkpoint spans and the last vertex has no
  // edges: its cursor starts at num_edges, on the extra checkpoint.
  CsrGraph exact(1280, 1.0, 0.99, kExactSeed);
  ASSERT_EQ(exact.num_edges() % CsrGraph::kEdgesPerCheckpoint, 0u);
  ASSERT_EQ(exact.DegreeOf(exact.num_vertices() - 1), 0u);
  ExpectMatchesReference(exact, BuildReferenceGraph(1280, 1.0, 0.99, kExactSeed));
  // EdgesFrom CHECK-fails when the checkpoint it starts from is missing.
  exact.EdgesFrom(exact.num_edges());
}

// Replays BFS from the workload's own access stream with a reference
// visited set: each offset load expands the head of the reference frontier,
// and an empty reference frontier starts the next traversal. The visited
// bitset's word boundary (63 | 64) and its last vertex are each expanded at
// most once per traversal.
TEST(GraphWorkloadTest, BfsExpandsEachVertexOncePerTraversal) {
  GraphWorkload bfs(SmallParams(MiB(1)), GraphWorkload::Options{});
  AddressSpace as;
  bfs.Build(as);
  const Vma& offsets = as.vma(0);
  const Vma& state = as.vma(2);
  const u64 n = bfs.graph().num_vertices();
  const std::vector<u64> watched = {63, 64, n - 1};
  std::vector<bool> visited;
  std::deque<u64> frontier;
  std::map<u64, u64> expansions;        // in the current traversal
  std::map<u64, u64> total_expansions;  // over the run
  u64 traversals = 0;
  std::vector<MemAccess> buf(4096);
  for (int batch = 0; batch < 64; ++batch) {
    ASSERT_EQ(bfs.NextBatch(buf.data(), buf.size()), buf.size());
    for (const MemAccess& a : buf) {
      if (offsets.Contains(a.addr)) {
        const u64 v = (a.addr - offsets.start) / 8;
        if (frontier.empty()) {
          ++traversals;
          visited.assign(n, false);
          visited[v] = true;
          expansions.clear();
        } else {
          ASSERT_EQ(v, frontier.front()) << "traversal " << traversals;
          frontier.pop_front();
        }
        if (std::find(watched.begin(), watched.end(), v) != watched.end()) {
          EXPECT_EQ(++expansions[v], 1u) << "vertex " << v << " traversal " << traversals;
          ++total_expansions[v];
        }
      } else if (state.Contains(a.addr)) {
        const u64 w = (a.addr - state.start) / 8;
        if (!visited[w]) {
          visited[w] = true;
          frontier.push_back(w);
        }
      }
    }
  }
  EXPECT_GE(traversals, 3u);
  for (u64 v : watched) {
    EXPECT_GE(total_expansions[v], 2u) << v;
  }
}

// The bfs and sssp access-stream hashes at 64 MiB, seed 42. With unit
// weights in FIFO order SSSP relaxes exactly the vertices BFS discovers, so
// the two streams are the same.
constexpr u64 kBfsStreamHash = 0x9f286f29e39061f6ull;
constexpr u64 kSsspStreamHash = 0x9f286f29e39061f6ull;

// FNV-1a over the first `count` accesses, drawn in batches of 4096.
u64 HashAccessStream(Workload& w, u64 count) {
  std::vector<MemAccess> buf(4096);
  u64 hash = 0xcbf29ce484222325ull;
  for (u64 done = 0; done < count; done += buf.size()) {
    EXPECT_EQ(w.NextBatch(buf.data(), buf.size()), buf.size());
    for (const MemAccess& a : buf) {
      for (u64 word : {a.addr.value(), u64{a.thread}, u64{a.is_write}}) {
        hash = (hash ^ word) * 0x100000001b3ull;
      }
    }
  }
  return hash;
}

// Pins the graph workloads' access streams: a host-side change to the graph
// code must leave these hashes, recorded before edges were regenerated from
// checkpoints, unchanged.
TEST(GraphWorkloadTest, AccessStreamsArePinned) {
  for (auto [algorithm, expected] :
       {std::pair{GraphWorkload::Algorithm::kBfs, kBfsStreamHash},
        std::pair{GraphWorkload::Algorithm::kSssp, kSsspStreamHash}}) {
    GraphWorkload::Options options;
    options.algorithm = algorithm;
    GraphWorkload graph(SmallParams(MiB(64)), options);
    AddressSpace as;
    graph.Build(as);
    EXPECT_EQ(HashAccessStream(graph, u64{1} << 21), expected) << graph.name();
  }
}

TEST(SparkTest, PhasesAlternate) {
  SparkTeraSortWorkload spark(SmallParams(MiB(32)));
  AddressSpace as;
  spark.Build(as);
  ASSERT_EQ(as.vmas().size(), 3u);  // input, shuffle, output
  const Vma& input = as.vma(0);
  const Vma& shuffle = as.vma(1);
  const Vma& output = as.vma(2);
  // Run long enough to cross map -> reduce -> map.
  std::vector<MemAccess> buf(8192);
  u64 input_hits = 0;
  u64 shuffle_hits = 0;
  u64 output_hits = 0;
  for (int i = 0; i < 200; ++i) {
    spark.NextBatch(buf.data(), buf.size());
    for (const MemAccess& a : buf) {
      input_hits += input.Contains(a.addr);
      shuffle_hits += shuffle.Contains(a.addr);
      output_hits += output.Contains(a.addr);
    }
  }
  EXPECT_GT(input_hits, 0u);
  EXPECT_GT(shuffle_hits, 0u);
  EXPECT_GT(output_hits, 0u);
}

TEST(SparkTest, ReadWriteMix) {
  SparkTeraSortWorkload spark(SmallParams(MiB(32)));
  AddressSpace as;
  spark.Build(as);
  double wf = MeasuredWriteFraction(spark);
  EXPECT_GT(wf, 0.25);
  EXPECT_LT(wf, 0.65);
}

TEST(PingPongTest, BuildAndAddresses) {
  PingPongWorkload pp(SmallParams(MiB(64)));
  AddressSpace as;
  pp.Build(as);
  EXPECT_EQ(as.vmas().size(), 1u);  // one table; the two sets live inside it
  CheckAddressesInVmas(pp, as);
}

TEST(PingPongTest, ReadWriteOneToOne) {
  PingPongWorkload pp(SmallParams(MiB(64)));
  AddressSpace as;
  pp.Build(as);
  EXPECT_DOUBLE_EQ(MeasuredWriteFraction(pp), 0.5);  // pure read+write updates
}

TEST(PingPongTest, ActiveSetReceivesMostAccesses) {
  PingPongWorkload::Options options;
  options.flip_ops = 0;  // hold set A hot for the whole measurement
  PingPongWorkload pp(SmallParams(MiB(64)), options);
  AddressSpace as;
  pp.Build(as);
  std::vector<HotRange> truth = pp.TrueHotRanges();
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0].start, pp.set_a().start);
  std::vector<MemAccess> buf(65536);
  pp.NextBatch(buf.data(), buf.size());
  u64 active = 0;
  u64 inactive = 0;
  for (const MemAccess& a : buf) {
    active += a.addr >= truth[0].start && a.addr < truth[0].end();
    inactive += a.addr >= pp.set_b().start && a.addr < pp.set_b().end();
  }
  // ~90% of updates hit the active set; the cold set only sees its share of
  // the uniform background (hot_fraction of the remaining 10%).
  EXPECT_GT(static_cast<double>(active) / buf.size(), 0.8);
  EXPECT_LT(static_cast<double>(inactive) / buf.size(), 0.05);
}

TEST(PingPongTest, HotSetFlipsEachEpoch) {
  PingPongWorkload::Options options;
  options.flip_ops = 1000;
  PingPongWorkload pp(SmallParams(MiB(64)), options);
  AddressSpace as;
  pp.Build(as);
  ASSERT_EQ(pp.TrueHotRanges()[0].start, pp.set_a().start);
  std::vector<MemAccess> buf(2048);  // 1024 updates = one epoch boundary
  pp.NextBatch(buf.data(), buf.size());
  EXPECT_EQ(pp.epoch(), 1u);
  EXPECT_EQ(pp.TrueHotRanges()[0].start, pp.set_b().start);
  pp.NextBatch(buf.data(), buf.size());
  EXPECT_EQ(pp.epoch(), 2u);
  EXPECT_EQ(pp.TrueHotRanges()[0].start, pp.set_a().start);
}

TEST(PingPongTest, SetsAreDisjoint) {
  PingPongWorkload pp(SmallParams(MiB(64)));
  AddressSpace as;
  pp.Build(as);
  EXPECT_LT(pp.set_a().end(), pp.set_b().start);
  EXPECT_EQ(pp.set_a().len, pp.set_b().len);
}

TEST(WorkloadFactoryTest, PingPongRegistered) {
  auto w = MakeWorkload("pingpong", /*sim_scale=*/4096, 8, 1);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name(), "pingpong");
  EXPECT_EQ(w->params().footprint_bytes, GiB(400) / 4096);
  AddressSpace as;
  w->Build(as);
  std::vector<MemAccess> buf(1024);
  EXPECT_EQ(w->NextBatch(buf.data(), 1024), 1024u);
}

TEST(WorkloadFactoryTest, AllNamesBuild) {
  EXPECT_TRUE(IsKnownWorkload("pingpong"));
  EXPECT_FALSE(IsKnownWorkload("bogus"));
  for (const std::string& name : AllWorkloadNames()) {
    EXPECT_TRUE(IsKnownWorkload(name)) << name;
    auto w = MakeWorkload(name, /*sim_scale=*/4096, 8, 1);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
    AddressSpace as;
    w->Build(as);
    EXPECT_GT(as.total_bytes(), Bytes{});
    std::vector<MemAccess> buf(1024);
    EXPECT_EQ(w->NextBatch(buf.data(), 1024), 1024u);
  }
}

TEST(WorkloadFactoryTest, FootprintsMatchTable2Scaled) {
  const u64 scale = 4096;
  EXPECT_EQ(MakeWorkload("gups", scale, 8, 1)->params().footprint_bytes, GiB(512) / scale);
  EXPECT_EQ(MakeWorkload("voltdb", scale, 8, 1)->params().footprint_bytes, GiB(300) / scale);
  EXPECT_EQ(MakeWorkload("cassandra", scale, 8, 1)->params().footprint_bytes,
            GiB(400) / scale);
  EXPECT_EQ(MakeWorkload("bfs", scale, 8, 1)->params().footprint_bytes, GiB(525) / scale);
  EXPECT_EQ(MakeWorkload("spark", scale, 8, 1)->params().footprint_bytes, GiB(350) / scale);
}

TEST(WorkloadDeterminismTest, SameSeedSameStream) {
  auto a = MakeWorkload("voltdb", 4096, 8, 99);
  auto b = MakeWorkload("voltdb", 4096, 8, 99);
  AddressSpace as_a;
  AddressSpace as_b;
  a->Build(as_a);
  b->Build(as_b);
  std::vector<MemAccess> buf_a(4096);
  std::vector<MemAccess> buf_b(4096);
  a->NextBatch(buf_a.data(), 4096);
  b->NextBatch(buf_b.data(), 4096);
  for (u32 i = 0; i < 4096; ++i) {
    EXPECT_EQ(buf_a[i].addr, buf_b[i].addr);
    EXPECT_EQ(buf_a[i].is_write, buf_b[i].is_write);
  }
}

}  // namespace
}  // namespace mtm
