// ShardedMisEngine: independence + maximality of the resolved solution
// under churn, hash vs range partition plans, deterministic replay (both
// across runs and across flush/block boundaries and barrier cadences), S=1
// degeneration to the single engine, vertex inserts landing in the plan's
// shard, snapshot round-trips including empty shards, and golden
// per-barrier output of the barrier repair.

#include "dynmis/sharded_engine.h"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dynmis/engine.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::IsIndependentSet;
using testing_util::IsMaximalIndependentSet;

EdgeListGraph SmallGraph(uint64_t seed = 7, int n = 200, int m = 600) {
  Rng rng(seed);
  return ErdosRenyiGnm(n, m, &rng);
}

std::vector<GraphUpdate> ChurnTrace(const EdgeListGraph& base, int count,
                                    uint64_t seed) {
  UpdateStreamOptions stream;
  stream.seed = seed;
  stream.edge_op_fraction = 0.7;  // Plenty of vertex churn.
  return MakeUpdateSequence(base.ToDynamic(), count, stream);
}

ShardedEngineOptions Opts(int shards, PartitionStrategy strategy =
                                          PartitionStrategy::kHash) {
  ShardedEngineOptions options;
  options.num_shards = shards;
  options.partition = strategy;
  return options;
}

// Replays `trace` through ApplyBatch in chunks of `chunk` ops, forcing a
// barrier + resolution after every `query_every` chunks (never when 0).
// Returns the engine for final queries, or nullptr when creation fails.
std::unique_ptr<ShardedMisEngine> ReplayInChunks(
    const EdgeListGraph& base, const std::vector<GraphUpdate>& trace,
    const ShardedEngineOptions& options, size_t chunk, int query_every) {
  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
  if (engine == nullptr) return nullptr;
  engine->Initialize();
  int since_query = 0;
  for (size_t i = 0; i < trace.size(); i += chunk) {
    const size_t end = std::min(trace.size(), i + chunk);
    engine->ApplyBatch({trace.begin() + static_cast<long>(i),
                        trace.begin() + static_cast<long>(end)});
    if (query_every > 0 && ++since_query >= query_every) {
      since_query = 0;
      engine->SolutionSize();  // Forces a barrier + resolution mid-run.
    }
  }
  return engine;
}

// ReplayInChunks with the block size set, returning the final solution.
std::vector<VertexId> ReplaySolution(const EdgeListGraph& base,
                                     const std::vector<GraphUpdate>& trace,
                                     ShardedEngineOptions options,
                                     int block_ops, size_t chunk,
                                     int query_every) {
  options.block_ops = block_ops;
  auto engine = ReplayInChunks(base, trace, options, chunk, query_every);
  EXPECT_NE(engine, nullptr);
  return engine != nullptr ? engine->Solution() : std::vector<VertexId>{};
}

TEST(ShardedEngineTest, CreateRejectsBadConfiguration) {
  const EdgeListGraph base = SmallGraph();
  EXPECT_EQ(ShardedMisEngine::Create(base, {"NoSuchAlgorithm"}, Opts(2)),
            nullptr);
  EXPECT_EQ(ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(0)), nullptr);
}

TEST(ShardedEngineTest, PartitionPlanCoversAllShards) {
  const PartitionPlan one = PartitionPlan::Hash(1);
  for (VertexId v = 0; v < 1000; ++v) EXPECT_EQ(one.ShardOf(v), 0);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    const PartitionPlan plan = PartitionPlan::Make(strategy, 5, 1000);
    std::vector<int> hits(5, 0);
    for (VertexId v = 0; v < 5000; ++v) {
      const int s = plan.ShardOf(v);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 5);
      ++hits[s];
    }
    // Both strategies spread a dense id range over every shard — including
    // ids far past the range plan's expected capacity.
    for (int s = 0; s < 5; ++s) EXPECT_GT(hits[s], 0) << s;
  }
}

// The headline invariant: at every barrier the resolved solution is an
// independent — in fact maximal — set of the *global* graph, which an
// independently maintained replica verifies.
TEST(ShardedEngineTest, SolutionStaysMaximalIndependentUnderChurn) {
  const EdgeListGraph base = SmallGraph();
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 600, 13);

  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  DynamicGraph replica = base.ToDynamic();
  EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()));

  int applied = 0;
  for (const GraphUpdate& update : trace) {
    engine->Apply(update);
    ApplyUpdate(&replica, update);
    if (++applied % 150 == 0) {
      EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
          << "after " << applied << " updates";
    }
  }
  const std::vector<VertexId> solution = engine->Solution();
  EXPECT_TRUE(IsMaximalIndependentSet(replica, solution));
  EXPECT_EQ(static_cast<int64_t>(solution.size()), engine->SolutionSize());
  for (VertexId v : solution) EXPECT_TRUE(engine->InSolution(v));

  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.num_vertices, replica.NumVertices());
  EXPECT_EQ(stats.num_edges, replica.NumEdges());
  EXPECT_EQ(stats.updates_applied, 600);
  EXPECT_GT(stats.structure_memory_bytes, 0u);
  EXPECT_GT(stats.graph_memory_bytes, 0u);

  const ShardedStats sharded = engine->ShardStats();
  EXPECT_EQ(sharded.num_shards, 4);
  EXPECT_EQ(sharded.partition, "hash");
  EXPECT_EQ(sharded.intra_edges + sharded.cut_edges, replica.NumEdges());
  EXPECT_GT(sharded.cut_edges, 0);
  EXPECT_GT(sharded.cut_edge_fraction, 0.0);
  EXPECT_LT(sharded.cut_edge_fraction, 1.0);
  EXPECT_EQ(sharded.shard_solution_sizes.size(), 4u);
}

TEST(ShardedEngineTest, HashAndRangePlansBothMaintainInvariants) {
  const EdgeListGraph base = SmallGraph(17);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 19);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    auto engine =
        ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(3, strategy));
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    DynamicGraph replica = base.ToDynamic();
    for (const GraphUpdate& update : trace) {
      engine->Apply(update);
      ApplyUpdate(&replica, update);
    }
    EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
        << PartitionStrategyName(strategy);
  }
}

// The final solution is a pure function of the update sequence: replaying
// with a different block size, a different batch chopping, and extra
// mid-stream barriers must reproduce it exactly.
TEST(ShardedEngineTest, DeterministicReplayAcrossFlushBoundaries) {
  const EdgeListGraph base = SmallGraph(23);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 500, 29);

  const std::vector<VertexId> a =
      ReplaySolution(base, trace, Opts(3), 1024, 97, 0);
  const std::vector<VertexId> b = ReplaySolution(base, trace, Opts(3), 7, 1, 3);
  const std::vector<VertexId> c =
      ReplaySolution(base, trace, Opts(3), 256, 500, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);

  // Resolution never writes back to the shards, so the final solution
  // does not depend on how often barriers resolved along the way either:
  // a barrier every 7 ops and one every 100 reach the same maximal
  // independent set, across seeds, shard counts and plans.
  for (const uint64_t seed : {131, 137, 139, 149}) {
    const EdgeListGraph graph = SmallGraph(seed, 300, 900);
    const std::vector<GraphUpdate> stream = ChurnTrace(graph, 500, seed + 1);
    DynamicGraph replica = graph.ToDynamic();
    for (const GraphUpdate& update : stream) ApplyUpdate(&replica, update);
    for (const int shards : {2, 4}) {
      for (const PartitionStrategy strategy :
           {PartitionStrategy::kHash, PartitionStrategy::kLocality}) {
        const std::string where = "seed " + std::to_string(seed) + " S=" +
                                  std::to_string(shards) + " " +
                                  PartitionStrategyName(strategy);
        auto fine = ReplayInChunks(graph, stream, Opts(shards, strategy), 7, 1);
        auto coarse =
            ReplayInChunks(graph, stream, Opts(shards, strategy), 100, 1);
        ASSERT_NE(fine, nullptr) << where;
        ASSERT_NE(coarse, nullptr) << where;
        const std::vector<VertexId> solution = fine->Solution();
        EXPECT_EQ(solution, coarse->Solution()) << where;
        EXPECT_TRUE(IsMaximalIndependentSet(replica, solution)) << where;
        // The churn produced cut conflicts, so the repair really ran.
        EXPECT_GT(fine->ShardStats().conflicts, 0) << where;
      }
    }
  }
}

// S=1 is the degenerate case: every edge is intra-shard and the single
// worker replays exactly the single engine's op sequence, so the solutions
// agree verbatim.
TEST(ShardedEngineTest, SingleShardMatchesSingleEngine) {
  const EdgeListGraph base = SmallGraph(31);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 37);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    auto sharded =
        ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(1, strategy));
    ASSERT_NE(sharded, nullptr);
    sharded->Initialize();
    auto single = MisEngine::Create(base, {"DyTwoSwap"});
    ASSERT_NE(single, nullptr);
    single->Initialize();

    for (const GraphUpdate& update : trace) {
      const UpdateResult a = sharded->Apply(update);
      const UpdateResult b = single->Apply(update);
      // Global id allocation mirrors the single engine exactly.
      EXPECT_EQ(a.new_vertices, b.new_vertices);
    }
    std::vector<VertexId> expected = single->Solution();
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sharded->Solution(), expected)
        << PartitionStrategyName(strategy);
    EXPECT_EQ(sharded->ShardStats().cut_edges, 0);
    EXPECT_EQ(sharded->Stats().num_edges, single->Stats().num_edges);
  }
}

// Vertex inserts that grow the id space land in the shard the plan names,
// with their neighbor edges split into intra-shard and cut correctly.
TEST(ShardedEngineTest, GrowingVertexInsertsLandInPlanShard) {
  EdgeListGraph base;
  base.n = 8;
  base.edges = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  auto engine = ShardedMisEngine::Create(
      base, {"DyOneSwap"}, Opts(4, PartitionStrategy::kRange));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();

  std::vector<VertexId> inserted;
  for (int i = 0; i < 12; ++i) {
    const VertexId v = engine->InsertVertex({static_cast<VertexId>(i % 8)});
    ASSERT_NE(v, kInvalidVertex);
    EXPECT_GE(v, 8) << "fresh ids only: nothing was deleted";
    inserted.push_back(v);
  }
  engine->Flush();
  for (const VertexId v : inserted) {
    const int home = engine->plan().ShardOf(v);
    EXPECT_TRUE(engine->shard_graph(home).IsVertexAlive(v)) << v;
    for (int s = 0; s < engine->num_shards(); ++s) {
      if (s == home) continue;
      EXPECT_FALSE(engine->shard_graph(s).IsVertexAlive(v))
          << v << " duplicated into shard " << s;
    }
    // The single neighbor edge went to exactly one structure.
    EXPECT_EQ(engine->shard_graph(home).Degree(v) +
                  engine->resolver().CutDegree(v),
              1)
        << v;
  }
  DynamicGraph replica = base.ToDynamic();
  for (int i = 0; i < 12; ++i) {
    GraphUpdate update;
    update.kind = UpdateKind::kInsertVertex;
    update.neighbors = {static_cast<VertexId>(i % 8)};
    ApplyUpdate(&replica, update);
  }
  EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()));
}

TEST(ShardedEngineTest, SnapshotRoundTripAndDeterministicContinuation) {
  const EdgeListGraph base = SmallGraph(41);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 600, 43);

  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(3));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  for (size_t i = 0; i < 300; ++i) engine->Apply(trace[i]);

  std::ostringstream sink;
  ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
  const std::string bytes = sink.str();

  std::istringstream source(bytes);
  SnapshotStatus status;
  auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
  ASSERT_NE(restored, nullptr) << status.message;
  EXPECT_EQ(restored->num_shards(), 3);
  EXPECT_EQ(restored->Solution(), engine->Solution());
  EXPECT_EQ(restored->Stats().updates_applied,
            engine->Stats().updates_applied);

  // The restored engine continues deterministically: the suffix replays to
  // the identical final solution, including recycled vertex ids.
  for (size_t i = 300; i < trace.size(); ++i) {
    const UpdateResult a = engine->Apply(trace[i]);
    const UpdateResult b = restored->Apply(trace[i]);
    EXPECT_EQ(a.new_vertices, b.new_vertices);
  }
  EXPECT_EQ(restored->Solution(), engine->Solution());

  // Corruption anywhere in the container is detected, never mis-parsed.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^
                                                  0x20);
  std::istringstream bad(corrupt);
  EXPECT_EQ(ShardedMisEngine::LoadSnapshot(bad, &status), nullptr);
  EXPECT_FALSE(status.ok);

  std::istringstream truncated(bytes.substr(0, bytes.size() / 3));
  EXPECT_EQ(ShardedMisEngine::LoadSnapshot(truncated, &status), nullptr);
  EXPECT_FALSE(status.ok);
}

// Regression: the polish pass bounds its quadratic pair search to a small
// low-degree pool, but every exclusively-covered neighbor of the swapped-out
// member must still rejoin — truncating the re-add loop to the pool left
// the overflow vertices uncovered (a non-maximal result). Construction: a
// shard-0 hub v with 17 cut neighbors u_i (more than the pool) whose
// intra-shard covers w_i all get evicted at the barrier, so after the
// resolution's eviction/re-extension steps every u_i is covered only by v
// and the polish must swap v for all 17.
TEST(ShardedEngineTest, PolishReaddsBeyondPairPool) {
  constexpr int kFan = 17;  // One more than the polish pair pool.
  EdgeListGraph base;
  base.n = 102;  // Range plan, 3 shards: blocks 0..33 / 34..67 / 68..101.
  const VertexId v = 0;
  for (int i = 0; i < kFan; ++i) {
    const VertexId w = 34 + i;  // Shard 1, low ids: the local greedy's pick.
    const VertexId u = 51 + i;  // Shard 1, covered only by w intra-shard.
    const VertexId x = 68 + i;  // Shard 2: evicts w across the cut.
    base.edges.emplace_back(v, u);  // Cut 0-1.
    base.edges.emplace_back(w, u);  // Intra shard 1.
    base.edges.emplace_back(w, x);  // Cut 1-2.
  }
  auto engine = ShardedMisEngine::Create(
      base, {"DyTwoSwap"}, Opts(3, PartitionStrategy::kRange));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  const std::vector<VertexId> solution = engine->Solution();
  // The construction must actually have driven the polish (if the local
  // greedy picked the u side instead of w, this scenario degenerates).
  EXPECT_GE(engine->ShardStats().swaps, 1);
  EXPECT_TRUE(IsMaximalIndependentSet(base.ToDynamic(), solution));
  for (int i = 0; i < kFan; ++i) {
    EXPECT_TRUE(engine->InSolution(51 + i)) << "u_" << i << " left uncovered";
  }
}

TEST(ShardedEngineTest, EmptyShardsSurviveSnapshotRoundTrip) {
  EdgeListGraph base;
  base.n = 3;
  base.edges = {{0, 1}};
  // Range plan with block size 1: vertices 0..2 own shards 0..2, shards
  // 3..7 start — and stay — empty.
  auto engine = ShardedMisEngine::Create(
      base, {"DyTwoSwap"}, Opts(8, PartitionStrategy::kRange));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  engine->InsertEdge(1, 2);
  engine->Flush();

  int empty_shards = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    if (engine->shard_graph(s).NumVertices() == 0) ++empty_shards;
  }
  EXPECT_GE(empty_shards, 5);

  std::ostringstream sink;
  ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
  std::istringstream source(sink.str());
  SnapshotStatus status;
  auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
  ASSERT_NE(restored, nullptr) << status.message;
  EXPECT_EQ(restored->Solution(), engine->Solution());

  // Empty shards keep working after the round trip.
  const VertexId v = restored->InsertVertex({0});
  EXPECT_NE(v, kInvalidVertex);
  DynamicGraph replica = base.ToDynamic();
  replica.AddEdge(1, 2);
  GraphUpdate update;
  update.kind = UpdateKind::kInsertVertex;
  update.neighbors = {0};
  ApplyUpdate(&replica, update);
  EXPECT_TRUE(IsMaximalIndependentSet(replica, restored->Solution()));
}

// A graph with planted community structure on consecutive id blocks:
// mostly intra-cluster edges plus a thin sprinkle of inter-cluster ones.
// The streaming locality plan should keep clusters together; hash scatters
// them by construction.
EdgeListGraph ClusteredGraph(int clusters, int cluster_size,
                             int intra_per_vertex, int inter_edges,
                             uint64_t seed) {
  Rng rng(seed);
  EdgeListGraph g;
  g.n = clusters * cluster_size;
  std::set<std::pair<VertexId, VertexId>> seen;
  auto add = [&](VertexId u, VertexId v) {
    if (u == v) return;
    if (u > v) std::swap(u, v);
    if (seen.insert({u, v}).second) g.edges.emplace_back(u, v);
  };
  for (int c = 0; c < clusters; ++c) {
    const VertexId lo = static_cast<VertexId>(c) * cluster_size;
    for (int i = 0; i < cluster_size * intra_per_vertex; ++i) {
      add(lo + static_cast<VertexId>(
                   rng.NextBounded(static_cast<uint64_t>(cluster_size))),
          lo + static_cast<VertexId>(
                   rng.NextBounded(static_cast<uint64_t>(cluster_size))));
    }
  }
  for (int i = 0; i < inter_edges; ++i) {
    add(static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(g.n))),
        static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(g.n))));
  }
  return g;
}

// The maintained solution stays maximal-independent at S=4, and at S=1
// (no cut edges, so the resolver never repairs anything) it reproduces the
// single engine's solution bit-for-bit.
TEST(ShardedEngineTest, MaximalAtFourShardsAndSingleEngineAtOne) {
  const EdgeListGraph base = SmallGraph(59);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 61);

  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  DynamicGraph replica = base.ToDynamic();
  for (const GraphUpdate& update : trace) {
    engine->Apply(update);
    ApplyUpdate(&replica, update);
  }
  EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()));

  auto one_shard = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(1));
  ASSERT_NE(one_shard, nullptr);
  one_shard->Initialize();
  auto single = MisEngine::Create(base, {"DyTwoSwap"});
  ASSERT_NE(single, nullptr);
  single->Initialize();
  for (const GraphUpdate& update : trace) {
    one_shard->Apply(update);
    single->Apply(update);
  }
  std::vector<VertexId> expected = single->Solution();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(one_shard->Solution(), expected);
}

// Replay determinism extends to the locality plan: block size, batch
// chopping, and mid-stream barriers must not change the final solution
// (the plan assigns ids in stream order, which is identical across runs).
TEST(ShardedEngineTest, LocalityPlanDeterministicReplay) {
  const EdgeListGraph base = SmallGraph(67);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 500, 71);
  const ShardedEngineOptions options = Opts(3, PartitionStrategy::kLocality);

  const std::vector<VertexId> a =
      ReplaySolution(base, trace, options, 1024, 97, 0);
  const std::vector<VertexId> b = ReplaySolution(base, trace, options, 7, 1, 3);
  const std::vector<VertexId> c =
      ReplaySolution(base, trace, options, 256, 500, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// On a graph with planted communities, the streaming-greedy locality plan
// cuts strictly fewer edges than hash scattering, while the maintained
// solution stays maximal-independent under churn.
TEST(ShardedEngineTest, LocalityPlanLowersCutFractionOnClusteredGraph) {
  const EdgeListGraph base = ClusteredGraph(4, 60, 4, 80, 73);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 300, 79);

  double cut[2] = {0, 0};
  int i = 0;
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kLocality}) {
    auto engine =
        ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4, strategy));
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    DynamicGraph replica = base.ToDynamic();
    for (const GraphUpdate& update : trace) {
      engine->Apply(update);
      ApplyUpdate(&replica, update);
    }
    EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
        << PartitionStrategyName(strategy);
    const ShardedStats stats = engine->ShardStats();
    EXPECT_EQ(stats.partition, PartitionStrategyName(strategy));
    cut[i++] = stats.cut_edge_fraction;
  }
  EXPECT_LT(cut[1], cut[0]);
  // The balance cap keeps the plan honest: no shard may swallow the graph.
  EXPECT_GT(cut[1], 0.0);
}

// The locality plan's owner table is state (unlike hash/range it cannot be
// recomputed from ids), so it must round-trip through the snapshot: the
// restored engine keeps every ownership decision, continues replaying
// deterministically, and resharding via CreateFromGraph reassigns fresh
// locality owners at the new shard count.
TEST(ShardedEngineTest, LocalityPlanRoundTripsThroughSnapshotAndReshard) {
  const EdgeListGraph base = ClusteredGraph(3, 50, 4, 60, 83);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 89);

  auto engine = ShardedMisEngine::Create(
      base, {"DyTwoSwap"}, Opts(3, PartitionStrategy::kLocality));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  for (size_t i = 0; i < 200; ++i) engine->Apply(trace[i]);

  std::ostringstream sink;
  ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
  std::istringstream source(sink.str());
  SnapshotStatus status;
  auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
  ASSERT_NE(restored, nullptr) << status.message;
  EXPECT_EQ(restored->options().partition, PartitionStrategy::kLocality);
  EXPECT_EQ(restored->Solution(), engine->Solution());
  // Every ownership decision survived the round trip verbatim.
  for (VertexId v : engine->Solution()) {
    EXPECT_EQ(restored->plan().ShardOf(v), engine->plan().ShardOf(v)) << v;
  }

  for (size_t i = 200; i < trace.size(); ++i) {
    const UpdateResult a = engine->Apply(trace[i]);
    const UpdateResult b = restored->Apply(trace[i]);
    EXPECT_EQ(a.new_vertices, b.new_vertices);
  }
  EXPECT_EQ(restored->Solution(), engine->Solution());

  // The resharding primitive: rebuild at a different shard count with a
  // fresh locality assignment over the live global graph.
  DynamicGraph global = restored->BuildGlobalGraph();
  auto resharded = ShardedMisEngine::CreateFromGraph(
      global, {"DyTwoSwap"}, Opts(5, PartitionStrategy::kLocality));
  ASSERT_NE(resharded, nullptr);
  resharded->Initialize();
  EXPECT_TRUE(IsMaximalIndependentSet(global, resharded->Solution()));
  EXPECT_EQ(resharded->ShardStats().partition, "locality");
}

// Everything one seeded run of the barrier repair produces: an FNV-1a
// chain over the resolved solution after every barrier, plus the
// cumulative repair counters.
struct BarrierTrail {
  uint64_t digest = 1469598103934665603ull;
  int64_t barriers = 0;
  int64_t conflicts = 0;
  int64_t evictions = 0;
  int64_t readded = 0;
  int64_t swaps = 0;

  bool operator==(const BarrierTrail&) const = default;
};

std::ostream& operator<<(std::ostream& os, const BarrierTrail& t) {
  return os << "{0x" << std::hex << t.digest << std::dec << "ull, "
            << t.barriers << ", " << t.conflicts << ", " << t.evictions
            << ", " << t.readded << ", " << t.swaps << "}";
}

void FoldFnv(uint64_t* h, int64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xff;
    *h *= 1099511628211ull;
  }
}

// Replays `trace` in chunks of `barrier_every` ops and resolves after each
// chunk (and after Initialize), digesting every resolved solution.
BarrierTrail RunBarrierTrail(const EdgeListGraph& base,
                             const std::vector<GraphUpdate>& trace,
                             int shards, PartitionStrategy strategy,
                             size_t barrier_every) {
  auto engine =
      ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(shards, strategy));
  EXPECT_NE(engine, nullptr);
  if (engine == nullptr) return {};
  engine->Initialize();
  BarrierTrail trail;
  auto digest = [&] {
    const std::vector<VertexId> solution = engine->Solution();
    FoldFnv(&trail.digest, static_cast<int64_t>(solution.size()));
    for (const VertexId v : solution) FoldFnv(&trail.digest, v);
  };
  digest();
  for (size_t i = 0; i < trace.size(); i += barrier_every) {
    const size_t end = std::min(trace.size(), i + barrier_every);
    engine->ApplyBatch({trace.begin() + static_cast<long>(i),
                        trace.begin() + static_cast<long>(end)});
    digest();
  }
  const ShardedStats stats = engine->ShardStats();
  trail.barriers = stats.barriers;
  trail.conflicts = stats.conflicts;
  trail.evictions = stats.evictions;
  trail.readded = stats.readded;
  trail.swaps = stats.swaps;
  return trail;
}

// Golden barrier output: per-barrier solution digests and repair counters,
// pinned across S in {2, 4} x {hash, locality}, plus two extra graphs: a
// clustered graph under the range plan, whose every barrier repairs
// locally, and a larger random graph with coarse barriers, whose every
// barrier repairs a large share of the graph. The values were recorded on
// the unpruned repair; a faster repair must leave every one of them
// untouched (changes to the maintainer or the generators move them
// legitimately).
TEST(ShardedEngineTest, BarrierRepairMatchesGoldenTrail) {
  const EdgeListGraph small = SmallGraph(97);
  const std::vector<GraphUpdate> small_trace = ChurnTrace(small, 600, 101);
  const EdgeListGraph large = SmallGraph(103, 3000, 9000);
  const std::vector<GraphUpdate> large_trace = ChurnTrace(large, 800, 107);
  const EdgeListGraph clustered = ClusteredGraph(4, 500, 4, 20, 109);
  const std::vector<GraphUpdate> clustered_trace =
      ChurnTrace(clustered, 400, 113);
  struct Case {
    const char* name;
    const EdgeListGraph& base;
    const std::vector<GraphUpdate>& trace;
    int shards;
    PartitionStrategy strategy;
    size_t barrier_every;
    BarrierTrail expected;
  };
  constexpr PartitionStrategy kHash = PartitionStrategy::kHash;
  constexpr PartitionStrategy kLocality = PartitionStrategy::kLocality;
  constexpr PartitionStrategy kRange = PartitionStrategy::kRange;
  const Case cases[] = {
      {"s2-hash", small, small_trace, 2, kHash, 50,
       {0x92e5829dbf7826fbull, 13, 1024, 477, 56, 46}},
      {"s2-locality", small, small_trace, 2, kLocality, 50,
       {0x2853b3d527c0f1c2ull, 13, 686, 363, 54, 41}},
      {"s4-hash", small, small_trace, 4, kHash, 50,
       {0xcab93d4ecc98e3a2ull, 13, 2476, 830, 77, 59}},
      {"s4-locality", small, small_trace, 4, kLocality, 50,
       {0xf07a38b324f66a41ull, 13, 1263, 574, 77, 64}},
      {"local-repair", clustered, clustered_trace, 4, kRange, 10,
       {0x7be4c38c028629a9ull, 41, 2269, 1367, 137, 290}},
      {"widespread-repair", large, large_trace, 4, kHash, 400,
       {0xcca0331fdb150b2cull, 3, 8720, 3005, 295, 216}},
  };
  for (const Case& c : cases) {
    const BarrierTrail trail = RunBarrierTrail(c.base, c.trace, c.shards,
                                               c.strategy, c.barrier_every);
    EXPECT_EQ(trail, c.expected) << c.name;
  }
}

}  // namespace
}  // namespace dynmis
