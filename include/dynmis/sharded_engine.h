// ShardedMisEngine: the multi-threaded, vertex-partitioned counterpart of
// MisEngine. Vertices are split across S shards by a PartitionPlan (hash,
// contiguous-range, or streaming-greedy locality); each shard owns a
// DynamicGraph of its intra-shard edges plus a registry maintainer, and
// runs on a dedicated worker thread fed by a per-shard update queue.
// Cross-shard edges never enter a shard graph: the CutEdgeResolver tracks
// them and repairs the conflicts they cause — evicting one endpoint of
// each conflicting cut edge (deterministic lower-degree-wins rule),
// re-extending around the evictions, and polishing with bounded 1-swaps —
// so CollectSolution() always returns a verified independent set — in
// fact a maximal one — of the global graph.
//
// Calls route updates asynchronously: Apply/ApplyBatch classify each op in
// O(1), apply cut-edge ops to the resolver inline, and append intra-shard
// ops to per-shard pending blocks that are posted to the workers as they
// fill. Queries (Solution, Stats, SaveSnapshot, ...) impose a barrier —
// drain every queue, then resolve on the calling thread: the resolver
// collects the shards' local solutions and repairs their cut-edge
// conflicts, sorting every working set into a canonical order. An engine
// with S shards runs exactly S worker threads. The final solution is a pure
// function of the update sequence: neither thread scheduling, block
// boundaries nor barrier cadence affect it, so seeded runs replay
// identically (see tests/sharded_engine_test.cc).
//
// With S = 1 every edge is intra-shard and the single worker replays
// exactly what a MisEngine would: the degenerate case reproduces the
// single-engine solution verbatim.
//
// The engine's own API is not thread-safe: one caller thread drives it
// (the workers it owns are an implementation detail).

#ifndef DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_
#define DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/engine.h"
#include "dynmis/snapshot.h"
#include "src/graph/edge_list.h"
#include "src/shard/cut_edge_resolver.h"
#include "src/shard/partition_plan.h"
#include "src/shard/shard.h"

namespace dynmis {

struct ShardedEngineOptions {
  int num_shards = 1;
  PartitionStrategy partition = PartitionStrategy::kHash;
  // Pending intra-shard ops per shard before a block is posted to its
  // worker. A throughput knob only: the maintained solution is independent
  // of block boundaries.
  int block_ops = 1024;
};

// Sharding-specific counters, alongside the common EngineStats.
struct ShardedStats {
  int num_shards = 0;
  std::string partition;        // "hash", "range", or "locality".
  int64_t intra_edges = 0;      // Sum over shard graphs.
  int64_t cut_edges = 0;
  double cut_edge_fraction = 0; // cut / (cut + intra).
  int64_t barriers = 0;         // Resolution passes run so far.
  // Cumulative over all resolution passes.
  int64_t conflicts = 0;
  int64_t evictions = 0;
  int64_t readded = 0;
  int64_t swaps = 0;            // Polish-pass 1-swaps.
  double resolve_seconds = 0;   // Wall time inside barrier resolutions.
  // Local (pre-resolution) solution size per shard at the last barrier.
  std::vector<int64_t> shard_solution_sizes;
};

class ShardedMisEngine {
 public:
  // Builds a sharded engine over `base` with the maintainer named by
  // `config.algorithm` in every shard. Returns nullptr when the name is
  // not registered. Workers are running on return; call Initialize()
  // before applying updates.
  static std::unique_ptr<ShardedMisEngine> Create(
      const EdgeListGraph& base, MaintainerConfig config = {},
      ShardedEngineOptions options = {});

  // Builds a sharded engine over a live DynamicGraph — dead-id gaps, free-
  // list recycle order and all — so the new engine's global id allocation
  // continues exactly where `global`'s would (future vertex inserts assign
  // identical ids). This is the online-resharding primitive: restore a
  // checkpoint, BuildGlobalGraph(), re-partition into a different shard
  // count, replay the tail. Workers are running on return; call
  // Initialize() before applying updates.
  static std::unique_ptr<ShardedMisEngine> CreateFromGraph(
      const DynamicGraph& global, MaintainerConfig config = {},
      ShardedEngineOptions options = {});

  ~ShardedMisEngine();

  // Initializes every shard's maintainer from the empty set (in parallel)
  // and runs the first resolution.
  void Initialize();

  // --- Updates (asynchronous routing) ---------------------------------------

  // `seconds` in the returned UpdateResult measures routing/enqueue time on
  // the calling thread; shard work proceeds concurrently until the next
  // barrier.
  UpdateResult Apply(const GraphUpdate& update);
  UpdateResult ApplyBatch(const std::vector<GraphUpdate>& updates);

  UpdateResult InsertEdge(VertexId u, VertexId v);
  UpdateResult DeleteEdge(VertexId u, VertexId v);
  // Returns the globally assigned id of the inserted vertex (allocated
  // synchronously; ids match what a single engine would assign).
  VertexId InsertVertex(const std::vector<VertexId>& neighbors);
  UpdateResult DeleteVertex(VertexId v);

  // Posts all pending blocks and blocks until every worker drained its
  // queue (a barrier without a resolution pass).
  void Flush();

  // --- Queries (impose a barrier + resolution when updates are pending) ----

  bool InSolution(VertexId v);
  int64_t SolutionSize();
  std::vector<VertexId> Solution();
  // Appends the resolved solution (sorted by id) to `out` (not cleared).
  void CollectSolution(std::vector<VertexId>* out);

  EngineStats Stats();
  ShardedStats ShardStats();

  // Per-shard EngineStats breakdown (one entry per shard, local view: the
  // shard's intra-shard graph, its maintainer's pre-resolution solution and
  // memory). Lifetime counters (updates_applied / update_seconds) are
  // engine-global and reported by Stats() only, so they stay zero here.
  // Serving-layer parity: STATS reports the same fields for the sharded
  // backend as for a single engine, plus this breakdown.
  std::vector<EngineStats> PerShardStats();

  // Called once per Apply/ApplyBatch with the op count and the routing wall
  // time (batch-latency semantics; per-op timing would serialize the very
  // work the shards parallelize).
  using UpdateObserver = std::function<void(int64_t applied, double seconds)>;
  void SetUpdateObserver(UpdateObserver observer) {
    observer_ = std::move(observer);
  }

  // --- Snapshots ------------------------------------------------------------

  // Barrier, then writes one versioned container holding the engine
  // section, the cut structure, and each shard section-wise ("shard<i>/"
  // prefixed graph + maintainer state). Restoring is O(state) per shard.
  SnapshotStatus SaveSnapshot(std::ostream& out);

  // Appends the engine's sections to an open writer (barrier included);
  // SaveSnapshot is SaveTo + WriteTo. Lets the serving layer add its own
  // sections (the external-key map) to the same container.
  void SaveTo(SnapshotWriter* writer);

  // Rebuilds a sharded engine from a snapshot stream. Returns nullptr on
  // any structural problem (reason in `*status`), including cross-section
  // inconsistencies a crafted payload could smuggle in (a vertex alive in
  // the cut structure but missing from its shard, a shard edge that the
  // plan says is cut, ...). Never aborts on malformed input.
  static std::unique_ptr<ShardedMisEngine> LoadSnapshot(
      std::istream& in, SnapshotStatus* status = nullptr);
  // The same over an already-read container (see MisEngine::LoadSnapshot).
  static std::unique_ptr<ShardedMisEngine> LoadSnapshot(
      SnapshotReader* reader, SnapshotStatus* status = nullptr);

  const MaintainerConfig& config() const { return config_; }
  const ShardedEngineOptions& options() const { return options_; }
  const PartitionPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }

  // Read-mostly interop for verification and tests. Shard graphs hold the
  // shard's vertices at their global ids plus intra-shard edges only; the
  // resolver holds every vertex plus the cut edges. Only meaningful at a
  // barrier (call Flush() or a query first).
  const DynamicGraph& shard_graph(int shard) const {
    return shards_[shard]->graph();
  }
  const CutEdgeResolver& resolver() const { return resolver_; }

  // Materializes the global graph (every alive vertex, intra-shard plus cut
  // edges) as one standalone DynamicGraph whose id-space state — capacity
  // and vertex free-list recycle order — matches this engine's, so future
  // AddVertex() calls on the copy assign the ids this engine will. Imposes
  // a barrier. The serving layer's admission replica is seeded from this
  // after a warm restore.
  DynamicGraph BuildGlobalGraph();

 private:
  ShardedMisEngine(MaintainerConfig config, ShardedEngineOptions options,
                   PartitionPlan plan, int initial_vertices);

  // Classifies and routes one update; returns the assigned id for
  // kInsertVertex ops. Invalidates the cached resolution.
  VertexId Route(const GraphUpdate& update);
  void PostPending(int shard);
  void Barrier();
  // Barrier + resolution pass (cached until the next routed update).
  void EnsureResolved();
  bool LoadShards(SnapshotReader* reader);
  // Cross-structure consistency of freshly loaded shard/cut graphs.
  bool ValidateLoaded(SnapshotReader* reader) const;

  MaintainerConfig config_;
  ShardedEngineOptions options_;
  PartitionPlan plan_;
  CutEdgeResolver resolver_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard::Block> pending_;

  bool resolved_ = false;
  CutEdgeResolver::Resolution resolution_;

  UpdateObserver observer_;
  int64_t updates_applied_ = 0;
  double update_seconds_ = 0;
  double resolve_seconds_ = 0;
  int64_t barriers_ = 0;
  int64_t total_conflicts_ = 0;
  int64_t total_evictions_ = 0;
  int64_t total_readded_ = 0;
  int64_t total_swaps_ = 0;
};

}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_
