// CutEdgeResolver: the cross-shard half of the sharded engine. It owns the
// global vertex id space and every cross-shard ("cut") edge — cut edges
// never enter a shard's graph, so shard maintainers stay oblivious to them
// and all cross-shard coordination concentrates here.
//
// Because the resolver observes every vertex add/remove in global op order
// and mirrors DynamicGraph's id recycling exactly (LIFO free list), its id
// allocation matches what a single un-sharded engine replaying the same
// stream would assign — which is what keeps pre-drawn update sequences and
// the single-engine comparison baselines replayable against a sharded
// engine.
//
// Cut edges live in a purpose-built store rather than a DynamicGraph:
// unordered per-vertex neighbor arrays with swap-remove deletion, where
// each 8-byte entry carries the edge's position in the other endpoint's
// array ("mirror index"). A deletion scans only the smaller endpoint's
// contiguous array and finds the far side's entry through the mirror in
// O(1); every mutation is allocation-free in steady state and involves no
// hashing. Neighbor iteration order is NOT canonical (swap-remove
// reorders), which is safe because the resolution passes sort every
// order-sensitive working set before use — their output is a pure,
// order-insensitive function of the edge set and the shard states.
//
// Cut-edge mutations apply inline on the engine thread. At a barrier, with
// every shard worker idle, Resolve() takes the overlay — the union of the
// shards' local solutions — and repairs it into a verified maximal
// independent set of the global graph: min-degree greedy confirm over the
// conflicted vertices, re-extension of the evicted neighborhoods, and a
// bounded 1-swap polish (paper Algorithm 2's move) over every member. Every
// working set is sorted before use, so the result is a pure function of the
// shard states and the cut-edge set: thread scheduling, block boundaries
// and barrier cadence don't matter. Resolution never writes back to the
// shards.

#ifndef DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_
#define DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/io/snapshot.h"
#include "src/shard/partition_plan.h"
#include "src/shard/shard.h"

namespace dynmis {

class CutEdgeResolver {
 public:
  // Starts with vertices 0..initial_vertices-1 alive and no cut edges.
  explicit CutEdgeResolver(int initial_vertices);

  CutEdgeResolver(const CutEdgeResolver&) = delete;
  CutEdgeResolver& operator=(const CutEdgeResolver&) = delete;

  // --- Global id space (applied in global op order) -------------------------

  VertexId AddVertex();
  // Frees the id for recycling and drops its cut edges.
  void RemoveVertex(VertexId v);
  bool IsVertexAlive(VertexId v) const {
    return v >= 0 && v < VertexCapacity() && alive_[v];
  }

  void AddCutEdge(VertexId u, VertexId v);
  void RemoveCutEdge(VertexId u, VertexId v);

  // --- Cut-graph reads -------------------------------------------------------

  bool HasCutEdge(VertexId u, VertexId v) const {
    if (CutDegree(v) < CutDegree(u)) std::swap(u, v);
    for (const Half& h : adjacency_[u]) {
      if (h.to == v) return true;
    }
    return false;
  }

  int CutDegree(VertexId v) const {
    return v < static_cast<VertexId>(adjacency_.size())
               ? static_cast<int>(adjacency_[v].size())
               : 0;
  }
  // Calls fn(neighbor) for every cut edge incident to `v` (unordered).
  template <typename Fn>
  void ForEachCutNeighbor(VertexId v, Fn&& fn) const {
    if (v >= static_cast<VertexId>(adjacency_.size())) return;
    for (const Half& h : adjacency_[v]) fn(h.to);
  }
  // All cut edges as (u < v) pairs, sorted (snapshot/validation path).
  std::vector<std::pair<VertexId, VertexId>> CutEdgeList() const;

  int64_t NumCutEdges() const { return num_edges_; }
  int NumVertices() const { return num_vertices_; }
  int VertexCapacity() const { return static_cast<int>(alive_.size()); }

  // The dead ids in recycle order (LIFO, matching DynamicGraph's free
  // list). ShardedMisEngine::BuildGlobalGraph uses this to reconstruct a
  // standalone graph whose future AddVertex() calls assign the same ids
  // this resolver will.
  const std::vector<VertexId>& FreeVertexIds() const { return free_vertices_; }

  // --- Barrier resolution ---------------------------------------------------

  struct Resolution {
    // The verified global solution, sorted by id.
    std::vector<VertexId> solution;
    int64_t conflicts = 0;   // Conflicting cut edges found this pass.
    int64_t evictions = 0;   // Vertices evicted from the overlay.
    int64_t readded = 0;     // Vertices re-added by the extension pass.
    int64_t swaps = 0;       // 1-swaps performed by the polish pass.
  };

  // Barrier pass: collects the overlay from the shard maintainers and
  // repairs it. Every worker in `shards` must be idle (the engine thread
  // calls this only after a full barrier).
  Resolution Resolve(const PartitionPlan& plan,
                     const std::vector<std::unique_ptr<Shard>>& shards);

  // --- Snapshots ------------------------------------------------------------

  // Persists the id space and cut edges as section "state" (the caller
  // scopes it with a section prefix). The free list travels verbatim so a
  // restored engine recycles ids in the identical order.
  void SaveTo(SnapshotWriter* w) const;
  // Restores from "state" after full validation (bounds, aliveness,
  // duplicate edges, free-list exactness). On success the adjacency and
  // index are rebuilt from scratch. Returns false with the reader failed
  // on any violation.
  bool LoadFrom(SnapshotReader* r);

  size_t MemoryUsageBytes() const;

 private:
  // One direction of a cut edge: the far endpoint plus the position of the
  // reverse entry inside the far endpoint's adjacency array.
  struct Half {
    VertexId to;
    int32_t mirror;
  };

  // Swap-removes adjacency_[owner][index], repairing the mirror of the
  // entry moved into the hole.
  void SwapRemoveHalf(VertexId owner, int32_t index);

  // Degree of `v` in the global graph: intra-shard + cut.
  int TotalDegree(const PartitionPlan& plan,
                  const std::vector<std::unique_ptr<Shard>>& shards,
                  VertexId v) const {
    return shards[plan.ShardOf(v)]->graph().Degree(v) + CutDegree(v);
  }

  // Sorts `list` ascending by (TotalDegree, id), the min-degree preference
  // every repair step shares.
  void SortByDegree(const PartitionPlan& plan,
                    const std::vector<std::unique_ptr<Shard>>& shards,
                    std::vector<VertexId>* list);

  // Repair tail of Resolve(). Expects in_sol_ to hold the overlay and
  // `conflicted_` its conflicted members (any order): greedy confirm,
  // re-extension of the evicted neighborhoods, 1-swap polish over every
  // member, solution collection.
  void RepairAndPolish(const PartitionPlan& plan,
                       const std::vector<std::unique_ptr<Shard>>& shards,
                       Resolution* result);

  // --- Id space --------------------------------------------------------------
  std::vector<uint8_t> alive_;
  std::vector<VertexId> free_vertices_;
  int num_vertices_ = 0;

  // --- Cut structures --------------------------------------------------------
  // One array per id, sized with alive_.
  std::vector<std::vector<Half>> adjacency_;
  int64_t num_edges_ = 0;

  // Reusable scratch (sized to vertex capacity / pass volume).
  std::vector<uint8_t> in_sol_;
  std::vector<VertexId> members_;
  std::vector<VertexId> conflicted_;
  std::vector<uint8_t> evicted_mark_;
  std::vector<VertexId> candidates_;
  // A vertex's solution neighbors during a repair: their count, and the
  // XOR of their ids (the lone neighbor's id when the count is 1). For a
  // member, also how many neighbors it covers alone (its bar1 set).
  struct Cover {
    int32_t count = 0;
    VertexId members_xor = 0;
    int32_t bar1_size = 0;
  };
  std::vector<Cover> cover_;
  std::vector<uint8_t> recheck_;
  std::vector<uint64_t> keys_;
  std::vector<VertexId> bar1_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_
