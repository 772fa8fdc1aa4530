// DyTwoSwap (paper Algorithm 3): maintains a 2-maximal independent set over
// a dynamic graph. The worst-case approximation ratio is the same
// (Delta/2 + 1) as DyOneSwap (Theorem 3 shows larger k cannot improve it),
// but eliminating 2-swaps yields measurably larger solutions in practice at
// near-linear expected cost on power-law bounded graphs (Lemma 2).
//
// Processing is bottom-up: the candidate queue C1 (1-swaps) is always
// drained before C2 (2-swaps), so when a pair S = {u, v} is examined the
// solution is already 1-maximal. This justifies the paper's refinement of
// the swap-in search: a valid 2-swap needs an independent triple
// {x, y, z} with x in bar_I2(S), y in bar_I1(u) u bar_I2(S) \ N[x] and
// z in bar_I1(v) u bar_I2(S) \ N[x].

#ifndef DYNMIS_SRC_CORE_TWO_SWAP_H_
#define DYNMIS_SRC_CORE_TWO_SWAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"
#include "src/core/candidate_list.h"
#include "src/core/solution.h"

namespace dynmis {

class DyTwoSwap : public DynamicMisMaintainer {
 public:
  explicit DyTwoSwap(DynamicGraph* g, MaintainerConfig options = {});

  void Initialize(const std::vector<VertexId>& initial) override;
  void InitializeEmpty() { Initialize({}); }

  void InsertEdge(VertexId u, VertexId v) override;
  void DeleteEdge(VertexId u, VertexId v) override;
  VertexId InsertVertex(const std::vector<VertexId>& neighbors) override;
  void DeleteVertex(VertexId v) override;

  // Deferred-restoration batch processing (see DynamicMisMaintainer).
  std::vector<VertexId> ApplyBatch(
      const std::vector<GraphUpdate>& updates) override;

  bool InSolution(VertexId v) const override { return state_.InSolution(v); }
  int64_t SolutionSize() const override { return state_.SolutionSize(); }
  std::vector<VertexId> Solution() const override { return state_.Solution(); }
  void CollectSolution(std::vector<VertexId>* out) const override {
    state_.AppendSolution(out);
  }
  size_t MemoryUsageBytes() const override;
  std::string Name() const override;

  // Persists the MisState arrays verbatim (section "mis"); the C1/C2
  // candidate queues are empty at every quiescent point, so no queue state
  // travels. Load restores the arrays directly — no recompute.
  void SaveState(SnapshotWriter* w) const override;
  bool LoadState(SnapshotReader* r, const DynamicGraph& g) override;

  // Lifetime MoveIn/MoveOut count of the underlying state (see DyOneSwap).
  int64_t StateTransitionOps() const { return state_.status_ops(); }

  void CheckConsistency() const {
    state_.CheckConsistency(/*expect_maximal=*/true);
  }

  struct Stats {
    int64_t one_swaps = 0;
    int64_t two_swaps = 0;
    int64_t candidates_processed = 0;
    int64_t pair_candidates_processed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Pair key for C2: packs the ordered solution pair {x < y}. Used only for
  // the per-candidate dedup stamp (cand2_key_); bucket lookup is chain-based.
  static uint64_t PairKey(VertexId x, VertexId y);

  void EnsureCapacity();
  void ResetVertexSlots(VertexId v);
  // Moves every count-0 vertex in `*candidates` into the solution (in degree
  // order under perturbation). Borrows the caller's buffer — may reorder it.
  void ExtendSolution(std::vector<VertexId>* candidates);
  void EnqueueC1(VertexId owner, VertexId u);
  void EnqueueC2(VertexId a, VertexId b, VertexId x);
  void DrainTransitions();
  void ProcessQueues();
  void FindOneSwapStep();
  void FindTwoSwapStep();
  // Snapshot arguments are borrowed scratch (consumed by ExtendSolution).
  void PerformOneSwap(VertexId v, VertexId u,
                      std::vector<VertexId>* bar1_snapshot);
  void PerformTwoSwap(VertexId x, VertexId y, VertexId in_a, VertexId in_b,
                      VertexId in_c, std::vector<VertexId>* region_snapshot);
  // Removes `x` from its current C2 bucket (requires cand2_key_[x] != 0).
  void UnlinkC2(VertexId x);
  // Returns the chain link slot (&c2_head_[a] or an active bucket's `next`
  // field) whose target is the bucket for pair {a < b}; the terminating
  // slot (*slot == -1) when the pair has no active bucket. The returned
  // pointer is invalidated by any c2_pool_ growth.
  int32_t* FindBucketLink(VertexId a, VertexId b);
  void NewEpoch() { ++epoch_; }
  void Mark(VertexId v) { mark_[v] = epoch_; }
  bool Marked(VertexId v) const { return mark_[v] == epoch_; }

  DynamicGraph* g_;
  MaintainerConfig options_;
  MisState state_;
  // True while inside ApplyBatch: handlers defer ProcessQueues to batch end.
  bool deferred_ = false;

  // C1: per-solution-vertex candidate lists, intrusive and allocation-free
  // (see CandidateList; the former vector<vector<VertexId>> allocated on
  // first enqueue under every new owner).
  std::vector<VertexId> c1_queue_;
  std::vector<uint8_t> in_c1_;
  CandidateList cands_;

  // C2: per-solution-pair candidate buckets drawn from a reusable pool —
  // the former unordered_map<pair key, vector> cost a hash probe plus node
  // and vector allocations on every count-2 transition. A bucket lives from
  // its first candidate until FindTwoSwapStep pops it; lookup is a walk of
  // the (nearly always single-entry) chain of active buckets sharing the
  // pair's smaller endpoint. Bucket membership is again an intrusive list
  // through flat per-vertex slots (a vertex sits in at most one bucket, per
  // cand2_key_), so the pool records are plain 16-byte structs.
  struct PairBucket {
    VertexId x = kInvalidVertex;     // Smaller endpoint of the pair.
    VertexId y = kInvalidVertex;     // Larger endpoint.
    VertexId head = kInvalidVertex;  // First member candidate.
    int32_t next = -1;  // Next active bucket with the same x, -1 at end.
  };
  std::vector<PairBucket> c2_pool_;
  std::vector<int32_t> c2_free_;   // Pool indices available for reuse.
  std::vector<int32_t> c2_queue_;  // Active bucket indices (LIFO).
  // c2_head_[v]: first active bucket whose smaller endpoint is v, -1 none.
  std::vector<int32_t> c2_head_;
  // cand2_key_[x]: packed pair key under which x is enqueued, 0 when none.
  std::vector<uint64_t> cand2_key_;
  std::vector<VertexId> cand2_next_, cand2_prev_;  // Per member vertex.

  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;

  // Reusable scratch buffers (grow to the workload's high-water mark, then
  // stay put).
  std::vector<VertexId> kept_;  // Validated candidates.
  std::vector<VertexId> bar1_scratch_;
  std::vector<VertexId> bar2_scratch_;
  std::vector<VertexId> bar1x_, bar1y_, bar2s_;  // FindTwoSwapStep sets.
  std::vector<VertexId> cy_, cz_;
  std::vector<VertexId> region_;
  std::vector<VertexId> extend_scratch_;  // Freed vertices / neighborhoods.

  Stats stats_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_TWO_SWAP_H_
