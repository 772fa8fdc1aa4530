// KSwapMaintainer: the paper's general maintenance framework (Algorithm 1)
// for a user-specified k, used by the Fig 9 "effect of k" experiment with
// k in {1, 2, 3, 4} and by cross-checking tests against DyOneSwap/DyTwoSwap.
//
// The specialized DyOneSwap/DyTwoSwap classes are the production
// implementations for k = 1, 2; this class trades their tight per-case
// handling for generality:
//
//  * Candidates are vertex witnesses u with count(u) in [1..k]; a witness
//    seeds the set S = I(u) (its solution neighbours).
//  * TrySwap(S) collects T = bar_I<=|S|(S) and searches G[T] exhaustively
//    (with a node cap) for an independent set of size |S|+1; success swaps
//    S out and the found set in, then extends to maximal.
//  * If S admits no swap and |S| < k, candidate supersets S' = I(y) for
//    (|S|+1)-tight vertices y around S are explored (the framework's
//    bottom-up candidate expansion, lines 11-12 of Algorithm 1).
//
// For k <= 2 this coverage matches the specialized algorithms (and tests
// cross-check exact j-swap-freeness). For k >= 3 the exhaustive search is
// capped (kSearchNodeCap) so a pathological dense neighbourhood cannot
// stall an update; within the cap the maintained set is k-maximal.

#ifndef DYNMIS_SRC_CORE_K_SWAP_H_
#define DYNMIS_SRC_CORE_K_SWAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"
#include "src/core/solution.h"
#include "src/util/stamped_hash_set.h"

namespace dynmis {

class KSwapMaintainer : public DynamicMisMaintainer {
 public:
  KSwapMaintainer(DynamicGraph* g, int k, MaintainerConfig options = {});

  void Initialize(const std::vector<VertexId>& initial) override;
  void InitializeEmpty() { Initialize({}); }

  void InsertEdge(VertexId u, VertexId v) override;
  void DeleteEdge(VertexId u, VertexId v) override;
  VertexId InsertVertex(const std::vector<VertexId>& neighbors) override;
  void DeleteVertex(VertexId v) override;

  bool InSolution(VertexId v) const override { return state_.InSolution(v); }
  int64_t SolutionSize() const override { return state_.SolutionSize(); }
  std::vector<VertexId> Solution() const override { return state_.Solution(); }
  void CollectSolution(std::vector<VertexId>* out) const override {
    state_.AppendSolution(out);
  }
  size_t MemoryUsageBytes() const override;
  std::string Name() const override;

  // Persists the MisState arrays verbatim (section "mis"); the witness
  // worklist is empty at every quiescent point, so no queue state travels.
  // Load restores the arrays directly — no recompute.
  void SaveState(SnapshotWriter* w) const override;
  bool LoadState(SnapshotReader* r, const DynamicGraph& g) override;

  // Lifetime MoveIn/MoveOut count of the underlying state (see DyOneSwap).
  int64_t StateTransitionOps() const { return state_.status_ops(); }

  int k() const { return k_; }

  void CheckConsistency() const {
    state_.CheckConsistency(/*expect_maximal=*/true);
  }

  struct Stats {
    int64_t swaps = 0;          // All j-swaps performed, any j.
    int64_t sets_examined = 0;  // TrySwap invocations.
    int64_t search_nodes = 0;   // Independent-set search tree nodes.
  };
  const Stats& stats() const { return stats_; }

 private:
  // Upper bound on search-tree nodes per TrySwap call.
  static constexpr int64_t kSearchNodeCap = 100000;

  void EnsureCapacity();
  void ResetVertexSlots(VertexId v);
  // Moves every count-0 vertex in `*candidates` into the solution (in degree
  // order under perturbation). Borrows the caller's buffer — may reorder it.
  void ExtendSolution(std::vector<VertexId>* candidates);
  void PushWitness(VertexId u);
  void DrainTransitions();
  void ProcessWorklist();
  // Attempts a |S|-swap for solution set S; returns true if performed.
  // On failure recursively expands to supersets while |S| < k. `visited_`
  // dedups examined sets within one cascade; callers outside ProcessWorklist
  // must Clear() it first.
  bool TrySwapOrExpand(std::vector<VertexId> s);
  // Collects bar_I<=|S|(S): non-solution vertices with all solution
  // neighbours inside S.
  void CollectRegion(const std::vector<VertexId>& s, std::vector<VertexId>* t);
  // Exhaustive (capped) search for an independent set of size `target` in
  // the subgraph induced by `t`. Fills `result` and returns true on success.
  bool FindIndependentSubset(const std::vector<VertexId>& t, int target,
                             std::vector<VertexId>* result);
  static uint64_t HashSet(const std::vector<VertexId>& s);
  void NewEpoch() { ++epoch_; }
  void Mark(VertexId v) { mark_[v] = epoch_; }
  bool Marked(VertexId v) const { return mark_[v] == epoch_; }

  DynamicGraph* g_;
  int k_;
  MaintainerConfig options_;
  MisState state_;

  std::vector<VertexId> worklist_;
  std::vector<uint8_t> in_worklist_;
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  // Scratch for FindIndependentSubset: position of a vertex in the current
  // search order, -1 outside a search.
  std::vector<VertexId> position_;
  // Swap-set dedup within one restoration cascade, reused across updates
  // (formerly a per-update std::unordered_set).
  StampedHashSet visited_;
  // Reusable scratch for the update handlers (freed vertices and
  // deleted-vertex neighborhoods).
  std::vector<VertexId> extend_scratch_;

  Stats stats_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_K_SWAP_H_
