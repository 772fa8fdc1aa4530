// DyOneSwap (paper Algorithm 2): maintains a 1-maximal independent set over
// a dynamic graph in O(m_t) worst-case time per update cascade, which yields
// a (Delta/2 + 1)-approximate MaxIS at all times (Theorem 2/6), and a
// parameter-dependent constant approximation on power-law bounded graphs
// (Theorem 4).
//
// Invariant maintained: for every solution vertex v, G[bar1(v)] is a clique,
// where bar1(v) is the set of v's 1-tight neighbours. Updates enqueue
// "candidate" pairs (v, C(v)) - C(v) holds vertices newly added to bar1(v) -
// and the processing loop checks |N[u] cap bar1(v)| < |bar1(v)| for each
// candidate u; a failed clique test triggers the 1-swap: v leaves, u enters,
// and every freed vertex of bar1(v) enters (so the solution strictly grows).

#ifndef DYNMIS_SRC_CORE_ONE_SWAP_H_
#define DYNMIS_SRC_CORE_ONE_SWAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"
#include "src/core/candidate_list.h"
#include "src/core/solution.h"

namespace dynmis {

class DyOneSwap : public DynamicMisMaintainer {
 public:
  // `g` must outlive the maintainer; the maintainer is the sole mutator.
  explicit DyOneSwap(DynamicGraph* g, MaintainerConfig options = {});

  void Initialize(const std::vector<VertexId>& initial) override;

  // Convenience: initialize from the empty set (greedy maximal + swaps).
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

  // Persists the MisState arrays verbatim (section "mis"); candidate queues
  // are empty at every quiescent point, so no queue state travels. Load
  // restores the arrays directly — no recompute, no graph scan (see
  // StateTransitionOps).
  void SaveState(SnapshotWriter* w) const override;
  bool LoadState(SnapshotReader* r, const DynamicGraph& g) override;

  // Lifetime MoveIn/MoveOut count of the underlying state. A snapshot load
  // performs none (the snapshot tests assert 0 after LoadState, proving the
  // restore path never falls back to recomputation).
  int64_t StateTransitionOps() const { return state_.status_ops(); }

  // Test hook: validates all internal invariants (O(n + m)).
  void CheckConsistency() const {
    state_.CheckConsistency(/*expect_maximal=*/true);
  }

  struct Stats {
    int64_t one_swaps = 0;
    int64_t candidates_processed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void EnsureCapacity();
  void ResetVertexSlots(VertexId v);
  // Moves every count-0 vertex in `*candidates` into the solution (in degree
  // order under perturbation). Borrows the caller's buffer — may reorder it —
  // so steady-state callers can pass reusable scratch instead of a fresh
  // vector.
  void ExtendSolution(std::vector<VertexId>* candidates);
  void EnqueueCandidate(VertexId owner, VertexId u);
  void DrainTransitions();
  void ProcessQueue();
  // `bar1_snapshot` is borrowed scratch (consumed by ExtendSolution).
  void PerformOneSwap(VertexId v, VertexId u,
                      std::vector<VertexId>* bar1_snapshot);
  void NewEpoch() { ++epoch_; }
  void Mark(VertexId v) { mark_[v] = epoch_; }
  bool Marked(VertexId v) const { return mark_[v] == epoch_; }

  DynamicGraph* g_;
  MaintainerConfig options_;
  MisState state_;
  // True while inside ApplyBatch: update handlers enqueue candidates but
  // defer the swap-restoration loop to the end of the batch.
  bool deferred_ = false;

  // Candidate queue C1: solution vertices with pending candidate lists,
  // intrusive and allocation-free (see CandidateList; the former per-owner
  // vector<vector<VertexId>> allocated on first enqueue under every new
  // owner).
  std::vector<VertexId> queue_;
  std::vector<uint8_t> in_queue_;
  CandidateList cands_;

  // Epoch-stamped scratch marks.
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;

  // Reusable scratch buffers (grow to the workload's high-water mark, then
  // stay put).
  std::vector<VertexId> bar1_scratch_;
  std::vector<VertexId> kept_;            // Validated candidates.
  std::vector<VertexId> extend_scratch_;  // Freed vertices / neighborhoods.

  Stats stats_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_ONE_SWAP_H_
