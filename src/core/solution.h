// MisState: the bookkeeping shared by the paper's maintenance framework
// (Section III-B) and both instantiations (DyOneSwap, DyTwoSwap).
//
// Maintained per vertex v:
//   * status(v)  - whether v is in the current solution I.
//   * count(v)   - |N(v) cap I| (0 for solution vertices).
// In eager mode additionally, realized as intrusive doubly-linked lists
// threaded through per-edge link slots (the paper's "I(v) can be updated in
// constant time if it is implemented by a doubly-linked list and a pointer
// to v in I(v) is recorded in edge (v, u)"):
//   * I(v)       - v's solution neighbours ("inb" list, owner v).
//   * bar1(v)    - for v in I: neighbours u with count(u) == 1 whose unique
//                  solution neighbour is v (the paper's bar_I1(v)).
//   * bar2(v)    - for v in I, only when k >= 2: neighbours u with
//                  count(u) == 2 having v as one of their two solution
//                  neighbours. The paper's hierarchical bucket bar_I2(S) for
//                  S = {x, y} is recovered as a filter of the smaller of
//                  bar2(x), bar2(y), preserving the complexity analysis
//                  (tau = max_v |bar_I2(v)| bounds the filter cost).
//
// In lazy mode (paper optimization 1) only status/count are kept; the
// Collect* methods fall back to neighborhood scans.
//
// Every count transition into 1 (and into 2 when k >= 2) of a non-solution
// vertex is appended to a transition log. The algorithms drain the log to
// build their candidate queues C1/C2; entries are validated at drain time,
// so stale entries are harmless. This realizes the framework's "collect
// candidates around op" soundly (Theorem 5).

#ifndef DYNMIS_SRC_CORE_SOLUTION_H_
#define DYNMIS_SRC_CORE_SOLUTION_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/io/snapshot.h"

namespace dynmis {

class MisState {
 public:
  // `k` in {1, 2}: whether count-2 tightness (bar2 lists) is tracked.
  // `lazy` selects the lazy-collection mode.
  MisState(DynamicGraph* g, int k, bool lazy);

  // Resizes the per-vertex / per-edge side arrays to the graph's current
  // capacities. Call after any operation that may have grown them.
  void EnsureCapacity();

  // Resets the state slots of a vertex id that was just (re)allocated.
  void OnVertexAdded(VertexId v);

  bool InSolution(VertexId v) const { return status_[v] != 0; }
  int Count(VertexId v) const { return count_[v]; }
  int64_t SolutionSize() const { return solution_size_; }
  std::vector<VertexId> Solution() const;

  // Appends the solution members to `out` (not cleared): the copy-on-demand
  // form of Solution() that reuses the caller's buffer across calls.
  void AppendSolution(std::vector<VertexId>* out) const;

  bool lazy() const { return lazy_; }
  int k() const { return k_; }
  DynamicGraph* graph() const { return g_; }

  // The unique solution neighbour of `u`; requires count(u) >= 1. O(1) in
  // eager mode, O(deg(u)) in lazy mode. When count(u) > 1 returns one of the
  // solution neighbours (the list head in eager mode).
  VertexId OwnerOf(VertexId u) const;

  // The two solution neighbours of `u`; requires count(u) == 2. Results are
  // ordered (first < second).
  void OwnersOf2(VertexId u, VertexId* a, VertexId* b) const;

  // Calls fn(w) for each solution neighbour w of `u`.
  template <typename Fn>
  void ForEachSolutionNeighbor(VertexId u, Fn&& fn) const {
    if (!lazy_) {
      for (EdgeId e = inb_head_[u]; e != kInvalidEdge;
           e = inb_links_[Slot(e, u)].next) {
        fn(g_->Other(e, u));
      }
    } else {
      g_->ForEachIncident(u, [&](VertexId w, EdgeId) {
        if (InSolution(w)) fn(w);
      });
    }
  }

  // --- Tightness sets --------------------------------------------------------

  // |bar1(v)| for a solution vertex v. O(1) eager, O(deg(v)) lazy.
  int Bar1Size(VertexId v) const;

  // Appends the members of bar1(v) to `out` (not cleared).
  void CollectBar1(VertexId v, std::vector<VertexId>* out) const;

  // Appends the members of bar2(v) (count-2 vertices with v as a solution
  // neighbour) to `out`. Requires k == 2.
  void CollectBar2(VertexId v, std::vector<VertexId>* out) const;

  // Appends bar_I2({x, y}): count-2 vertices whose solution neighbours are
  // exactly {x, y}. Requires k == 2; x and y must be solution vertices.
  void CollectBar2Pair(VertexId x, VertexId y,
                       std::vector<VertexId>* out) const;

  // --- Status transitions ----------------------------------------------------

  // Moves `v` into the solution. Requires: alive, not in I, count(v) == 0.
  void MoveIn(VertexId v);

  // Moves `v` out of the solution. Recomputes count(v) and relinks v's own
  // tightness membership. Tolerates neighbours currently in I (the
  // transient state during the both-endpoints-in-I edge insertion case).
  void MoveOut(VertexId v);

  // --- Edge event hooks ------------------------------------------------------

  // Call immediately after g->AddEdge(e). Handles the at-most-one-endpoint-
  // in-I cases; with both endpoints in I it is a no-op (the caller must
  // MoveOut one endpoint right after).
  void OnEdgeAdded(EdgeId e);

  // Call immediately *before* g->RemoveEdge(e).
  void OnEdgeRemoving(EdgeId e);

  // Call immediately before g->RemoveVertex(v) *after* the caller has moved
  // v out of the solution (if it was in). Detaches v's incident edges from
  // all state lists and updates neighbour counts.
  void OnVertexRemoving(VertexId v);

  // --- Transition log --------------------------------------------------------

  // Drains the transition log in place: calls fn(u) for every vertex whose
  // count transitioned into 1 (or 2 when k == 2) since the last drain, then
  // clears the log keeping its capacity (the old TakeTransitions() moved the
  // vector out, forcing a fresh allocation on every subsequent operation).
  // Entries may be stale; consumers must re-validate. The callback must not
  // call MoveIn/MoveOut or the edge hooks (they append to the log).
  template <typename Fn>
  void DrainTransitions(Fn&& fn) {
    for (size_t i = 0; i < transitions_.size(); ++i) fn(transitions_[i]);
    transitions_.clear();
  }

  // Drops pending transitions without visiting them (initialization seeds
  // its candidate queues by a full scan instead).
  void DiscardTransitions() { transitions_.clear(); }

  // --- Snapshots -------------------------------------------------------------

  // Writes status/count/solution-size and (in eager mode) the intrusive
  // tightness lists verbatim as the snapshot section "mis". Edge/vertex ids
  // in the arrays refer to the owning graph's id space, so the graph must be
  // saved (and restored) alongside. Requires a quiescent state: the
  // transition log must be drained.
  void SaveTo(SnapshotWriter* w) const;

  // Restores the state from the section "mis". The graph must already hold
  // the snapshot's (validated) topology, and this state must have been
  // constructed over it: the arrays decode straight into the storage the
  // constructor sized. Runs a full O(n + m) validation: parameter match
  // (k, lazy), array sizes and id bounds, independence and count
  // correctness against the graph (one pass over the edge records), and —
  // in eager mode — termination, back-link and membership-record
  // consistency of every intrusive list, so a CRC-valid but semantically
  // corrupt payload is rejected with a structured error instead of
  // aborting (or looping) in a later update. Returns false (failing the
  // reader) on any violation; the state is then unusable and must be
  // discarded. Performs no MoveIn/MoveOut and no rebuild — load is
  // O(state), which status_ops() lets callers verify.
  bool LoadFrom(SnapshotReader* r);

  // --- Introspection ---------------------------------------------------------

  // Lifetime count of MoveIn/MoveOut transitions. Instrumentation for the
  // snapshot tests: a freshly constructed state that was LoadFrom-restored
  // reports 0, whereas any recompute/Initialize path would have performed at
  // least |I| transitions.
  int64_t status_ops() const { return status_ops_; }

  size_t MemoryUsageBytes() const;

  // Full O(n + m) invariant validation: independence, count correctness,
  // list consistency, maximality. Aborts on violation. Test-only.
  void CheckConsistency(bool expect_maximal) const;

 private:
  // Forward/backward pointers of one intrusive-list slot, kept adjacent so
  // link/unlink touch a single cache line per slot (they were previously
  // split across parallel next/prev arrays).
  struct LinkPair {
    EdgeId next = kInvalidEdge;
    EdgeId prev = kInvalidEdge;
  };
  // Snapshots borrow the link arrays as flat interleaved (next, prev) i32
  // arrays, so the record must stay exactly two i32s.
  static_assert(sizeof(LinkPair) == 2 * sizeof(int32_t) &&
                std::is_trivially_copyable_v<LinkPair>);

  // Flat index of edge e's link slot on the side of vertex v.
  int Slot(EdgeId e, VertexId v) const { return 2 * e + g_->Side(e, v); }

  // Intrusive list plumbing. `head` is indexed by the owner vertex; the
  // link array by Slot(e, owner).
  void Link(std::vector<EdgeId>& head, std::vector<LinkPair>& links, EdgeId e,
            VertexId owner);
  void Unlink(std::vector<EdgeId>& head, std::vector<LinkPair>& links,
              EdgeId e, VertexId owner);

  // Removes u from whatever bar1/bar2 lists it occupies.
  void ClearTightness(VertexId u);
  // (Re)inserts u into the bar list matching its current count, and appends
  // it to the transition log when it lands on a tracked tightness level.
  void SetTightnessAndLog(VertexId u);

  DynamicGraph* g_;
  int k_;
  bool lazy_;

  std::vector<uint8_t> status_;
  std::vector<int32_t> count_;
  int64_t solution_size_ = 0;
  int64_t status_ops_ = 0;

  // Reusable scratch for CollectBar2Pair (hot on the deletion path).
  mutable std::vector<VertexId> side_scratch_;

  // Eager-mode intrusive lists (link arrays sized 2 * edge capacity; empty
  // when lazy).
  std::vector<EdgeId> inb_head_, bar1_head_, bar2_head_;
  std::vector<LinkPair> inb_links_, bar1_links_, bar2_links_;
  std::vector<int32_t> bar1_size_;
  // Membership records: by which edge is u linked into an owner's list.
  std::vector<EdgeId> bar1_edge_;
  std::vector<EdgeId> bar2_edge0_, bar2_edge1_;

  std::vector<VertexId> transitions_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_SOLUTION_H_
