#include "src/shard/cut_edge_resolver.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/memory.h"

namespace dynmis {

CutEdgeResolver::CutEdgeResolver(int initial_vertices) {
  DYNMIS_CHECK_GE(initial_vertices, 0);
  alive_.assign(static_cast<size_t>(initial_vertices), 1);
  num_vertices_ = initial_vertices;
  adjacency_.resize(static_cast<size_t>(initial_vertices));
}

// --- Id space and cut-edge mutations -----------------------------------------

VertexId CutEdgeResolver::AddVertex() {
  VertexId v;
  if (!free_vertices_.empty()) {
    v = free_vertices_.back();
    free_vertices_.pop_back();
  } else {
    v = static_cast<VertexId>(alive_.size());
    alive_.push_back(0);
    adjacency_.emplace_back();
  }
  alive_[v] = 1;
  ++num_vertices_;
  return v;
}

void CutEdgeResolver::RemoveVertex(VertexId v) {
  DYNMIS_DCHECK(IsVertexAlive(v));
  alive_[v] = 0;
  free_vertices_.push_back(v);
  --num_vertices_;
  // Mirror fix-ups may rewrite adjacency_[v] entries' mirrors, so read each
  // entry fresh by index.
  for (size_t i = 0; i < adjacency_[v].size(); ++i) {
    const Half h = adjacency_[v][i];
    SwapRemoveHalf(h.to, h.mirror);
    --num_edges_;
  }
  adjacency_[v].clear();
}

void CutEdgeResolver::AddCutEdge(VertexId u, VertexId v) {
  DYNMIS_DCHECK(IsVertexAlive(u));
  DYNMIS_DCHECK(IsVertexAlive(v));
  DYNMIS_DCHECK(!HasCutEdge(u, v));
  adjacency_[u].push_back(Half{v, static_cast<int32_t>(adjacency_[v].size())});
  adjacency_[v].push_back(
      Half{u, static_cast<int32_t>(adjacency_[u].size()) - 1});
  ++num_edges_;
}

void CutEdgeResolver::RemoveCutEdge(VertexId u, VertexId v) {
  // Scan the smaller endpoint's contiguous array; its mirror locates the
  // far entry without touching the (possibly much longer) far array.
  if (CutDegree(v) < CutDegree(u)) std::swap(u, v);
  std::vector<Half>& list = adjacency_[u];
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].to != v) continue;
    const int32_t mirror = list[i].mirror;
    SwapRemoveHalf(u, static_cast<int32_t>(i));
    SwapRemoveHalf(v, mirror);
    --num_edges_;
    return;
  }
  DYNMIS_DCHECK(false && "RemoveCutEdge: edge not present");
}

void CutEdgeResolver::SwapRemoveHalf(VertexId owner, int32_t index) {
  std::vector<Half>& list = adjacency_[owner];
  const Half moved = list.back();
  list.pop_back();
  if (index != static_cast<int32_t>(list.size())) {
    list[index] = moved;
    adjacency_[moved.to][moved.mirror].mirror = index;
  }
}

std::vector<std::pair<VertexId, VertexId>> CutEdgeResolver::CutEdgeList()
    const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (VertexId u = 0; u < static_cast<VertexId>(adjacency_.size()); ++u) {
    for (const Half& h : adjacency_[u]) {
      if (u < h.to) edges.emplace_back(u, h.to);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

// --- Barrier resolution ------------------------------------------------------

CutEdgeResolver::Resolution CutEdgeResolver::Resolve(
    const PartitionPlan& plan,
    const std::vector<std::unique_ptr<Shard>>& shards) {
  Resolution result;
  const int capacity = VertexCapacity();

  // Overlay membership: the union of the shards' local solutions. Every
  // member is alive in its shard graph, and intra-shard independence holds
  // by shard-local invariant; only cut edges can conflict.
  members_.clear();
  for (const auto& shard : shards) {
    shard->maintainer().CollectSolution(&members_);
  }
  in_sol_.assign(static_cast<size_t>(capacity), 0);
  for (const VertexId v : members_) in_sol_[v] = 1;

  // Vertices touching a conflicting cut edge.
  conflicted_.clear();
  int64_t conflict_edges = 0;
  for (const VertexId v : members_) {
    bool has_conflict = false;
    for (const Half& h : adjacency_[v]) {
      if (!in_sol_[h.to]) continue;
      has_conflict = true;
      if (v < h.to) ++conflict_edges;  // Counted once per edge.
    }
    if (has_conflict) conflicted_.push_back(v);
  }
  result.conflicts = conflict_edges;

  RepairAndPolish(plan, shards, &result);
  return result;
}

void CutEdgeResolver::SortByDegree(
    const PartitionPlan& plan,
    const std::vector<std::unique_ptr<Shard>>& shards,
    std::vector<VertexId>* list) {
  // (TotalDegree, id) packed into one integer: each degree is read once per
  // element rather than twice per comparison.
  keys_.clear();
  for (const VertexId v : *list) {
    keys_.push_back(
        static_cast<uint64_t>(TotalDegree(plan, shards, v)) << 32 |
        static_cast<uint32_t>(v));
  }
  std::sort(keys_.begin(), keys_.end());
  for (size_t i = 0; i < keys_.size(); ++i) {
    (*list)[i] = static_cast<VertexId>(static_cast<uint32_t>(keys_[i]));
  }
}

void CutEdgeResolver::RepairAndPolish(
    const PartitionPlan& plan,
    const std::vector<std::unique_ptr<Shard>>& shards, Resolution* result) {
  const int capacity = VertexCapacity();
  for (const VertexId v : conflicted_) in_sol_[v] = 0;
  // Without cut edges nothing conflicts and no 1-swap exists (every shard
  // solution is then k-maximal on its full graph), so the overlay is the
  // answer — which also keeps the S=1 degenerate engine bit-identical to
  // the single engine.
  if (num_edges_ > 0) {
    auto for_each_neighbor = [&](VertexId v, auto&& fn) {
      shards[plan.ShardOf(v)]->graph().ForEachIncident(
          v, [&](VertexId u, EdgeId) { fn(u); });
      for (const Half& h : adjacency_[v]) fn(h.to);
    };
    auto adjacent = [&](VertexId a, VertexId b) {
      const int sa = plan.ShardOf(a);
      if (sa == plan.ShardOf(b)) return shards[sa]->graph().HasEdge(a, b);
      return HasCutEdge(a, b);
    };

    // cover_[u]: u's solution neighbors — how many, and the XOR of their
    // ids, which names the lone one when the count is 1 — plus, for a
    // member, the size of its bar1 set {u in N(v) : count of u is 1}. One
    // pass over the overlay's neighborhoods materializes it, and every
    // membership change below keeps it exact, so "is u blocked" and "can
    // v swap at all" are O(1) reads for the confirm, re-add and polish
    // steps alike.
    //
    // recheck_[m]: member m's bar1 set may have changed since the polish
    // last visited it. bar1 sets move only when a vertex's count enters or
    // leaves 1, and the XOR names the member whose set that is. Marks made
    // before the polish are harmless: its first pass visits every member
    // anyway.
    cover_.assign(static_cast<size_t>(capacity), Cover{});
    recheck_.assign(static_cast<size_t>(capacity), 0);
    for (VertexId v = 0; v < capacity; ++v) {
      if (!in_sol_[v]) continue;
      for_each_neighbor(v, [&](VertexId u) {
        ++cover_[u].count;
        cover_[u].members_xor ^= v;
      });
    }
    for (VertexId u = 0; u < capacity; ++u) {
      if (cover_[u].count == 1) ++cover_[cover_[u].members_xor].bar1_size;
    }
    auto bump = [&](VertexId u, VertexId member, int32_t delta) {
      Cover& c = cover_[u];
      if (c.count == 1) {  // u leaves its lone member's bar1.
        --cover_[c.members_xor].bar1_size;
        recheck_[c.members_xor] = 1;
      }
      c.count += delta;
      c.members_xor ^= member;
      if (c.count == 1) {  // u enters its lone member's bar1.
        ++cover_[c.members_xor].bar1_size;
        recheck_[c.members_xor] = 1;
      }
    };
    auto join = [&](VertexId a) {
      in_sol_[a] = 1;
      for_each_neighbor(a, [&](VertexId u) { bump(u, a, 1); });
    };
    auto leave = [&](VertexId a) {
      in_sol_[a] = 0;
      for_each_neighbor(a, [&](VertexId u) { bump(u, a, -1); });
    };

    // Eviction as a min-degree greedy over the conflicted vertices: with
    // all of them unmarked, confirm each in ascending (TotalDegree, id)
    // order when no confirmed neighbor blocks it. Conflicted vertices are
    // shard-local solution members, so only cut neighbors can block them.
    // Low-degree vertices — the ones a min-degree greedy would pick — win
    // their conflicts; per-edge eviction in arbitrary order costs several
    // percent of solution quality.
    SortByDegree(plan, shards, &conflicted_);
    evicted_mark_.assign(static_cast<size_t>(capacity), 0);
    for (const VertexId v : conflicted_) {
      if (cover_[v].count == 0) {
        join(v);
      } else {
        evicted_mark_[v] = 1;
        ++result->evictions;
      }
    }

    // Re-extension candidates: the neighbors of evictions that are neither
    // members nor blocked now (the solution only grows from here until the
    // polish, so any other vertex would be skipped anyway). They are found
    // from their own side — an uncovered non-member next to an eviction —
    // which walks only the few uncovered vertices instead of every evicted
    // hub's neighborhood.
    candidates_.clear();
    for (VertexId u = 0; u < capacity; ++u) {
      if (in_sol_[u] || cover_[u].count > 0 || !alive_[u]) continue;
      bool next_to_eviction = false;
      for_each_neighbor(u, [&](VertexId w) {
        next_to_eviction = next_to_eviction || evicted_mark_[w];
      });
      if (next_to_eviction) candidates_.push_back(u);
    }

    // Greedy re-add in min-degree order (the same preference as the greedy
    // quality reference). One pass suffices: a rejected candidate's
    // blocking neighbor stays in the solution.
    SortByDegree(plan, shards, &candidates_);
    for (const VertexId c : candidates_) {
      if (cover_[c].count > 0) continue;
      join(c);
      ++result->readded;
    }

    // Polish: 1-swap restoration over the stitched solution (the move
    // behind paper Algorithm 2). The overlay is maximal, but stitching
    // per-shard views can leave a member v whose exclusively-covered
    // neighborhood bar1(v) holds an independent pair — swapping v out for
    // the pair grows the solution by one. A few passes recover the quality
    // the shard-local view gave up to cut-edge blindness (measured on the
    // hard scenario: 0.95 -> 0.99+ of the greedy reference).
    constexpr int kMaxPasses = 3;
    constexpr size_t kPairPool = 16;
    for (int pass = 0; pass < kMaxPasses; ++pass) {
      // Iterate the current members in ascending id order — a canonical
      // order, so the outcome never depends on how the shards found them.
      members_.clear();
      for (VertexId v = 0; v < capacity; ++v) {
        if (in_sol_[v]) members_.push_back(v);
      }
      int64_t swaps_this_pass = 0;
      for (const VertexId v : members_) {
        if (!in_sol_[v]) continue;  // Swapped out earlier this pass.
        // After the first pass a member is visited only when marked at
        // its turn (possibly by a swap earlier in this pass): otherwise it
        // would find the same bar1 set, and so no swap, as last time.
        if (pass > 0 && !recheck_[v]) continue;
        recheck_[v] = 0;
        if (cover_[v].bar1_size < 2) continue;  // No pair to swap in.
        bar1_.clear();
        for_each_neighbor(v, [&](VertexId u) {
          // Count 1 and adjacent to the member v: v is u's only solution
          // neighbor.
          if (cover_[u].count == 1) bar1_.push_back(u);
        });
        DYNMIS_DCHECK(bar1_.size() ==
                      static_cast<size_t>(cover_[v].bar1_size));
        // Min-degree order: the swap prefers the vertices a min-degree
        // greedy would keep. Only the first kPairPool entries enter the
        // quadratic pair search (bounding hub-sized bar1 sets), but the
        // FULL list stays: every exclusively-covered neighbor loses its
        // cover when v leaves and must get the chance to rejoin below —
        // dropping the tail here would leave it uncovered and break the
        // maximality guarantee.
        SortByDegree(plan, shards, &bar1_);
        const size_t pool = std::min(bar1_.size(), kPairPool);
        VertexId first = kInvalidVertex;
        VertexId second = kInvalidVertex;
        for (size_t i = 0; i < pool && second == kInvalidVertex; ++i) {
          for (size_t j = i + 1; j < pool; ++j) {
            if (!adjacent(bar1_[i], bar1_[j])) {
              first = bar1_[i];
              second = bar1_[j];
              break;
            }
          }
        }
        if (second == kInvalidVertex) continue;  // The pool is a clique.
        leave(v);
        join(first);
        join(second);
        // Every other exclusively-covered neighbor freed by v's departure
        // and not blocked by the pair joins too (full list, not the pool:
        // anything left at count 0 would make the result non-maximal).
        for (const VertexId w : bar1_) {
          if (!in_sol_[w] && cover_[w].count == 0) join(w);
        }
        ++swaps_this_pass;
      }
      result->swaps += swaps_this_pass;
      if (swaps_this_pass == 0) break;
    }
  }

  result->solution.reserve(static_cast<size_t>(num_vertices_));
  for (VertexId v = 0; v < capacity; ++v) {
    if (in_sol_[v]) result->solution.push_back(v);
  }
}

// --- Snapshots ---------------------------------------------------------------

void CutEdgeResolver::SaveTo(SnapshotWriter* w) const {
  w->BeginSection("state");
  w->PutI32(VertexCapacity());
  w->PutI32(num_vertices_);
  w->PutI64(num_edges_);
  w->PutU8Array(alive_);
  w->PutI32Array(free_vertices_);
  std::vector<int32_t> flat;
  flat.reserve(2 * static_cast<size_t>(num_edges_));
  for (const auto& [u, v] : CutEdgeList()) {
    flat.push_back(u);
    flat.push_back(v);
  }
  w->PutI32Array(flat);
  w->EndSection();
}

bool CutEdgeResolver::LoadFrom(SnapshotReader* r) {
  if (!r->OpenSection("state")) return false;
  auto fail = [&](const char* message) {
    r->Fail(std::string("snapshot: cut state: ") + message);
    return false;
  };
  const int32_t capacity = r->GetI32();
  const int32_t nv = r->GetI32();
  const int64_t ne = r->GetI64();
  std::vector<uint8_t> alive;
  std::vector<int32_t> free_list, flat;
  if (!r->GetU8Array(&alive) || !r->GetI32Array(&free_list) ||
      !r->GetI32Array(&flat)) {
    return false;
  }
  if (!r->AtSectionEnd()) return fail("trailing bytes after the last field");
  if (capacity < 0 || nv < 0 || nv > capacity || ne < 0) {
    return fail("counts out of range");
  }
  if (alive.size() != static_cast<size_t>(capacity)) {
    return fail("alive array size mismatch");
  }
  int64_t alive_count = 0;
  for (const uint8_t flag : alive) {
    if (flag > 1) return fail("alive flag out of range");
    alive_count += flag;
  }
  if (alive_count != nv) return fail("alive-vertex count mismatch");
  if (free_list.size() != static_cast<size_t>(capacity - nv)) {
    return fail("free-vertex list size mismatch");
  }
  std::vector<uint8_t> seen(static_cast<size_t>(capacity), 0);
  for (const int32_t v : free_list) {
    if (v < 0 || v >= capacity || alive[v] || seen[v]) {
      return fail("free-vertex list entry invalid or duplicated");
    }
    seen[v] = 1;
  }
  if (flat.size() != 2 * static_cast<size_t>(ne)) {
    return fail("edge array size mismatch");
  }
  for (size_t i = 0; i + 1 < flat.size(); i += 2) {
    const int32_t u = flat[i];
    const int32_t v = flat[i + 1];
    if (u < 0 || v < 0 || u >= capacity || v >= capacity || u >= v) {
      return fail("edge endpoints out of range or unordered");
    }
    if (!alive[u] || !alive[v]) {
      return fail("edge incident to a dead vertex");
    }
    if (i >= 2 && !(flat[i - 2] < u || (flat[i - 2] == u && flat[i - 1] < v))) {
      return fail("edges not strictly sorted (duplicate or disorder)");
    }
  }

  // Adopt and rebuild the derived structures.
  adjacency_.assign(static_cast<size_t>(capacity), {});
  alive_ = std::move(alive);
  free_vertices_ = std::move(free_list);
  num_vertices_ = nv;
  num_edges_ = 0;
  for (size_t i = 0; i + 1 < flat.size(); i += 2) {
    AddCutEdge(flat[i], flat[i + 1]);
  }
  return true;
}

size_t CutEdgeResolver::MemoryUsageBytes() const {
  return NestedVectorBytes(adjacency_) + VectorBytes(alive_) +
         VectorBytes(free_vertices_) + VectorBytes(in_sol_) +
         VectorBytes(members_) + VectorBytes(conflicted_) +
         VectorBytes(evicted_mark_) + VectorBytes(candidates_) +
         VectorBytes(cover_) + VectorBytes(recheck_) + VectorBytes(keys_) +
         VectorBytes(bar1_);
}

}  // namespace dynmis
