#include "src/core/solution.h"

#include <algorithm>

#include "src/util/memory.h"

namespace dynmis {

MisState::MisState(DynamicGraph* g, int k, bool lazy)
    : g_(g), k_(k), lazy_(lazy) {
  DYNMIS_CHECK_GE(k, 1);
  EnsureCapacity();
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) OnVertexAdded(v);
}

void MisState::EnsureCapacity() {
  const size_t vcap = g_->VertexCapacity();
  if (status_.size() < vcap) {
    status_.resize(vcap, 0);
    count_.resize(vcap, 0);
    if (!lazy_) {
      inb_head_.resize(vcap, kInvalidEdge);
      bar1_head_.resize(vcap, kInvalidEdge);
      bar1_size_.resize(vcap, 0);
      bar1_edge_.resize(vcap, kInvalidEdge);
      if (k_ >= 2) {
        bar2_head_.resize(vcap, kInvalidEdge);
        bar2_edge0_.resize(vcap, kInvalidEdge);
        bar2_edge1_.resize(vcap, kInvalidEdge);
      }
    }
  }
  if (!lazy_) {
    const size_t ecap = 2 * static_cast<size_t>(g_->EdgeCapacity());
    if (inb_links_.size() < ecap) {
      inb_links_.resize(ecap);
      bar1_links_.resize(ecap);
      if (k_ >= 2) bar2_links_.resize(ecap);
    }
  }
}

void MisState::OnVertexAdded(VertexId v) {
  EnsureCapacity();
  status_[v] = 0;
  count_[v] = 0;
  if (!lazy_) {
    inb_head_[v] = kInvalidEdge;
    bar1_head_[v] = kInvalidEdge;
    bar1_size_[v] = 0;
    bar1_edge_[v] = kInvalidEdge;
    if (k_ >= 2) {
      bar2_head_[v] = kInvalidEdge;
      bar2_edge0_[v] = kInvalidEdge;
      bar2_edge1_[v] = kInvalidEdge;
    }
  }
}

std::vector<VertexId> MisState::Solution() const {
  std::vector<VertexId> out;
  AppendSolution(&out);
  return out;
}

void MisState::AppendSolution(std::vector<VertexId>* out) const {
  out->reserve(out->size() + static_cast<size_t>(solution_size_));
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (g_->IsVertexAlive(v) && status_[v]) out->push_back(v);
  }
}

VertexId MisState::OwnerOf(VertexId u) const {
  DYNMIS_DCHECK(count_[u] >= 1);
  if (!lazy_) {
    DYNMIS_DCHECK(inb_head_[u] != kInvalidEdge);
    return g_->Other(inb_head_[u], u);
  }
  VertexId owner = kInvalidVertex;
  for (EdgeId e = g_->FirstIncident(u); e != kInvalidEdge;
       e = g_->NextIncident(e, u)) {
    const VertexId w = g_->Other(e, u);
    if (status_[w]) {
      owner = w;
      break;
    }
  }
  DYNMIS_DCHECK(owner != kInvalidVertex);
  return owner;
}

void MisState::OwnersOf2(VertexId u, VertexId* a, VertexId* b) const {
  DYNMIS_DCHECK(count_[u] == 2);
  VertexId first = kInvalidVertex;
  VertexId second = kInvalidVertex;
  ForEachSolutionNeighbor(u, [&](VertexId w) {
    if (first == kInvalidVertex) {
      first = w;
    } else if (second == kInvalidVertex) {
      second = w;
    }
  });
  DYNMIS_DCHECK(first != kInvalidVertex && second != kInvalidVertex);
  if (first > second) std::swap(first, second);
  *a = first;
  *b = second;
}

int MisState::Bar1Size(VertexId v) const {
  DYNMIS_DCHECK(InSolution(v));
  if (!lazy_) return bar1_size_[v];
  int size = 0;
  g_->ForEachIncident(v, [&](VertexId u, EdgeId) {
    if (count_[u] == 1) ++size;
  });
  return size;
}

void MisState::CollectBar1(VertexId v, std::vector<VertexId>* out) const {
  DYNMIS_DCHECK(InSolution(v));
  if (!lazy_) {
    for (EdgeId e = bar1_head_[v]; e != kInvalidEdge;
         e = bar1_links_[Slot(e, v)].next) {
      out->push_back(g_->Other(e, v));
    }
    return;
  }
  // Lazy: u in N(v) with count(u) == 1 necessarily has v as its unique
  // solution neighbour, so a single scan of N(v) suffices.
  g_->ForEachIncident(v, [&](VertexId u, EdgeId) {
    if (!status_[u] && count_[u] == 1) out->push_back(u);
  });
}

void MisState::CollectBar2(VertexId v, std::vector<VertexId>* out) const {
  DYNMIS_DCHECK(InSolution(v));
  DYNMIS_CHECK_GE(k_, 2);
  if (!lazy_) {
    for (EdgeId e = bar2_head_[v]; e != kInvalidEdge;
         e = bar2_links_[Slot(e, v)].next) {
      out->push_back(g_->Other(e, v));
    }
    return;
  }
  g_->ForEachIncident(v, [&](VertexId u, EdgeId) {
    if (!status_[u] && count_[u] == 2) out->push_back(u);
  });
}

void MisState::CollectBar2Pair(VertexId x, VertexId y,
                               std::vector<VertexId>* out) const {
  DYNMIS_CHECK_GE(k_, 2);
  DYNMIS_DCHECK(InSolution(x) && InSolution(y));
  // Enumerate one owner's bar2 list and keep members whose second solution
  // neighbour is the other owner; in lazy mode scan the lower-degree owner.
  if (lazy_ && g_->Degree(x) > g_->Degree(y)) std::swap(x, y);
  std::vector<VertexId>& side = side_scratch_;
  side.clear();
  CollectBar2(x, &side);
  for (VertexId u : side) {
    VertexId a, b;
    OwnersOf2(u, &a, &b);
    const VertexId other = a == x ? b : a;
    if (other == y) out->push_back(u);
  }
}

void MisState::Link(std::vector<EdgeId>& head, std::vector<LinkPair>& links,
                    EdgeId e, VertexId owner) {
  const int slot = Slot(e, owner);
  links[slot].next = head[owner];
  links[slot].prev = kInvalidEdge;
  if (head[owner] != kInvalidEdge) {
    links[Slot(head[owner], owner)].prev = e;
  }
  head[owner] = e;
}

void MisState::Unlink(std::vector<EdgeId>& head, std::vector<LinkPair>& links,
                      EdgeId e, VertexId owner) {
  const int slot = Slot(e, owner);
  const EdgeId p = links[slot].prev;
  const EdgeId n = links[slot].next;
  if (p != kInvalidEdge) {
    links[Slot(p, owner)].next = n;
  } else {
    DYNMIS_DCHECK(head[owner] == e);
    head[owner] = n;
  }
  if (n != kInvalidEdge) links[Slot(n, owner)].prev = p;
  links[slot].next = kInvalidEdge;
  links[slot].prev = kInvalidEdge;
}

void MisState::ClearTightness(VertexId u) {
  if (lazy_) return;
  if (bar1_edge_[u] != kInvalidEdge) {
    const EdgeId e = bar1_edge_[u];
    const VertexId owner = g_->Other(e, u);
    Unlink(bar1_head_, bar1_links_, e, owner);
    --bar1_size_[owner];
    bar1_edge_[u] = kInvalidEdge;
  }
  if (k_ >= 2) {
    for (EdgeId* slot : {&bar2_edge0_[u], &bar2_edge1_[u]}) {
      if (*slot != kInvalidEdge) {
        const EdgeId e = *slot;
        const VertexId owner = g_->Other(e, u);
        Unlink(bar2_head_, bar2_links_, e, owner);
        *slot = kInvalidEdge;
      }
    }
  }
}

void MisState::SetTightnessAndLog(VertexId u) {
  if (status_[u]) return;
  const int c = count_[u];
  if (!lazy_) {
    if (c == 1) {
      const EdgeId e = inb_head_[u];
      DYNMIS_DCHECK(e != kInvalidEdge);
      const VertexId owner = g_->Other(e, u);
      Link(bar1_head_, bar1_links_, e, owner);
      ++bar1_size_[owner];
      bar1_edge_[u] = e;
    } else if (c == 2 && k_ >= 2) {
      const EdgeId e0 = inb_head_[u];
      DYNMIS_DCHECK(e0 != kInvalidEdge);
      const EdgeId e1 = inb_links_[Slot(e0, u)].next;
      DYNMIS_DCHECK(e1 != kInvalidEdge);
      Link(bar2_head_, bar2_links_, e0, g_->Other(e0, u));
      Link(bar2_head_, bar2_links_, e1, g_->Other(e1, u));
      bar2_edge0_[u] = e0;
      bar2_edge1_[u] = e1;
    }
  }
  if (c >= 1 && c <= k_) transitions_.push_back(u);
}

void MisState::MoveIn(VertexId v) {
  DYNMIS_CHECK(g_->IsVertexAlive(v));
  DYNMIS_CHECK(!status_[v]);
  DYNMIS_CHECK_EQ(count_[v], 0);
  ClearTightness(v);  // count == 0 implies no membership; cheap safety.
  status_[v] = 1;
  ++solution_size_;
  ++status_ops_;
  for (EdgeId e = g_->FirstIncident(v); e != kInvalidEdge;
       e = g_->NextIncident(e, v)) {
    const VertexId u = g_->Other(e, v);
    DYNMIS_DCHECK(!status_[u]);
    ClearTightness(u);
    if (!lazy_) Link(inb_head_, inb_links_, e, u);
    ++count_[u];
    SetTightnessAndLog(u);
  }
}

void MisState::MoveOut(VertexId v) {
  DYNMIS_CHECK(status_[v] != 0);
  status_[v] = 0;
  --solution_size_;
  ++status_ops_;
  int own_count = 0;
  for (EdgeId e = g_->FirstIncident(v); e != kInvalidEdge;
       e = g_->NextIncident(e, v)) {
    const VertexId u = g_->Other(e, v);
    if (status_[u]) {
      // Transient both-in-I situation (edge-insert handling): v gains u as
      // a solution neighbour.
      if (!lazy_) Link(inb_head_, inb_links_, e, v);
      ++own_count;
    } else {
      ClearTightness(u);
      if (!lazy_) Unlink(inb_head_, inb_links_, e, u);
      --count_[u];
      SetTightnessAndLog(u);
    }
  }
  DYNMIS_DCHECK(lazy_ || bar1_head_[v] == kInvalidEdge);
  DYNMIS_DCHECK(lazy_ || k_ < 2 || bar2_head_[v] == kInvalidEdge);
  count_[v] = own_count;
  SetTightnessAndLog(v);
}

void MisState::OnEdgeAdded(EdgeId e) {
  EnsureCapacity();
  const auto [a, b] = g_->Endpoints(e);
  if (!lazy_) {
    // Reset recycled link slots.
    for (int s = 0; s < 2; ++s) {
      inb_links_[2 * e + s] = LinkPair{};
      bar1_links_[2 * e + s] = LinkPair{};
      if (k_ >= 2) bar2_links_[2 * e + s] = LinkPair{};
    }
  }
  if (status_[a] && status_[b]) return;  // Caller must MoveOut one endpoint.
  VertexId in_i = kInvalidVertex;
  VertexId other = kInvalidVertex;
  if (status_[a]) {
    in_i = a;
    other = b;
  } else if (status_[b]) {
    in_i = b;
    other = a;
  } else {
    return;
  }
  (void)in_i;
  ClearTightness(other);
  if (!lazy_) Link(inb_head_, inb_links_, e, other);
  ++count_[other];
  SetTightnessAndLog(other);
}

void MisState::OnEdgeRemoving(EdgeId e) {
  const auto [a, b] = g_->Endpoints(e);
  DYNMIS_DCHECK(!(status_[a] && status_[b]));
  VertexId other = kInvalidVertex;
  if (status_[a]) {
    other = b;
  } else if (status_[b]) {
    other = a;
  } else {
    return;
  }
  ClearTightness(other);
  if (!lazy_) Unlink(inb_head_, inb_links_, e, other);
  --count_[other];
  SetTightnessAndLog(other);
}

void MisState::OnVertexRemoving(VertexId v) {
  DYNMIS_CHECK(!status_[v]);
  ClearTightness(v);
  if (!lazy_) {
    for (EdgeId e = g_->FirstIncident(v); e != kInvalidEdge;
         e = g_->NextIncident(e, v)) {
      const VertexId u = g_->Other(e, v);
      if (status_[u]) {
        Unlink(inb_head_, inb_links_, e, v);
      }
    }
    DYNMIS_DCHECK(inb_head_[v] == kInvalidEdge);
  }
  count_[v] = 0;
}

void MisState::SaveTo(SnapshotWriter* w) const {
  DYNMIS_CHECK(transitions_.empty());  // Quiescent-point contract.
  w->BeginSection("mis");
  w->PutI32(k_);
  w->PutU8(lazy_ ? 1 : 0);
  w->PutI64(solution_size_);
  w->PutU8Array(status_);
  w->BorrowI32Array(count_);
  if (lazy_) {
    w->EndSection();
    return;
  }
  w->BorrowI32Array(inb_head_);
  w->BorrowI32Array(bar1_head_);
  w->BorrowI32Array(bar1_size_);
  w->BorrowI32Array(bar1_edge_);
  // LinkPair arrays travel as interleaved (next, prev) i32 arrays.
  w->BorrowI32Array(inb_links_);
  w->BorrowI32Array(bar1_links_);
  if (k_ >= 2) {
    w->BorrowI32Array(bar2_head_);
    w->BorrowI32Array(bar2_edge0_);
    w->BorrowI32Array(bar2_edge1_);
    w->BorrowI32Array(bar2_links_);
  }
  w->EndSection();
}

bool MisState::LoadFrom(SnapshotReader* r) {
  if (!r->OpenSection("mis")) return false;
  auto fail = [&](const char* message) {
    r->Fail(std::string("snapshot: mis: ") + message);
    return false;
  };

  const int32_t k = r->GetI32();
  const bool lazy = r->GetU8() != 0;
  const int64_t solution_size = r->GetI64();
  if (!r->ok()) return false;
  if (k != k_ || lazy != lazy_) {
    return fail("maintainer parameters (k / lazy) do not match the snapshot");
  }
  // Every array decodes straight into the member the constructor already
  // sized for this graph, so the copy lands on faulted-in pages and no
  // second set of arrays is allocated. On failure the state is unusable.
  const size_t vcap = static_cast<size_t>(g_->VertexCapacity());
  const size_t link_cap = 2 * static_cast<size_t>(g_->EdgeCapacity());
  if (!r->GetU8Array(&status_) || !r->GetI32Array(&count_)) return false;
  if (status_.size() != vcap || count_.size() != vcap) {
    return fail("per-vertex array sizes do not match the graph");
  }
  int64_t counted = 0;
  for (size_t v = 0; v < vcap; ++v) {
    if (status_[v] > 1) return fail("status value out of range");
    if (status_[v] != 0) {
      if (!g_->IsVertexAlive(static_cast<VertexId>(v))) {
        return fail("dead vertex marked in solution");
      }
      ++counted;
    }
    if (count_[v] < 0) return fail("negative solution-neighbour count");
  }
  if (counted != solution_size) return fail("solution size mismatch");

  // Independence and count correctness against the restored topology:
  // status/count are trusted by every update handler (MoveIn aborts on a
  // violated precondition), so a CRC-valid but semantically corrupt
  // section must be rejected here, not discovered mid-update. The graph is
  // already validated (simple, every alive edge in both endpoints' lists),
  // so one pass over the edge records counts each vertex's solution
  // neighbours without walking any adjacency chain. O(n + m).
  std::vector<int32_t> solution_neighbors(vcap, 0);
  for (EdgeId e = 0; e < g_->EdgeCapacity(); ++e) {
    if (!g_->IsEdgeAlive(e)) continue;
    const auto [a, b] = g_->Endpoints(e);
    if (status_[a] != 0 && status_[b] != 0) {
      return fail("solution is not independent");
    }
    solution_neighbors[a] += status_[b];
    solution_neighbors[b] += status_[a];
  }
  for (size_t v = 0; v < vcap; ++v) {
    if (!g_->IsVertexAlive(static_cast<VertexId>(v))) continue;
    if (status_[v] != 0) {
      if (count_[v] != 0) return fail("solution vertex with nonzero count");
    } else if (count_[v] != solution_neighbors[v]) {
      return fail("count does not match solution neighbourhood");
    } else if (solution_neighbors[v] == 0) {
      // Every maintainer keeps its solution maximal at quiescent points; an
      // uncovered vertex would never be repaired after load (updates only
      // react to changes) and hard-aborts a later CheckConsistency.
      return fail("solution is not maximal");
    }
  }
  solution_size_ = solution_size;
  transitions_.clear();
  if (lazy_) {
    return r->AtSectionEnd() || fail("trailing bytes after the last field");
  }

  auto load_heads = [&](std::vector<int32_t>* out, bool edge_ids) {
    if (!r->GetI32Array(out)) return false;
    if (out->size() != vcap) return fail("per-vertex array size mismatch");
    const int32_t bound = edge_ids ? g_->EdgeCapacity() : 0;
    for (int32_t value : *out) {
      if (value < kInvalidEdge || (edge_ids && value >= bound)) {
        return fail("edge id out of range");
      }
    }
    return true;
  };
  auto load_links = [&](std::vector<LinkPair>* out) {
    if (!r->GetI32Records(out)) return false;
    if (out->size() != link_cap) return fail("link array size mismatch");
    for (const LinkPair& link : *out) {
      if (link.next < kInvalidEdge || link.next >= g_->EdgeCapacity() ||
          link.prev < kInvalidEdge || link.prev >= g_->EdgeCapacity()) {
        return fail("link edge id out of range");
      }
    }
    return true;
  };
  if (!load_heads(&inb_head_, true) || !load_heads(&bar1_head_, true) ||
      !load_heads(&bar1_size_, false) || !load_heads(&bar1_edge_, true) ||
      !load_links(&inb_links_) || !load_links(&bar1_links_)) {
    return false;
  }
  for (int32_t size : bar1_size_) {
    if (size < 0) return fail("negative bar1 size");
  }
  if (k_ >= 2) {
    if (!load_heads(&bar2_head_, true) || !load_heads(&bar2_edge0_, true) ||
        !load_heads(&bar2_edge1_, true) || !load_links(&bar2_links_)) {
      return false;
    }
  }

  // Structural validation of the intrusive lists: every chain must be a
  // terminating walk over alive incident edges whose back-links mirror the
  // forward traversal (Unlink trusts them) and whose members carry
  // matching tightness counts and membership records. The back-link check
  // also rejects every revisit, so no walk can loop: at the first repeated
  // slot, its back-link would have to name both its first predecessor (or
  // no edge, at the head) and its second one, which is then an earlier
  // repeat. The membership cross-check at the end guarantees
  // ClearTightness will only ever unlink edges that really are linked.
  // O(n + m).
  std::vector<uint8_t> listed1(vcap, 0), listed20(vcap, 0), listed21(vcap, 0);
  auto walk = [&](EdgeId head, VertexId owner,
                  const std::vector<LinkPair>& links, int max_steps,
                  auto&& member_check) {
    int steps = 0;
    EdgeId prev = kInvalidEdge;
    for (EdgeId e = head; e != kInvalidEdge;) {
      if (!g_->IsEdgeAlive(e)) return -1;
      const auto [a, b] = g_->Endpoints(e);
      if (a != owner && b != owner) return -1;
      const int slot = Slot(e, owner);
      if (links[slot].prev != prev) return -1;
      if (++steps > max_steps) return -1;
      if (!member_check(g_->Other(e, owner), e)) return -1;
      prev = e;
      e = links[slot].next;
    }
    return steps;
  };
  const int32_t vcap_i = static_cast<int32_t>(vcap);
  for (VertexId v = 0; v < vcap_i; ++v) {
    if (!g_->IsVertexAlive(v)) continue;
    if (status_[v] != 0) {
      if (inb_head_[v] != kInvalidEdge) {
        return fail("solution vertex with a nonempty I(v) list");
      }
      const int steps =
          walk(bar1_head_[v], v, bar1_links_, g_->Degree(v),
               [&](VertexId u, EdgeId e) {
                 if (status_[u] != 0 || count_[u] != 1) return false;
                 if (bar1_edge_[u] != e || listed1[u]) return false;
                 listed1[u] = 1;
                 return true;
               });
      if (steps < 0 || steps != bar1_size_[v]) {
        return fail("bar1 list structure invalid");
      }
      if (k_ >= 2) {
        const int steps2 =
            walk(bar2_head_[v], v, bar2_links_, g_->Degree(v),
                 [&](VertexId u, EdgeId e) {
                   if (status_[u] != 0 || count_[u] != 2) return false;
                   if (bar2_edge0_[u] == e && !listed20[u]) {
                     listed20[u] = 1;
                   } else if (bar2_edge1_[u] == e && !listed21[u]) {
                     listed21[u] = 1;
                   } else {
                     return false;
                   }
                   return true;
                 });
        if (steps2 < 0) return fail("bar2 list structure invalid");
      }
    } else {
      const int steps = walk(inb_head_[v], v, inb_links_, count_[v],
                             [&](VertexId u, EdgeId) {
                               return status_[u] != 0;
                             });
      if (steps != count_[v]) return fail("I(v) list structure invalid");
    }
  }
  // Membership records must mirror the walked lists exactly, in both
  // directions: no dangling record (unlink would corrupt a head), no
  // unrecorded member (the member could be linked twice later).
  for (VertexId v = 0; v < vcap_i; ++v) {
    if (!g_->IsVertexAlive(v) || status_[v] != 0) continue;
    if ((bar1_edge_[v] != kInvalidEdge) != (listed1[v] != 0)) {
      return fail("bar1 membership record mismatch");
    }
    // Completeness: the tightness lists must cover every tracked-count
    // vertex (bar1(v) = all count-1 neighbours, bar2 both-sided), or the
    // restored maintainer would silently skip swap opportunities that
    // CheckConsistency later flags as corruption.
    if (count_[v] == 1 && !listed1[v]) {
      return fail("count-1 vertex missing from its owner's bar1 list");
    }
    if (k_ >= 2) {
      if ((bar2_edge0_[v] != kInvalidEdge) != (listed20[v] != 0) ||
          (bar2_edge1_[v] != kInvalidEdge) != (listed21[v] != 0)) {
        return fail("bar2 membership record mismatch");
      }
      if (count_[v] == 2 && (!listed20[v] || !listed21[v])) {
        return fail("count-2 vertex missing from its bar2 lists");
      }
    }
  }
  return r->AtSectionEnd() || fail("trailing bytes after the last field");
}

size_t MisState::MemoryUsageBytes() const {
  return VectorBytes(status_) + VectorBytes(count_) + VectorBytes(inb_head_) +
         VectorBytes(inb_links_) + VectorBytes(bar1_head_) +
         VectorBytes(bar1_links_) + VectorBytes(bar2_head_) +
         VectorBytes(bar2_links_) + VectorBytes(bar1_size_) +
         VectorBytes(bar1_edge_) + VectorBytes(bar2_edge0_) +
         VectorBytes(bar2_edge1_) + VectorBytes(transitions_) +
         VectorBytes(side_scratch_);
}

void MisState::CheckConsistency(bool expect_maximal) const {
  int64_t in_solution = 0;
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (!g_->IsVertexAlive(v)) continue;
    int solution_neighbors = 0;
    g_->ForEachIncident(v, [&](VertexId u, EdgeId) {
      if (status_[u]) ++solution_neighbors;
    });
    if (status_[v]) {
      ++in_solution;
      DYNMIS_CHECK_EQ(solution_neighbors, 0);  // Independence.
      DYNMIS_CHECK_EQ(count_[v], 0);
    } else {
      DYNMIS_CHECK_EQ(count_[v], solution_neighbors);
      if (expect_maximal) DYNMIS_CHECK_GE(count_[v], 1);  // Maximality.
    }
  }
  DYNMIS_CHECK_EQ(in_solution, solution_size_);
  if (lazy_) return;
  // List consistency: bar1(v) == {u in N(v) : count(u) == 1} and
  // bar2(v) == {u in N(v) : count(u) == 2} for every solution vertex, and
  // inb(u) == u's solution neighbours for every non-solution vertex.
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (!g_->IsVertexAlive(v)) continue;
    if (status_[v]) {
      std::vector<VertexId> listed;
      CollectBar1(v, &listed);
      DYNMIS_CHECK_EQ(static_cast<int>(listed.size()), bar1_size_[v]);
      std::vector<VertexId> expected;
      g_->ForEachIncident(v, [&](VertexId u, EdgeId) {
        if (!status_[u] && count_[u] == 1) expected.push_back(u);
      });
      std::sort(listed.begin(), listed.end());
      std::sort(expected.begin(), expected.end());
      DYNMIS_CHECK(listed == expected);
      if (k_ >= 2) {
        std::vector<VertexId> listed2;
        CollectBar2(v, &listed2);
        std::vector<VertexId> expected2;
        g_->ForEachIncident(v, [&](VertexId u, EdgeId) {
          if (!status_[u] && count_[u] == 2) expected2.push_back(u);
        });
        std::sort(listed2.begin(), listed2.end());
        std::sort(expected2.begin(), expected2.end());
        DYNMIS_CHECK(listed2 == expected2);
      }
    } else {
      std::vector<VertexId> owners;
      ForEachSolutionNeighbor(v, [&](VertexId w) { owners.push_back(w); });
      DYNMIS_CHECK_EQ(static_cast<int>(owners.size()), count_[v]);
      for (VertexId w : owners) {
        DYNMIS_CHECK(status_[w] != 0);
        DYNMIS_CHECK(g_->HasEdge(v, w));
      }
    }
  }
}

}  // namespace dynmis
