#include "src/graph/dynamic_graph.h"

#include "src/util/memory.h"

namespace dynmis {

DynamicGraph::DynamicGraph(int n) {
  DYNMIS_CHECK_GE(n, 0);
  vertices_.resize(n);
  for (auto& rec : vertices_) rec.degree = 0;
  num_vertices_ = n;
  degree_count_.assign(1, n);
}

void DynamicGraph::Reserve(int n, int64_t m) {
  if (n > 0) {
    vertices_.reserve(static_cast<size_t>(n));
    free_vertices_.reserve(static_cast<size_t>(n));
  }
  if (m > 0) {
    edges_.reserve(static_cast<size_t>(m));
    edge_prev_.reserve(2 * static_cast<size_t>(m));
    free_edges_.reserve(static_cast<size_t>(m));
  }
}

void DynamicGraph::DegreeChanged(int old_degree, int new_degree) {
  --degree_count_[old_degree];
  if (new_degree >= static_cast<int>(degree_count_.size())) {
    degree_count_.resize(new_degree + 1, 0);
  }
  ++degree_count_[new_degree];
  if (new_degree > max_degree_) {
    max_degree_ = new_degree;
  } else if (old_degree == max_degree_ && degree_count_[old_degree] == 0) {
    // Amortized O(1): every decrement of max_degree_ is paid for by an
    // earlier unit increment in the branch above.
    while (max_degree_ > 0 && degree_count_[max_degree_] == 0) --max_degree_;
  }
}

void DynamicGraph::QueueVertexId(VertexId v) {
  DYNMIS_CHECK_GE(v, 0);
  DYNMIS_CHECK(!IsVertexAlive(v));
  queued_ids_.push_back(v);
}

VertexId DynamicGraph::AddVertex() {
  VertexId v;
  if (queued_head_ < queued_ids_.size()) {
    v = queued_ids_[queued_head_];
    if (++queued_head_ == queued_ids_.size()) {
      queued_ids_.clear();
      queued_head_ = 0;
    }
    if (v >= VertexCapacity()) {
      // Ids skipped while growing stay dead but join the free list, so the
      // free list keeps covering exactly the dead ids (the snapshot loader
      // validates that exactness).
      for (VertexId skipped = VertexCapacity(); skipped < v; ++skipped) {
        free_vertices_.push_back(skipped);
      }
      vertices_.resize(static_cast<size_t>(v) + 1);
    } else {
      // Recycled id: pull it out of the free list. Scan from the back —
      // recycling is LIFO, so a just-freed id sits near the end. A queued
      // id absent from the free list means it is alive by consumption time
      // (queued twice, or never freed): crash rather than corrupt.
      bool found = false;
      for (size_t i = free_vertices_.size(); i-- > 0;) {
        if (free_vertices_[i] == v) {
          free_vertices_[i] = free_vertices_.back();
          free_vertices_.pop_back();
          found = true;
          break;
        }
      }
      DYNMIS_CHECK(found);
    }
  } else if (!free_vertices_.empty()) {
    v = free_vertices_.back();
    free_vertices_.pop_back();
  } else {
    v = static_cast<VertexId>(vertices_.size());
    vertices_.emplace_back();
  }
  VertexRec& rec = vertices_[v];
  rec.head = kInvalidEdge;
  rec.degree = 0;
  ++num_vertices_;
  if (degree_count_.empty()) degree_count_.assign(1, 0);
  ++degree_count_[0];
  return v;
}

void DynamicGraph::RemoveVertex(VertexId v) {
  DYNMIS_CHECK(IsVertexAlive(v));
  EdgeId e = vertices_[v].head;
  while (e != kInvalidEdge) {
    EdgeId next = NextIncident(e, v);
    RemoveEdge(e);
    e = next;
  }
  DYNMIS_DCHECK(vertices_[v].degree == 0);
  --degree_count_[0];
  vertices_[v].degree = -1;
  free_vertices_.push_back(v);
  --num_vertices_;
}

EdgeId DynamicGraph::AddEdge(VertexId u, VertexId v) {
  DYNMIS_CHECK(IsVertexAlive(u));
  DYNMIS_CHECK(IsVertexAlive(v));
  DYNMIS_CHECK_NE(u, v);
  DYNMIS_DCHECK(!HasEdge(u, v));

  EdgeId e;
  if (!free_edges_.empty()) {
    e = free_edges_.back();
    free_edges_.pop_back();
  } else {
    e = static_cast<EdgeId>(edges_.size());
    edges_.emplace_back();
    edge_prev_.resize(edge_prev_.size() + 2, kInvalidEdge);
  }
  EdgeRec& rec = edges_[e];
  rec.endpoint[0] = u;
  rec.endpoint[1] = v;
  for (int s = 0; s < 2; ++s) {
    VertexId x = rec.endpoint[s];
    VertexRec& vx = vertices_[x];
    edge_prev_[2 * e + s] = kInvalidEdge;
    rec.next[s] = vx.head;
    if (vx.head != kInvalidEdge) {
      edge_prev_[2 * vx.head + SideOf(vx.head, x)] = e;
    }
    vx.head = e;
    ++vx.degree;
    DegreeChanged(vx.degree - 1, vx.degree);
  }
  ++num_edges_;
  return e;
}

void DynamicGraph::UnlinkFrom(EdgeId e, VertexId v) {
  EdgeRec& rec = edges_[e];
  const int s = SideOf(e, v);
  const EdgeId prev = edge_prev_[2 * e + s];
  const EdgeId next = rec.next[s];
  if (prev != kInvalidEdge) {
    edges_[prev].next[SideOf(prev, v)] = next;
  } else {
    vertices_[v].head = next;
  }
  if (next != kInvalidEdge) {
    edge_prev_[2 * next + SideOf(next, v)] = prev;
  }
  VertexRec& vrec = vertices_[v];
  --vrec.degree;
  DegreeChanged(vrec.degree + 1, vrec.degree);
}

void DynamicGraph::RemoveEdge(EdgeId e) {
  DYNMIS_CHECK(IsEdgeAlive(e));
  EdgeRec& rec = edges_[e];
  UnlinkFrom(e, rec.endpoint[0]);
  UnlinkFrom(e, rec.endpoint[1]);
  rec.endpoint[0] = kInvalidVertex;  // Marks the edge dead.
  rec.endpoint[1] = kInvalidVertex;
  free_edges_.push_back(e);
  --num_edges_;
}

bool DynamicGraph::RemoveEdgeBetween(VertexId u, VertexId v) {
  EdgeId e = FindEdge(u, v);
  if (e == kInvalidEdge) return false;
  RemoveEdge(e);
  return true;
}

EdgeId DynamicGraph::FindEdge(VertexId u, VertexId v) const {
  if (!IsVertexAlive(u) || !IsVertexAlive(v)) return kInvalidEdge;
  // Scan the endpoint with the smaller degree.
  if (Degree(v) < Degree(u)) std::swap(u, v);
  for (EdgeId e = FirstIncident(u); e != kInvalidEdge; e = NextIncident(e, u)) {
    if (Other(e, u) == v) return e;
  }
  return kInvalidEdge;
}

std::vector<VertexId> DynamicGraph::Neighbors(VertexId v) const {
  std::vector<VertexId> result;
  result.reserve(Degree(v));
  ForEachIncident(v, [&](VertexId u, EdgeId) { result.push_back(u); });
  return result;
}

std::vector<VertexId> DynamicGraph::AliveVertices() const {
  std::vector<VertexId> result;
  result.reserve(num_vertices_);
  for (VertexId v = 0; v < VertexCapacity(); ++v) {
    if (vertices_[v].degree >= 0) result.push_back(v);
  }
  return result;
}

std::vector<std::pair<VertexId, VertexId>> DynamicGraph::EdgeList() const {
  std::vector<std::pair<VertexId, VertexId>> result;
  result.reserve(static_cast<size_t>(num_edges_));
  for (EdgeId e = 0; e < EdgeCapacity(); ++e) {
    if (edges_[e].endpoint[0] == kInvalidVertex) continue;
    VertexId u = edges_[e].endpoint[0];
    VertexId v = edges_[e].endpoint[1];
    if (u > v) std::swap(u, v);
    result.emplace_back(u, v);
  }
  return result;
}

size_t DynamicGraph::MemoryUsageBytes() const {
  return VectorBytes(vertices_) + VectorBytes(edges_) +
         VectorBytes(edge_prev_) + VectorBytes(free_vertices_) +
         VectorBytes(free_edges_) + VectorBytes(degree_count_) +
         VectorBytes(queued_ids_);
}

void DynamicGraph::SaveTo(SnapshotWriter* w) const {
  w->BeginSection("graph");
  w->PutI64(num_vertices_);
  w->PutI64(num_edges_);
  w->PutI32(VertexCapacity());
  w->PutI32(EdgeCapacity());
  // VertexRec interleaves head and degree; the format stores them as two
  // arrays, so these are copied.
  std::vector<int32_t> scratch(vertices_.size());
  for (size_t v = 0; v < vertices_.size(); ++v) {
    scratch[v] = vertices_[v].head;
  }
  w->PutI32Array(scratch);
  for (size_t v = 0; v < vertices_.size(); ++v) {
    scratch[v] = vertices_[v].degree;
  }
  w->PutI32Array(scratch);
  w->BorrowI32Array(edges_);
  w->BorrowI32Array(edge_prev_);
  w->BorrowI32Array(free_vertices_);
  w->BorrowI32Array(free_edges_);
  w->EndSection();
}

bool DynamicGraph::LoadFrom(SnapshotReader* r) {
  if (!r->OpenSection("graph")) return false;
  auto fail = [&](const char* message) {
    r->Fail(std::string("snapshot: graph: ") + message);
    return false;
  };

  const int64_t nv = r->GetI64();
  const int64_t ne = r->GetI64();
  const int32_t vcap = r->GetI32();
  const int32_t ecap = r->GetI32();
  std::vector<int32_t> heads, degrees, prev, free_v, free_e;
  std::vector<EdgeRec> edges;
  if (!r->GetI32Array(&heads) || !r->GetI32Array(&degrees) ||
      !r->GetI32Records(&edges) || !r->GetI32Array(&prev) ||
      !r->GetI32Array(&free_v) || !r->GetI32Array(&free_e)) {
    return false;
  }
  if (!r->AtSectionEnd()) return fail("trailing bytes after the last field");
  if (vcap < 0 || ecap < 0) return fail("negative capacity");
  if (nv < 0 || nv > vcap) return fail("vertex count out of range");
  if (ne < 0 || ne > ecap) return fail("edge count out of range");
  if (heads.size() != static_cast<size_t>(vcap) ||
      degrees.size() != static_cast<size_t>(vcap) ||
      edges.size() != static_cast<size_t>(ecap) ||
      prev.size() != 2 * static_cast<size_t>(ecap)) {
    return fail("array sizes do not match declared capacities");
  }

  // --- Validation pass 1: scalar bounds and aggregate counts. ---------------
  int64_t alive_vertices = 0;
  int64_t degree_sum = 0;
  for (int32_t v = 0; v < vcap; ++v) {
    if (degrees[v] < -1) return fail("vertex degree below -1");
    if (degrees[v] >= 0) {
      ++alive_vertices;
      degree_sum += degrees[v];
      if (heads[v] < kInvalidEdge || heads[v] >= ecap) {
        return fail("adjacency head out of range");
      }
      if ((heads[v] == kInvalidEdge) != (degrees[v] == 0)) {
        return fail("adjacency head inconsistent with degree");
      }
    }
  }
  if (alive_vertices != nv) return fail("alive-vertex count mismatch");

  int64_t alive_edges = 0;
  for (int32_t e = 0; e < ecap; ++e) {
    const int32_t u = edges[e].endpoint[0];
    const int32_t v = edges[e].endpoint[1];
    if (u == kInvalidVertex) continue;  // Dead: links may be stale.
    ++alive_edges;
    if (u < 0 || u >= vcap || v < 0 || v >= vcap || u == v) {
      return fail("edge endpoint out of range");
    }
    if (degrees[u] < 0 || degrees[v] < 0) {
      return fail("edge incident to a dead vertex");
    }
    for (int s = 0; s < 2; ++s) {
      if (edges[e].next[s] < kInvalidEdge || edges[e].next[s] >= ecap) {
        return fail("adjacency link out of range");
      }
      if (prev[2 * e + s] < kInvalidEdge || prev[2 * e + s] >= ecap) {
        return fail("adjacency back-link out of range");
      }
    }
  }
  if (alive_edges != ne) return fail("alive-edge count mismatch");
  if (degree_sum != 2 * ne) return fail("degree sum does not equal 2m");

  // --- Validation pass 2: free lists exactly cover the dead ids. ------------
  if (free_v.size() != static_cast<size_t>(vcap) - static_cast<size_t>(nv)) {
    return fail("free-vertex list size mismatch");
  }
  if (free_e.size() != static_cast<size_t>(ecap) - static_cast<size_t>(ne)) {
    return fail("free-edge list size mismatch");
  }
  std::vector<uint8_t> seen(static_cast<size_t>(vcap), 0);
  for (int32_t v : free_v) {
    if (v < 0 || v >= vcap || degrees[v] >= 0 || seen[v]) {
      return fail("free-vertex list entry invalid or duplicated");
    }
    seen[v] = 1;
  }
  seen.assign(static_cast<size_t>(ecap), 0);
  for (int32_t e : free_e) {
    if (e < 0 || e >= ecap || edges[e].endpoint[0] != kInvalidVertex ||
        seen[e]) {
      return fail("free-edge list entry invalid or duplicated");
    }
    seen[e] = 1;
  }

  // --- Validation pass 3: adjacency lists are proper doubly-linked chains. --
  // Walk every alive vertex's list for exactly degree steps, checking that
  // each visited edge is alive and incident and that back-links mirror the
  // forward traversal. The back-link check also rules out visiting an edge
  // side twice: at the first repeat e_j = e_i (i < j), prev would have to
  // equal both e_{j-1} and e_{i-1} (kInvalidEdge when i = 0), so either a
  // chain edge is kInvalidEdge or e_{i-1} = e_{j-1} is an earlier repeat.
  // Together with degree_sum == 2m this proves each alive edge sits in
  // exactly its two endpoints' lists and that no chain is cyclic or
  // cross-linked. Only a walk can prove it: a second, closed cycle of edges
  // that no walk from the head reaches passes every local prev/next check.
  // The graph must also be simple (counts in the algorithm layers are per
  // neighbour, not per edge): a neighbour stamped twice in one list is a
  // parallel edge.
  std::vector<int32_t> stamp(static_cast<size_t>(vcap), kInvalidVertex);
  for (int32_t v = 0; v < vcap; ++v) {
    if (degrees[v] < 0) continue;
    int32_t e = heads[v];
    int32_t expected_prev = kInvalidEdge;
    for (int32_t step = 0; step < degrees[v]; ++step) {
      if (e == kInvalidEdge) return fail("adjacency chain shorter than degree");
      const EdgeRec& rec = edges[e];
      if (rec.endpoint[0] != v && rec.endpoint[1] != v) {
        return fail("adjacency chain visits a non-incident edge");
      }
      if (rec.endpoint[0] == kInvalidVertex) {
        return fail("adjacency chain visits a dead edge");
      }
      const int s = rec.endpoint[0] == v ? 0 : 1;
      if (prev[2 * e + s] != expected_prev) {
        return fail("adjacency back-link mismatch");
      }
      const int32_t u = rec.endpoint[1 - s];
      if (stamp[u] == v) return fail("parallel edges");
      stamp[u] = v;
      expected_prev = e;
      e = rec.next[s];
    }
    if (e != kInvalidEdge) return fail("adjacency chain longer than degree");
  }

  // --- Adopt: the edge records are already in their final layout. ----------
  DynamicGraph loaded;
  loaded.vertices_.resize(static_cast<size_t>(vcap));
  for (int32_t v = 0; v < vcap; ++v) {
    loaded.vertices_[v].head = heads[v];
    loaded.vertices_[v].degree = degrees[v];
  }
  loaded.edges_ = std::move(edges);
  loaded.edge_prev_ = std::move(prev);
  loaded.free_vertices_ = std::move(free_v);
  loaded.free_edges_ = std::move(free_e);
  loaded.num_vertices_ = static_cast<int>(nv);
  loaded.num_edges_ = ne;
  // The degree histogram is derived state: rebuild it in O(n) rather than
  // trusting (and having to cross-validate) a persisted copy.
  int max_degree = 0;
  for (int32_t v = 0; v < vcap; ++v) {
    if (degrees[v] > max_degree) max_degree = degrees[v];
  }
  loaded.degree_count_.assign(static_cast<size_t>(max_degree) + 1, 0);
  for (int32_t v = 0; v < vcap; ++v) {
    if (degrees[v] >= 0) ++loaded.degree_count_[degrees[v]];
  }
  loaded.max_degree_ = max_degree;
  *this = std::move(loaded);
  return true;
}

}  // namespace dynmis
