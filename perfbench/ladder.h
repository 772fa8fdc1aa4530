// Shared pieces of the layered benchmark: the workload table, the seeded
// op stream and its replay tape, the per-connection partition, percentile
// helpers, the solution checker, the span recorder and a tiny JSON writer.
//
// Every rung of the ladder replays the same tape. The tape is the pre-drawn
// stream S followed by its inverse S^-1 (S reversed, inserts and deletes
// swapped), then S again, and so on. Each pass is valid against the graph
// the previous pass left behind, and every odd number of passes ends on the
// same final graph G_S, so a rung may run as many passes as its time budget
// allows and still be checked against one precomputed reference.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dynmis/dynmis.h"
#include "dynmis/workload.h"
#include "src/serve/workload.h"

namespace perfbench {

using dynmis::DynamicGraph;
using dynmis::EdgeListGraph;
using dynmis::GraphUpdate;
using dynmis::UpdateKind;
using dynmis::VertexId;

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  // Server-side scenario that builds the identical base graph.
  std::string scenario;
  // Length of the pre-drawn stream S (one tape pass).
  int stream_ops = 0;
  // Served arrivals come in groups of this many ops sharing one due time.
  int burst = 1;
  // Served traffic: one QUERY after every `query_every` updates (0: none).
  int query_every = 0;
  // Set-up is repeated this many times; setup_s is the median.
  int setup_repeats = 5;
  // Snapshot save/restore repeats (medians reported).
  int snapshot_repeats = 5;
};

// The names are cited by later changes; keep them stable.
inline bool FindWorkload(const std::string& name, Workload* out) {
  if (name == "churn") {
    *out = {"churn", "hard", 56000, 1, 0, 21, 9};
  } else if (name == "massive") {
    *out = {"massive", "massive", 40000, 1, 0, 3, 2};
  } else if (name == "storm") {
    // Bursts of 512 are the storm window's burst size (`storm_burst` of the
    // `storm` scenario in src/serve/workload.cc), so each aligned insert
    // burst and each expiry burst arrives at the server at once. One QUERY
    // per 64 updates is the sparsest read share, of 1/4, 1/16, 1/64 and
    // 1/256 measured, at which every server flush is a read barrier
    // (perfbench/README.md, "Workloads").
    *out = {"storm", "storm", 65536, 512, 64, 21, 9};
  } else {
    return false;
  }
  return true;
}

// The massive workload's edge file parameters (the same graph the server's
// `--scenario massive` ingests when pointed at this file).
inline constexpr int kMassiveNodes = 200000;
inline constexpr double kMassiveAvgDegree = 22.0;
inline constexpr double kMassiveBeta = 2.3;
inline constexpr uint64_t kMassiveGraphSeed = 9;

inline std::string MassiveEdgeFile(const std::string& data_dir) {
  return data_dir + "/massive-n200000-d22-b2.3-s9.txt";
}

// Base graph of the workload. Massive ingests the edge file, which must
// already exist (see EnsureMassiveFile).
EdgeListGraph LoadBase(const Workload& w, const std::string& data_dir);

// Generates the massive edge file once per data directory.
bool EnsureMassiveFile(const std::string& data_dir, std::string* error);

// The pre-drawn stream S, drawn from `seed` against `base`. Edge ops only:
// the server assigns vertex ids in arrival order, so a pre-drawn vertex-op
// stream could not be replayed across connections.
std::vector<GraphUpdate> MakeStream(const Workload& w,
                                    const DynamicGraph& base, uint64_t seed);

// --- The tape ----------------------------------------------------------------

inline GraphUpdate Inverse(const GraphUpdate& op) {
  GraphUpdate inv;
  inv.kind = op.kind == UpdateKind::kInsertEdge ? UpdateKind::kDeleteEdge
                                                : UpdateKind::kInsertEdge;
  inv.u = op.u;
  inv.v = op.v;
  return inv;
}

// S and S^-1 materialized, so tape position i is an array lookup.
struct Tape {
  std::vector<GraphUpdate> forward;
  std::vector<GraphUpdate> backward;

  explicit Tape(std::vector<GraphUpdate> s) : forward(std::move(s)) {
    backward.reserve(forward.size());
    for (size_t j = forward.size(); j-- > 0;) {
      backward.push_back(Inverse(forward[j]));
    }
  }
  int64_t pass_ops() const { return static_cast<int64_t>(forward.size()); }
  const std::vector<GraphUpdate>& Pass(int64_t pass) const {
    return pass % 2 == 0 ? forward : backward;
  }
  const GraphUpdate& At(int64_t i) const {
    return Pass(i / pass_ops())[static_cast<size_t>(i % pass_ops())];
  }
};

// Connection owning edge {u, v}. Every op on one edge goes to one
// connection, so each edge's insert/delete order survives any interleaving
// of the connections: with vertices never deleted, an edge op's validity
// depends only on the earlier ops on the same edge.
inline int EdgeConnection(VertexId u, VertexId v, int conns) {
  if (u > v) std::swap(u, v);
  const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
                       static_cast<uint32_t>(v);
  return static_cast<int>(dynmis::SplitMix64(key) % static_cast<uint64_t>(conns));
}

// Applies tape[0, ops) to `g`, returning false on the first invalid op.
bool ApplyTapePrefix(const Tape& tape, int64_t ops, DynamicGraph* g);

// --- Checks and statistics ---------------------------------------------------

// Independent and maximal on `g`, written here rather than borrowed from
// the program so the oracle shares no code with what it checks.
struct SolutionCheck {
  bool independent = false;
  bool maximal = false;
  bool ok() const { return independent && maximal; }
};
SolutionCheck CheckSolution(const DynamicGraph& g,
                            const std::vector<VertexId>& solution);

// The edge set as sorted (min, max) keys.
std::vector<uint64_t> EdgeKeys(const DynamicGraph& g);

// Same vertex count and edge set.
bool SameGraph(const DynamicGraph& a, const DynamicGraph& b);

// Nearest-rank percentile of `v` (p in [0, 1]); sorts a copy.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Spans -------------------------------------------------------------------

// In-memory span log for the traced run. Spans are appended with their
// parent's index and written out when the run ends. `req` ties together
// the spans of one served request.
class SpanLog {
 public:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    int64_t req;
    int32_t parent;
    uint16_t name;
  };

  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

  bool Full(size_t more = 1) const {
    return spans_.size() + more > spans_.capacity();
  }
  uint16_t Name(const std::string& name);
  // Returns the span's index, or -1 when the log is full.
  int32_t Add(uint16_t name, int32_t parent, int64_t start_ns, int64_t end_ns,
              int64_t req = -1) {
    if (Full()) return -1;
    spans_.push_back({start_ns, end_ns, req, parent, name});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void SetEnd(int32_t index, int64_t end_ns) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
  // Per span name, {"self_s": total self time, "spans": count}, as a JSON
  // object. A span's self time is its duration minus the part of it that
  // its children cover.
  std::string SelfTimeJson() const;
  size_t size() const { return spans_.size(); }
  // One line per span: name start_ns end_ns parent req. Synced to disk
  // before returning, so its writeback cannot stall a later rung's I/O.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

// --- JSON output -------------------------------------------------------------

class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Bool(const std::string& key, bool value);
  Json& Str(const std::string& key, const std::string& value);
  // `raw` must already be valid JSON.
  Json& Raw(const std::string& key, const std::string& raw);
  std::string Done() { return body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_ = "{";
};

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
