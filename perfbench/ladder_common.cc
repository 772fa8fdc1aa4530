#include "perfbench/ladder.h"

#include <cstdio>
#include <climits>
#include <fstream>

#include <unistd.h>

namespace perfbench {

EdgeListGraph LoadBase(const Workload& w, const std::string& data_dir) {
  if (w.name != "massive") return dynmis::serve::BuildServeWorkloadGraph(w.scenario);
  EdgeListGraph graph;
  std::string error;
  if (!dynmis::ingest::IngestEdgeList(MassiveEdgeFile(data_dir), &graph,
                                      nullptr, &error)) {
    std::fprintf(stderr, "massive: %s\n", error.c_str());
    std::exit(1);
  }
  return graph;
}

bool EnsureMassiveFile(const std::string& data_dir, std::string* error) {
  const std::string path = MassiveEdgeFile(data_dir);
  if (std::ifstream(path).good()) return true;
  const std::string staging = path + ".tmp." + std::to_string(getpid());
  if (dynmis::ingest::GeneratePowerLawEdgeFile(
          staging, kMassiveNodes, kMassiveAvgDegree, kMassiveBeta,
          kMassiveGraphSeed, error) < 0) {
    return false;
  }
  if (std::rename(staging.c_str(), path.c_str()) != 0) {
    *error = "rename " + staging;
    return false;
  }
  return true;
}

std::vector<GraphUpdate> MakeStream(const Workload& w,
                                    const DynamicGraph& base, uint64_t seed) {
  // Salted per workload so one --seed gives unrelated streams.
  const uint64_t salt = std::hash<std::string>{}(w.name);
  const uint64_t stream_seed = dynmis::SplitMix64(seed ^ salt);
  if (w.name == "storm") {
    dynmis::ingest::TemporalStreamOptions window =
        dynmis::serve::ServeWorkloadWindow("storm");
    window.seed = stream_seed;
    return dynmis::ingest::MakeTemporalSequence(base, w.stream_ops, window,
                                                nullptr);
  }
  dynmis::UpdateStreamOptions options;
  options.edge_op_fraction = 1.0;
  options.insert_fraction = 0.5;
  options.bias = dynmis::EndpointBias::kDegreeProportional;
  options.seed = stream_seed;
  return dynmis::MakeUpdateSequence(base, w.stream_ops, options);
}

bool ApplyTapePrefix(const Tape& tape, int64_t ops, DynamicGraph* g) {
  for (int64_t i = 0; i < ops; ++i) {
    const GraphUpdate& op = tape.At(i);
    const bool present = g->HasEdge(op.u, op.v);
    if (op.kind == UpdateKind::kInsertEdge) {
      if (present || op.u == op.v || !g->IsVertexAlive(op.u) ||
          !g->IsVertexAlive(op.v)) {
        return false;
      }
      g->AddEdge(op.u, op.v);
    } else {
      if (!present) return false;
      g->RemoveEdgeBetween(op.u, op.v);
    }
  }
  return true;
}

SolutionCheck CheckSolution(const DynamicGraph& g,
                            const std::vector<VertexId>& solution) {
  SolutionCheck check;
  std::vector<uint8_t> member(static_cast<size_t>(g.VertexCapacity()), 0);
  check.independent = true;
  for (const VertexId v : solution) {
    if (!g.IsVertexAlive(v) || member[static_cast<size_t>(v)]) {
      check.independent = false;
      return check;
    }
    member[static_cast<size_t>(v)] = 1;
  }
  check.maximal = true;
  for (VertexId v = 0; v < g.VertexCapacity(); ++v) {
    if (!g.IsVertexAlive(v)) continue;
    bool covered = member[static_cast<size_t>(v)] != 0;
    g.ForEachIncident(v, [&](VertexId u, dynmis::EdgeId) {
      if (member[static_cast<size_t>(u)]) {
        if (member[static_cast<size_t>(v)]) check.independent = false;
        covered = true;
      }
    });
    if (!covered) check.maximal = false;
  }
  check.maximal = check.maximal && check.independent;
  return check;
}

std::vector<uint64_t> EdgeKeys(const DynamicGraph& g) {
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(g.NumEdges()));
  for (auto [u, v] : g.EdgeList()) {
    if (u > v) std::swap(u, v);
    keys.push_back((static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
                   static_cast<uint32_t>(v));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool SameGraph(const DynamicGraph& a, const DynamicGraph& b) {
  return a.NumVertices() == b.NumVertices() && EdgeKeys(a) == EdgeKeys(b);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const size_t index = rank == 0 ? 0 : std::min(v.size() - 1, rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(index),
                   v.end());
  return v[index];
}

uint16_t SpanLog::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

std::string SpanLog::SelfTimeJson() const {
  // The part of each span its children cover: the union of the children's
  // intervals, since concurrent served requests overlap under their phase.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> child_ns(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered_to = INT64_MIN;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, covered_to);
      if (end > from) child_ns[i] += static_cast<double>(end - from);
      covered_to = std::max(covered_to, end);
    }
  }
  std::vector<double> self(names_.size(), 0);
  std::vector<int64_t> count(names_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) * 1e-9;
    ++count[s.name];
  }
  Json out;
  for (size_t i = 0; i < names_.size(); ++i) {
    out.Raw(names_[i], Json().Num("self_s", self[i]).Int("spans", count[i]).Done());
  }
  return out.Done();
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# name start_ns end_ns parent req\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s %lld %lld %d %lld\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.req));
  }
  const bool flushed = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  return std::fclose(f) == 0 && flushed;
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

void Json::Key(const std::string& key) {
  if (body_.size() > 1) body_.push_back(',');
  body_ += JsonEscape(key) + ":";
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

Json& Json::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonEscape(value);
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& raw) {
  Key(key);
  body_ += raw;
  return *this;
}

}  // namespace perfbench
