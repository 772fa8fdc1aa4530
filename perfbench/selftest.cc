// Properties of the served stream that make it reject-free: any
// interleaving of the per-connection sub-streams is valid and ends on the
// same graph as the stream itself, and every odd number of tape passes ends
// on G_S.

#include "perfbench/ladder.h"
#include "perfbench/rungs.h"

namespace perfbench {

int RunSelfTest(const std::string& data_dir) {
  (void)data_dir;
  constexpr int kConns = 4;
  constexpr int kInterleavings = 12;
  constexpr int64_t kPasses = 3;
  Json out;
  bool all_ok = true;
  for (const char* name : {"churn", "storm"}) {
    Workload w;
    FindWorkload(name, &w);
    const EdgeListGraph base = LoadBase(w, data_dir);
    const DynamicGraph base_graph = base.ToDynamic();
    const Tape tape(MakeStream(w, base_graph, 7));
    const int64_t total = kPasses * tape.pass_ops();

    DynamicGraph expected = base_graph;
    bool ok = ApplyTapePrefix(tape, total, &expected);
    DynamicGraph round_trip = base_graph;
    ok = ok && ApplyTapePrefix(tape, 2 * tape.pass_ops(), &round_trip) &&
         SameGraph(round_trip, base_graph);

    std::vector<std::vector<int64_t>> sub(kConns);
    for (int64_t i = 0; i < total; ++i) {
      const GraphUpdate& op = tape.At(i);
      sub[static_cast<size_t>(EdgeConnection(op.u, op.v, kConns))].push_back(i);
    }
    for (int trial = 0; ok && trial < kInterleavings; ++trial) {
      dynmis::Rng rng(static_cast<uint64_t>(trial) + 1);
      std::vector<size_t> next(kConns, 0);
      DynamicGraph g = base_graph;
      for (int64_t step = 0; ok && step < total; ++step) {
        // A random connection with ops left; skewed so some connections run
        // far ahead of others.
        int c = static_cast<int>(rng.NextBounded(kConns));
        if (trial % 2 == 1 && rng.NextBounded(4) != 0) c = trial % kConns;
        while (next[static_cast<size_t>(c)] == sub[static_cast<size_t>(c)].size()) {
          c = (c + 1) % kConns;
        }
        const GraphUpdate& op = tape.At(sub[static_cast<size_t>(c)][next[static_cast<size_t>(c)]++]);
        const bool present = g.HasEdge(op.u, op.v);
        if (op.kind == UpdateKind::kInsertEdge) {
          ok = !present;
          if (ok) g.AddEdge(op.u, op.v);
        } else {
          ok = present;
          if (ok) g.RemoveEdgeBetween(op.u, op.v);
        }
      }
      ok = ok && SameGraph(g, expected);
    }
    out.Bool(std::string(name) + ".interleavings_valid_same_final_graph", ok);
    all_ok = all_ok && ok;
  }
  out.Bool("ok", all_ok);
  std::printf("%s\n", out.Done().c_str());
  return all_ok ? 0 : 1;
}

}  // namespace perfbench
