// In-process rungs of the ladder: DynamicGraph alone, the bare maintainer,
// MisEngine (with snapshots), and ShardedMisEngine. Each rung replays the
// same tape from the same base graph, timed from here around calls into
// that layer's public functions.

#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>
#include <type_traits>

#include "perfbench/ladder.h"
#include "perfbench/rungs.h"

namespace perfbench {
namespace {

constexpr int kServerBatchOps = 512;  // The server's default batch size.
constexpr int kShardBarrierEveryBlocks = 16;  // A barrier per 8192 ops.
constexpr size_t kSpanCapacity = 1'000'000;
constexpr int kProbeSpans = 100'000;

using Blocks = std::vector<std::vector<GraphUpdate>>;

Blocks Slice(const std::vector<GraphUpdate>& ops, int block) {
  Blocks out;
  for (size_t i = 0; i < ops.size(); i += static_cast<size_t>(block)) {
    const size_t end = std::min(ops.size(), i + static_cast<size_t>(block));
    out.emplace_back(ops.begin() + static_cast<ptrdiff_t>(i),
                     ops.begin() + static_cast<ptrdiff_t>(end));
  }
  return out;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Memory that snapshots are saved into and restored from. It is kept,
// reused and grown only outside timed regions, so neither direction times
// the benchmark's own allocation, page faults or copying, only the
// program's work.
class SnapshotBuffer : public std::streambuf {
 public:
  void StartWrite() { used_ = 0; }
  void StartRead() { setg(data_.data(), data_.data(), data_.data() + used_); }
  size_t size() const { return used_; }
  // Maps (and touches) room for a snapshot of `bytes`.
  void Reserve(size_t bytes) {
    if (data_.size() < bytes) data_.resize(bytes);
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const size_t len = static_cast<size_t>(n);
    if (used_ + len > data_.size()) {
      data_.resize(std::max(2 * data_.size(), used_ + len));
    }
    std::memcpy(data_.data() + used_, s, len);
    used_ += len;
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

 private:
  std::vector<char> data_;
  size_t used_ = 0;
};

// Shared state of one local run.
struct Run {
  Tape tape;
  Blocks forward_blocks;
  Blocks backward_blocks;
  SpanLog spans;
  bool trace;
  Json metrics;
  struct CheckResult {
    std::string rung;
    std::string name;
    bool ok;
  };
  std::vector<CheckResult> checks;

  const Blocks& PassBlocks(int64_t pass) const {
    return pass % 2 == 0 ? forward_blocks : backward_blocks;
  }
  void Check(const std::string& rung, const std::string& name, bool ok) {
    checks.push_back({rung, name, ok});
    if (!ok) std::fprintf(stderr, "check FAILED: %s\n", name.c_str());
  }
};

}  // namespace

int RunLocal(const LocalOptions& o) {
  // --- Preparation: not part of any timed region. ---
  int64_t stage_start = NowNs();
  auto stage = [&](const char* done) {
    std::fprintf(stderr, "local %-8s %6.2f s\n", done,
                 Seconds(NowNs() - stage_start));
    stage_start = NowNs();
  };
  std::string error;
  if (o.workload.name == "massive" && !EnsureMassiveFile(o.data_dir, &error)) {
    std::fprintf(stderr, "massive edge file: %s\n", error.c_str());
    return 1;
  }
  const EdgeListGraph base = LoadBase(o.workload, o.data_dir);
  const DynamicGraph base_graph = base.ToDynamic();
  Run run{Tape(MakeStream(o.workload, base_graph, o.seed)), {}, {},
          SpanLog(o.trace ? kSpanCapacity : 0), o.trace, Json(), {}};
  run.forward_blocks = Slice(run.tape.forward, kServerBatchOps);
  run.backward_blocks = Slice(run.tape.backward, kServerBatchOps);
  DynamicGraph final_graph = base_graph;
  if (!ApplyTapePrefix(run.tape, run.tape.pass_ops(), &final_graph)) {
    std::fprintf(stderr, "pre-drawn stream is invalid\n");
    return 1;
  }
  const std::vector<uint64_t> final_keys = EdgeKeys(final_graph);
  auto matches_final = [&](const DynamicGraph& g) {
    return g.NumVertices() == final_graph.NumVertices() &&
           EdgeKeys(g) == final_keys;
  };
  const int64_t greedy = static_cast<int64_t>(
      dynmis::GreedyMis(dynmis::StaticGraph::FromDynamic(final_graph)).size());
  // The ingest layer is measured on every workload; massive ingests as part
  // of set-up, the others ingest their base graph written out here.
  std::string ingest_file = MassiveEdgeFile(o.data_dir);
  if (o.workload.name != "massive") {
    ingest_file = o.data_dir + "/" + o.workload.name + "-base.txt";
    if (!dynmis::SaveEdgeList(base, ingest_file)) {
      std::fprintf(stderr, "cannot write %s\n", ingest_file.c_str());
      return 1;
    }
  }
  const double S = o.seconds;
  const int64_t L = run.tape.pass_ops();
  SpanLog& spans = run.spans;

  stage("prepare");

  // --- Set-up: ingest (massive) + MisEngine::Create + Initialize. ---
  // The first set-up makes the engine rung 3 continues from. The other
  // repeats are spread over the rounds below, like the rungs' passes, so
  // setup_s samples the same mix of noise regimes as the rungs do.
  std::vector<double> setup_s, ingest_s, init_s;
  dynmis::ingest::IngestReport ingest_report;
  const uint16_t n_setup = spans.Name("rung.setup");
  const uint16_t n_ingest = spans.Name("ingest.IngestEdgeList");
  const uint16_t n_create = spans.Name("api.Create");
  const uint16_t n_init = spans.Name("api.Initialize");
  auto ingest = [&](EdgeListGraph* out, int32_t parent) {
    const int64_t t0 = NowNs();
    const bool ok =
        dynmis::ingest::IngestEdgeList(ingest_file, out, &ingest_report, &error);
    const int64_t t1 = NowNs();
    if (!ok) std::fprintf(stderr, "ingest: %s\n", error.c_str());
    ingest_s.push_back(Seconds(t1 - t0));
    spans.Add(n_ingest, parent, t0, t1);
    return ok;
  };
  auto set_up = [&]() -> std::unique_ptr<dynmis::MisEngine> {
    const int64_t t0 = NowNs();
    const int32_t rung = spans.Add(n_setup, -1, t0, 0);
    std::unique_ptr<dynmis::MisEngine> made;
    if (o.workload.name == "massive") {
      EdgeListGraph ingested;
      if (!ingest(&ingested, rung)) return nullptr;
      const int64_t t1 = NowNs();
      made = dynmis::MisEngine::Create(ingested, {"DyTwoSwap"});
      spans.Add(n_create, rung, t1, NowNs());
    } else {
      made = dynmis::MisEngine::Create(base, {"DyTwoSwap"});
      spans.Add(n_create, rung, t0, NowNs());
    }
    const int64_t t2 = NowNs();
    made->Initialize();
    const int64_t t3 = NowNs();
    setup_s.push_back(Seconds(t3 - t0));
    init_s.push_back(Seconds(t3 - t2));
    spans.Add(n_init, rung, t2, t3);
    spans.SetEnd(rung, t3);
    // The other workloads set up from the base graph in memory; the ingest
    // layer is still measured, on their base graph's file.
    if (o.workload.name != "massive") {
      EdgeListGraph ingested;
      if (!ingest(&ingested, -1)) return nullptr;
    }
    return made;
  };
  std::unique_ptr<dynmis::MisEngine> engine = set_up();
  if (engine == nullptr) return 1;
  bool setups_ok = true;

  stage("setup");

  // --- Rungs 1-4, interleaved in chunks. ---
  // Noise on a shared host comes in regimes lasting about a second. Rather
  // than timing one rung after another, each round gives every rung a chunk
  // of back-to-back passes (long enough to keep its working set in cache),
  // so each rung's samples spread over the whole run and all rungs see the
  // same mix of regimes.
  const uint16_t n_round = spans.Name("round");
  // Rung 1: DynamicGraph alone (ApplyUpdate, no maintainer).
  DynamicGraph graph_g = base_graph;
  // Rung 2: the bare maintainer over a caller-owned DynamicGraph.
  DynamicGraph core_g = base_graph;
  std::unique_ptr<dynmis::DynamicMisMaintainer> core =
      dynmis::MaintainerRegistry::Global().Create({"DyTwoSwap"}, &core_g);
  const int64_t i0 = NowNs();
  core->Initialize({});
  const int64_t i1 = NowNs();
  spans.Add(spans.Name("core.Initialize"), -1, i0, i1);
  // Rung 3: MisEngine, continuing from the set-up's engine.
  // Rung 4: ShardedMisEngine; routing thread + one worker per shard + the
  // resolver thread fit nproc. The one-shard engine prices sharding itself.
  auto make_sharded = [&](int num_shards) {
    dynmis::ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.block_ops = kServerBatchOps;
    auto sharded = dynmis::ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
    sharded->Initialize();
    return sharded;
  };
  const int shards = std::max(1, o.nproc - 2);
  auto sharded = make_sharded(shards);
  auto sharded1 = make_sharded(1);
  stage("create");

  std::vector<double> graph_ns, core_ns, api_ns, core_batch_ns, api_batch_ns,
      shard_ns, shard1_ns, barrier_ms, api_p50_us, api_p99_us;
  // Per-op latencies of one latency pass, reserved once so recording them
  // never allocates inside a timed pass.
  std::vector<float> core_latency, api_latency;
  core_latency.reserve(static_cast<size_t>(L));
  api_latency.reserve(static_cast<size_t>(L));
  int64_t api_samples = 0;
  std::vector<VertexId> shard_solution, shard1_solution;
  int32_t round = -1;

  // Runs `body` as one timed pass span; returns its ns per op.
  auto timed = [&](const char* name, auto&& body) {
    const int64_t t0 = NowNs();
    const int32_t p = spans.Add(spans.Name(name), round, t0, 0);
    body(p);
    const int64_t t1 = NowNs();
    spans.SetEnd(p, t1);
    return static_cast<double>(t1 - t0) / static_cast<double>(L);
  };
  auto single_op = [&](auto* target, int64_t pass, int32_t p, uint16_t call,
                       std::vector<float>* latencies) {
    for (const GraphUpdate& op : run.tape.Pass(pass)) {
      const int64_t a = NowNs();
      if constexpr (std::is_same_v<std::decay_t<decltype(*target)>, DynamicGraph>) {
        dynmis::ApplyUpdate(target, op);
      } else {
        target->Apply(op);
      }
      if (latencies != nullptr || run.trace) {
        const int64_t b = NowNs();
        if (latencies != nullptr) latencies->push_back(static_cast<float>(b - a));
        if (run.trace) spans.Add(call, p, a, b);
      }
    }
  };
  auto batched = [&](auto* target, int64_t pass, int32_t p, uint16_t call) {
    for (const auto& block : run.PassBlocks(pass)) {
      const int64_t a = NowNs();
      target->ApplyBatch(block);
      if (run.trace) spans.Add(call, p, a, NowNs());
    }
  };
  auto sharded_pass = [&](dynmis::ShardedMisEngine* engine, int64_t pass,
                          int32_t p, std::vector<VertexId>* solution,
                          std::vector<double>* barriers) {
    const Blocks& blocks = run.PassBlocks(pass);
    for (size_t b = 0; b < blocks.size(); ++b) {
      const int64_t a = NowNs();
      engine->ApplyBatch(blocks[b]);
      if (run.trace) spans.Add(spans.Name("shard.ApplyBatch"), p, a, NowNs());
      if ((b + 1) % kShardBarrierEveryBlocks == 0 || b + 1 == blocks.size()) {
        const int64_t c = NowNs();
        engine->Flush();
        solution->clear();
        engine->CollectSolution(solution);
        const int64_t d = NowNs();
        spans.Add(spans.Name("shard.barrier"), p, c, d);
        if (barriers != nullptr) barriers->push_back(static_cast<double>(d - c) * 1e-6);
      }
    }
  };

  const uint16_t n_graph = spans.Name("graph.ApplyUpdate");
  const uint16_t n_core = spans.Name("core.Apply");
  const uint16_t n_api = spans.Name("api.Apply");
  const uint16_t n_core_batch = spans.Name("core.ApplyBatch");
  const uint16_t n_api_batch = spans.Name("api.ApplyBatch");
  // Tape positions. The core/api pair shares one: both apply the same
  // passes in the same mode, so their solutions must come out identical.
  int64_t graph_pos = 0, engine_pos = 0, shard_pos = 0, shard1_pos = 0;
  // The engine pair's passes come in three modes. Throughput passes time
  // the whole pass and nothing per op; latency passes time every call, the
  // same way on both rungs; batch passes apply the server's 512-op blocks.
  enum class Mode { kThroughput, kLatency, kBatch };
  std::vector<Mode> engine_modes;  // Mode of each engine-pair pass.
  auto graph_pass = [&] {
    graph_ns.push_back(timed("graph.pass", [&](int32_t p) {
      single_op(&graph_g, graph_pos, p, n_graph, nullptr);
    }));
    ++graph_pos;
  };
  auto engine_pass = [&](Mode mode) {
    const int64_t pass = engine_pos;
    if (mode == Mode::kBatch) {
      core_batch_ns.push_back(timed("core.pass", [&](int32_t p) {
        batched(core.get(), pass, p, n_core_batch);
      }));
      api_batch_ns.push_back(timed("api.pass", [&](int32_t p) {
        batched(engine.get(), pass, p, n_api_batch);
      }));
    } else if (mode == Mode::kThroughput) {
      core_ns.push_back(timed("core.pass", [&](int32_t p) {
        single_op(core.get(), pass, p, n_core, nullptr);
      }));
      api_ns.push_back(timed("api.pass", [&](int32_t p) {
        single_op(engine.get(), pass, p, n_api, nullptr);
      }));
    } else {
      core_latency.clear();
      api_latency.clear();
      timed("core.pass", [&](int32_t p) {
        single_op(core.get(), pass, p, n_core, &core_latency);
      });
      timed("api.pass", [&](int32_t p) {
        single_op(engine.get(), pass, p, n_api, &api_latency);
      });
      api_samples += static_cast<int64_t>(api_latency.size());
      std::vector<double> lat(api_latency.begin(), api_latency.end());
      api_p50_us.push_back(Percentile(lat, 0.50) * 1e-3);
      api_p99_us.push_back(Percentile(lat, 0.99) * 1e-3);
    }
    engine_modes.push_back(mode);
    ++engine_pos;
  };
  auto shard_pass = [&] {
    shard_ns.push_back(timed("shard.pass", [&](int32_t p) {
      sharded_pass(sharded.get(), shard_pos, p, &shard_solution, &barrier_ms);
    }));
    ++shard_pos;
  };
  auto shard1_pass = [&] {
    shard1_ns.push_back(timed("shard1.pass", [&](int32_t p) {
      sharded_pass(sharded1.get(), shard1_pos, p, &shard1_solution, nullptr);
    }));
    ++shard1_pos;
  };
  // Repeats `pass` for at least `chunk_s` seconds (at least once). The
  // traced run spans every call, so it runs one pass per chunk and as many
  // rounds as the span log holds.
  auto chunk = [&](double chunk_s, auto&& pass) {
    const int64_t start = NowNs();
    do {
      pass();
    } while (!run.trace && Seconds(NowNs() - start) < chunk_s);
  };

  // Snapshots, into and out of memory, of the live engine. Each restored
  // copy must hold the live solution. The last one is kept and later
  // replays the passes the live engine ran after it; it must end on the
  // identical solution.
  const uint16_t n_save = spans.Name("api.SaveSnapshot");
  const uint16_t n_load = spans.Name("api.LoadSnapshot");
  std::vector<double> save_s, load_s;
  SnapshotBuffer snapshot;
  bool restores_match = true;
  std::unique_ptr<dynmis::MisEngine> restored;
  int64_t restored_at = 0;  // engine_pos when the kept copy was saved.
  auto snapshot_round_trip = [&] {
    restored.reset();
    if (save_s.empty()) {
      // An untimed first save sizes the buffer.
      snapshot.StartWrite();
      std::ostream sizing(&snapshot);
      engine->SaveSnapshot(sizing);
    }
    // Headroom for the engine's state growing between snapshots.
    snapshot.Reserve(snapshot.size() + snapshot.size() / 4);
    snapshot.StartWrite();
    std::ostream out(&snapshot);
    const int64_t t0 = NowNs();
    const bool saved = engine->SaveSnapshot(out).ok;
    const int64_t t1 = NowNs();
    spans.Add(n_save, -1, t0, t1);
    save_s.push_back(Seconds(t1 - t0));
    snapshot.StartRead();
    std::istream in(&snapshot);
    const int64_t t2 = NowNs();
    restored = dynmis::MisEngine::LoadSnapshot(in);
    const int64_t t3 = NowNs();
    spans.Add(n_load, -1, t2, t3);
    load_s.push_back(Seconds(t3 - t2));
    restores_match = restores_match && saved && restored != nullptr &&
                     restored->Solution() == engine->Solution();
    restored_at = engine_pos;
  };

  // Chunk lengths per round: most of the time goes to the passes behind
  // end-to-end metrics (engine throughput and latency passes, sharded
  // passes, which are the longest); the graph, batch and one-shard passes
  // feed per-layer metrics only.
  const double round_s = 0.125 * S;
  const double budget_s = 0.8 * S;
  const int64_t rounds_start = NowNs();
  int64_t outside_rungs_ns = 0;  // Set-up and snapshot time, not budgeted.
  auto budget_used = [&] {
    return Seconds(NowNs() - rounds_start - outside_rungs_ns) / budget_s;
  };
  // After each round, set-up and snapshot repeats catch up with the share
  // of the budget used so far; the last of each runs after the last round.
  auto catch_up = [&](double used) {
    const int64_t t0 = NowNs();
    const auto due = [&](int repeats) {
      return static_cast<size_t>(std::floor(repeats * std::min(1.0, used)));
    };
    while (setup_s.size() < due(o.workload.setup_repeats)) {
      setups_ok = set_up() != nullptr && setups_ok;
    }
    while (save_s.size() < due(o.workload.snapshot_repeats)) snapshot_round_trip();
    outside_rungs_ns += NowNs() - t0;
  };
  while (budget_used() < 1.0) {
    if (run.trace && spans.size() + 4 * static_cast<size_t>(L) > kSpanCapacity) break;
    round = spans.Add(n_round, -1, NowNs(), 0);
    chunk(0.05 * round_s, graph_pass);
    chunk(0.30 * round_s, [&] { engine_pass(Mode::kThroughput); });
    chunk(0.20 * round_s, [&] { engine_pass(Mode::kLatency); });
    chunk(0.10 * round_s, [&] { engine_pass(Mode::kBatch); });
    chunk(0.25 * round_s, shard_pass);
    chunk(0.10 * round_s, shard1_pass);
    spans.SetEnd(round, NowNs());
    round = -1;
    catch_up(budget_used());
  }
  catch_up(1.0);
  run.Check("api", "setup.engine_created", setups_ok);
  // Every rung ends on an odd pass count, i.e. on G_S. The engine pair runs
  // a single-op and a batch pass after the last snapshot, so the replay
  // below covers both call modes.
  if (graph_pos % 2 == 0) graph_pass();
  if (shard_pos % 2 == 0) shard_pass();
  if (shard1_pos % 2 == 0) shard1_pass();
  engine_pass(Mode::kThroughput);
  engine_pass(Mode::kBatch);
  if (engine_pos % 2 == 0) engine_pass(Mode::kThroughput);
  run.Check("api", "io.restore_equals_live", restores_match);
  if (restored != nullptr) {
    for (int64_t pass = restored_at; pass < engine_pos; ++pass) {
      if (engine_modes[static_cast<size_t>(pass)] == Mode::kBatch) {
        for (const auto& block : run.PassBlocks(pass)) restored->ApplyBatch(block);
      } else {
        for (const GraphUpdate& op : run.tape.Pass(pass)) restored->Apply(op);
      }
    }
  }
  const std::vector<VertexId> api_solution = engine->Solution();
  run.Check("api", "io.restore_then_suffix_equals_live",
            restored != nullptr && restored->Solution() == api_solution);
  restored.reset();
  stage("rungs");

  const std::vector<VertexId> core_solution = core->Solution();
  run.Check("graph", "graph.final_graph_matches", matches_final(graph_g));
  run.Check("core", "core.final_graph_matches", matches_final(core_g));
  run.Check("core", "core.solution_independent_maximal",
            CheckSolution(final_graph, core_solution).ok());
  run.Check("api", "api.final_graph_matches", matches_final(engine->graph()));
  run.Check("api", "api.solution_independent_maximal",
            CheckSolution(final_graph, api_solution).ok());
  run.Check("api", "api.solution_equals_core", api_solution == core_solution);
  run.Check("shard", "shard.solution_independent_maximal",
            CheckSolution(final_graph, shard_solution).ok());
  run.Check("shard1", "shard1.solution_independent_maximal",
            CheckSolution(final_graph, shard1_solution).ok());

  const dynmis::ShardedStats shard_stats = sharded->ShardStats();
  run.metrics.Num("setup_s", Median(setup_s))
      .Num("api.init_s", Median(init_s))
      .Num("ingest.load_s", Median(ingest_s))
      .Num("ingest.bytes_per_edge", ingest_report.bytes_per_edge)
      .Str("ingest.file", ingest_file)
      .Num("snapshot_save_s", Median(save_s))
      .Num("snapshot_restore_s", Median(load_s))
      .Int("io.snapshot_bytes", static_cast<int64_t>(snapshot.size()))
      .Num("io.save_mb_s", static_cast<double>(snapshot.size()) / 1e6 / Median(save_s))
      .Num("io.restore_mb_s", static_cast<double>(snapshot.size()) / 1e6 / Median(load_s))
      .Num("graph.apply_ns", Median(graph_ns))
      .Int("graph.memory_bytes", static_cast<int64_t>(graph_g.MemoryUsageBytes()))
      .Num("core.apply_ns", Median(core_ns))
      .Num("core.batch_ns", Median(core_batch_ns))
      .Num("core.init_s", Seconds(i1 - i0))
      .Int("core.memory_bytes", static_cast<int64_t>(core->MemoryUsageBytes()))
      .Num("update_ops_s", 1e9 / Median(api_ns))
      .Num("update_p50_us", Median(api_p50_us))
      .Num("update_p99_us", Median(api_p99_us))
      .Int("api.apply_samples", api_samples)
      .Num("api.apply_ns", Median(api_ns))
      .Num("api.batch_ns", Median(api_batch_ns))
      .Num("quality_vs_greedy", static_cast<double>(api_solution.size()) /
                                    static_cast<double>(greedy))
      .Num("sharded_ops_s", 1e9 / Median(shard_ns))
      .Num("shard.one_shard_ops_s", 1e9 / Median(shard1_ns))
      .Int("shard.count", shards)
      .Num("shard.barrier_p50_ms", Percentile(barrier_ms, 0.50))
      .Num("shard.barrier_p99_ms", Percentile(barrier_ms, 0.99))
      .Num("shard.resolve_s", shard_stats.resolve_seconds)
      .Num("shard.cut_edge_fraction", shard_stats.cut_edge_fraction)
      .Int("shard.conflicts", shard_stats.conflicts)
      .Int("shard.evictions", shard_stats.evictions)
      .Num("shard.quality_vs_greedy", static_cast<double>(shard_solution.size()) /
                                          static_cast<double>(greedy));
  sharded.reset();
  sharded1.reset();
  core.reset();
  engine.reset();

  // --- Traced run only: self time per layer, and what one call span
  // costs (two clock reads and one record), timed in a log of its own. ---
  if (run.trace) {
    SpanLog probe(kProbeSpans);
    const uint16_t n_probe = probe.Name("probe");
    const int64_t p0 = NowNs();
    for (int i = 0; i < kProbeSpans; ++i) {
      const int64_t a = NowNs();
      probe.Add(n_probe, -1, a, NowNs());
    }
    const double call_span_ns = static_cast<double>(NowNs() - p0) / kProbeSpans;
    run.metrics.Raw("trace.self", spans.SelfTimeJson())
        .Num("trace.call_span_ns", call_span_ns)
        .Int("trace.spans", static_cast<int64_t>(spans.size()));
    if (!o.trace_out.empty() && !spans.Write(o.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
    }
    stage("trace");
  }

  // Ops each rung applied; run.py counts every op of a rung as failed when
  // one of the rung's checks fails.
  const std::pair<const char*, int64_t> rung_ops[] = {
      {"graph", graph_pos * L}, {"core", engine_pos * L}, {"api", engine_pos * L},
      {"shard", shard_pos * L}, {"shard1", shard1_pos * L}};
  Json rungs;
  for (const auto& [rung, ops] : rung_ops) {
    Json checks;
    for (const auto& c : run.checks) {
      if (c.rung == rung) checks.Bool(c.name, c.ok);
    }
    Json r;
    rungs.Raw(rung, r.Int("attempted", ops).Int("failed", 0)
                        .Raw("checks", checks.Done()).Done());
  }
  Json out;
  out.Int("greedy_reference", greedy)
      .Int("stream_ops", L)
      .Int("throughput_passes", static_cast<int64_t>(core_ns.size()))
      .Int("latency_passes", static_cast<int64_t>(api_p50_us.size()))
      .Int("batch_passes", static_cast<int64_t>(core_batch_ns.size()))
      .Raw("rungs", rungs.Done())
      .Raw("metrics", run.metrics.Done());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace perfbench
