// Snapshot round-trip property tests: for every registered maintainer, a
// random churn prefix followed by save -> load into a fresh engine must
// reproduce the identical solution set and pass full consistency checks;
// for the core swap maintainers the restored engine must additionally
// behave *identically* on a shared update suffix (same solutions, same
// recycled vertex ids) and must restore without any recomputation —
// verified by the MisState MoveIn/MoveOut op counter, which stays at zero
// across LoadState. Corrupted, truncated, version-bumped and
// unknown-algorithm snapshots must be rejected with a structured error.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dynmis/dynmis.h"
#include "gtest/gtest.h"
#include "src/core/k_swap.h"
#include "src/core/one_swap.h"
#include "src/core/two_swap.h"
#include "src/io/atomic_file.h"
#include "src/util/faultfs.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::IsMaximalIndependentSet;

UpdateStreamOptions ChurnOptions(uint64_t seed) {
  UpdateStreamOptions options;
  options.edge_op_fraction = 0.6;  // Heavy vertex churn: ids get recycled.
  options.insert_fraction = 0.5;
  options.seed = seed;
  return options;
}

std::unique_ptr<MisEngine> MakeChurnedEngine(const std::string& name,
                                             uint64_t seed, int updates) {
  Rng rng(2024);
  const EdgeListGraph base = ErdosRenyiGnm(60, 150, &rng);
  auto engine = MisEngine::Create(base, name);
  if (engine == nullptr) return nullptr;
  engine->Initialize();
  UpdateStreamGenerator gen(ChurnOptions(seed));
  for (int i = 0; i < updates; ++i) {
    engine->Apply(gen.Next(engine->graph()));
  }
  return engine;
}

std::string SaveToString(const MisEngine& engine) {
  std::ostringstream out;
  const SnapshotStatus status = engine.SaveSnapshot(out);
  EXPECT_TRUE(status.ok) << status.message;
  return std::move(out).str();
}

std::unique_ptr<MisEngine> LoadFromString(const std::string& blob,
                                          SnapshotStatus* status) {
  std::istringstream in(blob);
  return MisEngine::LoadSnapshot(in, status);
}

std::vector<VertexId> SortedSolution(const MisEngine& engine) {
  std::vector<VertexId> solution = engine.Solution();
  std::sort(solution.begin(), solution.end());
  return solution;
}

// The state-transition op counter and consistency hook of the core
// maintainers, reached through the facade. Returns -1 for non-core types.
int64_t StateTransitionOps(const DynamicMisMaintainer& maintainer) {
  if (auto* one = dynamic_cast<const DyOneSwap*>(&maintainer)) {
    return one->StateTransitionOps();
  }
  if (auto* two = dynamic_cast<const DyTwoSwap*>(&maintainer)) {
    return two->StateTransitionOps();
  }
  if (auto* k = dynamic_cast<const KSwapMaintainer*>(&maintainer)) {
    return k->StateTransitionOps();
  }
  return -1;
}

void CheckCoreConsistency(const DynamicMisMaintainer& maintainer) {
  if (auto* one = dynamic_cast<const DyOneSwap*>(&maintainer)) {
    one->CheckConsistency();
  } else if (auto* two = dynamic_cast<const DyTwoSwap*>(&maintainer)) {
    two->CheckConsistency();
  } else if (auto* k = dynamic_cast<const KSwapMaintainer*>(&maintainer)) {
    k->CheckConsistency();
  }
}

TEST(SnapshotTest, RoundTripEveryRegisteredMaintainer) {
  const std::vector<std::string> names =
      MaintainerRegistry::Global().ListNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    auto engine = MakeChurnedEngine(name, /*seed=*/7, /*updates=*/400);
    ASSERT_NE(engine, nullptr) << name;
    const std::string blob = SaveToString(*engine);
    ASSERT_FALSE(blob.empty()) << name;

    SnapshotStatus status;
    auto loaded = LoadFromString(blob, &status);
    ASSERT_NE(loaded, nullptr) << name << ": " << status.message;
    EXPECT_EQ(SortedSolution(*loaded), SortedSolution(*engine)) << name;

    const EngineStats before = engine->Stats();
    const EngineStats after = loaded->Stats();
    EXPECT_EQ(after.algorithm, before.algorithm) << name;
    EXPECT_EQ(after.num_vertices, before.num_vertices) << name;
    EXPECT_EQ(after.num_edges, before.num_edges) << name;
    EXPECT_EQ(after.solution_size, before.solution_size) << name;
    EXPECT_EQ(after.updates_applied, before.updates_applied) << name;

    EXPECT_TRUE(IsMaximalIndependentSet(loaded->graph(), loaded->Solution()))
        << name;
    CheckCoreConsistency(loaded->maintainer());
  }
}

TEST(SnapshotTest, CoreMaintainersRestoreWithoutRecompute) {
  for (const std::string name :
       {"DyOneSwap", "DyTwoSwap", "DyTwoSwap*", "KSwap3"}) {
    auto engine = MakeChurnedEngine(name, /*seed=*/13, /*updates=*/500);
    ASSERT_NE(engine, nullptr) << name;
    const std::string blob = SaveToString(*engine);

    SnapshotStatus status;
    auto loaded = LoadFromString(blob, &status);
    ASSERT_NE(loaded, nullptr) << name << ": " << status.message;
    // LoadState restores the flat arrays verbatim: zero MoveIn/MoveOut
    // transitions means no Initialize pass and no swap-restoration ran —
    // restore is O(state), never a recompute.
    EXPECT_EQ(StateTransitionOps(loaded->maintainer()), 0) << name;
    CheckCoreConsistency(loaded->maintainer());
  }
}

TEST(SnapshotTest, CoreMaintainersResumeIdenticallyAfterRestore) {
  for (const std::string name :
       {"DyOneSwap", "DyTwoSwap", "DyTwoSwap*", "KSwap2", "KSwap3"}) {
    auto engine = MakeChurnedEngine(name, /*seed=*/19, /*updates=*/400);
    ASSERT_NE(engine, nullptr) << name;
    SnapshotStatus status;
    auto loaded = LoadFromString(SaveToString(*engine), &status);
    ASSERT_NE(loaded, nullptr) << name << ": " << status.message;

    // One shared suffix, pre-drawn against the snapshot-time graph; both
    // engines must stay in lockstep: same solutions and — because the
    // graph's free lists travel with the snapshot — the same recycled ids
    // for inserted vertices.
    const std::vector<GraphUpdate> suffix =
        MakeUpdateSequence(engine->graph(), 300, ChurnOptions(/*seed=*/23));
    for (size_t i = 0; i < suffix.size(); ++i) {
      const UpdateResult a = engine->Apply(suffix[i]);
      const UpdateResult b = loaded->Apply(suffix[i]);
      ASSERT_EQ(b.new_vertices, a.new_vertices) << name << " op " << i;
      if (i % 25 == 0) {
        ASSERT_EQ(SortedSolution(*loaded), SortedSolution(*engine))
            << name << " op " << i;
      }
    }
    EXPECT_EQ(SortedSolution(*loaded), SortedSolution(*engine)) << name;
    CheckCoreConsistency(loaded->maintainer());
    CheckCoreConsistency(engine->maintainer());
  }
}

TEST(SnapshotTest, LazyModeRoundTripsThroughTheFallbackSections) {
  // Lazy collection keeps no intrusive lists; the "mis" section then carries
  // only status/count. Exercise it through a config (not an alias string)
  // to cover the parameter-match validation on load.
  Rng rng(11);
  const EdgeListGraph base = ErdosRenyiGnm(50, 120, &rng);
  MaintainerConfig config("DyTwoSwap-lazy");
  auto engine = MisEngine::Create(base, config);
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  UpdateStreamGenerator gen(ChurnOptions(31));
  for (int i = 0; i < 300; ++i) engine->Apply(gen.Next(engine->graph()));

  SnapshotStatus status;
  auto loaded = LoadFromString(SaveToString(*engine), &status);
  ASSERT_NE(loaded, nullptr) << status.message;
  EXPECT_EQ(SortedSolution(*loaded), SortedSolution(*engine));
  EXPECT_EQ(StateTransitionOps(loaded->maintainer()), 0);
}

TEST(SnapshotTest, EmptyEngineRoundTrips) {
  EdgeListGraph base;  // No vertices, no edges.
  auto engine = MisEngine::Create(base, "DyTwoSwap");
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  SnapshotStatus status;
  auto loaded = LoadFromString(SaveToString(*engine), &status);
  ASSERT_NE(loaded, nullptr) << status.message;
  EXPECT_EQ(loaded->SolutionSize(), 0);
  EXPECT_EQ(loaded->Stats().num_vertices, 0);
}

TEST(SnapshotTest, RejectsCorruptedHeadersAndTruncatedFiles) {
  auto engine = MakeChurnedEngine("DyTwoSwap", /*seed=*/5, /*updates=*/200);
  ASSERT_NE(engine, nullptr);
  const std::string blob = SaveToString(*engine);
  ASSERT_GT(blob.size(), 64u);

  {
    // Bad magic.
    std::string bad = blob;
    bad[0] ^= 0x5a;
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(bad, &status), nullptr);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("magic"), std::string::npos)
        << status.message;
  }
  {
    // Unsupported version (bytes 8..11, little-endian).
    std::string bad = blob;
    bad[8] = 0x63;
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(bad, &status), nullptr);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("version"), std::string::npos)
        << status.message;
  }
  {
    // Truncation at a spread of byte lengths: never a crash, always a
    // structured error.
    for (size_t len : {size_t{0}, size_t{4}, size_t{11}, blob.size() / 4,
                       blob.size() / 2, blob.size() - 1}) {
      SnapshotStatus status;
      EXPECT_EQ(LoadFromString(blob.substr(0, len), &status), nullptr)
          << "length " << len;
      EXPECT_FALSE(status.ok) << "length " << len;
      EXPECT_FALSE(status.message.empty()) << "length " << len;
    }
  }
  {
    // Single-bit corruption across the payload is caught by the per-section
    // CRC before any content is interpreted.
    for (size_t offset = 20; offset < blob.size(); offset += 977) {
      std::string bad = blob;
      bad[offset] ^= 0x01;
      SnapshotStatus status;
      EXPECT_EQ(LoadFromString(bad, &status), nullptr) << "offset " << offset;
      EXPECT_FALSE(status.ok) << "offset " << offset;
    }
  }
}

// Payloads are read and CRC'd in 1 MiB chunks, so a section spanning two
// full chunks and a partial one must still be rejected when it is cut
// short inside the partial chunk or at a chunk boundary, or has a flipped
// bit at either edge of a chunk or in its very last byte.
TEST(SnapshotTest, RejectsDamageAroundReadChunkBoundaries) {
  constexpr size_t kChunk = size_t{1} << 20;
  std::vector<int32_t> values(600000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i * 2654435761u);
  }
  SnapshotWriter w;
  w.BeginSection("big");
  w.PutI32Array(values);
  w.EndSection();
  std::ostringstream out;
  ASSERT_TRUE(w.WriteTo(out).ok);
  const std::string blob = std::move(out).str();
  const size_t payload_size = 8 + 4 * values.size();
  ASSERT_GT(payload_size, 2 * kChunk);
  const size_t payload_start = blob.size() - payload_size;
  auto read = [](const std::string& bytes) {
    std::istringstream in(bytes);
    SnapshotReader reader;
    return reader.ReadFrom(in);
  };
  ASSERT_TRUE(read(blob).ok);

  for (size_t length : {payload_size - 100, 2 * kChunk}) {
    const SnapshotStatus status = read(blob.substr(0, payload_start + length));
    EXPECT_FALSE(status.ok) << length;
    EXPECT_NE(status.message.find("truncated payload of section 'big'"),
              std::string::npos)
        << status.message;
  }
  for (size_t offset : {payload_size - 1, kChunk - 1, kChunk, 2 * kChunk}) {
    std::string bad = blob;
    bad[payload_start + offset] ^= 0x01;
    const SnapshotStatus status = read(bad);
    EXPECT_FALSE(status.ok) << offset;
    EXPECT_NE(status.message.find("CRC mismatch in section 'big'"),
              std::string::npos)
        << status.message;
  }
}

// A borrowed array must encode to exactly the bytes of a copied one,
// wherever it falls among copied values (and when it is empty).
TEST(SnapshotTest, BorrowedArraysEncodeLikeCopiedOnes) {
  const std::vector<int32_t> a = {1, -2, 3, 0x7fffffff};
  const std::vector<int32_t> empty;
  auto encode = [&](bool borrow) {
    SnapshotWriter w;
    w.BeginSection("s");
    if (borrow) {
      w.BorrowI32Array(a);
      w.PutU8(7);
      w.BorrowI32Array(empty);
      w.BorrowI32Array(a);
    } else {
      w.PutI32Array(a);
      w.PutU8(7);
      w.PutI32Array(empty);
      w.PutI32Array(a);
    }
    w.PutString("tail");
    w.EndSection();
    std::ostringstream out;
    EXPECT_TRUE(w.WriteTo(out).ok);
    return std::move(out).str();
  };
  EXPECT_EQ(encode(true), encode(false));
}

TEST(SnapshotTest, RejectsUnknownAlgorithmAndMissingSections) {
  {
    SnapshotWriter w;
    w.BeginSection("engine");
    w.PutString("NoSuchMaintainer");
    w.PutString("NoSuchMaintainer");
    w.PutI32(2);
    w.PutU8(0);
    w.PutU8(0);
    w.PutI32(1);
    w.PutI64(0);
    w.PutDouble(0);
    w.EndSection();
    std::ostringstream out;
    ASSERT_TRUE(w.WriteTo(out).ok);
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
    EXPECT_NE(status.message.find("unknown algorithm"), std::string::npos)
        << status.message;
  }
  {
    // A valid engine section but no graph section.
    SnapshotWriter w;
    w.BeginSection("engine");
    w.PutString("DyTwoSwap");
    w.PutString("DyTwoSwap");
    w.PutI32(2);
    w.PutU8(0);
    w.PutU8(0);
    w.PutI32(1);
    w.PutI64(0);
    w.PutDouble(0);
    w.EndSection();
    std::ostringstream out;
    ASSERT_TRUE(w.WriteTo(out).ok);
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
    EXPECT_NE(status.message.find("missing section"), std::string::npos)
        << status.message;
  }
}

// The eager DyTwoSwap "mis" arrays of a valid state on the path
// 0 -(e0)- 1 -(e1)- 2 -(e2)- 3 with solution {0, 2}: vertex 1 has count 2
// (I(1) = e0 -> e1, in bar2(0) by e0 and bar2(2) by e1), vertex 3 count 1
// (I(3) = e2, in bar1(2)). Link arrays hold (next, prev) per slot
// 2 * e + side, where side is the owner's endpoint index in the edge.
struct PathMisState {
  int64_t solution_size = 2;
  std::vector<uint8_t> status = {1, 0, 1, 0};
  std::vector<int32_t> count = {0, 2, 0, 1};
  std::vector<int32_t> inb_head = {-1, 0, -1, 2};
  std::vector<int32_t> bar1_head = {-1, -1, 2, -1};
  std::vector<int32_t> bar1_size = {0, 0, 1, 0};
  std::vector<int32_t> bar1_edge = {-1, -1, -1, 2};
  // Slots 1 (e0 at vertex 1) -> 2 (e1 at vertex 1); slot 5 (e2 at 3).
  std::vector<int32_t> inb_links = {-1, -1, 1, -1, -1, 0,
                                    -1, -1, -1, -1, -1, -1};
  std::vector<int32_t> bar1_links = std::vector<int32_t>(12, -1);
  std::vector<int32_t> bar2_head = {0, -1, 1, -1};
  std::vector<int32_t> bar2_edge0 = {-1, 0, -1, -1};
  std::vector<int32_t> bar2_edge1 = {-1, 1, -1, -1};
  std::vector<int32_t> bar2_links = std::vector<int32_t>(12, -1);
};

std::string PathSnapshot(const PathMisState& mis) {
  DynamicGraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  SnapshotWriter w;
  w.BeginSection("engine");
  w.PutString("DyTwoSwap");
  w.PutString("DyTwoSwap");
  w.PutI32(2);
  w.PutU8(0);
  w.PutU8(0);
  w.PutI32(1);
  w.PutI64(0);
  w.PutDouble(0);
  w.EndSection();
  graph.SaveTo(&w);
  w.BeginSection("mis");
  w.PutI32(2);  // k
  w.PutU8(0);   // eager
  w.PutI64(mis.solution_size);
  w.PutU8Array(mis.status);
  w.PutI32Array(mis.count);
  w.PutI32Array(mis.inb_head);
  w.PutI32Array(mis.bar1_head);
  w.PutI32Array(mis.bar1_size);
  w.PutI32Array(mis.bar1_edge);
  w.PutI32Array(mis.inb_links);
  w.PutI32Array(mis.bar1_links);
  w.PutI32Array(mis.bar2_head);
  w.PutI32Array(mis.bar2_edge0);
  w.PutI32Array(mis.bar2_edge1);
  w.PutI32Array(mis.bar2_links);
  w.EndSection();
  std::ostringstream out;
  EXPECT_TRUE(w.WriteTo(out).ok);
  return std::move(out).str();
}

TEST(SnapshotTest, HandBuiltPathMaintainerStateLoadsAndResumes) {
  SnapshotStatus status;
  auto engine = LoadFromString(PathSnapshot(PathMisState{}), &status);
  ASSERT_NE(engine, nullptr) << status.message;
  EXPECT_EQ(SortedSolution(*engine), (std::vector<VertexId>{0, 2}));
  CheckCoreConsistency(engine->maintainer());
  // Each deletion unlinks through the restored back-links.
  engine->DeleteEdge(0, 1);
  engine->DeleteEdge(2, 3);
  CheckCoreConsistency(engine->maintainer());
  EXPECT_TRUE(IsMaximalIndependentSet(engine->graph(), engine->Solution()));
}

TEST(SnapshotTest, RejectsSemanticallyCorruptMaintainerState) {
  // CRC-valid snapshots whose graph is fine but whose "mis" section breaks
  // one invariant each: LoadSnapshot must reject every one during MisState
  // validation, naming the check, not abort (or loop) in a later update.
  struct Row {
    const char* expected;
    void (*corrupt)(PathMisState*);
  };
  const Row rows[] = {
      {"solution is not independent",
       [](PathMisState* m) {
         m->status[1] = 1;
         m->solution_size = 3;
       }},
      {"solution vertex with nonzero count",
       [](PathMisState* m) { m->count[0] = 1; }},
      {"count does not match solution neighbourhood",
       [](PathMisState* m) { m->count[1] = 1; }},
      {"solution is not maximal",
       [](PathMisState* m) {
         m->status[2] = 0;
         m->solution_size = 1;
         m->count[1] = 1;
         m->count[3] = 0;
       }},
      {"I(v) list structure invalid",
       [](PathMisState* m) { m->inb_head[3] = -1; }},
      // The second I(1) slot's back-link names no edge: Unlink would trust
      // it, make e1 the head of I(1) and leave the real head dangling.
      {"I(v) list structure invalid",
       [](PathMisState* m) { m->inb_links[5] = -1; }},
      {"bar1 list structure invalid",
       [](PathMisState* m) { m->bar1_size[2] = 2; }},
      {"bar1 membership record mismatch",
       [](PathMisState* m) { m->bar1_edge[1] = 0; }},
      {"count-1 vertex missing from its owner's bar1 list",
       [](PathMisState* m) {
         m->bar1_head[2] = -1;
         m->bar1_size[2] = 0;
         m->bar1_edge[3] = -1;
       }},
      {"bar2 list structure invalid",
       [](PathMisState* m) { m->bar2_head[0] = 2; }},
      {"bar2 membership record mismatch",
       [](PathMisState* m) { m->bar2_edge0[3] = 2; }},
      {"count-2 vertex missing from its bar2 lists",
       [](PathMisState* m) {
         m->bar2_head[2] = -1;
         m->bar2_edge1[1] = -1;
       }},
  };
  for (const Row& row : rows) {
    PathMisState mis;
    row.corrupt(&mis);
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(PathSnapshot(mis), &status), nullptr)
        << row.expected;
    EXPECT_FALSE(status.ok) << row.expected;
    EXPECT_NE(status.message.find(std::string("snapshot: mis: ") +
                                  row.expected),
              std::string::npos)
        << "expected '" << row.expected << "', got '" << status.message
        << "'";
  }
}

TEST(SnapshotTest, RejectsNonMaximalMaintainerState) {
  // Same valid 2-vertex graph, but an all-empty solution: no maintainer
  // ever saves a non-maximal state, and a restored engine would never
  // repair it (updates only react to changes), so load must reject it.
  SnapshotWriter w;
  w.BeginSection("engine");
  w.PutString("DyTwoSwap");
  w.PutString("DyTwoSwap");
  w.PutI32(2);
  w.PutU8(0);
  w.PutU8(0);
  w.PutI32(1);
  w.PutI64(0);
  w.PutDouble(0);
  w.EndSection();
  w.BeginSection("graph");
  w.PutI64(2);
  w.PutI64(1);
  w.PutI32(2);
  w.PutI32(1);
  w.PutI32Array({0, 0});
  w.PutI32Array({1, 1});
  w.PutI32Array({0, 1, -1, -1});
  w.PutI32Array({-1, -1});
  w.PutI32Array({});
  w.PutI32Array({});
  w.EndSection();
  w.BeginSection("mis");
  w.PutI32(2);
  w.PutU8(0);
  w.PutI64(0);                      // Empty solution on a nonempty graph.
  w.PutU8Array({0, 0});
  w.PutI32Array({0, 0});
  w.PutI32Array({-1, -1});
  w.PutI32Array({-1, -1});
  w.PutI32Array({0, 0});
  w.PutI32Array({-1, -1});
  w.PutI32Array({-1, -1, -1, -1});
  w.PutI32Array({-1, -1, -1, -1});
  w.PutI32Array({-1, -1});
  w.PutI32Array({-1, -1});
  w.PutI32Array({-1, -1});
  w.PutI32Array({-1, -1, -1, -1});
  w.EndSection();
  std::ostringstream out;
  ASSERT_TRUE(w.WriteTo(out).ok);
  SnapshotStatus status;
  EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("maximal"), std::string::npos)
      << status.message;
}

TEST(SnapshotTest, RejectsStructurallyInvalidGraphSections) {
  // CRC-valid snapshots whose graph arrays are internally inconsistent must
  // fail the structural validation, not crash. Capacities follow from the
  // array lengths; `edges` holds (endpoint0, endpoint1, next0, next1) and
  // `prev` (prev0, prev1) per edge.
  auto load = [](int64_t num_vertices, int64_t num_edges,
                 const std::vector<int32_t>& heads,
                 const std::vector<int32_t>& degrees,
                 const std::vector<int32_t>& edges,
                 const std::vector<int32_t>& prev) {
    SnapshotWriter w;
    w.BeginSection("engine");
    w.PutString("DyTwoSwap");
    w.PutString("DyTwoSwap");
    w.PutI32(2);
    w.PutU8(0);
    w.PutU8(0);
    w.PutI32(1);
    w.PutI64(0);
    w.PutDouble(0);
    w.EndSection();
    w.BeginSection("graph");
    w.PutI64(num_vertices);
    w.PutI64(num_edges);
    w.PutI32(static_cast<int32_t>(heads.size()));
    w.PutI32(static_cast<int32_t>(prev.size() / 2));
    w.PutI32Array(heads);
    w.PutI32Array(degrees);
    w.PutI32Array(edges);
    w.PutI32Array(prev);
    w.PutI32Array({});  // free vertices
    w.PutI32Array({});  // free edges
    w.EndSection();
    std::ostringstream out;
    EXPECT_TRUE(w.WriteTo(out).ok);
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
    EXPECT_FALSE(status.ok);
    return status.message;
  };

  // Both vertices claim edge 0 with an impossible degree sum.
  std::string message = load(2, 1, {0, 0}, {5, 5}, {0, 1, -1, -1}, {-1, -1});
  EXPECT_NE(message.find("graph"), std::string::npos) << message;

  // Two properly linked copies of edge (0, 1): every count, chain and
  // back-link is consistent, but the graph is not simple.
  const std::vector<int32_t> twin_edges = {0, 1, 1, 1, 0, 1, -1, -1};
  message = load(2, 2, {0, 0}, {2, 2}, twin_edges, {-1, -1, 0, 0});
  EXPECT_NE(message.find("graph: parallel edges"), std::string::npos)
      << message;

  // Vertex 0's chain (degree 2) loops back onto its head edge e0 instead of
  // reaching e1: counts, bounds and the first back-link all hold, and the
  // revisit is caught because e0's back-link cannot name e0.
  const std::vector<int32_t> looped_edges = {0, 1, 0, -1, 0, 2, -1, -1};
  message = load(3, 2, {0, 0, 1}, {2, 1, 1}, looped_edges, {-1, -1, 0, -1});
  EXPECT_NE(message.find("graph: adjacency back-link mismatch"),
            std::string::npos)
      << message;

  // An edge array that is not a whole number of four-field records.
  message = load(2, 0, {-1, -1}, {0, 0}, {0, 1, -1}, {});
  EXPECT_NE(message.find("not a whole number of records"), std::string::npos)
      << message;
}

// One row of a container's section table.
struct SectionEntry {
  std::string name;
  uint64_t size = 0;
  uint32_t crc = 0;
};

// Parses the section table of a serialized container (layout in
// src/io/snapshot.h) straight from the bytes, without SnapshotReader, so the
// golden test pins exactly what the writer emitted. Empty on a short blob.
std::vector<SectionEntry> SectionTable(const std::string& blob) {
  size_t pos = 12;  // Magic + version.
  bool ok = true;
  auto take = [&](int bytes) {
    uint64_t value = 0;
    if (pos + bytes > blob.size()) {
      ok = false;
      return value;
    }
    for (int i = 0; i < bytes; ++i) {
      value |= uint64_t{static_cast<unsigned char>(blob[pos + i])} << (8 * i);
    }
    pos += bytes;
    return value;
  };
  std::vector<SectionEntry> table(take(4));
  for (SectionEntry& entry : table) {
    const size_t name_len = take(2);
    if (!ok || pos + name_len > blob.size()) return {};
    entry.name = blob.substr(pos, name_len);
    pos += name_len;
    entry.size = take(8);
    entry.crc = static_cast<uint32_t>(take(4));
  }
  return ok ? table : std::vector<SectionEntry>{};
}

// A fixed update stream with net vertex growth and vertex deletions, drawn
// against a replica: capacities grow past the base graph's and deleted ids
// are recycled, so the golden snapshots cover free lists and growth slack.
std::vector<GraphUpdate> GoldenTrace(const EdgeListGraph& base,
                                     int* recycled_ids) {
  UpdateStreamOptions options;
  options.edge_op_fraction = 0.6;
  options.insert_fraction = 0.6;
  options.seed = 20221;
  UpdateStreamGenerator gen(options);
  DynamicGraph replica = base.ToDynamic();
  std::vector<uint8_t> deleted(static_cast<size_t>(replica.VertexCapacity()));
  std::vector<GraphUpdate> trace;
  *recycled_ids = 0;
  for (int i = 0; i < 500; ++i) {
    trace.push_back(gen.Next(replica));
    const GraphUpdate& update = trace.back();
    const VertexId id = ApplyUpdate(&replica, update);
    deleted.resize(static_cast<size_t>(replica.VertexCapacity()), 0);
    if (update.kind == UpdateKind::kDeleteVertex) deleted[update.u] = 1;
    if (update.kind == UpdateKind::kInsertVertex && deleted[id]) {
      deleted[id] = 0;
      ++*recycled_ids;
    }
  }
  return trace;
}

// The snapshot format is frozen at kSnapshotVersion 1: the same state must
// serialize to the same bytes whatever the encoder's internals. The sizes
// and CRCs below were recorded by running this test body on the encoder
// that staged every section in a std::string with a bytewise CRC32, before
// the borrowed-span writer replaced it. The CRCs of "engine" and "sharded"
// are not pinned: they store wall-clock update/resolve seconds.
TEST(SnapshotTest, SectionBytesMatchGoldenCrcs) {
  Rng rng(2024);
  const EdgeListGraph base = ErdosRenyiGnm(60, 150, &rng);
  int recycled = 0;
  const std::vector<GraphUpdate> trace = GoldenTrace(base, &recycled);
  ASSERT_GT(recycled, 0);

  std::string listing;
  for (const std::string config :
       {"DyOneSwap", "DyTwoSwap", "DyTwoSwap-lazy", "KSwap3", "Sharded4"}) {
    std::ostringstream out;
    if (config == "Sharded4") {
      ShardedEngineOptions options;
      options.num_shards = 4;
      auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
      ASSERT_NE(engine, nullptr);
      engine->Initialize();
      for (const GraphUpdate& update : trace) engine->Apply(update);
      ASSERT_TRUE(engine->SaveSnapshot(out).ok);
    } else {
      auto engine = MisEngine::Create(base, config);
      ASSERT_NE(engine, nullptr) << config;
      engine->Initialize();
      for (const GraphUpdate& update : trace) engine->Apply(update);
      EXPECT_GT(engine->graph().VertexCapacity(), 60);
      EXPECT_GT(engine->graph().EdgeCapacity(), 150);
      ASSERT_TRUE(engine->SaveSnapshot(out).ok);
    }
    for (const SectionEntry& entry : SectionTable(std::move(out).str())) {
      char crc[16] = "-";
      if (entry.name != "engine" && entry.name != "sharded") {
        std::snprintf(crc, sizeof(crc), "%08x", entry.crc);
      }
      listing += config + " " + entry.name + " " +
                 std::to_string(entry.size) + " " + crc + "\n";
    }
  }
  EXPECT_EQ(listing, R"(DyOneSwap engine 60 -
DyOneSwap graph 7796 4f92336d
DyOneSwap mis 11351 36c93730
DyTwoSwap engine 60 -
DyTwoSwap graph 7796 4f92336d
DyTwoSwap mis 17167 c1d62a67
DyTwoSwap-lazy engine 70 -
DyTwoSwap-lazy graph 7796 4f92336d
DyTwoSwap-lazy mis 519 7c8f1154
KSwap3 engine 58 -
KSwap3 graph 7796 4f92336d
KSwap3 mis 17167 6758cbeb
Sharded4 sharded 130 -
Sharded4 cut/state 1746 e61fe14d
Sharded4 shard0/graph 1648 b85cbbc4
Sharded4 shard0/mis 4300 1e27691d
Sharded4 shard1/graph 1580 319ce9fd
Sharded4 shard1/mis 4207 6eac649b
Sharded4 shard2/graph 1612 19663ab3
Sharded4 shard2/mis 4237 1de57b60
Sharded4 shard3/graph 1692 0f9ac742
Sharded4 shard3/mis 4414 25649e79
)");
}

// Re-encodes a sharded snapshot with the reserved byte of its "sharded"
// section set to `reserved`. Every other byte is copied verbatim, section
// by section in file order, and the writer recomputes every CRC.
std::string WithShardedReservedByte(const std::string& blob,
                                    uint8_t reserved) {
  std::istringstream in(blob);
  SnapshotReader reader;
  EXPECT_TRUE(reader.ReadFrom(in).ok);
  SnapshotWriter writer;
  for (const std::string& name : reader.SectionNames()) {
    EXPECT_TRUE(reader.OpenSection(name)) << name;
    writer.BeginSection(name);
    if (name == "sharded") {
      writer.PutString(reader.GetString());  // Algorithm.
      writer.PutString(reader.GetString());  // Display name.
      writer.PutI32(reader.GetI32());        // k.
      writer.PutU8(reader.GetU8());          // lazy.
      writer.PutU8(reader.GetU8());          // perturb.
      writer.PutI32(reader.GetI32());        // recompute_every.
      writer.PutI32(reader.GetI32());        // Shard count.
      writer.PutU8(reader.GetU8());          // Partition strategy.
      writer.PutI32(reader.GetI32());        // Range block size.
      writer.PutI32(reader.GetI32());        // block_ops.
      EXPECT_EQ(reader.GetU8(), 1);          // The reserved byte.
      writer.PutU8(reserved);
    }
    while (!reader.AtSectionEnd()) writer.PutU8(reader.GetU8());
    writer.EndSection();
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  std::ostringstream out;
  EXPECT_TRUE(writer.WriteTo(out).ok);
  return std::move(out).str();
}

// The byte after block_ops in the "sharded" section is reserved. It once
// held a resolver-mode flag: 1 by default, 0 for engines that opted out of
// the asynchronous resolver. Both values still load and resume the same
// churn trace to the same solution (the flag never changed the output);
// anything larger is rejected as corruption.
TEST(SnapshotTest, ShardedReservedByteAcceptsBothLegacyValues) {
  Rng rng(2024);
  const EdgeListGraph base = ErdosRenyiGnm(60, 150, &rng);
  int recycled = 0;
  const std::vector<GraphUpdate> trace = GoldenTrace(base, &recycled);
  constexpr size_t kPrefix = 250;
  ShardedEngineOptions options;
  options.num_shards = 4;
  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  for (size_t i = 0; i < kPrefix; ++i) engine->Apply(trace[i]);
  std::ostringstream out;
  ASSERT_TRUE(engine->SaveSnapshot(out).ok);
  const std::string original = std::move(out).str();
  // The re-encoder is faithful: with the byte unchanged it reproduces the
  // file exactly.
  ASSERT_EQ(WithShardedReservedByte(original, 1), original);

  auto resume = [&](const std::string& blob) {
    std::istringstream in(blob);
    SnapshotStatus status;
    auto restored = ShardedMisEngine::LoadSnapshot(in, &status);
    EXPECT_NE(restored, nullptr) << status.message;
    if (restored == nullptr) return std::vector<VertexId>{};
    for (size_t i = kPrefix; i < trace.size(); ++i) restored->Apply(trace[i]);
    return restored->Solution();
  };
  for (size_t i = kPrefix; i < trace.size(); ++i) engine->Apply(trace[i]);
  const std::vector<VertexId> expected = engine->Solution();
  EXPECT_EQ(resume(original), expected);
  EXPECT_EQ(resume(WithShardedReservedByte(original, 0)), expected);

  std::istringstream bad(WithShardedReservedByte(original, 2));
  SnapshotStatus status;
  EXPECT_EQ(ShardedMisEngine::LoadSnapshot(bad, &status), nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("out of range"), std::string::npos)
      << status.message;
}

// The SNAPSHOT verb publishes through io::WriteFileAtomic (tmp + fsync +
// rename). A crash between the tmp write and its rename — scripted here
// with faultfs's `torn` mode — must leave the previously published
// snapshot byte-identical and only the stale .tmp behind, never a
// half-written file under the published name.
TEST(AtomicPublishDeathTest, TornRenameLeavesPublishedSnapshotIntact) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir() + "/snap_torn_publish";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.snap";
  std::string error;
  ASSERT_TRUE(io::WriteFileAtomic(path, "generation-1", &error)) << error;
  EXPECT_EXIT(
      {
        std::string plan_error;
        if (!faultfs::ArmPlan("rename:torn~state.snap", &plan_error)) {
          _exit(3);
        }
        io::WriteFileAtomic(path, "generation-2", &plan_error);
        _exit(4);  // Unreachable: torn kills the process pre-rename.
      },
      ::testing::ExitedWithCode(faultfs::kCrashExitCode), "");
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), "generation-1");
  // The in-flight generation is parked under .tmp, invisible to readers.
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace dynmis
