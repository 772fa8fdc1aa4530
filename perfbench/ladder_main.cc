// perfbench_ladder: the compiled half of the layered benchmark.
//
//   perfbench_ladder info
//   perfbench_ladder local  --workload W --seed N --seconds S --data DIR
//                           [--nproc P] [--trace 0|1] [--trace-out FILE]
//   perfbench_ladder client --workload W --seed N --data DIR --port P
//                           --conns K --phase NAME:RATE:SECONDS ...
//                           [--start-pos N] [--query-probe N]
//                           [--follower-port P --await-follower]
//                           [--server-pid PID] [--follower-pid PID]
//                           [--trace 0|1] [--trace-out FILE]
//                           [--corrupt-request K]
//   perfbench_ladder selftest --data DIR
//
// Each subcommand prints one JSON object as its last stdout line;
// perfbench/run.py drives them and the server processes.

#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/ladder.h"
#include "perfbench/rungs.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_ladder info | local ... | client ... | "
               "selftest --data DIR (see ladder_main.cc)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "info") {
    perfbench::Json j;
    j.Str("compiler", __VERSION__)
        .Bool("ndebug", kOptimized)
        .Bool("sanitized", kSanitized);
    std::printf("%s\n", j.Done().c_str());
    return 0;
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "perfbench_ladder: refusing to measure a debug or sanitizer "
                 "build\n");
    return 2;
  }
  std::string workload = "churn";
  perfbench::LocalOptions local;
  perfbench::ClientOptions client;
  std::string data_dir;
  uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      if (v == nullptr) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      ++i;
      return v;
    };
    if (arg == "--workload") {
      workload = take();
    } else if (arg == "--seed") {
      seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      local.seconds = std::atof(take());
    } else if (arg == "--data") {
      data_dir = take();
    } else if (arg == "--nproc") {
      local.nproc = std::atoi(take());
    } else if (arg == "--trace") {
      trace = std::atoi(take()) != 0;
    } else if (arg == "--trace-out") {
      trace_out = take();
    } else if (arg == "--port") {
      client.port = std::atoi(take());
    } else if (arg == "--follower-port") {
      client.follower_port = std::atoi(take());
    } else if (arg == "--server-pid") {
      client.server_pid = std::atoi(take());
    } else if (arg == "--follower-pid") {
      client.follower_pid = std::atoi(take());
    } else if (arg == "--conns") {
      client.conns = std::atoi(take());
    } else if (arg == "--start-pos") {
      client.start_pos = std::atoll(take());
    } else if (arg == "--query-probe") {
      client.query_probe = std::atoi(take());
    } else if (arg == "--await-follower") {
      client.await_follower = true;
    } else if (arg == "--corrupt-request") {
      client.corrupt_request = std::atoll(take());
    } else if (arg == "--phase") {
      // NAME:RATE:SECONDS
      const std::string spec = take();
      const size_t a = spec.find(':');
      const size_t b = spec.find(':', a + 1);
      if (a == std::string::npos || b == std::string::npos) return Usage();
      client.phases.push_back({spec.substr(0, a),
                               std::atof(spec.substr(a + 1, b - a - 1).c_str()),
                               std::atof(spec.substr(b + 1).c_str())});
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (data_dir.empty()) return Usage();
  if (cmd == "selftest") return perfbench::RunSelfTest(data_dir);
  perfbench::Workload w;
  if (!perfbench::FindWorkload(workload, &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 2;
  }
  if (cmd == "local") {
    local.workload = w;
    local.seed = seed;
    local.data_dir = data_dir;
    local.trace = trace;
    local.trace_out = trace_out;
    return perfbench::RunLocal(local);
  }
  if (cmd == "client") {
    if (client.port <= 0 || client.conns < 1) return Usage();
    client.workload = w;
    client.seed = seed;
    client.data_dir = data_dir;
    client.trace = trace;
    client.trace_out = trace_out;
    return perfbench::RunClient(client);
  }
  return Usage();
}
