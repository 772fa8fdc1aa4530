// Entry points of the ladder tool's subcommands (see ladder_main.cc).

#ifndef PERFBENCH_RUNGS_H_
#define PERFBENCH_RUNGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/ladder.h"

namespace perfbench {

// `local`: the in-process rungs (graph, core, api, snapshots, shard).
struct LocalOptions {
  Workload workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
  int nproc = 1;
};
int RunLocal(const LocalOptions& o);

// One open-loop phase against a live server.
struct Phase {
  std::string name;
  double rate = 0;     // Offered updates per second.
  double seconds = 0;  // Length of the schedule.
};

// `client`: the open-loop generator against a served primary (and, with
// `follower_port`, its follower).
struct ClientOptions {
  Workload workload;
  uint64_t seed = 1;
  std::string data_dir;
  int port = 0;
  int follower_port = 0;
  int server_pid = 0;
  int follower_pid = 0;
  int conns = 1;
  std::vector<Phase> phases;
  // Tape position the server has already applied (earlier client runs).
  int64_t start_pos = 0;
  // Closed-loop QUERY probe after the phases (requests; 0 = none).
  int query_probe = 0;
  // Wait until the follower has caught up, before and after the phases.
  bool await_follower = false;
  bool trace = false;
  std::string trace_out;
  // Test hook: request index whose insert is replaced by one the server
  // must reject (an edge of the base graph). -1 = none.
  int64_t corrupt_request = -1;
};
int RunClient(const ClientOptions& o);

// `selftest`: stream partition properties (no server needed).
int RunSelfTest(const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_RUNGS_H_
