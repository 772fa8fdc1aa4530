// The open-loop generator for the served rungs: one thread, at most nproc
// binary connections, requests sent on a fixed schedule whatever the server
// does. Latency runs from each request's due time to its ack, so a server
// stall shows up in every request that fell due during it (no coordinated
// omission); how late the generator itself was sending is reported apart.

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>

#include "perfbench/ladder.h"
#include "perfbench/rungs.h"
#include "src/serve/binary.h"
#include "src/serve/line_client.h"

namespace perfbench {
namespace {

using dynmis::serve::LineClient;

constexpr int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr size_t kClientSpanCapacity = 1'000'000;
constexpr double kProbeRate = 10000;  // QUERY probe, requests per second.
constexpr double kWindowSeconds = 0.25;  // Latency percentile window.
constexpr int64_t kSendQuantumNs = 100'000;

// utime + stime of `pid` in milliseconds (0 when unreadable).
double CpuMs(int pid) {
  if (pid <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  // Fields after the command name start at field 3 (state); utime and stime
  // are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// VmHWM of `pid` in MB (0 when unreadable).
double PeakRssMb(int pid) {
  if (pid <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ",";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    out += buf;
  }
  return out + "]";
}

struct Conn {
  int fd = -1;
  std::string out;        // Encoded, not yet written.
  int64_t written = 0;    // Bytes handed to the kernel, cumulative.
  int64_t encoded = 0;    // Bytes encoded, cumulative.
  std::deque<std::pair<int64_t, int64_t>> unsent;  // (frame end, request).
  std::deque<int64_t> inflight;                    // Awaiting an ack.
  std::unique_ptr<dynmis::serve::BinaryFrameBuffer> in;
};

enum : uint8_t { kUpdate = 0, kQuery = 1, kBad = 2 };
enum : uint8_t { kPending = 0, kOk = 1, kFailed = 2 };

struct Requests {
  std::vector<uint8_t> kind, status;
  std::vector<int32_t> conn;
  std::vector<int64_t> tape_pos;  // Update: tape index; query: vertex id.
  std::vector<int64_t> due, sent, ack;
  size_t size() const { return kind.size(); }
  void Add(uint8_t k, int32_t c, int64_t pos, int64_t due_ns) {
    kind.push_back(k);
    status.push_back(kPending);
    conn.push_back(c);
    tape_pos.push_back(pos);
    due.push_back(due_ns);
    sent.push_back(0);
    ack.push_back(0);
  }
};

class Client {
 public:
  Client(const ClientOptions& o, const EdgeListGraph& base, const Tape& tape)
      : o_(o),
        base_(base),
        tape_(tape),
        spans_(o.trace ? kClientSpanCapacity : 0),
        pos_(o.start_pos) {}

  bool Connect(std::string* error) {
    for (int c = 0; c < o_.conns; ++c) {
      LineClient handshake;
      if (!handshake.Connect("127.0.0.1", o_.port, error)) return false;
      std::string greeting;
      if (!handshake.Ask("HELLO 2 BIN", &greeting) ||
          greeting.rfind("OK DYNMIS 2 BIN", 0) != 0) {
        *error = "binary handshake failed: " + greeting;
        return false;
      }
      Conn conn;
      conn.fd = dup(handshake.fd());
      fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
      conn.in = std::make_unique<dynmis::serve::BinaryFrameBuffer>(1 << 20);
      conns_.push_back(std::move(conn));
    }
    return control_.Connect("127.0.0.1", o_.port, error) &&
           Hello(&control_, error) &&
           (o_.follower_port == 0 ||
            (follower_.Connect("127.0.0.1", o_.follower_port, error) &&
             Hello(&follower_, error)));
  }

  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

  // Runs one schedule; returns its result object.
  std::string RunPhase(const Phase& phase, bool queries_only);

  int64_t pos() const { return pos_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t last_ack_ns() const { return last_ack_ns_; }
  bool broken() const { return broken_; }
  LineClient& control() { return control_; }
  LineClient& follower() { return follower_; }
  SpanLog& spans() { return spans_; }

 private:
  static bool Hello(LineClient* c, std::string* error) {
    std::string greeting;
    if (!c->Ask("HELLO 1", &greeting) || greeting.rfind("OK", 0) != 0) {
      *error = "text handshake failed: " + greeting;
      return false;
    }
    return true;
  }

  void Encode(const Requests& r, int64_t i) {
    Conn& c = conns_[static_cast<size_t>(r.conn[i])];
    const size_t before = c.out.size();
    if (r.kind[i] == kUpdate) {
      const GraphUpdate& op = tape_.At(r.tape_pos[i]);
      if (op.kind == UpdateKind::kInsertEdge) {
        dynmis::serve::AppendInsFrame(&c.out, op.u, op.v);
      } else {
        dynmis::serve::AppendDelFrame(&c.out, op.u, op.v);
      }
    } else if (r.kind[i] == kQuery) {
      dynmis::serve::AppendQueryFrame(&c.out, static_cast<VertexId>(r.tape_pos[i]));
    } else {
      // An endpoint past every vertex id: the server must reject it.
      dynmis::serve::AppendInsFrame(&c.out, 0, base_.n + 1000);
    }
    c.encoded += static_cast<int64_t>(c.out.size() - before);
    c.unsent.emplace_back(c.encoded, i);
    c.inflight.push_back(i);
  }

  // Hands pending bytes to the kernel; stamps send times. False on error.
  bool Flush(Requests* r, int64_t now) {
    for (Conn& c : conns_) {
      while (!c.out.empty()) {
        const ssize_t n = send(c.fd, c.out.data(), c.out.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return false;
        }
        c.out.erase(0, static_cast<size_t>(n));
        c.written += n;
      }
      while (!c.unsent.empty() && c.unsent.front().first <= c.written) {
        r->sent[static_cast<size_t>(c.unsent.front().second)] = now;
        c.unsent.pop_front();
      }
    }
    return true;
  }

  // Reads every available response. False on a broken connection.
  bool Drain(size_t ci, Requests* r, int64_t now) {
    Conn& c = conns_[ci];
    char buf[65536];
    while (true) {
      const ssize_t n = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      c.in->Append(buf, static_cast<size_t>(n));
      while (auto frame = c.in->NextFrame()) {
        if (c.inflight.empty() || frame->empty()) return false;
        const int64_t i = c.inflight.front();
        c.inflight.pop_front();
        const uint8_t code = static_cast<uint8_t>((*frame)[0]);
        const bool ok = code == dynmis::serve::kBinRespOk ||
                        code == dynmis::serve::kBinRespQuery;
        r->status[static_cast<size_t>(i)] = ok ? kOk : kFailed;
        r->ack[static_cast<size_t>(i)] = now;
        last_ack_ns_ = now;
      }
      if (c.in->overflowed()) return false;
    }
    return true;
  }

  const ClientOptions& o_;
  const EdgeListGraph& base_;
  const Tape& tape_;
  std::vector<Conn> conns_;
  LineClient control_;
  LineClient follower_;
  SpanLog spans_;
  int64_t pos_;
  int64_t request_id_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t last_ack_ns_ = 0;
  bool broken_ = false;
};

std::string Client::RunPhase(const Phase& phase, bool queries_only) {
  const Workload& w = o_.workload;
  const int64_t updates =
      queries_only ? 0 : static_cast<int64_t>(phase.rate * phase.seconds + 0.5);
  const int64_t requests_wanted =
      queries_only ? static_cast<int64_t>(phase.rate * phase.seconds + 0.5)
                   : updates;
  // Build the schedule before the clock starts.
  Requests r;
  const int64_t t0 = NowNs() + 20'000'000;  // 20 ms to finish building.
  auto due_of = [&](int64_t k) {
    const int64_t group = k / w.burst;
    return t0 + static_cast<int64_t>(static_cast<double>(group * w.burst) /
                                     phase.rate * 1e9);
  };
  uint64_t query_seed = dynmis::SplitMix64(o_.seed ^ 0x51ULL);
  auto add_query = [&](int64_t due) {
    query_seed = dynmis::SplitMix64(query_seed);
    const int64_t v = static_cast<int64_t>(query_seed % static_cast<uint64_t>(base_.n));
    r.Add(kQuery, static_cast<int32_t>(r.size() % conns_.size()), v, due);
  };
  if (queries_only) {
    for (int64_t k = 0; k < requests_wanted; ++k) add_query(due_of(k));
  } else {
    for (int64_t k = 0; k < updates; ++k) {
      if (o_.corrupt_request == pos_ + k - o_.start_pos) {
        r.Add(kBad, 0, -1, due_of(k));
      }
      const GraphUpdate& op = tape_.At(pos_ + k);
      r.Add(kUpdate, EdgeConnection(op.u, op.v, static_cast<int>(conns_.size())),
            pos_ + k, due_of(k));
      if (w.query_every > 0 && (k + 1) % w.query_every == 0) add_query(due_of(k));
    }
  }
  const int64_t n = static_cast<int64_t>(r.size());
  const double cpu0 = CpuMs(o_.server_pid);
  const double fcpu0 = CpuMs(o_.follower_pid);

  std::vector<pollfd> fds(conns_.size());
  int64_t next = 0;
  const int64_t schedule_end = n > 0 ? r.due[static_cast<size_t>(n - 1)] : t0;
  while (true) {
    int64_t now = NowNs();
    while (next < n && r.due[static_cast<size_t>(next)] <= now) Encode(r, next++);
    if (!Flush(&r, now)) {
      broken_ = true;
      break;
    }
    size_t inflight = 0;
    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c] = {conns_[c].fd,
                static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT)),
                0};
      inflight += conns_[c].inflight.size();
    }
    if (next == n && inflight == 0) break;
    if (now > schedule_end + kDrainTimeoutNs) break;
    // Sleep until the next request is due, but at least one send quantum:
    // waking per request would cost the generator a core at high rates.
    int64_t wait_ns = 1'000'000;
    if (next < n) {
      wait_ns = std::clamp<int64_t>(r.due[static_cast<size_t>(next)] - now,
                                    kSendQuantumNs, wait_ns);
    }
    timespec ts{0, static_cast<long>(wait_ns)};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    now = NowNs();
    for (size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
          !Drain(c, &r, now)) {
        broken_ = true;
      }
    }
    if (broken_) break;
  }
  const double cpu1 = CpuMs(o_.server_pid);
  const double fcpu1 = CpuMs(o_.follower_pid);

  // Latency percentiles are taken per window of due times and reported as
  // the median over windows, so one scheduler hiccup on a shared machine
  // moves one window, not the run; the whole-phase p99 is reported too.
  // A failed or unanswered update counts as missing every limit.
  const int windows = std::max(
      1, static_cast<int>(std::ceil(phase.seconds / kWindowSeconds - 1e-9)));
  std::vector<std::vector<double>> window_lat(static_cast<size_t>(windows));
  std::vector<double> update_lat, query_lat, late, late_head, late_tail;
  int64_t ok_updates = 0, failed = 0, unanswered = 0;
  constexpr double kMissed = 1e300;
  for (int64_t i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    const size_t win = std::min<size_t>(
        static_cast<size_t>(windows - 1),
        static_cast<size_t>(static_cast<double>(r.due[k] - t0) * 1e-9 /
                            kWindowSeconds));
    if (r.status[k] == kPending) {
      ++unanswered;
      ++failed;
      if (r.kind[k] != kQuery) {
        update_lat.push_back(kMissed);
        window_lat[win].push_back(kMissed);
      }
      continue;
    }
    if (r.status[k] == kFailed) ++failed;
    const double lat_us = r.status[k] == kFailed
                              ? kMissed
                              : static_cast<double>(r.ack[k] - r.due[k]) * 1e-3;
    const double late_us = static_cast<double>(r.sent[k] - r.due[k]) * 1e-3;
    late.push_back(late_us);
    if (i < n / 10) late_head.push_back(late_us);
    if (i >= n - n / 10) late_tail.push_back(late_us);
    if (r.kind[k] == kQuery) {
      query_lat.push_back(lat_us);
    } else {
      update_lat.push_back(lat_us);
      window_lat[win].push_back(lat_us);
      if (r.kind[k] == kUpdate && r.status[k] == kOk) ++ok_updates;
    }
  }
  std::vector<double> window_p50, window_p99;
  for (const std::vector<double>& w_lat : window_lat) {
    if (w_lat.empty()) continue;
    window_p50.push_back(Percentile(w_lat, 0.50));
    window_p99.push_back(Percentile(w_lat, 0.99));
  }
  // After an unanswered request the connections are out of step with the
  // server, so later phases are not attempted.
  if (unanswered > 0) broken_ = true;
  const int64_t acked = n - unanswered;
  attempted_ += n;
  failed_ += failed;
  pos_ += updates;

  // Spans: request (due -> ack) with children queue (due -> sent) and wire
  // (sent -> ack); all under one phase span.
  if (o_.trace) {
    const int32_t ph = spans_.Add(spans_.Name("serve.phase." + phase.name), -1,
                                  t0, last_ack_ns_);
    const uint16_t n_req = spans_.Name("serve.request");
    const uint16_t n_queue = spans_.Name("gen.queue");
    const uint16_t n_wire = spans_.Name("serve.wire");
    for (int64_t i = 0; i < n && !spans_.Full(3); ++i) {
      const size_t k = static_cast<size_t>(i);
      if (r.status[k] == kPending) continue;
      const int64_t id = request_id_ + i;
      const int32_t q = spans_.Add(n_req, ph, r.due[k], r.ack[k], id);
      spans_.Add(n_queue, q, r.due[k], r.sent[k], id);
      spans_.Add(n_wire, q, r.sent[k], r.ack[k], id);
    }
  }
  request_id_ += n;

  const double span_s =
      static_cast<double>(std::max(last_ack_ns_, t0) - t0) * 1e-9;
  const double kops = static_cast<double>(std::max<int64_t>(acked, 1)) / 1000.0;
  Json j;
  j.Str("name", phase.name)
      .Num("rate", phase.rate)
      .Num("seconds", phase.seconds)
      .Int("requests", n)
      .Int("updates", updates)
      .Int("ok_updates", ok_updates)
      .Int("failed", failed)
      .Int("unanswered", unanswered)
      .Int("update_samples", static_cast<int64_t>(update_lat.size()))
      .Int("windows", static_cast<int64_t>(window_p99.size()))
      .Raw("window_p99_us", NumberList(window_p99))
      .Num("ack_p50_us", Median(window_p50))
      .Num("ack_p99_us", Median(window_p99))
      .Num("ack_p99_all_us", Percentile(update_lat, 0.99))
      .Int("query_samples", static_cast<int64_t>(query_lat.size()))
      .Num("query_p50_us", Percentile(query_lat, 0.50))
      .Num("query_p99_us", Percentile(query_lat, 0.99))
      .Num("late_p50_us", Percentile(late, 0.50))
      .Num("late_p99_us", Percentile(late, 0.99))
      .Num("late_head_p50_us", Percentile(late_head, 0.50))
      .Num("late_tail_p50_us", Percentile(late_tail, 0.50))
      .Num("achieved_ops_s", span_s > 0 ? static_cast<double>(acked) / span_s : 0)
      .Num("server_rss_mb", PeakRssMb(o_.server_pid))
      .Num("server_cpu_ms_per_kop", (cpu1 - cpu0) / kops)
      .Num("follower_cpu_ms_per_kop", (fcpu1 - fcpu0) / kops);
  return j.Done();
}

// "OK REPL <seq> EPOCH <e>" -> seq, or -1.
int64_t ReplSeq(LineClient* c) {
  std::string line;
  if (!c->Ask("REPL STATUS", &line)) return -1;
  long long seq = -1;
  if (std::sscanf(line.c_str(), "OK REPL %lld", &seq) != 1) return -1;
  return seq;
}

// Polls both REPL STATUS heads until equal; returns false on timeout.
bool AwaitCaughtUp(Client* client, int64_t timeout_ns) {
  const int64_t deadline = NowNs() + timeout_ns;
  while (NowNs() < deadline) {
    const int64_t primary = ReplSeq(&client->control());
    const int64_t follower = ReplSeq(&client->follower());
    if (primary < 0 || follower < 0) return false;
    if (primary == follower) return true;
    usleep(500);
  }
  return false;
}

bool ReadSolution(LineClient* c, std::vector<VertexId>* out) {
  std::string line;
  if (!c->Ask("SOLUTION", &line) || line.rfind("OK ", 0) != 0) return false;
  std::istringstream in(line.substr(3));
  long long k = 0;
  if (!(in >> k)) return false;
  out->clear();
  long long v = 0;
  while (in >> v) out->push_back(static_cast<VertexId>(v));
  return static_cast<long long>(out->size()) == k;
}

}  // namespace

int RunClient(const ClientOptions& o) {
  prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us: the schedule is in microseconds.
  const EdgeListGraph base = LoadBase(o.workload, o.data_dir);
  const DynamicGraph base_graph = base.ToDynamic();
  const Tape tape(MakeStream(o.workload, base_graph, o.seed));

  Client client(o, base, tape);
  std::string error;
  if (!client.Connect(&error)) {
    std::fprintf(stderr, "client: %s\n", error.c_str());
    return 1;
  }
  Json checks;
  auto check = [&](const std::string& name, bool ok) {
    checks.Bool(name, ok);
    if (!ok) std::fprintf(stderr, "check FAILED: %s\n", name.c_str());
  };
  if (o.await_follower) {
    check("repl.follower_caught_up_before", AwaitCaughtUp(&client, 60'000'000'000));
  }
  std::string phases = "[";
  for (const Phase& phase : o.phases) {
    if (client.broken()) break;
    if (phases.size() > 1) phases += ",";
    phases += client.RunPhase(phase, false);
  }
  if (o.query_probe > 0 && !client.broken()) {
    if (phases.size() > 1) phases += ",";
    phases += client.RunPhase({"probe", kProbeRate, o.query_probe / kProbeRate}, true);
  }
  phases += "]";
  check("serve.no_unanswered_requests", !client.broken());

  Json out;
  if (o.follower_port != 0 && !client.broken()) {
    const int64_t last_ack = client.last_ack_ns();
    const bool caught_up = AwaitCaughtUp(&client, 60'000'000'000);
    check("repl.follower_caught_up", caught_up);
    out.Num("follower_catchup_ms", static_cast<double>(NowNs() - last_ack) * 1e-6);
    std::vector<VertexId> primary_solution, follower_solution;
    check("repl.follower_solution_equals_primary",
          caught_up && ReadSolution(&client.control(), &primary_solution) &&
              ReadSolution(&client.follower(), &follower_solution) &&
              primary_solution == follower_solution);
  }
  // The served final graph: every update was acked, each edge's ops kept
  // their order on one connection, so the server holds tape[0, pos).
  DynamicGraph final_graph = base_graph;
  const bool replayed = ApplyTapePrefix(tape, client.pos(), &final_graph);
  std::vector<VertexId> solution;
  const bool got = !client.broken() && ReadSolution(&client.control(), &solution);
  check("serve.solution_independent_maximal",
        replayed && got && CheckSolution(final_graph, solution).ok());
  std::string stats_line;
  std::string stats = "null";
  if (!client.broken() && client.control().Ask("STATS", &stats_line) &&
      stats_line.rfind("OK ", 0) == 0) {
    stats = stats_line.substr(3);
  }
  if (o.trace && !o.trace_out.empty() && !client.spans().Write(o.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
  }
  if (o.trace) out.Raw("trace_self", client.spans().SelfTimeJson());
  out.Int("attempted", client.attempted())
      .Int("failed", client.failed())
      .Int("end_pos", client.pos())
      .Raw("checks", checks.Done())
      .Raw("phases", phases)
      .Raw("stats", stats);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace perfbench
