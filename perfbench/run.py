#!/usr/bin/env python3
"""Layered benchmark: one seeded op stream through every layer of dynmis.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 16 --trace 0

Builds the library, the server and perfbench_ladder from the source tree
(Release, under $CARGO_TARGET_DIR or .bench_build), then replays the
workload's pre-drawn stream through six rungs in turn:

  1. DynamicGraph alone          4. ShardedMisEngine
  2. the bare maintainer         5. `dynmis_cli serve` over loopback binary
  3. MisEngine (+ snapshots)     6. that server with --change-log and a
                                    TCP follower attached

Every rung checks its final solution against the benchmark's own final
graph. Human-readable results go to stderr; the last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
perfbench/README.md lists every workload and metric.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The served rungs' fixed offered-rate ladder (updates/s), shared by every
# workload so the per-rate metric names are the same everywhere.
LADDER = [100000, 125000, 150000, 175000, 200000, 225000, 250000, 275000]
# Ack p99 limit for served_max_ops_s: five times the server's default 1 ms
# flush deadline, so the limit bites on queueing, not on batching.
LIMIT_US = 5000.0
# A generator that cannot keep up falls further behind as a phase goes on;
# one delayed by a passing stall does not. So the gate is the median
# lateness of a phase's last tenth of requests against its first tenth.
LATE_GROWTH_US = 1000.0
STEP_S = 0.75
REF_S = 2.0
WARMUP_S = 0.5
QUERY_PROBE = 1000

WORKLOADS = {
    "churn": {"scenario": "hard", "ref_rate": 100000},
    "massive": {"scenario": "massive", "ref_rate": 50000},
    "storm": {"scenario": "storm", "ref_rate": 50000},
}

END_TO_END = [
    ("setup_s", "s"),
    ("quality_vs_greedy", "ratio"),
    ("sharded_ops_s", "ops/s"),
    ("snapshot_save_s", "s"),
    ("snapshot_restore_s", "s"),
    ("serve.cpu_ms_per_kop", "ms"),
    ("repl.cpu_ms_per_kop", "ms"),
    ("server_peak_rss_mb", "MB"),
    ("ok_op_share", "ratio"),
]


def rate_name(rate):
    return "%dk" % (rate // 1000)


PER_LAYER = [
    ("graph.apply_ns", "ns"),
    ("graph.memory_bytes", "bytes"),
    ("core.apply_ns", "ns"),
    ("core.batch_ns", "ns"),
    ("core.init_s", "s"),
    ("core.memory_bytes", "bytes"),
    ("api.apply_ns", "ns"),
    ("api.batch_ns", "ns"),
    ("api.init_s", "s"),
    ("update_ops_s", "ops/s"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("api.apply_samples", "count"),
    ("ingest.load_s", "s"),
    ("ingest.bytes_per_edge", "bytes/edge"),
    ("ingest.rss_mb", "MB"),
    ("io.snapshot_bytes", "bytes"),
    ("io.save_mb_s", "MB/s"),
    ("io.restore_mb_s", "MB/s"),
    ("shard.count", "count"),
    ("shard.one_shard_ops_s", "ops/s"),
    ("shard.barrier_p50_ms", "ms"),
    ("shard.barrier_p99_ms", "ms"),
    ("shard.resolve_s", "s"),
    ("shard.cut_edge_fraction", "ratio"),
    ("shard.conflicts", "count"),
    ("shard.evictions", "count"),
    ("shard.quality_vs_greedy", "ratio"),
]
for _rate in LADDER:
    PER_LAYER += [
        ("serve.%s.ack_p50_us" % rate_name(_rate), "us"),
        ("serve.%s.ack_p99_us" % rate_name(_rate), "us"),
    ]
PER_LAYER += [
    ("served_max_ops_s", "ops/s"),
    ("served_ack_p50_us", "us"),
    ("served_ack_p99_us", "us"),
    ("replicated_ack_p99_us", "us"),
    ("serve.ack_p99_all_us", "us"),
    ("serve.server_update_p50_us", "us"),
    ("serve.server_update_p99_us", "us"),
    ("serve.batch_occupancy", "ops"),
    ("serve.flushes_full", "count"),
    ("serve.flushes_deadline", "count"),
    ("serve.flushes_barrier", "count"),
    ("serve.barrier_flush_share", "ratio"),
    ("serve.io_wakeups_per_kop", "count"),
    ("serve.inbox_high_water", "count"),
    ("serve.ready_s", "s"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.gen_late_p50_us", "us"),
    ("serve.gen_late_p99_us", "us"),
    ("repl.log_ack_p99_us", "us"),
    ("repl.ops_logged", "count"),
    ("repl.segments", "count"),
    ("repl.follower_catchup_ms", "ms"),
    ("repl.follower_cpu_ms_per_kop", "ms"),
    ("failed_op_share", "ratio"),
    ("trace.setup.self_s", "s"),
    ("trace.graph.self_s", "s"),
    ("trace.core.self_s", "s"),
    ("trace.api.self_s", "s"),
    ("trace.io.self_s", "s"),
    ("trace.shard.self_s", "s"),
    ("trace.bench.self_s", "s"),
    ("trace.serve.queue_us", "us"),
    ("trace.serve.wire_us", "us"),
    ("trace.repl.wire_us", "us"),
    ("trace.overhead_ns_per_op", "ns"),
    ("trace.call_span_ns", "ns"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("no JSON result in output")


# --- Build -------------------------------------------------------------------


def build(build_root):
    """Configures and builds perfbench_ladder and dynmis_cli (Release)."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_root, "build.log")
    with open(build_log, "w") as out:
        steps = [["cmake", "--build", build_dir, "-j", str(nproc()), "--target",
                  "perfbench_ladder", "dynmis_cli"]]
        # Configure once; the build step re-configures by itself when a
        # CMakeLists.txt changes.
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release", "-DDYNMIS_SANITIZE=OFF"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    sanitize = re.search(r"^DYNMIS_SANITIZE:\w+=(.*)$", cache, re.M)
    build_type = build_type.group(1) if build_type else ""
    sanitize = sanitize.group(1) if sanitize else "OFF"
    if build_type not in ("Release", "RelWithDebInfo") or sanitize not in ("OFF", ""):
        raise BenchError("refusing build type %r / sanitizer %r" % (build_type, sanitize))
    ladder = os.path.join(build_dir, "perfbench_ladder")
    cli = os.path.join(build_dir, "dynmis", "dynmis_cli")
    info = last_json_line(subprocess.run([ladder, "info"], capture_output=True,
                                         text=True, check=True).stdout)
    if not info["ndebug"] or info["sanitized"]:
        raise BenchError("refusing a debug or sanitizer build")
    return ladder, cli, {"build_type": build_type, "compiler": info["compiler"]}


def source_identity():
    """The git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()


# --- Processes ---------------------------------------------------------------


class Server:
    """A `dynmis_cli serve` process on an ephemeral loopback port."""

    def __init__(self, cli, args, log_path, env):
        self.log_path = log_path
        self.started = time.monotonic()
        with open(log_path, "w") as out:
            self.proc = subprocess.Popen([cli, "serve", "--port", "0"] + args,
                                         stdout=subprocess.DEVNULL, stderr=out, env=env)
        self.port = None
        self.ready_s = None

    def wait_ready(self, timeout=120):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                m = re.search(r"serving .* on 127\.0\.0\.1:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
                self.ready_s = time.monotonic() - self.started
                log("perfbench: server ready in %.1f s" % self.ready_s)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        with open(self.log_path) as f:
            sys.stderr.write(f.read()[-2000:])
        raise BenchError("server did not start")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_tool(cmd, timeout=170):
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    log("perfbench: %s %s took %.1f s" % (os.path.basename(cmd[0]), cmd[1],
                                          time.monotonic() - started))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (os.path.basename(cmd[0]), proc.returncode))
    return last_json_line(proc.stdout)


# --- Served rungs --------------------------------------------------------------


def phase_args(phases):
    out = []
    for name, rate, seconds in phases:
        out += ["--phase", "%s:%d:%g" % (name, rate, seconds)]
    return out


def step_passes(p):
    """A ladder step meets the limit: every request acked OK, ack p99 under
    the limit, and generator lateness not growing across the step."""
    return p["failed"] == 0 and p["ack_p99_us"] <= LIMIT_US and lateness_steady(p)


def lateness_steady(p):
    """The generator did not fall behind during the phase."""
    return p["late_tail_p50_us"] <= p["late_head_p50_us"] + LATE_GROWTH_US


def run_served(args, ladder, cli, data_dir, work, traces, env, servers, trace):
    spec = WORKLOADS[args.workload]
    conns = min(4, nproc())
    base = ["--workload", args.workload, "--seed", str(args.seed), "--data", data_dir,
            "--conns", str(conns), "--trace", "1" if trace else "0"]
    results = {}

    # Rung 5: the plain server.
    plain = Server(cli, ["--scenario", spec["scenario"]], os.path.join(work, "plain.log"), env)
    servers.append(plain)
    plain.wait_ready()
    # The reference rate runs first, so the server's peak RSS is read
    # before the ladder's top steps overload it. The ladder and the QUERY
    # probe feed only per-layer metrics, so only the traced run pays for
    # them.
    phases = [("warmup", spec["ref_rate"], WARMUP_S),
              ("reference", spec["ref_rate"], REF_S)]
    extra = []
    if trace:
        phases += [("step" + rate_name(r), r, STEP_S) for r in LADDER]
        extra = ["--query-probe", str(QUERY_PROBE)]
    results["plain"] = run_tool([ladder, "client"] + base + extra + [
        "--port", str(plain.port), "--server-pid", str(plain.proc.pid),
        "--trace-out", os.path.join(traces, "serve.txt")] + phase_args(phases))
    results["plain_ready_s"] = plain.ready_s
    plain.stop()

    # Rung 6: the same server logging every batch; first without a follower,
    # then with a TCP follower attached.
    log_dir = os.path.join(work, "changelog")
    primary = Server(cli, ["--scenario", spec["scenario"], "--change-log", log_dir],
                     os.path.join(work, "primary.log"), env)
    servers.append(primary)
    primary.wait_ready()
    first = run_tool([ladder, "client"] + base + [
        "--port", str(primary.port), "--server-pid", str(primary.proc.pid),
        "--trace", "0"] + phase_args([("warmup", spec["ref_rate"], WARMUP_S),
                                     ("logged", spec["ref_rate"], REF_S)]))
    follower = Server(cli, ["--scenario", spec["scenario"], "--follow",
                            "127.0.0.1:%d" % primary.port],
                      os.path.join(work, "follower.log"), env)
    servers.append(follower)
    follower.wait_ready()
    second = run_tool([ladder, "client"] + base + [
        "--port", str(primary.port), "--server-pid", str(primary.proc.pid),
        "--follower-port", str(follower.port), "--follower-pid", str(follower.proc.pid),
        "--await-follower", "--start-pos", str(first["end_pos"]),
        "--trace-out", os.path.join(traces, "repl.txt")] + phase_args(
            [("replicated", spec["ref_rate"], REF_S)]))
    follower.stop()
    primary.stop()
    results["logged"] = first
    results["replicated"] = second
    return results


# --- Metrics -----------------------------------------------------------------


def phase(result, name):
    for p in result["phases"]:
        if p["name"] == name:
            return p
    raise BenchError("missing phase " + name)


def rung_counts(rung):
    """Attempted and failed ops of one rung. The client counts a reject, an
    ERR or an unanswered request as failed. A failed check fails every op of
    the rung it checks: a wrong final state invalidates the whole rung."""
    attempted = max(1, rung["attempted"])
    if all(rung["checks"].values()):
        return attempted, rung["failed"]
    return attempted, attempted


def op_counts(rungs):
    """Attempted and failed ops over all rungs, and ok_op_share: the smallest
    share of one rung's ops that succeeded. A single failed check therefore
    pulls ok_op_share to 0, however few of all ops its rung holds."""
    counts = [rung_counts(r) for r in rungs]
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    return attempted, failed, min(1.0 - f / a for a, f in counts)


def tagged(rung, tag):
    """The rung with its check names prefixed by `tag`."""
    return dict(rung, checks={"%s.%s" % (tag, k): v for k, v in rung["checks"].items()})


def collect(local, served, traced_local=None):
    """Merges the rungs' raw results into named metrics and checks."""
    m = {}
    lm = local["metrics"]
    for name, _ in END_TO_END + PER_LAYER:
        if name in lm:
            m[name] = lm[name]
    rungs = dict(local["rungs"])
    if traced_local is not None:
        for name, rung in traced_local["rungs"].items():
            rungs["traced." + name] = tagged(rung, "traced")
    plain, logged, repl = served["plain"], served["logged"], served["replicated"]
    for tag, r in (("plain", plain), ("logged", logged), ("replicated", repl)):
        rungs[tag] = tagged(r, tag)

    if any(p["name"].startswith("step") for p in plain["phases"]):
        passing = [r for r in LADDER if step_passes(phase(plain, "step" + rate_name(r)))]
        m["served_max_ops_s"] = float(max(passing)) if passing else 0.0
        for r in LADDER:
            p = phase(plain, "step" + rate_name(r))
            m["serve.%s.ack_p50_us" % rate_name(r)] = p["ack_p50_us"]
            m["serve.%s.ack_p99_us" % rate_name(r)] = p["ack_p99_us"]
    ref = phase(plain, "reference")
    m["served_ack_p50_us"] = ref["ack_p50_us"]
    m["served_ack_p99_us"] = ref["ack_p99_us"]
    m["serve.ack_p99_all_us"] = ref["ack_p99_all_us"]
    m["serve.gen_late_p50_us"] = ref["late_p50_us"]
    m["serve.gen_late_p99_us"] = ref["late_p99_us"]
    m["serve.cpu_ms_per_kop"] = ref["server_cpu_ms_per_kop"]
    m["serve.ready_s"] = served["plain_ready_s"]
    probe = [p for p in plain["phases"] if p["name"] == "probe"]
    queries = ref if ref["query_samples"] > 0 else (probe[0] if probe else None)
    if queries is not None:
        m["serve.query_p50_us"] = queries["query_p50_us"]
        m["serve.query_p99_us"] = queries["query_p99_us"]
    m["server_peak_rss_mb"] = ref["server_rss_mb"]
    stats = plain["stats"]
    serving = stats["serving"]
    m["serve.server_update_p50_us"] = serving["update_latency_us"]["p50"]
    m["serve.server_update_p99_us"] = serving["update_latency_us"]["p99"]
    m["serve.batch_occupancy"] = serving["mean_batch_occupancy"]
    for k in ("flushes_full", "flushes_deadline", "flushes_barrier"):
        m["serve." + k] = serving[k]
    flushes = serving["flushes_full"] + serving["flushes_deadline"] + serving["flushes_barrier"]
    m["serve.barrier_flush_share"] = serving["flushes_barrier"] / max(1, flushes)
    io = stats["io"]["per_thread"]
    ops = max(1, serving["ops_applied"])
    m["serve.io_wakeups_per_kop"] = sum(t["wakeups"] for t in io) * 1000.0 / ops
    m["serve.inbox_high_water"] = max(t["inbox_depth_high_water"] for t in io)

    # A served run whose generator fell behind is invalid, not a number.
    for tag, p in (("plain", ref), ("logged", phase(logged, "logged")),
                   ("replicated", phase(repl, "replicated"))):
        rungs[tag]["checks"]["%s.generator_kept_schedule" % tag] = lateness_steady(p)

    m["repl.log_ack_p99_us"] = phase(logged, "logged")["ack_p99_us"]
    rp = phase(repl, "replicated")
    m["replicated_ack_p99_us"] = rp["ack_p99_us"]
    m["repl.follower_cpu_ms_per_kop"] = rp["follower_cpu_ms_per_kop"]
    m["repl.cpu_ms_per_kop"] = rp["server_cpu_ms_per_kop"] + rp["follower_cpu_ms_per_kop"]
    m["repl.follower_catchup_ms"] = repl.get("follower_catchup_ms", 0.0)
    replication = repl["stats"]["replication"]
    m["repl.ops_logged"] = replication["ops_logged"]
    m["repl.segments"] = replication["segments"]

    attempted, failed, ok_share = op_counts(rungs.values())
    m["failed_op_share"] = failed / attempted
    m["ok_op_share"] = ok_share
    checks = {k: v for rung in rungs.values() for k, v in rung["checks"].items()}
    return m, checks, attempted, failed


def trace_metrics(traced_local, local, served, m):
    """Self time per layer from the traced run's spans, and the overhead:
    the traced local run's api.apply_ns against the untraced one's."""

    def self_s(spans, names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def mean_us(spans, name):
        span = spans.get(name, {"self_s": 0.0, "spans": 0})
        return span["self_s"] * 1e6 / max(1, span["spans"])

    spans = traced_local["metrics"]["trace.self"]
    m["trace.setup.self_s"] = self_s(spans, ["api.Create", "api.Initialize",
                                             "ingest.IngestEdgeList"])
    m["trace.graph.self_s"] = self_s(spans, ["graph.ApplyUpdate"])
    m["trace.core.self_s"] = self_s(spans, ["core.Initialize", "core.Apply",
                                            "core.ApplyBatch"])
    m["trace.api.self_s"] = self_s(spans, ["api.Apply", "api.ApplyBatch"])
    m["trace.io.self_s"] = self_s(spans, ["api.SaveSnapshot", "api.LoadSnapshot"])
    m["trace.shard.self_s"] = self_s(spans, ["shard.ApplyBatch", "shard.barrier"])
    m["trace.bench.self_s"] = self_s(spans, ["rung.setup", "round", "graph.pass",
                                             "core.pass", "api.pass", "shard.pass",
                                             "shard1.pass"])
    plain = served["plain"]["trace_self"]
    repl = served["replicated"]["trace_self"]
    m["trace.serve.queue_us"] = mean_us(plain, "gen.queue")
    m["trace.serve.wire_us"] = mean_us(plain, "serve.wire")
    m["trace.repl.wire_us"] = mean_us(repl, "serve.wire")
    m["trace.overhead_ns_per_op"] = (traced_local["metrics"]["api.apply_ns"]
                                     - local["metrics"]["api.apply_ns"])
    m["trace.call_span_ns"] = traced_local["metrics"]["trace.call_span_ns"]


# --- Main --------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: the dynmis source tree is missing next to perfbench/")
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    t_build = time.monotonic()
    ladder, cli, build_info = build(build_root)
    log("perfbench: build ready in %.1f s" % (time.monotonic() - t_build))

    data_dir = os.path.join(build_root, "data")
    work = os.path.join(build_root, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    # Span files of the latest traced run of each workload.
    traces = os.path.join(build_root, "traces", args.workload)
    for d in (data_dir, work, traces):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env["DYNMIS_MASSIVE_EDGES"] = os.path.join(data_dir, "massive-n200000-d22-b2.3-s9.txt")
    environment = dict(build_info, nproc=nproc(), source=source_identity(),
                       workload=args.workload, seed=args.seed, seconds=args.seconds,
                       trace=args.trace)
    log("perfbench: environment " + json.dumps(environment))

    trace = args.trace == 1
    servers = []
    # A terminated run still stops the servers it started (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        local_cmd = [ladder, "local", "--workload", args.workload, "--seed",
                     str(args.seed), "--seconds", str(args.seconds), "--data", data_dir,
                     "--nproc", str(nproc())]
        # Every timing metric comes from an untraced run. The traced run adds
        # a second, traced local run for the spans and the ingest layer's
        # memory, measured in a process that does nothing but ingest.
        local = run_tool(local_cmd + ["--trace", "0"])
        traced_local = ingest = None
        if trace:
            traced_local = run_tool(local_cmd + [
                "--trace", "1", "--trace-out", os.path.join(traces, "local.txt")])
            ingest = run_tool([cli, "ingest", "--graph", local["metrics"]["ingest.file"],
                               "--json"])
        served = run_served(args, ladder, cli, data_dir, work, traces, env, servers,
                            trace)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    metrics, checks, attempted, failed = collect(local, served, traced_local)
    if trace:
        trace_metrics(traced_local, local, served, metrics)
        metrics["ingest.rss_mb"] = ingest["peak_rss_bytes"] / float(1 << 20)
    chosen = PER_LAYER if trace else END_TO_END
    missing = [name for name, _ in chosen if name not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))

    for name, ok in sorted(checks.items()):
        log("check %-55s %s" % (name, "pass" if ok else "FAIL"))
    for name, unit in chosen:
        log("metric %-32s %16.6g %s" % (name, metrics[name], unit))
    ref = phase(served["plain"], "reference")
    log("samples: update latency %d Apply calls; served reference %d acks (%d windows)"
        % (local["metrics"]["api.apply_samples"], ref["update_samples"], ref["windows"]))

    correct = all(checks.values()) and failed == 0
    results_dir = os.path.join(build_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"environment": environment, "correct": correct, "checks": checks,
                   "metrics": metrics, "local": local, "traced_local": traced_local,
                   "ingest": ingest, "served": served}, f, indent=1)
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log("perfbench: " + str(e))
        sys.exit(1)
