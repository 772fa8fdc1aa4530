#!/usr/bin/env python3
"""Tests of the benchmark's own machinery (not of dynmis).

    python3 perfbench/test_perfbench.py

Builds like run.py does (under $CARGO_TARGET_DIR or .bench_build) and checks:
  * any interleaving of the per-connection sub-streams is valid and ends on
    the stream's final graph (perfbench_ladder selftest);
  * a request the server rejects is counted as failed and in
    failed_op_share;
  * a failed correctness check fails its whole rung, so ok_op_share falls
    outside its bound in BENCHMARK.json;
  * a stalled server inflates the latency of the requests that fell due
    during the stall, while the generator keeps its schedule;
  * without the source tree next to it, run.py exits non-zero and prints no
    result.
"""

import os
import shutil
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import json
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
if not os.path.isabs(BUILD_ROOT):
    BUILD_ROOT = os.path.join(run.ROOT, BUILD_ROOT)
DATA_DIR = os.path.join(BUILD_ROOT, "data")


def setUpModule():
    global LADDER, CLI
    os.makedirs(DATA_DIR, exist_ok=True)
    LADDER, CLI, _ = run.build(BUILD_ROOT)


class FakeServer:
    """Speaks just enough of the protocol for one client run: acks every
    binary frame with OK, except that it stops reading for `stall_s` seconds
    once `stall_after_s` has passed since the first frame."""

    def __init__(self, stall_after_s, stall_s):
        self.stall_after_s = stall_after_s
        self.stall_s = stall_s
        self.first_frame = None
        self.lock = threading.Lock()
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.port = self.sock.getsockname()[1]
        self.threads = []
        self.closing = False
        self.acceptor = threading.Thread(target=self._accept, daemon=True)
        self.acceptor.start()

    def _accept(self):
        while not self.closing:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self.threads.append(t)

    def stall_window(self):
        with self.lock:
            if self.first_frame is None:
                return None
            start = self.first_frame + self.stall_after_s
            return start, start + self.stall_s

    def _serve(self, conn):
        with conn, conn.makefile("rb") as f:
            self._answer(conn, f)

    def _answer(self, conn, f):
        hello = f.readline().strip()
        if hello == b"HELLO 2 BIN":
            conn.sendall(b"OK DYNMIS 2 BIN backend=fake\n")
            while True:
                head = f.read(4)
                if len(head) < 4:
                    return
                f.read(struct.unpack("<I", head)[0])
                with self.lock:
                    if self.first_frame is None:
                        self.first_frame = time.monotonic()
                start, end = self.stall_window()
                now = time.monotonic()
                if start <= now < end:
                    time.sleep(end - now)
                conn.sendall(b"\x01\x00\x00\x00\x80")
        conn.sendall(b"OK DYNMIS 1 backend=fake\n")
        for line in f:
            verb = line.strip()
            if verb == b"SOLUTION":
                conn.sendall(b"OK 0\n")
            elif verb == b"STATS":
                conn.sendall(b"OK {}\n")
            else:
                conn.sendall(b"ERR unsupported\n")

    def close(self):
        self.closing = True
        self.sock.close()


def client(port, phases, extra=()):
    cmd = [LADDER, "client", "--workload", "churn", "--seed", "3", "--data", DATA_DIR,
           "--port", str(port), "--conns", "2"] + run.phase_args(phases) + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return run.last_json_line(proc.stdout)


class PerfbenchTest(unittest.TestCase):
    def test_any_interleaving_is_valid_and_reaches_the_same_graph(self):
        proc = subprocess.run([LADDER, "selftest", "--data", DATA_DIR],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = run.last_json_line(proc.stdout)
        self.assertTrue(result["ok"], result)

    def test_server_reject_counts_in_failed_op_share(self):
        with tempfile.TemporaryDirectory() as work:
            server = run.Server(CLI, ["--scenario", "hard"], os.path.join(work, "s.log"),
                                dict(os.environ))
            try:
                server.wait_ready()
                result = client(server.port, [("step", 20000, 0.5)],
                                ["--corrupt-request", "100", "--server-pid",
                                 str(server.proc.pid)])
            finally:
                server.stop()
        step = run.phase(result, "step")
        self.assertEqual(step["failed"], 1)
        self.assertGreaterEqual(result["failed"], 1)
        self.assertFalse(run.step_passes(step))
        local = {"attempted": 1000, "failed": 0, "checks": {}}
        attempted, failed, _ = run.op_counts([local, result])
        self.assertGreater(failed / attempted, 0)

    def test_failed_check_trips_ok_op_share_bound(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}["ok_op_share"]
        big = {"attempted": 10 ** 8, "failed": 0, "checks": {"api.ok": True}}
        small = {"attempted": 1000, "failed": 0, "checks": {"shard1.ok": True}}
        _, failed, ok_share = run.op_counts([big, small])
        self.assertEqual((failed, ok_share), (0, 1.0))
        # The smallest rung's check fails: its every op counts as failed, and
        # ok_op_share drops by far more than the bound allows.
        small["checks"]["shard1.ok"] = False
        attempted, failed, ok_share = run.op_counts([big, small])
        self.assertEqual(failed, 1000)
        self.assertLess(ok_share, 1.0 - bound)

    def test_stalled_server_inflates_later_requests(self):
        fake = FakeServer(stall_after_s=0.3, stall_s=0.4)
        with tempfile.TemporaryDirectory() as work:
            spans = os.path.join(work, "spans.txt")
            try:
                result = client(fake.port, [("stall", 2000, 1.2)],
                                ["--trace", "1", "--trace-out", spans])
            finally:
                fake.close()
            lat_ms = []
            with open(spans) as f:
                for line in f:
                    fields = line.split()
                    if fields[0] == "serve.request":
                        lat_ms.append((int(fields[2]) - int(fields[1])) * 1e-6)
        step = run.phase(result, "stall")
        # A third of the requests fell due during the 0.4 s stall; each one
        # waited until the stall ended, counted from its due time.
        self.assertEqual(len(lat_ms), 2400)
        slow = [x for x in lat_ms if x >= 100]
        self.assertGreater(len(slow), 0.2 * len(lat_ms))
        self.assertGreater(max(lat_ms), 300)
        self.assertGreater(step["ack_p99_all_us"], 200000)
        # The generator kept sending on schedule while the server stalled.
        self.assertLess(step["late_p99_us"], 20000)

    def test_refuses_to_run_without_the_source_tree(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "churn", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
