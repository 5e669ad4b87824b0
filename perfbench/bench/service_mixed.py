"""``service-mixed``: a ``repro serve`` process under a closed loop.

Two client threads, one keep-alive connection each, send synchronous
``POST /v1/runs`` batches in lockstep rounds.  Each batch holds four
already-evaluated paper-grid scenarios and one never-seen matmul
scenario, so every request does cache reads and one cache append.

The end-to-end figures are per CPU second of the server process: on a
shared host the time other guests steal moved the wall-clock throughput
and latency of identical runs by up to 2.5x, while the server's CPU cost
per request stays put.  The wall-clock round trips are reported with
the per-layer metrics.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from . import layers, oracles
from .common import Children, check, cpu_seconds, median, quantile

CLIENTS = 2
WARM_PER_REQUEST = 4
SETUP_REPEATS = 3
_SERVING = re.compile(r"serving on (http://\S+)")


def paper_grid() -> list:
    return [
        {"capacity_mib": c, "flow": f, "bandwidth": b}
        for c in oracles.PAPER_CAPACITIES
        for f in oracles.PAPER_FLOWS
        for b in oracles.PAPER_BANDWIDTHS
    ]


class Requests:
    """The seeded request stream, shared by the client threads."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.grid = paper_grid()
        self.seen = {s["bandwidth"] for s in self.grid}
        self.lock = threading.Lock()

    def next(self) -> bytes:
        with self.lock:
            picks = self.rng.choice(len(self.grid), WARM_PER_REQUEST,
                                    replace=False)
            bandwidth = None
            while bandwidth is None or bandwidth in self.seen:
                bandwidth = float(self.rng.uniform(1.0, 256.0))
            self.seen.add(bandwidth)
            fresh = {
                "capacity_mib": int(self.rng.choice(oracles.PAPER_CAPACITIES)),
                "flow": str(self.rng.choice(oracles.PAPER_FLOWS)),
                "bandwidth": bandwidth,
            }
        scenarios = [self.grid[int(i)] for i in picks] + [fresh]
        return json.dumps({"scenarios": scenarios, "sync": True}).encode()


class Server:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, children: Children, workdir: Path, name: str,
                 trace_sink=None) -> None:
        cache = workdir / f"{name}-cache"
        self.child = children.start(
            ["serve", "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", str(cache)],
            workdir, trace_sink, name,
        )
        deadline = time.monotonic() + 60.0
        while True:
            match = _SERVING.search(self.child.stdout_text())
            if match:
                break
            check(self.child.running() and
                  time.monotonic() < deadline,
                  f"{name}: server did not start:\n"
                  f"{self.child.stdout_text()[-2000:]}")
            time.sleep(0.005)
        url = urlsplit(match.group(1))
        self.host, self.port = url.hostname, url.port

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)


def post_runs(conn, body: bytes) -> tuple:
    conn.request("POST", "/v1/runs", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def start(children: Children, workdir: Path, name: str, trace_sink=None):
    """Server start plus the paper-grid warm-up; returns the server, its
    CPU seconds so far and the warm-up records."""
    server = Server(children, workdir, name, trace_sink)
    conn = server.connect()
    status, data = post_runs(
        conn, json.dumps({"scenarios": paper_grid(), "sync": True}).encode())
    conn.close()
    setup_s = cpu_seconds(server.child.proc.pid)
    check(status == 200, f"warm-up returned HTTP {status}: {data[:300]}")
    records = json.loads(data)["records"]
    check(len(records) == len(paper_grid()) and
          all(r["status"] == "ok" for r in records),
          "warm-up: the paper grid did not evaluate cleanly")
    return server, setup_s, records


def closed_loop(server: Server, requests: Requests, seconds: float) -> tuple:
    """``CLIENTS`` clients in lockstep for ``seconds``.

    Each round every client sends one request, and the next round starts
    when all have their answers.  The server so sees the same overlap of
    concurrent requests however fast the shared host runs the clients;
    free-running clients made its CPU cost per request depend on their
    speed.  Returns (server CPU seconds, wall seconds, [(status, body,
    round-trip seconds)]).
    """
    results: list = []
    errors: list = []
    deadline = time.perf_counter() + seconds
    stop = [False]
    barrier = threading.Barrier(
        CLIENTS, action=lambda: stop.__setitem__(
            0, time.perf_counter() >= deadline))

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                barrier.wait(timeout=60)
                if stop[0]:
                    break
                body = requests.next()
                t0 = time.perf_counter()
                status, data = post_runs(conn, body)
                results.append((status, data, time.perf_counter() - t0))
        except Exception as exc:  # surfaced below; release the others
            errors.append(exc)
            barrier.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    cpu0 = cpu_seconds(server.child.proc.pid)
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    check(not errors, f"client failed: {errors[:1]}")
    return cpu_seconds(server.child.proc.pid) - cpu0, wall, results


def check_responses(results: list, workdir: Path) -> tuple:
    """Every response is a clean batch whose records match an in-process
    evaluation."""
    from repro.engine import Engine
    from repro.sweep import Job, ResultCache

    served = []
    for status, data, *_ in results:
        check(status == 200, f"HTTP {status}: {data[:300]}")
        records = json.loads(data)["records"]
        check(len(records) == WARM_PER_REQUEST + 1,
              f"{len(records)} records for {WARM_PER_REQUEST + 1} scenarios")
        for record in records:
            check(record["status"] == "ok",
                  f"{record['job']} failed: {record.get('error')}")
        check(all(r["source"] == "cache" for r in records[:-1]),
              "a paper-grid scenario was not served from cache")
        check(records[-1]["source"] == "evaluated",
              "a never-seen scenario was served from cache")
        served += records
    distinct = {r["key"]: r for r in served}
    engine = Engine(backend="serial", cache=ResultCache(workdir / "oracle"))
    local = engine.run([Job.from_params(r["job"]) for r in distinct.values()])
    by_key = {r["key"]: oracles.comparable(r) for r in local.records}
    for key, record in distinct.items():
        check(by_key.get(key) == oracles.comparable(record),
              f"served record differs from an in-process evaluation: "
              f"{record['job']}")


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    requests = Requests(seed)
    children = Children()
    setups = []
    try:
        for i in range(SETUP_REPEATS - 1):
            server, setup_s, warmup = start(children, workdir, f"setup{i}")
            setups.append(setup_s)
            oracles.check_paper_figures(warmup)
            check(server.child.stop().returncode == 0,
                  "server did not drain cleanly")
        server, setup_s, warmup = start(children, workdir, "server")
        setups.append(setup_s)
        cpu, wall, results = closed_loop(server, requests, seconds)
        stopped = server.child.stop()
        check(stopped.returncode == 0, "server did not drain cleanly")
        if trace:
            sink = workdir / "server.spans.jsonl"
            server, _, _ = start(children, workdir, "traced", sink)
            traced_cpu, _, traced = closed_loop(server, requests, seconds)
            check(server.child.stop().returncode == 0,
                  "traced server did not drain cleanly")
    finally:
        children.close()
    oracles.check_paper_figures(warmup)
    check_responses(results, workdir)
    attempted = len(results)
    served = len(results) * (WARM_PER_REQUEST + 1)
    if trace:
        check_responses(traced, workdir)
        attempted += len(traced)
        latencies = [1e3 * r[2] for r in results]
        metrics = layers.layer_metrics(
            layers.read_spans([sink]), len(traced) * (WARM_PER_REQUEST + 1),
            {
                "service.p50_ms": quantile(latencies, 0.50),
                "service.p99_ms": quantile(latencies, 0.99),
                "service.req_per_s": len(results) / wall,
                "trace.overhead_pct": 100.0 * (
                    traced_cpu / len(traced) / (cpu / len(results)) - 1.0),
                "trace.round_s": traced_cpu,
            },
        )
        rtt_ms = 1e3 * sum(r[2] for r in traced) / len(traced)
        metrics["service.http_ms"] = rtt_ms - metrics["service.server_ms"]
        layers.check_counts(metrics, len(paper_grid()) + len(traced),
                            WARM_PER_REQUEST * len(traced))
    else:
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": stopped.peak_rss_mb,
            "points_per_s": served / cpu,
            "warm_points_per_s": len(results) * WARM_PER_REQUEST / cpu,
        }
    return {"metrics": metrics, "attempted": attempted, "failed": 0}
