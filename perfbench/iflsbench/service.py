"""The ``service-objectives`` workload: ``ifls serve MC`` in its own
process, in its default configuration, driven over HTTP by this
process (the load generator).

Two connections each run a closed loop over their own fixed sequence
of ``POST /query`` requests: 300 clustered clients per request, the
objective rotating minmax -> mindist -> maxsum in step on both
connections.  Answers are checked against the baseline (minmax) and the
brute-force oracle (mindist, maxsum) after the server has stopped.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from . import common, reference
from .common import BenchError, Tracer, median
from .inputs import Digest, VenueView, crowd, facility_draw, stream_rng

OBJECTIVES = ("minmax", "mindist", "maxsum")


@dataclass(frozen=True)
class Config:
    venue: str = "MC"
    connections: int = 2
    requests: int = 90
    clients: int = 300
    sigma: float = 0.5
    existing: int = 75
    candidates: int = 150
    setups: int = 3


CONFIG = Config()
SMOKE = replace(CONFIG, requests=12, clients=60, setups=1)

READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Inputs:
    """Per-connection request sequences (wire bytes) plus the queries
    needed to recompute each answer independently."""

    def __init__(self, cfg: Config, seed: int, view: VenueView) -> None:
        from repro import QueryRequest

        weights = view.clustered_weights(cfg.sigma)
        digest = Digest(view)
        self.queries: Dict[str, List[Tuple[str, object, object]]] = {}
        self.bodies: Dict[str, List[bytes]] = {}
        for phase, count in (("warmup", len(OBJECTIVES)),
                             ("op", cfg.requests)):
            for conn in range(cfg.connections):
                key = f"{phase}{conn}"
                self.queries[key] = []
                self.bodies[key] = []
                for k in range(count):
                    rng = stream_rng(seed, "service", phase, conn, k)
                    objective = OBJECTIVES[k % len(OBJECTIVES)]
                    clients = crowd(rng, view, cfg.clients, weights)
                    facilities = facility_draw(
                        rng, view, cfg.existing, cfg.candidates
                    )
                    request = QueryRequest(
                        clients=clients,
                        facilities=facilities,
                        objective=objective,
                    )
                    self.queries[key].append(
                        (objective, clients, facilities)
                    )
                    self.bodies[key].append(
                        json.dumps(request.to_payload()).encode()
                    )
                    if phase == "op":
                        digest.add(f"q {conn} {k} {objective}")
                        digest.clients(clients)
                        digest.facilities(facilities)
        self.digest = digest.hexdigest()


def references(venue_name, queries, wrong_reference: bool) -> List[float]:
    """Objective of every query from an independent solver."""
    from repro import IFLSEngine
    from repro.datasets.venues import venue_by_name

    out = reference.split_objectives(
        IFLSEngine(venue_by_name(venue_name)), venue_name, queries
    )
    return reference.corrupted(out) if wrong_reference else out


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``ifls serve`` process whose log goes to a file (an unread
    pipe would fill and stall it)."""

    def __init__(self, venue: str, log_path) -> None:
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", venue,
             "--port", "0"],
            cwd=common.ROOT,
            env=common.program_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.host = ""
        self.port = 0

    def wait_ready(self) -> float:
        """Block until the ``service.start`` line; returns its time."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_lines():
                if line.get("event") == "service.start":
                    address = line["address"].split("//", 1)[-1]
                    host, port = address.rsplit(":", 1)
                    self.host, self.port = host, int(port)
                    return time.monotonic()
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited {self.proc.returncode} before ready"
                )
            time.sleep(0.005)
        raise BenchError("server not ready in time")

    def log_lines(self) -> List[Dict]:
        lines = []
        with open(self.log_path, "rb") as handle:
            for raw in handle:
                if raw.startswith(b"{") and raw.endswith(b"\n"):
                    lines.append(json.loads(raw))
        return lines

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict]:
        """One HTTP exchange; status 0 when the transport failed."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            return 0, {}
        finally:
            conn.close()

    def get(self, path: str) -> Dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return payload

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; the run fails if the
        server is still alive afterwards."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT_S)
        finally:
            self._log.close()
        if self.proc.poll() is None:
            raise BenchError(f"server {self.proc.pid} outlived the run")


def _closed_loops(server: Server, bodies: List[List[bytes]], tracer):
    """Run one closed loop per connection; returns per-connection lists
    of ``(start, end, status, payload)`` and the phase's wall time."""
    results: List[List] = [[] for _ in bodies]
    barrier = threading.Barrier(len(bodies))

    def loop(conn: int) -> None:
        barrier.wait()
        for k, body in enumerate(bodies[conn]):
            started = time.perf_counter()
            if tracer is None:
                status, payload = server.request("POST", "/query", body)
            else:
                with tracer.span("request", conn=conn, k=k) as attrs:
                    status, payload = server.request(
                        "POST", "/query", body
                    )
                    attrs["request_id"] = payload.get("request_id", "")
            results[conn].append(
                (started, time.perf_counter(), status, payload)
            )

    threads = [
        threading.Thread(target=loop, args=(conn,))
        for conn in range(len(bodies))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    starts = [r[0] for rows in results for r in rows]
    ends = [r[1] for rows in results for r in rows]
    return results, max(ends) - min(starts)


def _start(cfg: Config, inputs: Inputs, index: int, tracer):
    """Spawn a server and pay its start-up: ready line plus warm-up
    requests on both connections.  Returns (server, setup seconds)."""
    log = common.OUT / f"serve-{index}.log"
    server = Server(cfg.venue, log)
    try:
        ready = server.wait_ready()
        warm = [
            inputs.bodies[f"warmup{c}"] for c in range(cfg.connections)
        ]
        rows, _ = _closed_loops(server, warm, None)
        if any(r[2] != 200 for conn in rows for r in conn):
            raise BenchError("a warm-up request failed")
    except BaseException:
        server.stop()
        raise
    done = time.monotonic()
    if tracer is not None:
        base = time.perf_counter() - (done - server.spawned)
        tracer.add("setup.server_ready", base, base + ready - server.spawned)
        tracer.add(
            "setup.warmup", base + ready - server.spawned,
            base + done - server.spawned,
        )
    return server, done - server.spawned


def _delta(after: Dict, before: Dict) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _layers(server, tracer, before, after, health):
    """Per-layer metrics of the traced pass."""
    by_id = {
        line.get("request_id"): line
        for line in server.log_lines()
        if line.get("event") == "service.request"
    }
    solver: Dict[str, List[float]] = {o: [] for o in OBJECTIVES}
    transport, queue = [], []
    for span_id, _, name, start, end, attrs in list(tracer.spans):
        if name != "request" or attrs.get("request_id") not in by_id:
            continue
        line = by_id[attrs["request_id"]]
        server_s = float(line["seconds"])
        solver_s = float(line.get("solver_seconds", 0.0))
        child = tracer.add("server", end - server_s, end, span_id)
        tracer.add(
            "solve." + line.get("objective", "?"),
            end - solver_s, end, child,
        )
        solver.setdefault(line.get("objective", "?"), []).append(solver_s)
        transport.append(end - start - server_s)
        queue.append(server_s - solver_s)
    batches = (
        after["batcher"]["batches_flushed"]
        - before["batcher"]["batches_flushed"]
    )
    answered = (
        after["batcher"]["queries_answered"]
        - before["batcher"]["queries_answered"]
    )
    gauges = after["metrics"].get("gauges", {})
    layers = common.dist_metrics(_delta(after["ledger"], before["ledger"]))
    layers.update({
        "solve.minmax_ms": median(solver["minmax"]) * 1e3,
        "solve.mindist_ms": median(solver["mindist"]) * 1e3,
        "solve.maxsum_ms": median(solver["maxsum"]) * 1e3,
        "session.cache_entries": gauges.get("cache.entries", {}).get(
            "value", 0
        ),
        "service.transport_ms": median(transport) * 1e3,
        "service.queue_ms": median(queue) * 1e3,
        "service.batch_size": answered / batches if batches else 0.0,
        "service.pool_sessions": health["pool"]["sessions"],
        "pool.cache_bytes": health["pool"]["cache_bytes"],
        "requests_joined_to_server_log": len(transport),
    })
    return layers


def run(workload: str, args) -> Dict:
    """One run of ``service-objectives``."""
    common.use_program_sources()
    from repro.datasets.venues import venue_by_name

    cfg = SMOKE if args.smoke else CONFIG
    tracer = Tracer() if args.trace else None
    venue = venue_by_name(cfg.venue)
    view = VenueView(venue)
    inputs = Inputs(cfg, args.seed, view)
    setups = 1 if args.trace else cfg.setups
    setup_samples = []
    for index in range(setups):
        server, seconds = _start(cfg, inputs, index, tracer)
        setup_samples.append(seconds)
        if index < setups - 1:
            server.stop()
    ops_bodies = [
        inputs.bodies[f"op{c}"] for c in range(cfg.connections)
    ]
    out = {
        "digest": inputs.digest,
        "view": view.describe(),
        "setup_samples": setup_samples,
    }
    try:
        passes = [_closed_loops(server, ops_bodies, None)]
        out["peak_rss_mb"] = common.peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    if tracer is not None:
        # The traced pass gets its own fresh server: replaying the same
        # requests on the first one would find every memo hot.
        server, _ = _start(cfg, inputs, setups, None)
        try:
            before = server.get("/metrics")
            passes.append(_closed_loops(server, ops_bodies, tracer))
            after = server.get("/metrics")
            health = server.get("/health")
        finally:
            server.stop()
        out["layers"] = _layers(server, tracer, before, after, health)
        out["untraced_wall"] = passes[0][1]
    queries = [
        q for c in range(cfg.connections) for q in inputs.queries[f"op{c}"]
    ]
    expected = references(cfg.venue, queries, args.wrong_reference)
    rows, wall = passes[-1]
    failed_ops = set()
    mismatches = 0
    for conn_rows, _ in passes:
        flat = [r for rows_of_conn in conn_rows for r in rows_of_conn]
        for index, (row, want) in enumerate(zip(flat, expected)):
            status, payload = row[2], row[3]
            got = payload.get("objective_value") if status == 200 else None
            if got is None or not common.same_value(float(got), want):
                failed_ops.add(index)
                mismatches += got is not None
    latencies: List[float] = []
    classes: Dict[str, List[float]] = {}
    flat = [r for rows_of_conn in rows for r in rows_of_conn]
    for index, (row, query) in enumerate(zip(flat, queries)):
        latency = row[1] - row[0]
        if index in failed_ops:
            latency = float("inf")
        latencies.append(latency)
        classes.setdefault(query[0], []).append(latency)
    out.update(
        latencies=latencies,
        classes=classes,
        wall=wall,
        failed=len(failed_ops),
        mismatches=mismatches,
    )
    if tracer is not None:
        path = common.OUT / f"trace-{workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        out["trace_file"] = str(path.relative_to(common.ROOT))
        out["self_times"] = tracer.self_times()
        out["span_totals"] = tracer.totals()
    return out
