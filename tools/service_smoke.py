"""End-to-end smoke test of the ``ifls serve`` query service.

Launches the real CLI entry point as a subprocess (the CPH venue
resident in memory), then drives it the way CI's other gates drive the
library:

* polls ``GET /health`` until the service is live;
* answers 50 synthetic queries through 8 concurrent HTTP clients and
  checks every response bit-identically against a serial cold oracle
  computed in this process;
* sends the same 50 queries as one ``POST /batch`` and checks order;
* exports ``GET /metrics`` to an artifact file and asserts the
  service's distance ledger has no invariant violations;
* scrapes ``GET /metrics?format=prometheus``, runs the strict
  exposition lint on the text, and writes the scrape as a second
  artifact;
* shuts the server down with SIGTERM and requires a graceful exit.

Usage::

    PYTHONPATH=src python tools/service_smoke.py \
        [--out service_metrics.json] \
        [--prom-out service_metrics.prom]

Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro import IFLSEngine, QueryRequest
from repro.datasets import venue_by_name
from repro.indoor.entities import Client, FacilitySets, Point
from repro.obs.prometheus import lint_exposition

VENUE = "CPH"
QUERIES = 50
CLIENTS_PER_QUERY = 40
CONCURRENCY = 8


def build_workload(venue):
    """50 deterministic queries over the venue's room partitions."""
    rooms = sorted(
        p.partition_id for p in venue.partitions()
        if p.kind.value == "room"
    )
    partitions = {
        p.partition_id: p for p in venue.partitions()
    }
    requests = []
    for i in range(QUERIES):
        rng = random.Random(0xCF5 + i)
        clients = []
        for j in range(CLIENTS_PER_QUERY):
            partition = partitions[rng.choice(rooms)]
            rect = partition.rect
            clients.append(
                Client(
                    j,
                    Point(
                        rng.uniform(rect.min_x, rect.max_x),
                        rng.uniform(rect.min_y, rect.max_y),
                        rect.level,
                    ),
                    partition.partition_id,
                )
            )
        sample = rng.sample(rooms, 10)
        requests.append(
            QueryRequest(
                clients=tuple(clients),
                facilities=FacilitySets(
                    frozenset(sample[:4]), frozenset(sample[4:])
                ),
                objective=("minmax", "mindist", "maxsum")[i % 3],
                label=f"smoke{i}",
            )
        )
    return requests


def post_json(url, payload, timeout=120.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read())


def get_json(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


def get_text(url, timeout=30.0):
    """GET a non-JSON endpoint; returns (content_type, body)."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return (
            resp.headers.get("Content-Type", ""),
            resp.read().decode("utf-8"),
        )


def launch_server():
    """Start ``ifls serve`` on an OS-assigned port; return (proc, base)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", VENUE,
            "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    # The banner is one structured-log JSON line; fall back to the
    # legacy regex so older servers still parse.
    try:
        event = json.loads(line)
    except ValueError:
        event = {}
    if event.get("event") == "service.start" and event.get("address"):
        return proc, event["address"]
    match = re.search(r"listening on (http://[\d.]+:\d+)", line)
    if not match:
        proc.kill()
        raise SystemExit(
            f"server did not announce its address: {line!r}"
        )
    return proc, match.group(1)


def wait_healthy(base, deadline=60.0):
    started = time.monotonic()
    while time.monotonic() - started < deadline:
        try:
            health = get_json(f"{base}/health", timeout=5.0)
            if health.get("status") == "ok":
                return health
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.2)
    raise SystemExit(f"{base}/health never reported ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="service_metrics.json",
        help="where to write the final /metrics export",
    )
    parser.add_argument(
        "--prom-out",
        default="service_metrics.prom",
        help="where to write the Prometheus exposition scrape",
    )
    args = parser.parse_args()

    venue = venue_by_name(VENUE)
    workload = build_workload(venue)
    print(f"oracle: answering {QUERIES} queries serially (cold) ...")
    engine = IFLSEngine(venue)
    oracle = [
        engine.query(
            r.clients, r.facilities, objective=r.objective, cold=True
        )
        for r in workload
    ]

    proc, base = launch_server()
    failures = 0
    try:
        health = wait_healthy(base)
        print(f"serving {health['venue']} at {base}")

        def post(request):
            return post_json(f"{base}/query", request.to_payload())

        with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
            answers = list(pool.map(post, workload))
        for i, (got, want) in enumerate(zip(answers, oracle)):
            if (
                got["answer"] != want.answer
                or got["objective_value"] != want.objective
            ):
                failures += 1
                print(
                    f"MISMATCH query {i}: service "
                    f"{got['answer']}/{got['objective_value']} "
                    f"vs oracle {want.answer}/{want.objective}"
                )
        print(
            f"concurrent /query: {QUERIES - failures}/{QUERIES} "
            f"match the serial oracle ({CONCURRENCY} clients)"
        )

        batch = post_json(
            f"{base}/batch",
            {"queries": [r.to_payload() for r in workload]},
        )
        responses = batch["responses"]
        if len(responses) != QUERIES:
            failures += 1
            print(f"BATCH size mismatch: {len(responses)}")
        for i, (got, want) in enumerate(zip(responses, oracle)):
            if (
                got["label"] != workload[i].label
                or got["answer"] != want.answer
            ):
                failures += 1
                print(f"BATCH mismatch at {i}: {got}")
        print(f"/batch: {len(responses)} responses in order")

        metrics = get_json(f"{base}/metrics")
        with open(args.out, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"metrics exported to {args.out}")
        violations = metrics["ledger_violations"]
        if violations:
            failures += 1
            print(f"LEDGER violations: {violations}")
        answered = metrics["batcher"]["queries_answered"]
        if answered < 2 * QUERIES:
            failures += 1
            print(f"batcher answered only {answered} queries")
        print(
            f"ledger clean; batcher answered {answered} queries in "
            f"{metrics['batcher']['batches_flushed']} flushes"
        )

        content_type, scrape = get_text(
            f"{base}/metrics?format=prometheus"
        )
        if not content_type.startswith("text/plain"):
            failures += 1
            print(f"PROMETHEUS content type {content_type!r}")
        problems = lint_exposition(scrape)
        for problem in problems:
            failures += 1
            print(f"PROMETHEUS lint: {problem}")
        if "ifls_service_requests_total" not in scrape:
            failures += 1
            print("PROMETHEUS scrape lacks ifls_service_requests_total")
        with open(args.prom_out, "w") as handle:
            handle.write(scrape)
        families = sum(
            1 for line in scrape.splitlines()
            if line.startswith("# TYPE")
        )
        print(
            f"prometheus scrape lint-clean ({families} families) "
            f"-> {args.prom_out}"
        )

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60.0)
        if code != 0:
            failures += 1
            print(f"SIGTERM exit code {code}, expected 0")
        else:
            print("graceful shutdown ok (SIGTERM, exit 0)")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    if failures:
        print(f"service smoke FAILED ({failures} problems)")
        return 1
    print("service smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
