#!/usr/bin/env python
"""Counter-invariant lint: fail fast on statistics drift.

Runs a small canned workload through every algorithm/objective path
(efficient minmax/mindist/maxsum, each also under the no-prune,
no-group and top-down ablations, the baseline, and a warm
:class:`QuerySession` with and without an eviction budget) and
asserts the structural invariants of :class:`QueryStats` /
:class:`DistanceStats`:

* ``queue_pops <= queue_pushes``; for heap-driven traversals
  ``iterations == queue_pops``;
* every memo hit corresponds to a request:
  ``d2d_cache_hits <= d2d_lookups``;
* hits + computations = calls:
  ``imind_cache_hits + imind_node_cache_hits + distance_computations
  == imind_calls + imind_node_calls``;
* ``single_door_shortcuts <= idist_calls``;
* ``clients_pruned <= clients_total``; no counter is negative;
* lazy group compaction only consumes real prunes:
  ``group_compactions <= clients_pruned`` and
  ``group_compaction_cost <= 2 * clients_pruned`` (a compaction runs
  once half a group's list is pruned, and pruning a client twice, or
  after it was compacted away, would inflate both);
* an engine with a memo budget of 0 reports zero cache hits;
* session totals equal the sum of the per-query ``result.stats``
  deltas;
* a sharded ``session.run(batch, workers=2)`` returns the serial
  answers, and the session's ledger both satisfies the ledger
  identities and equals the sum of the results' per-query deltas;
* the query service's ledger (its resident session's counters,
  snapshotted at the end of each flush) satisfies the same
  identities, equals the sum of the per-response deltas, and the
  service's answers are identical to the cold oracle;
* EXPLAIN attribution: for every objective (and the baseline), the
  per-phase *own* counter deltas of ``engine.explain(...)`` sum
  exactly to the query's top-level :class:`DistanceStats` ledger;
* kernel-vs-scalar ledger equality (when numpy is importable): for
  every objective on the office workload, and for seeded MZB and CPH
  draws (multi-door client rooms, door matrices that differ from
  their transposes in the last bits), a cold kernel query and a cold
  scalar query return
  bit-identical answers/objectives, agree exactly on the
  path-independent counters (``idist_calls``,
  ``single_door_shortcuts``, ``imind_node_calls``,
  ``imind_node_cache_hits``, ``distance_computations``, and the
  QueryStats traversal counters), both satisfy the ledger identities
  above, and ``kernel_batches`` is positive on the kernel path and
  exactly zero on the scalar path.  (The d2d memo-traffic counters
  ``d2d_lookups`` / ``d2d_cache_hits`` and the ``imind_calls`` /
  ``imind_cache_hits`` split legitimately differ: a kernelised miss
  answers its whole door block in one reduction instead of per-pair
  memo probes.)
* every section (efficient, baseline, session, parallel, EXPLAIN,
  service flush, kernel-vs-scalar) ends with CPython's cyclic garbage
  collector on: ``measured_query`` pauses it for each solve and must
  turn it back on.

Also lints the generated-report invariant: the ``section_*``
generators in ``src/repro/bench/report.py`` must contain **no numeric
literals** (0 and 1 excepted — identity/sign values), so every number
in a generated EXPERIMENTS.md table provably traces to a recorded
JSON key, a perf-gate baseline, or a named harness constant — never
to a hand-typed value.

Exit code 0 when clean, 1 with one line per violation — cheap enough
to run in tier-1 tests (see ``tests/test_tools.py``), so any future
change to the counter semantics that breaks baseline-vs-efficient
comparability fails immediately.

Usage::

    PYTHONPATH=src python tools/check_counters.py
"""

from __future__ import annotations

import asyncio
import gc
import random
import sys
from pathlib import Path
from typing import List

if __name__ == "__main__":  # allow running from a source checkout
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import (  # noqa: E402
    EfficientOptions,
    IFLSEngine,
    QueryRequest,
    QueryStats,
    TOP_DOWN,
    VIPTree,
)
from repro.core.baseline import modified_minmax  # noqa: E402
from repro.core.queries import OBJECTIVES  # noqa: E402
from repro.core.problem import IFLSProblem  # noqa: E402
from repro.core.stats import (  # noqa: E402
    distance_invariant_violations,
    merge_query_stats,
    merge_snapshots,
)
from repro.datasets import small_office, venue_by_name  # noqa: E402
from repro.datasets.workloads import (  # noqa: E402
    random_facility_sets,
    uniform_clients,
)
from repro.index.distance import VIPDistanceEngine  # noqa: E402

#: Numeric literals tolerated inside report section generators:
#: identity/sign values that carry no measurement content.
ALLOWED_REPORT_LITERALS = {0, 1}

#: The module whose ``section_*`` functions are linted.
REPORT_MODULE = (
    Path(__file__).resolve().parents[1] / "src/repro/bench/report.py"
)


def report_literal_violations(path: Path = REPORT_MODULE) -> List[str]:
    """No-literal lint over the generated report's section generators.

    Every top-level ``section_*`` function in ``repro.bench.report``
    renders one EXPERIMENTS.md section; a numeric literal inside one
    is a hand-typed number waiting to drift from the recorded data.
    Formatting precision lives in the shared ``fmt_*`` helpers and
    sweep ranges in the harness constants, so the generators need no
    numbers of their own beyond 0/1 (sign tests, identity counts).
    """
    import ast

    out: List[str] = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if not node.name.startswith("section_"):
            continue
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Constant)
                and isinstance(child.value, (int, float))
                and not isinstance(child.value, bool)
                and child.value not in ALLOWED_REPORT_LITERALS
            ):
                out.append(
                    f"report/{node.name}: numeric literal "
                    f"{child.value!r} at line {child.lineno}; section "
                    "generators must take every number from recorded "
                    "data or a named constant"
                )
    return out


def check_query_stats(label: str, stats: QueryStats) -> List[str]:
    """All invariant violations of one query's counters (empty = ok)."""
    out: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            out.append(f"{label}: {message}")

    for key, value in stats.snapshot().items():
        if key == "algorithm":
            continue
        expect(value >= 0, f"counter {key} is negative ({value})")
    expect(
        stats.queue_pops <= stats.queue_pushes,
        f"queue_pops {stats.queue_pops} > "
        f"queue_pushes {stats.queue_pushes}",
    )
    if stats.queue_pushes:  # heap-driven traversal (efficient path)
        expect(
            stats.iterations == stats.queue_pops,
            f"iterations {stats.iterations} != "
            f"queue_pops {stats.queue_pops}",
        )
    expect(
        stats.clients_pruned <= stats.clients_total,
        f"clients_pruned {stats.clients_pruned} > "
        f"clients_total {stats.clients_total}",
    )
    expect(
        stats.group_compactions <= stats.clients_pruned,
        f"group_compactions {stats.group_compactions} > "
        f"clients_pruned {stats.clients_pruned}",
    )
    expect(
        stats.group_compaction_cost <= 2 * stats.clients_pruned,
        f"group_compaction_cost {stats.group_compaction_cost} > "
        f"2 * clients_pruned {stats.clients_pruned}",
    )
    d = stats.distance
    expect(
        d.d2d_cache_hits <= d.d2d_lookups,
        f"d2d_cache_hits {d.d2d_cache_hits} > "
        f"d2d_lookups {d.d2d_lookups}",
    )
    expect(
        d.imind_cache_hits + d.imind_node_cache_hits
        + d.distance_computations
        == d.imind_calls + d.imind_node_calls,
        "hits + computations != calls "
        f"({d.imind_cache_hits} + {d.imind_node_cache_hits} + "
        f"{d.distance_computations} != "
        f"{d.imind_calls} + {d.imind_node_calls})",
    )
    expect(
        d.single_door_shortcuts <= d.idist_calls,
        f"single_door_shortcuts {d.single_door_shortcuts} > "
        f"idist_calls {d.idist_calls}",
    )
    return out


def collector_violations(section: str) -> List[str]:
    """A violation when ``section`` left the cyclic collector off.

    The collector is turned back on after reporting, so the next
    section is judged on its own.
    """
    if gc.isenabled():
        return []
    gc.enable()
    return [f"{section}: left the cyclic garbage collector off"]


def run_checks() -> List[str]:
    """Execute the canned workload; return every violation found."""
    violations: List[str] = []
    violations += report_literal_violations()
    venue = small_office(levels=2, rooms=24)
    engine = IFLSEngine(venue)
    rng = random.Random(0xC0FFEE)
    facilities = random_facility_sets(venue, 4, 8, rng)
    clients = uniform_clients(venue, 60, rng)

    # Every efficient objective, plain and under each ablation.
    for objective in OBJECTIVES:
        result = engine.query(clients, facilities, objective=objective,
                              cold=True)
        violations += check_query_stats(f"efficient/{objective}",
                                        result.stats)
        for name, options in (
            ("no-prune", EfficientOptions(prune_clients=False)),
            ("no-group", EfficientOptions(group_by_partition=False)),
            ("top-down", EfficientOptions(traversal=TOP_DOWN)),
        ):
            result = engine.query(clients, facilities,
                                  objective=objective, options=options,
                                  cold=True)
            violations += check_query_stats(
                f"ablation/{name}/{objective}", result.stats
            )
    violations += collector_violations("efficient")

    # Baseline: same invariants, and never a memo hit.
    distances = VIPDistanceEngine(engine.tree, max_cache_entries=0)
    problem = IFLSProblem(distances, clients, facilities)
    result = modified_minmax(problem)
    violations += check_query_stats("baseline", result.stats)
    if result.stats.distance.cache_hits != 0:
        violations.append(
            "baseline: engine with memo budget 0 reported "
            f"{result.stats.distance.cache_hits} cache hits"
        )
    violations += collector_violations("baseline")

    # Warm session: per-query deltas must sum to the engine totals.
    for budget, label in ((None, "session"), (500, "session/bounded")):
        session = engine.session(max_cache_entries=budget)
        batch = []
        for i in range(4):
            batch_rng = random.Random(i)
            batch.append(
                QueryRequest(
                    uniform_clients(venue, 30, batch_rng),
                    random_facility_sets(venue, 3, 6, batch_rng),
                    objective=OBJECTIVES[i % len(OBJECTIVES)],
                )
            )
        results = session.run(batch)
        report = session.report()
        summed = merge_snapshots(
            result.stats.distance.snapshot() for result in results
        )
        if summed != report.totals:
            violations.append(
                f"{label}: per-query deltas do not sum to totals "
                f"({summed} != {report.totals})"
            )
        if budget is not None and report.cache_entries > budget:
            violations.append(
                f"{label}: {report.cache_entries} cache entries exceed "
                f"budget {budget}"
            )
    violations += collector_violations("session")

    # Parallel executor: sharded answers and merged counters.
    batch = []
    for i in range(5):
        batch_rng = random.Random(0xFA + i)
        batch.append(
            QueryRequest(
                uniform_clients(venue, 30, batch_rng),
                random_facility_sets(venue, 3, 6, batch_rng),
            )
        )
    serial = engine.session().run(batch)
    session = engine.session()
    sharded = session.run(batch, workers=2)
    answers = [(r.answer, r.objective) for r in sharded]
    serial_answers = [(r.answer, r.objective) for r in serial]
    if answers != serial_answers:
        violations.append(
            "parallel: sharded answers differ from serial "
            f"({answers} != {serial_answers})"
        )
    totals = session.report().totals
    for message in distance_invariant_violations(totals):
        violations.append(f"parallel/merged: {message}")
    summed = merge_snapshots(
        result.stats.distance.snapshot() for result in sharded
    )
    if summed != totals:
        violations.append(
            "parallel: per-query deltas do not sum to the session "
            f"ledger ({summed} != {totals})"
        )
    merged_query = merge_query_stats(result.stats for result in sharded)
    if merged_query.queue_pops > merged_query.queue_pushes:
        violations.append(
            "parallel: merged queue_pops "
            f"{merged_query.queue_pops} > queue_pushes "
            f"{merged_query.queue_pushes}"
        )
    violations += collector_violations("parallel")

    # EXPLAIN attribution: per-phase own deltas == top-level ledger.
    explain_cases = [
        (f"explain/{objective}", objective, "efficient")
        for objective in OBJECTIVES
    ] + [("explain/baseline", "minmax", "baseline")]
    for label, objective, algorithm in explain_cases:
        report = engine.explain(
            clients,
            facilities,
            objective=objective,
            algorithm=algorithm,
            cold=True,
        )
        attributed = report.attributed_counters()
        ledger = {
            key: value
            for key, value in report.distance_totals.items()
            if value
        }
        if attributed != ledger:
            violations.append(
                f"{label}: phase-attributed counters do not sum to "
                f"the query ledger ({attributed} != {ledger})"
            )
    violations += collector_violations("explain")

    # Query service: six requests through the coalescer's flush path.
    # The ledger /metrics reports must satisfy the same identities as
    # a single engine's, equal the sum of the per-response deltas, and
    # the answers must equal the cold engine's.
    from repro.api import Engine
    from repro.service import IFLSService

    requests = []
    for i in range(6):
        service_rng = random.Random(0x9D0 + i)
        requests.append(
            QueryRequest(
                clients=tuple(uniform_clients(venue, 25, service_rng)),
                facilities=random_facility_sets(
                    venue, 3, 6, service_rng
                ),
                objective=OBJECTIVES[i % len(OBJECTIVES)],
            )
        )
    service = IFLSService(Engine(engine))

    async def answer_all():
        try:
            return [await service.coalescer.submit(r) for r in requests]
        finally:
            await service.shutdown()

    responses = asyncio.run(answer_all())
    summed = {}
    for i, (request, response) in enumerate(zip(requests, responses)):
        for key, value in response.distance_delta.items():
            summed[key] = summed.get(key, 0) + value
        oracle = engine.query(
            request.clients,
            request.facilities,
            objective=request.objective,
            cold=True,
        )
        if (response.answer, response.objective_value) != (
            oracle.answer, oracle.objective
        ):
            violations.append(
                f"service/q{i}: served answer differs from the cold "
                f"oracle (({response.answer}, "
                f"{response.objective_value}) != "
                f"({oracle.answer}, {oracle.objective}))"
            )
    payload = service.metrics_payload()
    for message in payload["ledger_violations"]:
        violations.append(f"service/ledger: {message}")
    ledger = {k: v for k, v in payload["ledger"].items() if v}
    summed = {k: v for k, v in summed.items() if v}
    if summed != ledger:
        violations.append(
            "service: per-response deltas do not sum to the ledger "
            f"({summed} != {ledger})"
        )
    violations += collector_violations("service")

    # Kernel-vs-scalar ledger equality (skipped when numpy is absent).
    from repro.index import kernels

    if kernels.available():
        violations += kernel_ledger_violations(
            "kernels", engine.tree, clients, facilities, OBJECTIVES
        )
        for name, seed, fe, fn, count, objectives in KERNEL_DRAWS:
            draw_venue = venue_by_name(name)
            draw_rng = random.Random(seed)
            draw_facilities = random_facility_sets(
                draw_venue, fe, fn, draw_rng
            )
            violations += kernel_ledger_violations(
                f"kernels/{name}/{seed}",
                VIPTree(draw_venue),
                uniform_clients(draw_venue, count, draw_rng),
                draw_facilities,
                objectives,
            )
        violations += collector_violations("kernels")
    return violations


#: Kernel-vs-scalar draws beyond the office: ``(venue, seed, |Fe|,
#: |Fn|, |C|, objectives)``.  The office's client rooms all have one
#: door and its door matrix is symmetric; MZB and CPH have multi-door
#: client rooms and door matrices that differ from their transposes in
#: the last bits, where a distance read in the wrong direction shows.
KERNEL_DRAWS = (
    ("MZB", 2, 50, 100, 300, ("minmax",)),
    ("MZB", 4, 50, 100, 300, ("minmax",)),
    ("MZB", 1, 50, 100, 300, ("mindist",)),
    ("CPH", 1, 20, 35, 300, OBJECTIVES),
)


def kernel_ledger_violations(
    label: str, tree, clients, facilities, objectives
) -> List[str]:
    """Cold kernel vs cold scalar queries on one shared tree."""
    violations: List[str] = []
    kernel_engine = IFLSEngine(tree.venue, tree=tree, use_kernels=True)
    scalar_engine = IFLSEngine(tree.venue, tree=tree, use_kernels=False)
    equal_distance_keys = (
        "idist_calls",
        "single_door_shortcuts",
        "imind_node_calls",
        "imind_node_cache_hits",
        "distance_computations",
    )
    equal_query_keys = (
        "clients_pruned",
        "facilities_retrieved",
        "queue_pushes",
        "queue_pops",
        "iterations",
    )
    for objective in objectives:
        where = f"{label}/{objective}"
        got = kernel_engine.query(
            clients, facilities, objective=objective, cold=True
        )
        want = scalar_engine.query(
            clients, facilities, objective=objective, cold=True
        )
        if (got.answer, got.objective) != (want.answer, want.objective):
            violations.append(
                f"{where}: kernel answer differs from the scalar "
                f"oracle (({got.answer}, {got.objective!r}) != "
                f"({want.answer}, {want.objective!r}))"
            )
        violations += check_query_stats(where, got.stats)
        violations += check_query_stats(f"{where}/oracle", want.stats)
        kd, sd = got.stats.distance, want.stats.distance
        for key in equal_distance_keys:
            mine, oracle = getattr(kd, key), getattr(sd, key)
            if mine != oracle:
                violations.append(
                    f"{where}: {key} diverged from the scalar "
                    f"oracle ({mine} != {oracle})"
                )
        for key in equal_query_keys:
            mine = getattr(got.stats, key)
            oracle = getattr(want.stats, key)
            if mine != oracle:
                violations.append(
                    f"{where}: {key} diverged from the scalar "
                    f"oracle ({mine} != {oracle})"
                )
        if kd.kernel_batches <= 0:
            violations.append(
                f"{where}: kernel path counted no kernel_batches"
            )
        if sd.kernel_batches != 0:
            violations.append(
                f"{where}: scalar oracle counted "
                f"{sd.kernel_batches} kernel_batches"
            )
    return violations


def main() -> int:
    violations = run_checks()
    if violations:
        for violation in violations:
            print(f"COUNTER DRIFT: {violation}", file=sys.stderr)
        return 1
    print("counter invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
