"""Command-line interface.

Installed as ``ifls`` (see pyproject) and runnable as
``python -m repro``.  Subcommands:

* ``ifls venues`` — list the built-in venues with their statistics;
* ``ifls info VENUE`` — venue + VIP-tree details;
* ``ifls query VENUE`` — run one synthetic IFLS query and print the
  answer, objective, and execution statistics (``--batch N
  --workers W`` answers a warm batch, sharded over ``W`` processes);
* ``ifls explain VENUE`` — run one query under the EXPLAIN profiler
  and print per-phase timings with exact counter attribution, the
  Lemma 5.1 bound evolution, and the VIP-tree visit profile;
* ``ifls serve VENUE`` — keep the venue resident and answer IFLS
  queries over HTTP/JSON (``POST /query``, ``POST /batch``,
  ``POST /stream``, ``GET /metrics``, ``GET /health``,
  ``GET /explain/<id>``);
* ``ifls flight`` — fetch a running service's flight-recorder dump
  (``GET /debug/flight``) and print the recent span records;
* ``ifls stream VENUE`` — replay a client event stream (a JSONL file
  or a synthesized arrive/depart/move mix) while maintaining the
  MinMax answer incrementally; ``--oracle`` recomputes from scratch
  on every event instead;
* ``ifls perfgate`` — compare a bench suite against its committed
  baseline (``--record`` refreshes it); every recorded experiment is
  such a suite;
* ``ifls report`` — regenerate EXPERIMENTS.md from the recorded suite
  baselines (``--check`` diffs instead of writing);
* ``ifls bench`` — print the paper's tables and one run of each
  experiment suite as its figure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .bench.runner import ALL_EXPERIMENTS, run_all, run_experiment
from .bench.experiments import SCALES, default_fe, default_fn
from .core.queries import MINMAX, OBJECTIVES, IFLSEngine
from .datasets.venues import EXPECTED_STATS, VENUE_NAMES, venue_by_name
from .datasets.workloads import workload


def _cmd_venues(_args: argparse.Namespace) -> int:
    print(f"{'venue':<6}{'partitions':>12}{'doors':>8}")
    for name in VENUE_NAMES:
        partitions, doors = EXPECTED_STATS[name]
        print(f"{name:<6}{partitions:>12}{doors:>8}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .indoor.analysis import analyse_venue

    venue = venue_by_name(args.venue)
    started = time.perf_counter()
    engine = IFLSEngine(venue)
    built = time.perf_counter() - started
    tree = engine.tree
    print(venue)
    print(analyse_venue(venue).describe())
    print(f"VIP-tree: {tree.node_count} nodes, {tree.leaf_count} leaves, "
          f"height {tree.height}")
    print(f"access doors: {tree.access_door_count()}")
    print(f"distance-matrix entries: {tree.matrix_entry_count()}")
    print(f"index build time: {built:.2f}s")
    return 0


def _query_engine(args: argparse.Namespace, venue) -> IFLSEngine:
    """Engine honouring ``--no-kernels`` (else the process default)."""
    use_kernels = False if getattr(args, "no_kernels", False) else None
    return IFLSEngine(venue, use_kernels=use_kernels)


def _cmd_query(args: argparse.Namespace) -> int:
    if args.trace is None and args.metrics is None:
        return _cmd_query_inner(args)
    from .obs import observe
    from .obs.exporters import write_metrics_csv, write_trace_jsonl

    with observe() as (tracer, registry):
        code = _cmd_query_inner(args)
    if args.trace is not None:
        spans = write_trace_jsonl(tracer, Path(args.trace))
        print(f"trace:      {spans} spans -> {args.trace}")
    if args.metrics is not None:
        rows = write_metrics_csv(registry, Path(args.metrics))
        print(f"metrics:    {rows} instruments -> {args.metrics}")
    return code


def _cmd_query_inner(args: argparse.Namespace) -> int:
    venue = venue_by_name(args.venue)
    fe = args.existing if args.existing else default_fe(args.venue.upper())
    fn = args.candidates if args.candidates else default_fn(
        args.venue.upper()
    )
    if args.batch > 1 or args.session_stats or args.workers > 1:
        return _run_query_batch(args, venue, fe, fn)
    clients, facilities = workload(
        venue,
        args.clients,
        fe,
        fn,
        seed=args.seed,
        distribution=args.distribution,
        sigma=args.sigma,
    )
    engine = _query_engine(args, venue)
    result = engine.query(
        clients,
        facilities,
        objective=args.objective,
        algorithm=args.algorithm,
        cold=True,
    )
    print(f"venue:      {venue.name} ({venue.partition_count} partitions)")
    print(f"workload:   |C|={len(clients)} |Fe|={fe} |Fn|={fn} "
          f"seed={args.seed} dist={args.distribution}")
    print(f"algorithm:  {args.algorithm} / {args.objective} "
          f"(kernels {'on' if engine.use_kernels else 'off'})")
    print(f"answer:     partition {result.answer} ({result.status})")
    print(f"objective:  {result.objective:.4f}")
    stats = result.stats
    print(f"time:       {stats.elapsed_seconds:.3f}s")
    print(f"stats:      pruned={stats.clients_pruned}/"
          f"{stats.clients_total} retrieved={stats.facilities_retrieved} "
          f"queue pops={stats.queue_pops}")
    print(f"distances:  idist={stats.distance.idist_calls} "
          f"d2d={stats.distance.d2d_lookups}")
    return 0


def _run_query_batch(args: argparse.Namespace, venue, fe: int, fn: int) -> int:
    """Answer ``--batch`` queries through one warm :class:`QuerySession`.

    Each query draws a fresh workload (seed, seed+1, …), so the batch
    models a stream of independent requests against one venue; the
    session report shows what the warm caches saved.
    """
    from .core.request import QueryRequest

    if args.algorithm != "efficient":
        print("batch mode uses the efficient algorithm "
              f"(--algorithm {args.algorithm} ignored)")
    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})")
        return 2
    engine = _query_engine(args, venue)
    session = engine.session(max_cache_entries=args.cache_budget)
    batch = []
    for i in range(args.batch):
        clients, facilities = workload(
            venue,
            args.clients,
            fe,
            fn,
            seed=args.seed + i,
            distribution=args.distribution,
            sigma=args.sigma,
        )
        batch.append(
            QueryRequest(
                clients,
                facilities,
                objective=args.objective,
                label=f"seed={args.seed + i}",
            )
        )
    started = time.perf_counter()
    results = session.run(batch, workers=args.workers)
    elapsed = time.perf_counter() - started
    print(f"venue:      {venue.name} ({venue.partition_count} partitions)")
    print(f"batch:      {args.batch} x |C|={args.clients} |Fe|={fe} "
          f"|Fn|={fn} seeds {args.seed}..{args.seed + args.batch - 1}")
    mode = (
        "efficient, warm session"
        if args.workers == 1
        else f"efficient, {args.workers} workers"
    )
    print(f"objective:  {args.objective} ({mode})")
    print(f"time:       {elapsed:.3f}s total, "
          f"{elapsed / args.batch:.4f}s/query")
    improved = sum(1 for r in results if r.answer is not None)
    print(f"answers:    {improved}/{len(results)} queries improved "
          f"the crowd")
    print()
    print(session.report().describe())
    if args.session_stats:
        print()
        print(_per_query_table(batch, results))
    return 0


def _per_query_table(batch, results) -> str:
    """One row per answered request: its label, objective, crowd size,
    and the time and distance ledger of its ``result.stats``."""
    lines = [
        f"{'#':>4} {'label':<14} {'objective':<9} {'|C|':>6} "
        f"{'time(s)':>9} {'computed':>9} {'hits':>9} {'rate':>6}"
    ]
    for index, (request, result) in enumerate(zip(batch, results), 1):
        distance = result.stats.distance
        computed = distance.distance_computations
        hits = distance.cache_hits
        rate = hits / (computed + hits) if computed + hits else 0.0
        lines.append(
            f"{index:>4} {request.label[:14]:<14} "
            f"{request.objective:<9} {len(request.clients):>6} "
            f"{result.stats.elapsed_seconds:>9.4f} "
            f"{computed:>9} {hits:>9} {rate:>6.0%}"
        )
    return "\n".join(lines)


def _cmd_explain(args: argparse.Namespace) -> int:
    """Profile one query and print/export its EXPLAIN report."""
    from .obs.explain import write_explain_csv, write_explain_json

    venue = venue_by_name(args.venue)
    fe = args.existing if args.existing else default_fe(args.venue.upper())
    fn = args.candidates if args.candidates else default_fn(
        args.venue.upper()
    )
    clients, facilities = workload(
        venue,
        args.clients,
        fe,
        fn,
        seed=args.seed,
        distribution=args.distribution,
        sigma=args.sigma,
    )
    engine = _query_engine(args, venue)
    report = engine.explain(
        clients,
        facilities,
        objective=args.objective,
        algorithm=args.algorithm,
        label=f"{venue.name} seed={args.seed}",
        cold=True,
        bound_limit=args.bound_samples,
    )
    print(report.describe(timings=not args.no_timings))
    if args.json is not None:
        write_explain_json(report, Path(args.json))
        print(f"\njson:       report -> {args.json}")
    if args.csv is not None:
        rows = write_explain_csv(report, Path(args.csv))
        print(f"csv:        {rows} phase rows -> {args.csv}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Replay a client event stream with incremental IFLS answers."""
    import random as _random

    from .core.stream import (
        ContinuousQuery,
        read_events,
        synthetic_events,
        write_events,
    )
    from .datasets.workloads import random_facility_sets

    venue = venue_by_name(args.venue)
    fe = args.existing if args.existing else default_fe(args.venue.upper())
    fn = args.candidates if args.candidates else default_fn(
        args.venue.upper()
    )
    facilities = random_facility_sets(
        venue, fe, fn, _random.Random(args.seed)
    )
    if args.events is not None:
        events = read_events(Path(args.events))
        source = args.events
    else:
        events = synthetic_events(
            venue,
            initial=args.initial,
            events=args.count,
            seed=args.seed,
        )
        source = (
            f"synthetic initial={args.initial} mixed={args.count} "
            f"seed={args.seed}"
        )
    if args.save_events is not None:
        written = write_events(Path(args.save_events), events)
        print(f"saved:      {written} events -> {args.save_events}")
    engine = _query_engine(args, venue)
    stream = ContinuousQuery(
        engine, facilities, incremental=not args.oracle
    )
    started = time.perf_counter()
    stream.apply_batch(events)
    elapsed = time.perf_counter() - started
    stats = stream.stats
    final = stream.answer()
    rate = len(events) / elapsed if elapsed > 0 else float("inf")
    print(f"venue:      {venue.name} ({venue.partition_count} partitions)")
    print(f"facilities: |Fe|={fe} |Fn|={fn} seed={args.seed}")
    print(f"events:     {len(events)} from {source}")
    mode = (
        "oracle (full recompute per event)"
        if args.oracle
        else "incremental"
    )
    print(f"mode:       {mode} "
          f"(kernels {'on' if engine.use_kernels else 'off'})")
    print(f"time:       {elapsed:.3f}s total, {rate:.0f} events/s")
    print(f"answers:    skipped={stats.skips} "
          f"partial={stats.partial_solves} "
          f"full={stats.full_recomputes}")
    print(f"groups:     reevaluated={stats.groups_reevaluated} "
          f"skipped={stats.groups_skipped} "
          f"ratio={stats.reevaluation_ratio:.3f}/event")
    if final.status == "empty":
        print("final:      crowd is empty")
    elif final.answer is None:
        print(f"final:      no improvement (objective "
              f"{final.objective:.4f})")
    else:
        print(f"final:      partition {final.answer} "
              f"(objective {final.objective:.4f}, "
              f"|C|={stream.client_count})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived HTTP query service on one venue."""
    from .api import open_venue
    from .service.server import ServiceConfig, run_service

    use_kernels = False if args.no_kernels else None
    engine = open_venue(
        args.venue, backend=args.backend, use_kernels=use_kernels
    )
    slow = args.slow_query_seconds
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_cache_entries=args.cache_budget,
        request_timeout=args.request_timeout,
        flight_capacity=args.flight_capacity,
        slow_query_seconds=slow if slow > 0 else None,
    )
    run_service(engine, config=config)
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    """Fetch and render a running service's flight-recorder dump."""
    import json as _json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/debug/flight"
    if args.last is not None:
        url += f"?last={args.last}"
    try:
        with urllib.request.urlopen(
            url, timeout=args.timeout
        ) as response:
            dump = _json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"flight: cannot fetch {url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(dump, indent=2, sort_keys=True))
        return 0
    print(f"flight recorder @ {args.url}")
    print(f"  capacity={dump['capacity']} appended={dump['appended']} "
          f"dropped={dump['dropped']} "
          f"slow_threshold={dump['slow_threshold_seconds']}")
    print(f"  {len(dump['records'])} resident records "
          f"(oldest first):")
    for record in dump["records"]:
        attrs = record.get("attrs", {})
        extras = []
        if "request_id" in attrs:
            extras.append(f"rid={attrs['request_id']}")
        if "request_ids" in attrs:
            extras.append(
                "rids=" + ",".join(attrs["request_ids"])
            )
        if "error" in attrs:
            extras.append(f"error={attrs['error']}")
        suffix = f" ({' '.join(extras)})" if extras else ""
        print(f"    {record['name']:<24} "
              f"{record['duration'] * 1000.0:9.3f} ms{suffix}")
    slow = dump.get("slow", [])
    if slow:
        print(f"  {len(slow)} slow records:")
        for record in slow:
            print(f"    {record['name']:<24} "
                  f"{record['duration'] * 1000.0:9.3f} ms")
    return 0


def _cmd_perfgate(args: argparse.Namespace) -> int:
    """Record or enforce the perf-regression baselines."""
    from .bench import regress

    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else regress.default_baseline_path(args.suite)
    )
    if not args.record and not baseline_path.is_file():
        print(
            f"perf gate: no baseline at {baseline_path}; record one "
            "with --record",
            file=sys.stderr,
        )
        return 1
    try:
        if args.record:
            runs = args.runs if args.runs is not None else 5
            baseline = regress.record_baseline(
                args.suite, runs=runs, path=baseline_path
            )
            print(
                f"recorded {len(baseline.metrics)} metrics "
                f"(median of {runs}) to {baseline_path}"
            )
            return 0
        report = regress.gate(
            args.suite,
            baseline_path,
            runs=args.runs if args.runs is not None else 3,
            wall_tolerance=args.wall_tolerance,
            strict_wall=args.strict_wall,
        )
    except ValueError as exc:
        print(f"perf gate: {exc}", file=sys.stderr)
        return 1
    text = report.describe()
    print(text)
    if args.out is not None:
        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"report:     -> {args.out}")
    return 0 if report.passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate (or drift-check) the generated EXPERIMENTS.md."""
    from .bench import report as _report

    provider = _report.DataProvider(
        results_dir=Path(args.results),
        baseline_dir=Path(args.baselines),
    )
    out = Path(args.out)
    if args.check:
        ok, diff = _report.check(provider, out)
        if ok:
            print(f"report:     {out} matches the recorded data")
            return 0
        sys.stdout.write(diff)
        print(
            f"\nreport:     {out} drifted from the recorded data; "
            "regenerate with `ifls report`",
            file=sys.stderr,
        )
        return 1
    text = _report.generate(provider, out)
    sections = len(_report.SECTIONS)
    print(
        f"report:     {sections} sections, {len(text.splitlines())} "
        f"lines -> {out}"
    )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .indoor.render import FloorPlanRenderer

    venue = venue_by_name(args.venue)
    renderer = FloorPlanRenderer(
        venue, width=args.width, height=args.height
    )
    levels = (
        [args.level] if args.level is not None else list(venue.levels)
    )
    for level in levels:
        print(renderer.render_level(level, labels=args.labels))
        print()
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    from .core.topk import top_k_ifls

    venue = venue_by_name(args.venue)
    fe = args.existing if args.existing else default_fe(args.venue.upper())
    fn = args.candidates if args.candidates else default_fn(
        args.venue.upper()
    )
    clients, facilities = workload(
        venue, args.clients, fe, fn, seed=args.seed
    )
    engine = IFLSEngine(venue)
    ranked, stats = top_k_ifls(
        engine.problem(clients, facilities), args.k,
        objective=args.objective,
    )
    print(f"top-{args.k} candidates ({args.objective}, |C|={args.clients},"
          f" |Fe|={fe}, |Fn|={fn}):")
    for entry in ranked:
        print(f"  #{entry.rank}: partition {entry.candidate:>6} "
              f"objective {entry.objective:.4f}")
    print(f"evaluated {stats.candidates_evaluated} candidates, "
          f"{stats.evaluations_aborted} aborted early, "
          f"{stats.client_terms_computed} client terms")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    """Answer a query, then walk the worst-off client to the answer."""
    from .index.path import PathService

    venue = venue_by_name(args.venue)
    fe = args.existing if args.existing else default_fe(args.venue.upper())
    fn = args.candidates if args.candidates else default_fn(
        args.venue.upper()
    )
    clients, facilities = workload(
        venue, args.clients, fe, fn, seed=args.seed
    )
    engine = IFLSEngine(venue)
    result = engine.query(clients, facilities)
    if result.answer is None:
        print("no candidate improves the crowd; nothing to route to")
        return 0
    # The client realising the objective, and its nearest facility
    # among the existing ones plus the answer.
    placed = sorted(facilities.existing | {result.answer})

    def nearest(client):
        return min(
            ((engine.distances.idist(client, f), f) for f in placed)
        )

    worst = max(clients, key=lambda c: nearest(c)[0])
    distance, destination = nearest(worst)
    paths = PathService(venue, graph=engine.tree.graph)
    route = paths.route_to_partition(worst, destination)
    print(f"answer: partition {result.answer} "
          f"(objective {result.objective:.2f})")
    print(f"worst-off client c{worst.client_id} -> nearest facility "
          f"{destination} ({distance:.2f} m):")
    print(paths.describe(route))
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    """Compare the distance-index backends on one venue."""
    import random as _random

    from .index.doortable import DoorTableIndex
    from .index.iptree import IPTreeDistanceIndex
    from .index.viptree import VIPTree

    venue = venue_by_name(args.venue)
    doors = sorted(venue.door_ids())
    rng = _random.Random(1)
    pairs = [tuple(rng.sample(doors, 2)) for _ in range(args.pairs)]

    started = time.perf_counter()
    tree = VIPTree(venue)
    vip_build = time.perf_counter() - started
    started = time.perf_counter()
    ip = IPTreeDistanceIndex(tree)
    ip_build = time.perf_counter() - started
    started = time.perf_counter()
    table = DoorTableIndex(venue, graph=tree.graph)
    table_build = time.perf_counter() - started

    print(f"{venue.name}: {venue.door_count} doors, "
          f"{args.pairs} random query pairs\n")
    print(f"{'backend':<10}{'build(s)':>10}{'entries':>12}"
          f"{'query total(s)':>16}")
    for name, index, build in (
        ("viptree", tree, vip_build),
        ("iptree", ip, ip_build),
        ("doortable", table, table_build),
    ):
        started = time.perf_counter()
        total = sum(index.door_to_door(a, b) for a, b in pairs)
        elapsed = time.perf_counter() - started
        assert total >= 0
        print(f"{name:<10}{build:>10.3f}{index.matrix_entry_count():>12}"
              f"{elapsed:>16.4f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .bench.validate import validate_reproduction

    report = validate_reproduction(client_count=args.clients)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    out_dir = Path(args.out) if args.out else None
    if args.experiment == "all":
        run_all(out_dir=out_dir)
    else:
        run_experiment(args.experiment, out_dir=out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``ifls`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ifls",
        description=(
            "Indoor Facility Location Selection queries (EDBT 2023 "
            "reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("venues", help="list built-in venues").set_defaults(
        fn=_cmd_venues
    )

    info = sub.add_parser("info", help="venue and index details")
    info.add_argument("venue", choices=[v for v in VENUE_NAMES]
                      + [v.lower() for v in VENUE_NAMES])
    info.set_defaults(fn=_cmd_info)

    query = sub.add_parser("query", help="run one IFLS query")
    query.add_argument("venue", choices=[v for v in VENUE_NAMES]
                       + [v.lower() for v in VENUE_NAMES])
    query.add_argument("--clients", type=int, default=1000)
    query.add_argument("--existing", type=int, default=0,
                       help="|Fe| (default: venue's Table-2 default)")
    query.add_argument("--candidates", type=int, default=0,
                       help="|Fn| (default: venue's Table-2 default)")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--distribution", choices=("uniform", "normal"),
                       default="uniform")
    query.add_argument("--sigma", type=float, default=0.5)
    query.add_argument("--algorithm",
                       choices=("efficient", "baseline", "bruteforce"),
                       default="efficient")
    query.add_argument("--objective",
                       choices=OBJECTIVES,
                       default=MINMAX)
    query.add_argument("--batch", type=int, default=1,
                       help="answer N fresh-workload queries through "
                            "one warm QuerySession")
    query.add_argument("--workers", type=int, default=1,
                       help="shard the batch across N worker processes "
                            "(1 = serial warm session)")
    query.add_argument("--session-stats", action="store_true",
                       help="print per-query cache-effectiveness rows")
    query.add_argument("--cache-budget", type=int, default=None,
                       help="max memoised distance entries "
                            "(oldest evicted first; default unbounded)")
    query.add_argument("--trace", metavar="PATH", default=None,
                       help="write a JSON-lines span trace of the run "
                            "(see docs/OBSERVABILITY.md)")
    query.add_argument("--metrics", metavar="PATH", default=None,
                       help="write a metrics CSV snapshot of the run "
                            "(see docs/OBSERVABILITY.md)")
    query.add_argument("--no-kernels", action="store_true",
                       help="force the scalar distance path (the "
                            "dense-array kernel oracle; default "
                            "follows numpy availability and "
                            "IFLS_USE_KERNELS)")
    query.set_defaults(fn=_cmd_query)

    explain = sub.add_parser(
        "explain", help="profile one query with the EXPLAIN profiler"
    )
    explain.add_argument("venue", choices=[v for v in VENUE_NAMES]
                         + [v.lower() for v in VENUE_NAMES])
    explain.add_argument("--clients", type=int, default=500)
    explain.add_argument("--existing", type=int, default=0,
                         help="|Fe| (default: venue's Table-2 default)")
    explain.add_argument("--candidates", type=int, default=0,
                         help="|Fn| (default: venue's Table-2 default)")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--distribution",
                         choices=("uniform", "normal"),
                         default="uniform")
    explain.add_argument("--sigma", type=float, default=0.5)
    explain.add_argument("--algorithm",
                         choices=("efficient", "baseline"),
                         default="efficient")
    explain.add_argument("--objective",
                         choices=OBJECTIVES,
                         default=MINMAX)
    explain.add_argument("--bound-samples", type=int, default=512,
                         help="max Lemma 5.1 bound-evolution samples "
                              "kept (ends always survive)")
    explain.add_argument("--no-timings", action="store_true",
                         help="omit wall times (byte-stable output)")
    explain.add_argument("--json", metavar="PATH", default=None,
                         help="also write the report as JSON")
    explain.add_argument("--csv", metavar="PATH", default=None,
                         help="also write per-phase attribution CSV")
    explain.add_argument("--no-kernels", action="store_true",
                         help="force the scalar distance path (the "
                              "dense-array kernel oracle; default "
                              "follows numpy availability and "
                              "IFLS_USE_KERNELS)")
    explain.set_defaults(fn=_cmd_explain)

    serve = sub.add_parser(
        "serve",
        help="answer IFLS queries over HTTP from a resident venue",
    )
    serve.add_argument("venue",
                       help="built-in venue name or a venue JSON path")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8337,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--backend",
                       choices=("viptree", "iptree", "doortable"),
                       default="viptree",
                       help="distance-index backend (IFLS queries "
                            "require viptree)")
    serve.add_argument("--cache-budget", type=int, default=None,
                       help="max memoised distance entries per "
                            "session (default unbounded)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request seconds before HTTP 504 "
                            "(overridable per query)")
    serve.add_argument("--slow-query-seconds", type=float, default=1.0,
                       help="flight-recorder slow-query threshold "
                            "(<= 0 disables the slow log)")
    serve.add_argument("--flight-capacity", type=int, default=256,
                       help="flight-recorder ring size (completed "
                            "span records kept)")
    serve.add_argument("--no-kernels", action="store_true",
                       help="force the scalar distance path")
    serve.set_defaults(fn=_cmd_serve)

    flight = sub.add_parser(
        "flight",
        help="dump a running service's flight recorder",
    )
    flight.add_argument("--url", default="http://127.0.0.1:8337",
                        help="base URL of the running service")
    flight.add_argument("--last", type=int, default=None,
                        help="only the most recent N records")
    flight.add_argument("--timeout", type=float, default=10.0,
                        help="HTTP timeout in seconds")
    flight.add_argument("--json", action="store_true",
                        help="print the raw JSON dump")
    flight.set_defaults(fn=_cmd_flight)

    stream = sub.add_parser(
        "stream",
        help="replay a client event stream with incremental answers",
    )
    stream.add_argument("venue", choices=[v for v in VENUE_NAMES]
                        + [v.lower() for v in VENUE_NAMES])
    stream.add_argument("--events", metavar="PATH", default=None,
                        help="JSONL ClientEvent file to replay "
                             "(default: synthesize a workload)")
    stream.add_argument("--initial", type=int, default=100,
                        help="synthetic arrivals before the mixed "
                             "phase (ignored with --events)")
    stream.add_argument("--count", type=int, default=300,
                        help="synthetic mixed arrive/depart/move "
                             "events (ignored with --events)")
    stream.add_argument("--seed", type=int, default=0,
                        help="seed for facilities and the synthetic "
                             "event mix")
    stream.add_argument("--existing", type=int, default=0,
                        help="|Fe| (default: venue's Table-2 default)")
    stream.add_argument("--candidates", type=int, default=0,
                        help="|Fn| (default: venue's Table-2 default)")
    stream.add_argument("--oracle", action="store_true",
                        help="recompute from scratch on every event "
                             "(the verification oracle) instead of "
                             "incrementally")
    stream.add_argument("--save-events", metavar="PATH", default=None,
                        help="also write the replayed events as JSONL")
    stream.add_argument("--no-kernels", action="store_true",
                        help="force the scalar distance path")
    stream.set_defaults(fn=_cmd_stream)

    perfgate = sub.add_parser(
        "perfgate",
        help="record a bench suite, or gate it against its baseline",
    )
    perfgate.add_argument("--suite", default="small",
                          help="metric suite (default: small); the "
                               "experiment suites run at REPRO_SCALE")
    perfgate.add_argument("--baseline", metavar="PATH", default=None,
                          help="baseline file (default: "
                               "BENCH_<suite>.json in the cwd)")
    perfgate.add_argument("--record", action="store_true",
                          help="re-measure and overwrite the baseline "
                               "instead of gating")
    perfgate.add_argument("--runs", type=int, default=None,
                          help="median-of-N suite executions (default: "
                               "5 recording, 3 gating)")
    perfgate.add_argument("--wall-tolerance", type=float, default=0.5,
                          help="relative band for wall-clock metrics")
    perfgate.add_argument("--strict-wall", action="store_true",
                          help="enforce wall metrics despite a machine-"
                               "fingerprint mismatch")
    perfgate.add_argument("--out", metavar="PATH", default=None,
                          help="also write the comparison report here")
    perfgate.set_defaults(fn=_cmd_perfgate)

    report = sub.add_parser(
        "report",
        help="regenerate EXPERIMENTS.md from recorded bench data",
    )
    report.add_argument("--results", metavar="DIR",
                        default="benchmarks/recorded",
                        help="directory of recorded experiment suites")
    report.add_argument("--baselines", metavar="DIR", default=".",
                        help="directory with BENCH_<suite>.json files")
    report.add_argument("--out", metavar="PATH", default="EXPERIMENTS.md",
                        help="report path to write or check")
    report.add_argument("--check", action="store_true",
                        help="diff the committed report against a fresh "
                             "composition instead of writing (exit 1 on "
                             "drift)")
    report.set_defaults(fn=_cmd_report)

    render = sub.add_parser("render", help="ASCII floor plan")
    render.add_argument("venue", choices=[v for v in VENUE_NAMES]
                        + [v.lower() for v in VENUE_NAMES])
    render.add_argument("--level", type=int, default=None)
    render.add_argument("--width", type=int, default=100)
    render.add_argument("--height", type=int, default=24)
    render.add_argument("--labels", action="store_true")
    render.set_defaults(fn=_cmd_render)

    topk = sub.add_parser("topk", help="k best candidate locations")
    topk.add_argument("venue", choices=[v for v in VENUE_NAMES]
                      + [v.lower() for v in VENUE_NAMES])
    topk.add_argument("-k", type=int, default=5)
    topk.add_argument("--clients", type=int, default=500)
    topk.add_argument("--existing", type=int, default=0)
    topk.add_argument("--candidates", type=int, default=0)
    topk.add_argument("--seed", type=int, default=0)
    topk.add_argument("--objective",
                      choices=OBJECTIVES,
                      default=MINMAX)
    topk.set_defaults(fn=_cmd_topk)

    route = sub.add_parser(
        "route", help="walk the worst client to the query answer"
    )
    route.add_argument("venue", choices=[v for v in VENUE_NAMES]
                       + [v.lower() for v in VENUE_NAMES])
    route.add_argument("--clients", type=int, default=300)
    route.add_argument("--existing", type=int, default=0)
    route.add_argument("--candidates", type=int, default=0)
    route.add_argument("--seed", type=int, default=0)
    route.set_defaults(fn=_cmd_route)

    backends = sub.add_parser(
        "backends", help="compare distance-index backends"
    )
    backends.add_argument("venue", choices=[v for v in VENUE_NAMES]
                          + [v.lower() for v in VENUE_NAMES])
    backends.add_argument("--pairs", type=int, default=200)
    backends.set_defaults(fn=_cmd_backends)

    validate = sub.add_parser(
        "validate", help="end-to-end agreement checks on all venues"
    )
    validate.add_argument("--clients", type=int, default=120)
    validate.set_defaults(fn=_cmd_validate)

    bench = sub.add_parser(
        "bench",
        help="print the paper's tables and one run of each experiment",
    )
    bench.add_argument("--experiment", default="all",
                       choices=("all",) + ALL_EXPERIMENTS)
    bench.add_argument("--scale", choices=sorted(SCALES), default=None,
                       help="overrides REPRO_SCALE")
    bench.add_argument("--out", default=None,
                       help="directory for CSV output")
    bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
