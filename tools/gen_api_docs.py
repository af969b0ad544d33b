#!/usr/bin/env python
"""Generate docs/API.md — a reference of the public API.

Walks the ``repro`` package, collects public modules, classes, and
functions with their signatures and docstring summaries, and writes a
markdown reference.  Run after changing public surfaces::

    PYTHONPATH=src python tools/gen_api_docs.py

``--check`` renders the reference in memory instead, prints a unified
diff against ``docs/API.md``, and exits 1 when the file is stale.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import Sequence

import repro

OUT = Path(__file__).resolve().parents[1] / "docs" / "API.md"

# Hand-maintained prose sections are authored HERE (the output file
# is generated; edits to docs/API.md are overwritten).
MIGRATION = """\
## Migrating to 9.0

9.0 has one batch executor: `QuerySession.run(batch, workers=N)`,
which `Engine.run` already called.  Its sharded branch returns the
results and nothing else, because each result already carries its own
time, distance delta and EXPLAIN report.  Answers and counters are
unchanged.  A sharded batch now names an unlabelled request `q<n>`
after the session's running count, as the serial branch does; 8.x
numbered it from the start of the batch.  Each name 9.0 removed, with
its replacement:

| Removed in 9.0 | Replacement | Notes |
|---|---|---|
| `run_batch_parallel(engine, batch, workers, max_cache_entries=...)` \
(and its exports from `repro` and `repro.core`) | \
`engine.session(max_cache_entries=...).run(batch, workers=N)` | \
`max_cache_entries` still bounds each worker's memo. |
| `ParallelBatchOutcome` (and its exports from `repro` and \
`repro.core`), `ParallelBatchOutcome.results` | the list \
`session.run(batch, workers=N)` returns | `results[i]` answers \
`batch[i]`. |
| `ParallelBatchOutcome.answers` | \
`[(r.answer, r.objective) for r in results]` | |
| `ParallelBatchOutcome.query_stats` | \
`repro.core.stats.merge_query_stats(r.stats for r in results)` | |
| `ParallelBatchOutcome.report` (`queries`, `totals`) | \
`session.report()` | The session's ledger grows by the sum of the \
results' `stats.distance`. |
| `ParallelBatchOutcome.report.cache_sizes`, `.cache_entries`, \
`.cache_bytes` (the workers' combined memo footprint), and \
`ShardOutcome.cache_sizes`, `cache_entries`, `cache_bytes`, \
`worker_pid` | none | The workers' memos die with the pool, and no \
shard walks them any more. |
| `ShardOutcome.totals` | the shard's results' `stats.distance` | |
| `ParallelBatchOutcome.elapsed_seconds` | `time.perf_counter()` \
around the call; per query, `result.stats.elapsed_seconds` | |
| `ParallelBatchOutcome.workers` | the `parallel.workers` gauge under \
`repro.obs.observe()` | `min(workers, len(batch))` processes run. |
| `run_batch_parallel(start_method=...)`, \
`ParallelBatchOutcome.start_method`, the `start_method` attribute of \
the `parallel.run` span | none; the span's `method` attribute names \
the one used | The platform picks `fork` where it exists and `spawn` \
otherwise (`repro.core.parallel.default_start_method`). |

Three behaviours change with no name removed.
`VIPDistanceEngine.cache_bytes()` charges each memo table's own size
plus one two-int key tuple and one float per entry, without walking
the entries; where tables share a float object it reads above the old
walk.  `GET /health` and `GET /metrics` report `pool.cache_bytes`
during a flush too, where 8.x read 0.  And the wire decoders are
strict: `existing` and `candidates` must be JSON arrays of integers on
`/query`, `/batch` and `/stream`, and `POST /stream` takes
`incremental` as JSON `true` / `false` only; anything else is HTTP
400.

## Migrating to 8.0

8.0 keeps one record per query: its result.  A `QuerySession` keeps
its warm distance engine and the running ledger, and stores nothing
per query.  Each query's time and distance delta are its
`result.stats`, and a request with `explain=True` gets its EXPLAIN
report as `result.explain` on every session path: serial, sharded,
and the query service.  Answers and counters are unchanged.  Each name
8.0 removed, with its replacement:

| Removed in 8.0 | Replacement | Notes |
|---|---|---|
| `SessionQueryRecord` (and its exports from `repro` and \
`repro.core`), `QuerySession.records`, `QuerySession.take_records()`, \
`SessionReport.records` | the results `session.run(batch)` returns: \
`result.stats.elapsed_seconds` and `result.stats.distance` \
(`distance_computations`, `cache_hits`, `snapshot()`) | Label, \
objective and client count come from the request.  Serially, the \
deltas sum to `session.report().totals`. |
| `SessionReport.describe(per_query=True)` | \
`SessionReport.describe()`; `ifls query --batch N --session-stats` \
prints the per-query table | |
| `keep_records=` on `QuerySession`, `IFLSEngine.session`, \
`Engine.session` and `run_batch_parallel` | none | |
| `QuerySession(trace=..., metrics=...)` | \
`with repro.obs.observe(): session.run(batch)`, or \
`trace.use(tracer)` / `metrics.use(registry)` around the call | \
`run_batch_parallel` sends worker spans and metrics to the active \
collectors. |
| `QuerySession(explain=...)`, `IFLSEngine.session(explain=...)`, \
`session.explain`, `session.explain_reports` | \
`QueryRequest(..., explain=True)`; the report is `result.explain` | \
`IFLSEngine.explain` and `Engine.explain` still explain one query, \
cold or warm, baseline included. |
| `run_batch_parallel(..., explain=True)`, \
`ParallelBatchOutcome.explain_reports`, \
`ShardOutcome.explain_reports`, `ShardOutcome.records` | \
`explain=True` on the requests to explain; \
`outcome.results[i].explain` | A report travels home pickled with its \
result. |
| `ExplainReport.index` (and the `index` key of its JSON) | the \
result's position in its batch | `from_dict` still reads payloads \
that carry it. |
| `VIPDistanceEngine(memoize=False)`, `VIPDistanceEngine.memoize` | \
`VIPDistanceEngine(tree, max_cache_entries=0)` | Same code path: no \
memo probe, no store.  The cold baseline runs on such an engine. |
| `ServiceConfig.cache_bytes_budget`, \
`ifls serve --cache-bytes-budget` | `ServiceConfig.max_cache_entries`, \
`ifls serve --cache-budget` | Bounds the resident session and every \
stream session one entry at a time. |
| `IFLSService.evictions`, the `pool.evictions` field of \
`GET /health` and `GET /metrics`, the `service.pool.evictions` \
counter | the `cache.evictions` counter | `pool.sessions` and \
`pool.cache_bytes` stay. |

## Migrating to 7.0

7.0 serves every query on one resident warm session.  The coalescer's
one flusher never ran two flushes at once, so the session pool never
lent a second session; and a flush solves its queries one after
another, so the flush window only delayed them.  Answers and counters
are unchanged.  A query that times out while queued is no longer
solved or counted as answered.  Each name 7.0 removed, with its
replacement:

| Removed in 7.0 | Replacement | Notes |
|---|---|---|
| `repro.service.SessionPool`, `PoolStats`, `Engine.pool(...)`, \
`SessionPool(size=..., checkout_timeout=...)` and its \
`checkout()` / `checkin()` / `session()` | \
`engine.session(max_cache_entries=...)` | \
Whoever opens a session owns it; open one per thread that answers. |
| `SessionPool.ledger()`, `ledger_violations()` | \
`session.distances.stats.snapshot()` and \
`repro.core.stats.distance_invariant_violations(...)`; the service's \
`GET /metrics` `ledger` and `ledger_violations` | `/metrics` reports \
the ledger as of the last completed flush. |
| `Engine.snapshot()`, `IndexSnapshot.engine()`, \
`IndexSnapshot.session(...)` | `engine.session(...)`, which shares \
the engine's tree | `IndexSnapshot.from_engine(engine.core)` still \
makes the parallel executor's spawn payload. |
| `ServiceConfig.pool_size`, `ifls serve --pool-size`, \
`IFLSService.pool` | `IFLSService.session` | `GET /health` keeps its \
`pool` block; `sessions` reads 1. |
| `ServiceConfig.flush_window`, `ifls serve --flush-window`, \
`Coalescer(flush_window=...)` | none | A flush starts as soon as the \
previous one ends; requests that arrive meanwhile share the next. |
| `ServiceConfig.max_batch`, `ifls serve --max-batch`, \
`Coalescer(max_batch=...)` | none | A flush takes every pending \
request. |
| `Coalescer.submit_many(requests)` | \
`asyncio.gather(*(coalescer.submit(r) for r in requests))` | |
| The `service.pool.checkout` span and the `service.pool.sessions` \
gauge | The `service.batch.flush` span; `GET /health` \
`pool.sessions` | |
| The `GET /metrics` `pool` fields `size`, `created`, `retired` and \
`queries_answered`; the `service.start` log line's `pool` field | \
`pool.sessions`; `batcher.queries_answered` | |

## Migrating to 6.0

6.0 answers every kernel-path facility retrieval with one engine call,
`VIPDistanceEngine.idist_group(partition_id, offsets, target)`, over
the clients' offsets to each exit door of their partition
(`exit_offsets(partition_id, clients)`, one list per door).  Whether
kernels run is the engine's choice alone (numpy present and
`IFLS_USE_KERNELS` not off, or `use_kernels=` at construction); no
query picks it.  Kernel-path
answers and counters are unchanged.  The scalar path now reads each
distance in the pack's direction, so a scalar engine's objective can
move in the last bits on venues whose door matrix is not exactly
symmetric (CH, MZB, CPH), and now equals the kernel path's.  Each name
6.0 removed or changed, with its replacement:

| Removed or changed in 6.0 | Replacement | Notes |
|---|---|---|
| `repro.index.kernels.GroupArrays`, \
`VIPDistanceEngine.group_arrays(clients, pid, pruned)`, \
`repro.index.kernels.group_offset_rows(...)` | \
`offsets = engine.exit_offsets(pid, clients)` | One list of plain \
floats per exit door, aligned with `clients`.  Drop a pruned client's \
entries instead of masking them. |
| `VIPDistanceEngine.idist_rows(arrays, rows, target)`, \
`idist_values(arrays, target)` | \
`engine.idist_group(pid, [[door[i] for i in rows] for door in \
offsets], target)` | Returns a list.  Same values and counters. |
| `VIPDistanceEngine.idist_single_door(pid, client_ids, offsets, \
pruned, target)`, `single_door_offsets(pid, clients)` | \
`engine.idist_group(pid, offsets, target)` over the unpruned clients' \
`exit_offsets` | A single-exit-door partition has one offset list. |
| `VIPDistanceEngine.single_exit(pid)` | \
`len(tuple(venue.doors_of(pid))) == 1` | |
| `KernelPack.exit_door_mins_list(source, target)`; \
`exit_door_mins` returning an ndarray | \
`exit_door_mins(source, target)`, now a list of floats | One cached \
form. |
| `EfficientOptions(use_kernels=...)`, \
`FacilityStream(..., use_kernels=...)` | \
`IFLSEngine(venue, tree=tree, use_kernels=False)` for the scalar \
path | An engine over the same tree shares the index. |
| `QueryRequest.use_kernels` and the `use_kernels` wire field | \
`ifls serve --no-kernels`, or `open_venue(..., use_kernels=False)` | \
A payload that still carries `use_kernels` decodes as if it did not, \
like any other unknown key. |
| Wire booleans decoded with `bool()` (`"prune_clients": "false"` \
read as true) | JSON `true` / `false` only for `prune_clients`, \
`group_by_partition` and `explain` | Anything else is a \
`ProtocolError` (HTTP 400). |
| `VIPDistanceEngine.door_to_door` memo keyed on the unordered pair \
| keyed on `(a, b)` | `(a, b)` and `(b, a)` may differ in the last \
bits; a hit returns what the matrices return for that direction. |
| `FacilityStream._retrieve_kernel`, `_Group.arrays`, \
`_Group.single_exit`, `_Group.prune`, \
`VIPDistanceEngine._require_pack` (internal) | `_Group.offsets` and \
`_Group.active()`; the driver adds settled ids to `group.pruned` | |

## Migrating to 5.0

5.0 hands each facility retrieval to the objective state in one call.
A retrieval's records share a facility and a kind, so they travel as
two aligned plain lists, client ids and distances, instead of one
tuple per record.  Answers, objectives and every counter are
unchanged.  Each changed signature, with its replacement:

| Changed in 5.0 | Replacement | Notes |
|---|---|---|
| `FacilityStream.advance()` returning `(gd, records)`, one \
`(client, facility, dist, is_existing)` tuple per record (empty for a \
node pop) | `(gd, None)` for a node pop or a pop on an emptied group; \
`(gd, (facility, is_existing, client_ids, dists))` for a retrieval | \
Client ids, not `Client` objects.  The id list may be the group's own: \
treat it as read-only.  Kernel and scalar retrieval build the same \
lists. |
| `ObjectiveState.record(client_id, facility, dist, is_existing)`, \
once per record | `record(facility, is_existing, client_ids, dists)`, \
once per retrieval | A state of your own loops over \
`zip(client_ids, dists)`.  The pre-phase hands over one retrieval per \
client group inside a facility, every distance 0. |
| `VIPDistanceEngine.idist_single_door(partition_id, clients, pruned, \
target)` returning `(clients, values)` | \
`engine.idist_group(partition_id, offsets, target)` over the \
unpruned clients' `engine.exit_offsets(partition_id, clients)` (6.0) \
| The offsets are computed once per client group, not once per \
retrieval. |
| A `Coalescer` runner returning only responses; any exception failed \
the whole flush | A runner returns each request's response or the \
exception its solve raised | The service answers each request of a \
flush in its own `try`: one unreachable query no longer fails its \
co-batched strangers. |

## Migrating to 4.0

4.0 measures and stores every experiment one way.  Each sweep of
`repro.bench.experiments` is a perf-gate suite (`fig5`, `fig6`,
`fig78`, `ablation`, `extensions`, `parallel`, `replay`); `ifls
perfgate --record --suite <name>` stores its rows as metrics in the
`Baseline` schema of `BENCH_*.json`, with the machine fingerprint, the
git revision, the run count and, per row, the client count that ran.
`ifls report` reads every file with `load_baseline`, and `ifls bench`
prints one suite run.  Each name 4.0 removed, with its replacement:

| Removed in 4.0 | Replacement | Notes |
|---|---|---|
| `repro.bench.measure` (`measure_query`, `compare`, `Measurement`, \
`timed`, `traced_peak`) | `repro.bench.experiments.query_row` and \
`traced_peak_mb` | One cold query makes one `Row`: its seconds are \
`result.stats.elapsed_seconds`, its peak MB a separate traced pass. |
| `repro.bench.counters` and `ifls bench --experiment counters\\|session` \
| `ifls explain`, `QuerySession.report()`, `tools/check_counters.py` | \
EXPLAIN attributes every counter to a phase; the session report shows \
what warm caches saved. |
| `Scale.repeats` (`Scale(name, divisor, repeats)`) | \
`Scale(name, divisor)`; `ifls perfgate --runs N` | A suite run measures \
each row once; a record keeps the median of `--runs`. |
| `repro.bench.reporting.write_json` / `read_json` | \
`regress.row_metrics` + `Baseline.save` / `load_baseline` + \
`regress.metric_rows` | Recording refuses a suite whose exact metrics \
differ between runs. |
| `repro.bench.reporting.format_cache_effectiveness` and its re-exports \
of `write_metrics_csv` / `read_metrics_csv` / `METRICS_CSV_COLUMNS` | \
`SessionReport.describe()`; `repro.obs.exporters` | |
| `report.DataProvider.scale(name)`, `document(name)` | \
`DataProvider.experiment(name)` | Returns the recording's `Baseline`: \
runs, fingerprint, git sha and metrics; `rows(name)` decodes its rows. |
| `ifls bench --experiment stream`; `run_experiment(name, scale=...)`, \
`run_all(scale=...)` | `--experiment replay`; `REPRO_SCALE` or \
`ifls bench --scale` | The stream replay suite is `replay`; `stream` is \
the fixed perf-gate suite. |
| `repro.bench.regress.zlib_seed` and the stream constants in \
`regress` | `repro.bench.experiments.zlib_seed`, `STREAM_VENUE`, \
`STREAM_FE`, `STREAM_FN`, `STREAM_INITIAL` | Same values. |
| `tools/perf_gate.py`, `benchmarks/record_baseline.py` | \
`ifls perfgate [--record]` | |
| `benchmarks/bench_*.py` (pytest-benchmark), \
`tools/paper_scale_sweep.py` | `ifls perfgate --record --suite fig5` \
(and the other experiment suites), `ifls bench` | Set `REPRO_SCALE` for \
larger client counts. |
| `ServiceConfig.workers`, `ifls serve --workers` | none | A flush \
answers serially on one session. `QuerySession.run(workers=)` \
and `run_batch_parallel` stay for library batches. |
| `VIPDistanceEngine.idist_many(clients, target)` | \
`engine.idist_group(pid, engine.exit_offsets(pid, clients), target)` \
(6.0) | |
| `VIPDistanceEngine.door_to_door_many(a, b)`, \
`KernelPack.d2d_block(a, b)` | \
`pack.F[pack.source_rows(a)[:, None], pack.door_cols(b)]` | Counts \
nothing; `door_to_door` is the counted per-pair call. |
| `VIPDistanceEngine.imind_node_many(p, nodes)` | \
`[engine.imind_node(p, node) for node in nodes]` | |
| `VIPDistanceEngine.point_to_point(a, b)` | \
`DistanceService(venue).point_to_point(a.location, a.partition_id, \
b.location, b.partition_id)` | |

## Migrating to 3.0

3.0 measures every query once.  `measured_query` times each solver
(the efficient objectives, the baseline and the brute-force oracle)
and writes its wall time and distance-counter delta into
`result.stats`; `Engine.query`, `Engine.run`, `QuerySession`, EXPLAIN,
the parallel shards and the query service all read them from there.
A changing crowd is a plain dict of clients answered with
`IFLSEngine.query`.  Each name 3.0 removed, with its replacement:

| Removed in 3.0 | Replacement | Notes |
|---|---|---|
| `DynamicIFLSSession(engine, fs, objective=...)` | a `{client_id: Client}` \
dict plus `engine.query(list(crowd.values()), fs, objective=...)` | \
`add_client`, `add_clients`, `move_client` and `remove_client` become dict \
writes and `del`; `answers_computed` is a counter of your own. \
`Engine.stream(fs)` answers MinMax per arrive/depart/move event instead. |
| `DynamicIFLSSession.evaluate(n)` | `engine.query(crowd, \
FacilitySets(existing, {n}), algorithm="bruteforce").objective` | \
`worst_client_distance()` is the largest `nearest_existing_distance` \
over the crowd. |
| `DynamicIFLSSession.nearest_existing_distance(client_id)` | \
`FacilitySearch(engine.distances, existing).nearest(c)` | Returns \
`(partition, distance)`, or `None` when no existing facility is reachable. |
| `MovingClientSimulator.session` | `MovingClientSimulator.clients` | \
`client_count`, `position_of` and `answer()` are unchanged. |
| `QueryResponse.from_result(result, request, elapsed_seconds=..., \
distance_delta=...)` | `QueryResponse.from_result(result, request)` | Both \
fields are read from `result.stats`. |
| `repro.obs.explain.build_report(records, collector, distance_totals, \
result, ..., cache_entries=...)` | `build_report(records, collector, \
result, ...)` | `distance_totals` and the time are read from \
`result.stats`; set `cache_entries` on the returned report. \
`explain_query` runs a solve and builds its report in one call. |

## Migrating to 2.0

2.0 keeps one per-query value, `QueryRequest`.  `Engine.query`,
`Engine.run`, `QuerySession.run`, `run_batch_parallel` and its worker
shards, and the query service's flush all take it; nothing converts
between spellings any more.  The batch executors check every batch
before a worker starts: an item that is not a `QueryRequest`, or a
request whose `algorithm` is not `"efficient"`, raises `QueryError`.
Each name 2.0 removed, with its replacement:

| Removed in 2.0 | Replacement | Notes |
|---|---|---|
| `BatchQuery(clients, fs, objective=..., label=...)` | \
`QueryRequest(clients, fs, objective=..., label=...)` | Same positional \
`clients, facilities` and keywords. `BatchQuery(..., \
options=EfficientOptions(...))` becomes the flat `prune_clients` / \
`group_by_partition` / `traversal` fields (`use_kernels` until 6.0). |
| `Engine.query(clients, fs, objective=..., ...)` | \
`Engine.query(QueryRequest(clients, fs, objective=..., ...))` | \
`Engine.query` takes exactly one `QueryRequest`; anything else raises \
`QueryError`. `IFLSEngine.query(clients, fs, ...)` is unchanged. |
| `QueryRequest.from_legacy(clients, fs, options=...)` | \
`QueryRequest(clients, fs, ...)` | `EfficientOptions` fields are flat \
`QueryRequest` fields. |
| `QueryRequest.to_batch_query()`, \
`repro.core.request.as_batch_queries(batch)` | pass the `QueryRequest` list \
to the executor | The executors run the batch check themselves \
(`repro.core.session.check_batch`). |
| `repro.core.request.warn_legacy_call` | none | No deprecation shims remain. |
| `repro.api.legacy_facilities(existing, candidates)` | \
`FacilitySets(frozenset(existing), frozenset(candidates))` | |
| `measure_memory=` on `IFLSEngine.query`, `EfficientOptions`, \
`QueryRequest`, `modified_minmax` and `measured_query` | take peak memory in \
a separate `tracemalloc` pass, as the experiment suites do | \
No solver path starts `tracemalloc` any more. |
| `QueryStats.peak_memory_bytes` | `tracemalloc.get_traced_memory()` read \
around the call | Nothing set it once the knob went; `QueryStats.merge` lost \
its max rule with it. |
"""


def summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n")[0].replace("\n", " ").strip()
    return first


def signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"


def iter_modules():
    yield "repro", repro
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda item: item.name,
    ):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield info.name, importlib.import_module(info.name)


def document_module(name: str, module) -> str:
    lines = [f"## `{name}`", ""]
    doc = summary(module)
    if doc:
        lines.append(doc)
        lines.append("")
    members = inspect.getmembers(module)
    classes = []
    functions = []
    for member_name, member in members:
        if member_name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != name:
            continue
        if inspect.isclass(member):
            classes.append((member_name, member))
        elif inspect.isfunction(member):
            functions.append((member_name, member))
    for member_name, cls in classes:
        lines.append(f"### class `{member_name}`")
        lines.append("")
        if summary(cls):
            lines.append(summary(cls))
            lines.append("")
        methods = [
            (method_name, method)
            for method_name, method in inspect.getmembers(
                cls, predicate=inspect.isfunction
            )
            if not method_name.startswith("_")
        ]
        for method_name, method in methods:
            lines.append(
                f"- `{member_name}.{method_name}{signature(method)}` — "
                f"{summary(method) or 'undocumented'}"
            )
        if methods:
            lines.append("")
    for member_name, fn in functions:
        lines.append(
            f"- `{member_name}{signature(fn)}` — "
            f"{summary(fn) or 'undocumented'}"
        )
    if functions:
        lines.append("")
    return "\n".join(lines)


def render() -> str:
    """The whole reference, as ``docs/API.md`` should read."""
    parts = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py`; do not edit by hand.",
        "",
        MIGRATION,
    ]
    for name, module in iter_modules():
        block = document_module(name, module)
        if block.count("\n") > 2:  # skip empty modules
            parts.append(block)
    return "\n".join(parts) + "\n"


def check() -> int:
    """Diff ``OUT`` against a fresh render; 1 when they differ."""
    want = render()
    have = OUT.read_text() if OUT.exists() else ""
    if have == want:
        print(f"{OUT} is up to date")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            have.splitlines(keepends=True),
            want.splitlines(keepends=True),
            fromfile=str(OUT),
            tofile="rendered",
        )
    )
    print(f"{OUT} is stale; run tools/gen_api_docs.py to regenerate it")
    return 1


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="print a diff and exit 1 if docs/API.md is stale",
    )
    if parser.parse_args(argv).check:
        return check()
    OUT.write_text(render())
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
