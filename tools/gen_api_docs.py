#!/usr/bin/env python
"""Generate docs/API.md — a reference of the public API.

Walks the ``repro`` package, collects public modules, classes, and
functions with their signatures and docstring summaries, and writes a
markdown reference.  Run after changing public surfaces::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parents[1] / "docs" / "API.md"

# Hand-maintained prose sections are authored HERE (the output file
# is generated; edits to docs/API.md are overwritten).
MIGRATION = """\
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
`group_by_partition` / `traversal` / `use_kernels` fields. |
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
a separate `tracemalloc` pass, as `repro.bench.measure.measure_query` does | \
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


def main() -> None:
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
    OUT.write_text("\n".join(parts) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
