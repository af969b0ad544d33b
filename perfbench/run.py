"""IFLS benchmark: one command runs a workload and prints its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-minmax --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``cold-minmax``, ``service-objectives``, ``stream-churn``
(see ``perfbench/README.md`` for why each exists and which layer
metric should move which end-to-end metric).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` a separate traced run's per-layer
metrics.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each workload replays a fixed op count, so every run and every commit
times the same ops; ``--seconds`` is the nominal length of that
measured phase and is printed beside the measured wall time.
"""

from __future__ import annotations

import argparse
import compileall
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from iflsbench import common, library, service  # noqa: E402

WORKLOADS = {
    "cold-minmax": library.run,
    "service-objectives": service.run,
    "stream-churn": library.run,
}

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run, in BENCHMARK.json order.  A
#: metric of a layer the workload does not run reads 0.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.venue_s", "s"),
    ("setup.index_build_s", "s"),
    ("setup.kernel_pack_s", "s"),
    ("setup.warmup_s", "s"),
    ("setup.server_ready_s", "s"),
    ("solve.minmax_ms", "ms"),
    ("solve.queue_pops", "count"),
    ("solve.iterations", "count"),
    ("solve.facilities_retrieved", "count"),
    ("solve.candidates_considered", "count"),
    ("solve.pruned_frac", "ratio"),
    ("solve.mindist_ms", "ms"),
    ("solve.maxsum_ms", "ms"),
    ("dist.computations", "count"),
    ("dist.idist_calls", "count"),
    ("dist.imind_calls", "count"),
    ("dist.imind_node_calls", "count"),
    ("dist.d2d_lookups", "count"),
    ("dist.kernel_batches", "count"),
    ("dist.cache_hit_ratio", "ratio"),
    ("session.open_ms", "ms"),
    ("session.cache_entries", "count"),
    ("session.cache_hit_ratio", "ratio"),
    ("service.transport_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.batch_size", "count"),
    ("service.pool_sessions", "count"),
    ("pool.cache_bytes", "bytes"),
    ("stream.skip_ms", "ms"),
    ("stream.partial_ms", "ms"),
    ("stream.full_ms", "ms"),
    ("stream.skips", "count"),
    ("stream.partial_solves", "count"),
    ("stream.full_recomputes", "count"),
    ("stream.reevaluation_ratio", "ratio"),
    ("stream.solve_wall_frac", "ratio"),
    ("baseline.solve_ms", "ms"),
    ("baseline.speedup", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("self.startup_s", "s"),
    ("self.bench_s", "s"),
    ("self.session_s", "s"),
    ("self.solver_s", "s"),
    ("self.baseline_s", "s"),
    ("self.stream_s", "s"),
    ("self.service_s", "s"),
    ("self.transport_s", "s"),
)

#: Which layer's self time each span counts toward.
SPAN_LAYER = {
    "setup.import": "startup",
    "setup.venue": "startup",
    "setup.index_build": "startup",
    "setup.kernel_pack": "startup",
    "setup.engine": "startup",
    "setup.warmup": "startup",
    "setup.server_ready": "startup",
    "op": "bench",
    "session.open": "session",
    "solve.minmax": "solver",
    "solve.mindist": "solver",
    "solve.maxsum": "solver",
    "baseline.solve": "baseline",
    "stream.apply": "stream",
    "stream.base": "stream",
    "server": "service",
    "request": "transport",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hooks: tiny op counts, and a corrupted reference answer that
    # must fail the run.
    parser.add_argument("--smoke", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--wrong-reference", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _end_to_end(result) -> dict:
    summary = common.latency_summary(result["latencies"])
    attempted = len(result["latencies"])
    completed = attempted - result["failed"]
    return {
        "setup_s": common.median(result["setup_samples"]),
        "latency_p50_ms": summary["p50_ms"],
        "latency_tail_ms": summary["tail_ms"],
        "throughput_ops_s": (
            completed / result["wall"] if result["wall"] > 0 else 0.0
        ),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _per_layer(result) -> dict:
    layers = {name: 0.0 for name, _ in PER_LAYER}
    for name, value in result["layers"].items():
        if name in layers:
            layers[name] = value
    self_times = result["self_times"]
    for span, seconds in self_times.items():
        key = "self." + SPAN_LAYER.get(span, "bench") + "_s"
        layers[key] += seconds
    for step in ("import", "venue", "index_build", "kernel_pack",
                 "warmup", "server_ready"):
        layers[f"setup.{step}_s"] = result["span_totals"].get(
            f"setup.{step}", 0.0
        )
    untraced = len(result["latencies"]) / result["untraced_wall"]
    traced = len(result["latencies"]) / result["wall"]
    layers["trace.overhead_frac"] = (untraced - traced) / untraced
    return layers


def _print_report(args, result, metrics, before, after) -> None:
    view = result["view"]
    summary = common.latency_summary(result["latencies"])
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"inputs: venue {view['venue']} partitions {view['partitions']} "
        f"doors {view['doors']} digest {result['digest']}"
    )
    print(
        f"ops: attempted {len(result['latencies'])} failed "
        f"{result['failed']} (answer mismatches {result['mismatches']})"
    )
    print(
        f"latency: p50 {summary['p50_ms']:.3f} ms, tail "
        f"p{summary['tail_p']:g} {summary['tail_ms']:.3f} ms "
        f"({summary['beyond']} ops beyond, {summary['ops']} samples)"
    )
    for line in common.class_lines(result["classes"]):
        print(line)
    print(
        "setup samples (s): "
        + " ".join(f"{s:.4f}" for s in result["setup_samples"])
    )
    print(
        f"measured wall {result['wall']:.3f} s "
        f"(nominal {args.seconds} s)"
    )
    if "trace_file" in result:
        print(f"trace: {result['trace_file']}")
        for name, value in result["layers"].items():
            if name not in metrics:
                print(f"  ({name} {value})")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g}")
    print(
        f"drift probe (fixed stdlib loop): before {before:.3f} ms, "
        f"after {after:.3f} ms"
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.program_present():
        print(
            f"error: no program sources at {common.SRC}; run from a "
            f"full checkout",
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds through the finally blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compileall.compile_dir(str(common.SRC), quiet=1)
    before = common.drift_probe()
    try:
        result = WORKLOADS[args.workload](args.workload, args)
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    after = common.drift_probe()
    if args.trace:
        metrics = _per_layer(result)
        units = dict(PER_LAYER)
    else:
        metrics = _end_to_end(result)
        units = dict(END_TO_END)
    _print_report(args, result, metrics, before, after)
    correct = result["failed"] == 0 and result["mismatches"] == 0
    print(
        common.result_line(
            correct,
            len(result["latencies"]),
            result["failed"],
            {name: (value, units[name]) for name, value in metrics.items()},
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
