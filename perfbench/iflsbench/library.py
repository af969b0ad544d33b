"""The two library workloads, ``cold-minmax`` and ``stream-churn``.

Each run starts the program in fresh worker processes
(``python -m iflsbench.library``): ``setups - 1`` processes that only
start up, then one that starts up and replays the workload's fixed op
sequence.  The parent side (:func:`run`) spawns them and turns their
reports into metrics; the worker side (:func:`main`) is the only code
that imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List

from . import common, reference
from .common import WIRE, BenchError, Tracer, median
from .inputs import Digest, VenueView, churn_events, crowd, facility_draw
from .inputs import stream_rng


@dataclass(frozen=True)
class Config:
    venue: str
    ops: int
    setups: int
    clients: int = 0
    warmup_ops: int = 0
    base: int = 0
    streams: int = 1
    existing: int = 75
    candidates: int = 150


#: Table 2 defaults |C| = 2000, |Fe| = 75, |Fn| = 150 on MC.
COLD_MINMAX = Config(
    venue="MC", ops=100, setups=5, clients=2000, warmup_ops=3
)
#: 32 resident streams on MZB, each over its own facility draw with a
#: 30-client base crowd, fed one interleaved sequence of 20% arrive /
#: 10% depart / 70% move events.  Solve-tier events are rare and their
#: count and cost depend on the facility draw: with one stream and a
#: 2000-client crowd the solve tiers fired 0-4 times per 3000 events
#: (measured over six seeds), so neither the tail nor the throughput
#: was steady.  Small crowds make solves frequent (about 370 full
#: recomputes per run) and 32 draws average their cost.
STREAM_CHURN = Config(
    venue="MZB", ops=9600, setups=3, base=30, streams=32
)

CONFIGS = {"cold-minmax": COLD_MINMAX, "stream-churn": STREAM_CHURN}
SMOKE = {
    "cold-minmax": replace(
        COLD_MINMAX, ops=20, setups=1, clients=300, warmup_ops=1
    ),
    "stream-churn": replace(
        STREAM_CHURN, ops=320, setups=1, base=20, streams=2
    ),
}

WORKER_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _spawn(workload: str, role: str, args) -> Dict:
    cmd = [
        sys.executable, "-m", "iflsbench.library",
        "--workload", workload, "--role", role,
        "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=common.ROOT,
        env=common.program_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {role} worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    messages = {}
    for line in out.splitlines():
        if line.startswith(WIRE):
            message = json.loads(line[len(WIRE):])
            messages[message["kind"]] = message
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or "ready" not in messages:
        raise BenchError(
            f"{workload} {role} worker exited {proc.returncode}"
        )
    ready = messages["ready"]
    messages["setup_s"] = ready["mono"] - spawned - ready["gen_s"]
    return messages


def run(workload: str, args) -> Dict:
    """One run of a library workload; returns the report dict that
    ``run.py`` prints."""
    cfg = (SMOKE if args.smoke else CONFIGS)[workload]
    setup_samples = []
    if not args.trace:
        for _ in range(cfg.setups - 1):
            setup_samples.append(_spawn(workload, "setup", args)["setup_s"])
    messages = _spawn(workload, "measure", args)
    setup_samples.append(messages["setup_s"])
    result = messages["result"]
    result["setup_samples"] = setup_samples
    return result


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _emit(kind: str, **fields) -> None:
    fields["kind"] = kind
    print(WIRE + json.dumps(fields), flush=True)


def _open_engine(cfg: Config, tracer):
    """Start the program: ``open_venue`` untraced, or its steps as
    separately timed calls when tracing."""
    if tracer is None:
        import repro

        return repro.open_venue(cfg.venue)
    with tracer.span("setup.import"):
        import repro
        from repro.api import Engine
        from repro.datasets.venues import venue_by_name
        from repro.index import kernels

    with tracer.span("setup.venue"):
        venue = venue_by_name(cfg.venue)
    with tracer.span("setup.index_build"):
        tree = repro.VIPTree(venue)
    with tracer.span("setup.kernel_pack"):
        if kernels.default_enabled():
            tree.kernels()
    with tracer.span("setup.engine"):
        return Engine(repro.IFLSEngine(venue, tree=tree))


def _reference(engine, clients, facilities) -> float:
    """Independent answer of one minmax op."""
    return reference.objectives(
        engine.core, [("minmax", clients, facilities)]
    )[0]


def _add_solver_stats(stats, into: Dict) -> None:
    """Accumulate the solver counters of one solve."""
    for key, value in (
        ("solve.queue_pops", stats.queue_pops),
        ("solve.iterations", stats.iterations),
        ("solve.facilities_retrieved", stats.facilities_retrieved),
        ("solve.candidates_considered",
         stats.candidate_answers_considered),
        ("clients_pruned", stats.clients_pruned),
        ("clients_total", stats.clients_total),
    ):
        into[key] = into.get(key, 0) + value


def _solver_metrics(counts: Dict) -> Dict[str, float]:
    metrics = {
        key: counts.get(key, 0)
        for key in (
            "solve.queue_pops",
            "solve.iterations",
            "solve.facilities_retrieved",
            "solve.candidates_considered",
        )
    }
    total = counts.get("clients_total", 0)
    metrics["solve.pruned_frac"] = (
        counts.get("clients_pruned", 0) / total if total else 0.0
    )
    return metrics


class Pass:
    """One replay of the op sequence: per-op latency and answer, plus
    the program's counters when the pass is traced."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.answers: List = []
        self.solver: Dict[str, int] = {}
        self.dist: Dict[str, int] = {}
        self.solve_s: List[float] = []
        self.entries: List[int] = []

    def failed(self, marker) -> None:
        """An op that raised: it misses every latency limit and its
        answer is ``marker``, which no check accepts."""
        traceback.print_exc(file=sys.stderr)
        self.latencies.append(math.inf)
        self.answers.append(marker)


def _interleave(index: int, plain, traced) -> None:
    """Run an op untraced and traced, alternating which goes first, so
    warm-up and machine drift weigh on both passes alike."""
    first, second = (plain, traced) if index % 2 else (traced, plain)
    first()
    second()


class ColdMinMax:
    """One closed-loop caller; each op answers one efficient MinMax
    request on a fresh session, so every distance memo starts cold."""

    def __init__(self, cfg: Config, seed: int, tracer) -> None:
        self.cfg = cfg
        self.seed = seed
        self.engine = _open_engine(cfg, tracer)
        from repro import QueryRequest

        started = time.perf_counter()
        self.view = VenueView(self.engine.venue)
        warmup = [
            QueryRequest(*self._inputs("warmup", i))
            for i in range(cfg.warmup_ops)
        ]
        self.gen_s = time.perf_counter() - started
        with tracer.span("setup.warmup") if tracer else nullcontext():
            for request in warmup:
                self.engine.session().run([request])

    def _inputs(self, phase: str, index: int):
        rng = stream_rng(self.seed, "cold-minmax", phase, index)
        clients = crowd(rng, self.view, self.cfg.clients)
        facilities = facility_draw(
            rng, self.view, self.cfg.existing, self.cfg.candidates
        )
        return clients, facilities

    def _plain(self, request, out: Pass) -> None:
        try:
            started = time.perf_counter()
            session = self.engine.session()
            result = session.run([request])[0]
            out.latencies.append(time.perf_counter() - started)
            out.answers.append(result.objective)
        except Exception:  # noqa: BLE001 - a failed op is counted
            out.failed(math.nan)

    def _traced(self, index: int, request, out: Pass, tracer) -> None:
        try:
            with tracer.span("op", index=index):
                with tracer.span("session.open"):
                    session = self.engine.session()
                with tracer.span("solve.minmax"):
                    result = session.run([request])[0]
            out.latencies.append(tracer.last())
            out.answers.append(result.objective)
            report = session.report()
            _add_solver_stats(result.stats, out.solver)
            for key, value in report.totals.items():
                out.dist[key] = out.dist.get(key, 0) + value
            out.entries.append(report.cache_entries)
        except Exception:  # noqa: BLE001 - a failed op is counted
            out.failed(math.nan)

    def measure(self, tracer=None):
        """Replay every op; inputs are generated between ops, outside
        the per-op timing.  Traced, each op also runs untraced and its
        baseline reference is timed."""
        from repro import QueryRequest

        digest = Digest(self.view)
        plain, traced = Pass(), Pass()
        references: List[float] = []
        for index in range(self.cfg.ops):
            clients, facilities = self._inputs("op", index)
            digest.clients(clients)
            digest.facilities(facilities)
            request = QueryRequest(clients=clients, facilities=facilities)
            if tracer is None:
                self._plain(request, plain)
                continue
            _interleave(
                index,
                lambda: self._plain(request, plain),
                lambda: self._traced(index, request, traced, tracer),
            )
            with tracer.span("baseline.solve"):
                references.append(
                    _reference(self.engine, clients, facilities)
                )
        return plain, traced, references, digest.hexdigest()

    def references(self) -> List[float]:
        return reference.split_objectives(
            self.engine.core,
            self.cfg.venue,
            [
                ("minmax",) + self._inputs("op", index)
                for index in range(self.cfg.ops)
            ],
        )


class StreamChurn:
    """One serial caller feeding resident continuous queries, each
    ``Engine.stream(facilities, warm_session=True)`` over its own
    facility draw: base crowds arrive during set-up, then each op
    applies the next event of one fixed seeded, interleaved feed."""

    def __init__(self, cfg: Config, seed: int, tracer) -> None:
        self.cfg = cfg
        self.engine = _open_engine(cfg, tracer)
        started = time.perf_counter()
        self.view = VenueView(self.engine.venue)
        self.facilities, self.base, feeds = [], [], []
        for index in range(cfg.streams):
            rng = stream_rng(seed, "stream-churn", index)
            self.facilities.append(
                facility_draw(rng, self.view, cfg.existing, cfg.candidates)
            )
            base, events = churn_events(
                rng, self.view, cfg.base, cfg.ops // cfg.streams
            )
            self.base.append(base)
            feeds.append(events)
        #: (stream index, event) in feed order: round-robin.
        self.events = [
            (index, feed[k])
            for k in range(cfg.ops // cfg.streams)
            for index, feed in enumerate(feeds)
        ]
        self.gen_s = time.perf_counter() - started
        with tracer.span("setup.warmup") if tracer else nullcontext():
            self.streams = self._open(tracer)

    def _open(self, tracer):
        streams = []
        for facilities, base in zip(self.facilities, self.base):
            with tracer.span("session.open") if tracer else nullcontext():
                stream = self.engine.stream(facilities, warm_session=True)
            with tracer.span("stream.base") if tracer else nullcontext():
                stream.apply_batch(base)
            streams.append(stream)
        return streams

    def digest(self) -> str:
        digest = Digest(self.view)
        for facilities, base in zip(self.facilities, self.base):
            digest.facilities(facilities)
            digest.events(base)
        for index, event in self.events:
            digest.add(f"s {index}")
            digest.events([event])
        return digest.hexdigest()

    @staticmethod
    def _counters(streams):
        stats: Dict[str, int] = {}
        totals: Dict[str, int] = {}
        for stream in streams:
            for key, value in vars(stream.stats).items():
                stats[key] = stats.get(key, 0) + value
            for key, value in stream.session.report().totals.items():
                totals[key] = totals.get(key, 0) + value
        return stats, totals

    @staticmethod
    def _plain(stream, event, out: Pass) -> None:
        try:
            started = time.perf_counter()
            answer = stream.apply(event)
            out.latencies.append(time.perf_counter() - started)
            out.answers.append(answer.mode)
        except Exception:  # noqa: BLE001 - a failed op is counted
            out.failed("failed")

    @staticmethod
    def _traced(stream, event, out: Pass, tracer) -> None:
        try:
            with tracer.span("op"):
                with tracer.span("stream.apply") as attrs:
                    answer = stream.apply(event)
                attrs["mode"] = answer.mode
            out.latencies.append(tracer.last())
            out.answers.append(answer.mode)
            if answer.mode in ("partial", "full"):
                stats = stream.result().stats
                out.solve_s.append(stats.elapsed_seconds)
                _add_solver_stats(stats, out.solver)
        except Exception:  # noqa: BLE001 - a failed op is counted
            out.failed("failed")

    def measure(self, tracer=None):
        """Replay every event.  Traced, a second set of streams opened
        the same way replays each event beside the untraced set; returns
        ``(untraced pass, (traced pass, tier counts, final answers))``."""
        plain, traced = Pass(), Pass()
        if tracer is None:
            for index, event in self.events:
                self._plain(self.streams[index], event, plain)
            return plain, None
        shadow = self._open(tracer)
        before = self._counters(shadow)
        for k, (index, event) in enumerate(self.events):
            _interleave(
                k,
                lambda: self._plain(self.streams[index], event, plain),
                lambda: self._traced(shadow[index], event, traced, tracer),
            )
        after = self._counters(shadow)
        traced.dist = {
            key: value - before[1].get(key, 0)
            for key, value in after[1].items()
        }
        traced.entries = [s.session.cache_entries for s in shadow]
        counts = {k: v - before[0][k] for k, v in after[0].items()}
        finals = [s.answer().objective for s in shadow]
        return plain, (traced, counts, finals)

    def references(self) -> List[float]:
        """From-scratch answers over each stream's final crowd."""
        return [
            _reference(self.engine, stream.clients, facilities)
            for stream, facilities in zip(self.streams, self.facilities)
        ]


def _check(answers, references, wrong_reference: bool) -> List[int]:
    """Indices of ops whose answer differs from the reference."""
    if wrong_reference:
        references = reference.corrupted(references)
    return [
        i
        for i, (got, want) in enumerate(zip(answers, references))
        if not common.same_value(got, want)
    ]


def _mark_failed(latencies: List[float], bad) -> int:
    """Ops with a wrong answer miss every latency limit; returns the
    number of failed ops (raised or wrong)."""
    for index in bad:
        latencies[index] = math.inf
    return sum(1 for value in latencies if value == math.inf)


def _cold_minmax(cfg, args, tracer) -> Dict:
    bench = ColdMinMax(cfg, args.seed, tracer)
    _emit("ready", mono=time.monotonic(), gen_s=bench.gen_s)
    if args.role == "setup":
        return {}
    out = {"view": bench.view.describe()}
    plain, traced, references, digest = bench.measure(tracer)
    if tracer is None:
        out["peak_rss_mb"] = common.peak_rss_mb()
        references = bench.references()
        bad = _check(plain.answers, references, args.wrong_reference)
        main = plain
    else:
        bad = sorted(
            set(_check(plain.answers, references, args.wrong_reference))
            | set(_check(traced.answers, references,
                         args.wrong_reference))
        )
        main = traced
        out["untraced_wall"] = sum(plain.latencies)
        solve = tracer.durations("solve.minmax")
        baseline = tracer.durations("baseline.solve")
        layers = _solver_metrics(traced.solver)
        layers.update(common.dist_metrics(traced.dist))
        layers.update(
            {
                "solve.minmax_ms": median(solve) * 1e3,
                "session.open_ms": median(
                    tracer.durations("session.open")
                ) * 1e3,
                "session.cache_entries": median(traced.entries),
                "baseline.solve_ms": median(baseline) * 1e3,
                "baseline.speedup": median(baseline) / median(solve),
            }
        )
        out["layers"] = layers
    out.update(
        failed=_mark_failed(main.latencies, bad),
        mismatches=len(bad),
        latencies=main.latencies,
        classes={"minmax": main.latencies},
        wall=sum(main.latencies),
        digest=digest,
    )
    return out


def _stream_layers(traced: Pass, counts: Dict, tracer) -> Dict[str, float]:
    by_mode: Dict[str, List[float]] = {}
    for span in tracer.spans:
        if span[2] == "stream.apply":
            by_mode.setdefault(span[5].get("mode"), []).append(
                span[4] - span[3]
            )
    solve_wall = sum(by_mode.get("partial", [])) + sum(
        by_mode.get("full", [])
    )
    events = counts["events"]
    layers = _solver_metrics(traced.solver)
    layers.update(common.dist_metrics(traced.dist))
    layers.update(
        {
            "solve.minmax_ms": median(traced.solve_s) * 1e3,
            "session.open_ms": median(tracer.durations("session.open"))
            * 1e3,
            "session.cache_entries": sum(traced.entries),
            "stream.skip_ms": median(by_mode.get("skip", [])) * 1e3,
            "stream.partial_ms": median(by_mode.get("partial", [])) * 1e3,
            "stream.full_ms": median(by_mode.get("full", [])) * 1e3,
            "stream.skips": counts["skips"],
            "stream.partial_solves": counts["partial_solves"],
            "stream.full_recomputes": counts["full_recomputes"],
            "stream.reevaluation_ratio": (
                counts["groups_reevaluated"] / events if events else 0.0
            ),
            "stream.solve_wall_frac": solve_wall / sum(traced.latencies),
        }
    )
    return layers


def _stream_churn(cfg, args, tracer) -> Dict:
    bench = StreamChurn(cfg, args.seed, tracer)
    _emit("ready", mono=time.monotonic(), gen_s=bench.gen_s)
    if args.role == "setup":
        return {}
    out = {"digest": bench.digest(), "view": bench.view.describe()}
    plain, shadow = bench.measure(tracer)
    finals = [s.answer().objective for s in bench.streams]
    main = plain
    if tracer is None:
        out["peak_rss_mb"] = common.peak_rss_mb()
    else:
        main, counts, shadow_finals = shadow
        finals += shadow_finals
        out["untraced_wall"] = sum(plain.latencies)
        out["layers"] = _stream_layers(main, counts, tracer)
    references = bench.references()
    bad = _check(
        finals,
        references * (len(finals) // len(references)),
        args.wrong_reference,
    )
    latencies = main.latencies
    classes: Dict[str, List[float]] = {}
    for mode, latency in zip(main.answers, latencies):
        classes.setdefault(mode, []).append(latency)
    out.update(
        # A wrong final answer fails the last op: it returned it.
        failed=_mark_failed(latencies, [len(latencies) - 1] if bad else []),
        mismatches=len(bad),
        latencies=latencies,
        classes=classes,
        wall=sum(latencies),
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="iflsbench.library")
    parser.add_argument("--workload", choices=sorted(CONFIGS))
    parser.add_argument("--role", choices=("setup", "measure"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args(argv)
    cfg = (SMOKE if args.smoke else CONFIGS)[args.workload]
    tracer = Tracer() if args.trace else None
    runner = {
        "cold-minmax": _cold_minmax, "stream-churn": _stream_churn
    }[args.workload]
    result = runner(cfg, args, tracer)
    if args.role == "measure":
        if tracer is not None:
            path = common.OUT / (
                f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
            tracer.write(path)
            result["trace_file"] = str(path.relative_to(common.ROOT))
            result["self_times"] = tracer.self_times()
            result["span_totals"] = tracer.totals()
        _emit("result", **result)
    return 0


if __name__ == "__main__":
    common.use_program_sources()
    sys.exit(main())
