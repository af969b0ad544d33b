"""``ifls bench``: print one run of the paper's experiments.

Usage (also exposed as ``python -m repro bench``)::

    python -m repro bench --experiment fig7 --scale small
    python -m repro bench --experiment all --out bench_results/

A measured experiment is one run of its perf-gate suite
(:data:`repro.bench.regress.SUITES`), read back into rows through the
metric schema the suite records, and printed as the paper's figure
reports it: one line per parameter value, efficient vs baseline, with
speedups.  ``--out`` also writes the rows as CSV.  Nothing here
measures; ``ifls perfgate --record`` stores a suite's medians.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import regress
from .experiments import Row, current_scale
from .plots import plot_rows
from .reporting import format_series, summarize_speedups, write_csv
from .tables import format_table1, format_table2

#: Measured experiments: the suite each prints, and its title.
#: Figures 7 and 8 are the time and memory views of one suite.
_EXPERIMENTS = {
    "fig5": ("fig5", "Figure 5: effect of |C| (real setting, MC)"),
    "fig6": ("fig6", "Figure 6: effect of sigma (real + synthetic)"),
    "fig7": ("fig78", "Figure 7: |C|, |Fe|, |Fn| vs time (synthetic)"),
    "fig8": ("fig78", "Figure 8: |C|, |Fe|, |Fn| vs memory (synthetic)"),
    "ablation": ("ablation", "Ablations: efficient-approach variants"),
    "extensions": (
        "extensions", "Extensions: MinDist / MaxSum (Section 7)",
    ),
    "parallel": (
        "parallel", "Parallel batch executor: wall-clock vs workers",
    ),
    "replay": (
        "replay", "Continuous IFLS: incremental vs oracle replay",
    ),
}

ALL_EXPERIMENTS = ("table1", "table2") + tuple(_EXPERIMENTS)


def run_experiment(
    name: str,
    out_dir: Optional[Path] = None,
    echo=print,
    suite_rows: Optional[Dict[str, List[Row]]] = None,
) -> List[Row]:
    """Print one experiment; optionally persist its rows as CSV.

    ``suite_rows`` carries rows already printed from a suite run, so
    Figures 7 and 8 share one run of ``fig78``.
    """
    if name == "table1":
        echo(format_table1())
        return []
    if name == "table2":
        echo(format_table2())
        return []
    try:
        suite, title = _EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {ALL_EXPERIMENTS}"
        ) from None
    suite_rows = suite_rows if suite_rows is not None else {}
    if suite not in suite_rows:
        suite_rows[suite] = regress.metric_rows(regress.run_suite(suite))
    rows = suite_rows[suite]
    metric = "memory" if name == "fig8" else "time"
    echo(format_series(
        rows, metric=metric,
        title=f"{title} [scale={current_scale().name}]",
    ))
    if name == "parallel":
        serial = next((row for row in rows if row.value == 1), None)
        _echo_ratios(
            "Scaling vs 1 worker (same batch, identical answers):",
            [(f"workers={row.value:g}", serial, row) for row in rows],
            echo,
        )
    elif name == "replay":
        oracle = {r.value: r for r in rows if r.algorithm == "oracle"}
        _echo_ratios(
            "Speedup (incremental over per-event recompute, identical "
            "final answers):",
            [
                (f"events={row.value:g}", oracle.get(row.value), row)
                for row in rows
                if row.algorithm == "incremental"
            ],
            echo,
        )
    if name.startswith("fig"):
        echo("")
        echo(plot_rows(rows, metric=metric))
    if name in ("fig5", "fig6"):
        echo("")
        echo(format_series(rows, metric="memory",
                           title=f"{title} — memory view"))
    speedups = summarize_speedups(rows)
    if speedups:
        echo("")
        echo("Speedup summary (efficient over baseline, time):")
        for label, (mean, peak) in sorted(speedups.items()):
            echo(f"  {label:<40} mean {mean:6.2f}x   max {peak:6.2f}x")
    if out_dir is not None and rows:
        csv_path = Path(out_dir) / f"{name}.csv"
        write_csv(rows, csv_path)
        echo(f"\nwrote {csv_path}")
    return rows


def _echo_ratios(title: str, pairs, echo) -> None:
    """``(label, reference row, row)`` time ratios, one line each."""
    echo("")
    echo(title)
    for label, base, row in pairs:
        if base is not None and row.time_seconds > 0:
            echo(
                f"  {label:<12} {row.time_seconds:8.3f}s   "
                f"{base.time_seconds / row.time_seconds:5.2f}x"
            )


def run_all(
    out_dir: Optional[Path] = None,
    experiments: Sequence[str] = ALL_EXPERIMENTS,
    echo=print,
) -> Dict[str, List[Row]]:
    """Print every experiment; Figures 7 and 8 share one suite run."""
    suite_rows: Dict[str, List[Row]] = {}
    results: Dict[str, List[Row]] = {}
    for name in experiments:
        echo(f"\n{'#' * 70}\n# {name}\n{'#' * 70}")
        results[name] = run_experiment(
            name, out_dir=out_dir, echo=echo, suite_rows=suite_rows
        )
    return results
