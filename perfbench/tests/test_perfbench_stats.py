"""Tail selection, per-class printout and the result line."""

import json
import math

import pytest

from iflsbench import common


@pytest.mark.parametrize(
    "ops, expected",
    [
        (20, 50.0),      # p50 leaves exactly 10 ops beyond
        (39, 50.0),      # p75 would leave 9
        (40, 75.0),
        (100, 90.0),     # the cold-minmax op count
        (120, 90.0),     # service-objectives: p95 leaves 6
        (200, 95.0),
        (8000, 99.8),    # stream-churn: p99.8 leaves 16, p99.9 leaves 8
        (100000, 99.99),
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(ops, expected):
    chosen = common.tail_percentile(ops)
    assert chosen == expected
    assert ops - common.nearest_rank(chosen, ops) >= common.MIN_BEYOND
    higher = [p for p in common.TAIL_LADDER if p > chosen]
    for p in higher:
        assert ops - common.nearest_rank(p, ops) < common.MIN_BEYOND


def test_too_few_ops_have_no_tail():
    with pytest.raises(ValueError):
        common.tail_percentile(19)


def test_latency_summary_reads_nearest_rank_values():
    latencies = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    summary = common.latency_summary(latencies)
    assert summary["p50_ms"] == pytest.approx(50.0)
    assert summary["tail_p"] == 90.0
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["beyond"] == 10


def test_failed_ops_miss_every_latency_limit():
    latencies = [0.001] * 80 + [math.inf] * 20
    summary = common.latency_summary(latencies)
    assert summary["tail_ms"] == math.inf
    line = json.loads(
        common.result_line(
            False, 100, 20, {"latency_tail_ms": (summary["tail_ms"], "ms")}
        )
    )
    assert math.isfinite(line["metrics"]["latency_tail_ms"]["value"])


def test_class_lines_print_count_and_p50_per_class():
    lines = common.class_lines(
        {"skip": [0.0001, 0.0002, 0.0003], "full": [0.5]}
    )
    assert lines == [
        "  class full       ops      1  p50    500.000 ms",
        "  class skip       ops      3  p50      0.200 ms",
    ]


def test_result_line_has_exactly_the_contract_keys():
    line = json.loads(
        common.result_line(True, 7, 0, {"setup_s": (1.25, "s")})
    )
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["metrics"] == {"setup_s": {"value": 1.25, "unit": "s"}}


def test_self_time_subtracts_children():
    tracer = common.Tracer()
    parent = tracer.add("op", 0.0, 1.0)
    tracer.add("solve.minmax", 0.2, 0.9, parent)
    own = tracer.self_times()
    assert own["op"] == pytest.approx(0.3)
    assert own["solve.minmax"] == pytest.approx(0.7)
    assert tracer.totals()["op"] == pytest.approx(1.0)
