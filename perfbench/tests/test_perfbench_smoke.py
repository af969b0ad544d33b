"""Short runs of every workload through the real command line.

``--smoke`` shrinks the op counts; everything else (processes, server,
answer checks, result line) is the full path.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)


def _run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--smoke", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, result = _run(workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 20
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.END_TO_END
    )
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "inputs: venue" in proc.stdout and "digest" in proc.stdout
    assert "drift probe" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc, result = _run(workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        run.PER_LAYER
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_the_run(workload):
    proc, result = _run(workload, "--trace", "0", "--wrong-reference")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_same_seed_prints_same_digest():
    digests = [
        line
        for _ in range(2)
        for line in _run("stream-churn", "--trace", "0")[0].stdout.splitlines()
        if line.startswith("inputs:")
    ]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_checkout_without_program_fails_fast():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        BENCH, bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "cold-minmax", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
