"""Independent answers for the answer checks.

Minmax queries are answered by the cold modified-MinMax baseline, the
Section 7 objectives by the brute-force oracle; neither shares code with
the efficient solvers under test.  The checks run after the measured
phase, when nothing is being timed, so they are split over two processes
(the machine has two cores) to keep each run short.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from typing import List, Sequence, Tuple

from . import common

Query = Tuple[str, Sequence, object]

#: The helper has printed its answers when this wait starts.
HELPER_TIMEOUT_S = 30.0


def objectives(engine, queries: Sequence[Query]) -> List[float]:
    """Reference objective of each ``(objective, clients, facilities)``
    on an :class:`~repro.core.queries.IFLSEngine`."""
    out = []
    for objective, clients, facilities in queries:
        if objective == "minmax":
            result = engine.query(
                clients, facilities, algorithm="baseline", cold=True
            )
        else:
            result = engine.query(
                clients, facilities, objective=objective,
                algorithm="bruteforce",
            )
        out.append(result.objective)
    return out


def corrupted(values: List[float]) -> List[float]:
    """``values`` with the first one made wrong: the test hook that
    proves a mismatch fails the run."""
    return [values[0] * 1.5 + 1.0] + list(values[1:])


def split_objectives(
    engine, venue_name: str, queries: Sequence[Query]
) -> List[float]:
    """:func:`objectives` with the first half answered by a helper
    process on its own engine over the same venue."""
    half = len(queries) // 2
    helper = subprocess.Popen(
        [sys.executable, "-m", "iflsbench.reference", venue_name],
        cwd=common.ROOT,
        env=common.program_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        with helper.stdin:
            helper.stdin.write(pickle.dumps(list(queries[:half])))
        second = objectives(engine, queries[half:])
        with helper.stdout:
            out = helper.stdout.read()
        helper.wait(HELPER_TIMEOUT_S)
    finally:
        if helper.poll() is None:
            helper.kill()
            helper.wait()
    if helper.returncode != 0:
        raise common.BenchError(
            f"reference helper exited {helper.returncode}"
        )
    return json.loads(out) + second


def main() -> int:
    """Helper side: pickled queries on stdin (written by
    :func:`split_objectives`), their reference objectives as JSON on
    stdout."""
    data = sys.stdin.buffer.read()
    from repro import IFLSEngine
    from repro.datasets.venues import venue_by_name

    queries = pickle.loads(data)
    engine = IFLSEngine(venue_by_name(sys.argv[1]))
    json.dump(objectives(engine, queries), sys.stdout)
    return 0


if __name__ == "__main__":
    common.use_program_sources()
    sys.exit(main())
