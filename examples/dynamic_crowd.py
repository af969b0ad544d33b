"""Dynamic crowd: keep the best facility location up to date.

The paper motivates IFLS with "dynamic crowd scenarios (e.g., changing
crowd), where the position a new facility needs to be updated
constantly" (Section 1).  This example simulates a morning in a
shopping centre: shoppers arrive in waves and leave, the crowd is a
plain ``{client_id: Client}`` dict, and one
:meth:`~repro.IFLSEngine.query` re-answers the IFLS query after each
wave on the engine's warm distances.  Each time printed is the
solver's own measurement (``result.stats.elapsed_seconds``).

Run:  python examples/dynamic_crowd.py
"""

import random

from repro import IFLSEngine
from repro.datasets import melbourne_central, real_setting_facilities
from repro.datasets.workloads import uniform_clients

WAVES = 6
ARRIVALS_PER_WAVE = 400
DEPARTURE_RATE = 0.25


def main() -> None:
    venue = melbourne_central()
    engine = IFLSEngine(venue)
    facilities = real_setting_facilities(venue, "fresh food")
    crowd = {}
    rng = random.Random(99)
    next_id = 0

    print("Melbourne Central — fresh-food IFLS over a changing crowd")
    print(f"{'wave':>5} {'crowd':>6} {'answer':>7} "
          f"{'objective':>10} {'seconds':>8}")
    print("-" * 42)

    for wave in range(1, WAVES + 1):
        # Some shoppers leave…
        for client_id in list(crowd):
            if rng.random() < DEPARTURE_RATE:
                del crowd[client_id]
        # …and a new wave arrives.
        arrivals = uniform_clients(
            venue, ARRIVALS_PER_WAVE, rng, start_id=next_id
        )
        next_id += ARRIVALS_PER_WAVE
        crowd.update((client.client_id, client) for client in arrivals)

        result = engine.query(list(crowd.values()), facilities)
        print(
            f"{wave:>5} {len(crowd):>6} {result.answer:>7} "
            f"{result.objective:>8.1f} m "
            f"{result.stats.elapsed_seconds:>7.3f}s"
        )

    cold = engine.query(list(crowd.values()), facilities, cold=True)
    print(
        f"\nSame crowd from a cold engine: "
        f"{cold.stats.elapsed_seconds:.3f}s "
        f"(last warm wave: {result.stats.elapsed_seconds:.3f}s)"
    )


if __name__ == "__main__":
    main()
