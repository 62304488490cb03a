"""Host seconds that mean the same on a noisy host: a speed probe.

The sandbox this benchmark was built on runs the *same* pass 1.5x
slower for tens of seconds at a time (co-tenants; user CPU time moves
with wall time), then recovers.  A median of three passes does not
remove phases longer than a run, so host times are measured against a
fixed probe instead: a few tens of milliseconds of interpreter and
numpy work that does not touch the code under test.  The timed window
is cut into segments; the clock stops at each boundary, the probe
runs, and each segment's wall time is rescaled by how fast the probe
ran on either side of it.

The result is in **reference seconds**: the time the work would have
taken with the host at the speed where ``probe()`` takes
``REFERENCE_PROBE_S``.  That constant is this sandbox's quiet-state
reading; on another host it is only a scale factor, and it must not
change once results are being compared.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

REFERENCE_PROBE_S = 0.040

# 16 MB, gathered and scattered at random: like the simulator's mapping
# and FTL tables, it does not fit the private caches.
_TABLE = np.zeros(2_000_000, dtype=np.int64)
_INDEX = np.random.default_rng(0).integers(0, len(_TABLE), size=100_000)


def probe() -> float:
    """Seconds this host takes, right now, for a fixed mix of work."""
    start = perf_counter()
    total = 0
    seen = {}
    for i in range(200_000):            # interpreter: arithmetic, dict
        total += i * i
        seen[i & 1023] = total
    for _ in range(14):                 # numpy: random scatter + gather
        _TABLE[_INDEX] += 1
        total += int(_TABLE[_INDEX].sum())
    return perf_counter() - start


def reference_seconds(segments: Sequence[float],
                      probes: Sequence[float]) -> float:
    """Wall-clock ``segments`` in reference seconds.

    ``probes[i]`` and ``probes[i + 1]`` were taken just before and just
    after ``segments[i]``; a segment bracketed by probes that ran at
    half the reference speed counts half its wall time.
    """
    if len(probes) != len(segments) + 1:
        raise ValueError("need one probe on each side of every segment")
    return sum(wall * 2.0 * REFERENCE_PROBE_S / (before + after)
               for wall, before, after in zip(segments, probes, probes[1:]))
