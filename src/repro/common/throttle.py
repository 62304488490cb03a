"""Shared rate-control primitives over *simulated* time.

Background work all over the stack — hot-spare rebuild, background
scrub, per-tenant QoS write caps, cluster shard migration — needs the
same two scheduling signals, so they live here once instead of one
copy per subsystem:

* :class:`TokenBucket` — a deterministic byte-rate bucket over
  simulated time.  Background work asks when the next unit may be
  issued and consumes tokens when it is; with ``rate <= 0`` the bucket
  is a no-op (unthrottled).
* :class:`ForegroundGuard` — a rolling window over foreground request
  latencies.  When the windowed p99 exceeds a limit the guard reports
  *hot* and the caller defers background work until the window cools.
  Unlike :class:`~repro.faults.failslow.FailSlowDetector` it never
  latches: backing off is a reversible scheduling decision, not a
  failure conversion.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.common.types import quantile


class TokenBucket:
    """Byte-rate token bucket over simulated time.

    ``rate_bytes_s <= 0`` disables throttling entirely: ``ready_time``
    is always ``now`` and ``consume`` is free.
    """

    def __init__(self, rate_bytes_s: float, burst_bytes: float):
        self.rate = float(rate_bytes_s)
        self.burst = max(float(burst_bytes), 1.0)
        self._tokens = self.burst
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now

    def ready_time(self, nbytes: int, now: float) -> float:
        """Earliest simulated time ``nbytes`` may be issued (no consume)."""
        if self.rate <= 0:
            return now
        self._refill(now)
        if self._tokens >= nbytes:
            return now
        deficit = nbytes - self._tokens
        return now + deficit / self.rate

    def consume(self, nbytes: int, now: float) -> None:
        if self.rate <= 0:
            return
        self._refill(now)
        # May go negative when a unit exceeds the burst size; the debt
        # pushes the next ready_time out, which is the intended shape.
        self._tokens -= nbytes


class ForegroundGuard:
    """Windowed foreground-p99 back-off signal (non-latching)."""

    def __init__(self, p99_limit: float, window: int = 128,
                 min_samples: int = 16):
        self.p99_limit = float(p99_limit)
        self.window = window
        self.min_samples = min_samples
        self._samples: Deque[float] = deque(maxlen=window)

    @property
    def enabled(self) -> bool:
        return self.p99_limit > 0

    def observe(self, latency: float) -> None:
        if self.enabled:
            self._samples.append(latency)

    def observe_many(self, latencies) -> None:
        """:meth:`observe` of every value of an array, in order."""
        if self.enabled:
            self._samples.extend(latencies[-self.window:].tolist())

    def p99(self) -> float:
        if len(self._samples) < self.min_samples:
            return 0.0
        return quantile(self._samples, 0.99)

    def hot(self) -> bool:
        """True while the rolling foreground p99 exceeds the limit."""
        if not self.enabled:
            return False
        return self.p99() > self.p99_limit
