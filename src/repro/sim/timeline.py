"""Resource timelines — the time-accounting core of the simulator.

Rather than a callback-driven event loop, every physical resource (a
flash channel, a disk arm, a host interface link) is modelled as a
:class:`Timeline`: a set of identical servers, each with a
next-free time.  A layer "executes" an operation by acquiring a server
for the operation's service time and is told when the operation begins
and completes.  Because the workload engine issues requests in global
time order (see :mod:`repro.sim.engine`), this yields the same schedules
an event-driven simulator would produce for FCFS resources, at a
fraction of the bookkeeping cost.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.common.errors import ConfigError, TimingError


class Timeline:
    """``servers`` identical FCFS servers sharing one queue."""

    def __init__(self, servers: int = 1):
        if servers < 1:
            raise ConfigError(f"a Timeline needs >=1 server, got {servers}")
        self.servers = servers
        self._free: List[float] = [0.0] * servers
        heapq.heapify(self._free)
        self.busy_time = 0.0

    def acquire(self, start: float, duration: float) -> Tuple[float, float]:
        """Occupy the earliest-free server from ``start`` for ``duration``.

        Returns ``(begin, end)``.  ``begin >= start``; the gap is queueing
        delay.
        """
        if duration < 0:
            raise TimingError(f"negative duration {duration}")
        free = self._free
        if self.servers == 1:
            # Single-server fast path: a one-element heap is just a
            # float; skip the heappop/heappush pair.  Most resources in
            # the stack (NAND pipelines, links, disk arms) are single
            # servers, and acquire runs several times per request.
            earliest = free[0]
            begin = start if start > earliest else earliest
            end = begin + duration
            free[0] = end
            self.busy_time += duration
            return begin, end
        earliest = heapq.heappop(free)
        begin = start if start > earliest else earliest
        end = begin + duration
        heapq.heappush(free, end)
        self.busy_time += duration
        return begin, end

    def next_free(self) -> float:
        """Earliest time any server is available."""
        return self._free[0]

    def drain_time(self) -> float:
        """Time by which every queued operation has completed."""
        return max(self._free)

    def reset(self) -> None:
        self._free = [0.0] * self.servers
        heapq.heapify(self._free)
        self.busy_time = 0.0


class Link:
    """A serialized bandwidth resource (bus, network link).

    Transfers occupy the link for ``nbytes / bandwidth`` plus a fixed
    per-transfer latency, back to back.
    """

    def __init__(self, bandwidth_bytes_per_s: float, latency_s: float = 0.0):
        if bandwidth_bytes_per_s <= 0:
            raise ConfigError("link bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_s
        self._timeline = Timeline(1)
        self.bytes_moved = 0

    def transfer(self, start: float, nbytes: int) -> Tuple[float, float]:
        """Move ``nbytes`` across the link starting no earlier than ``start``."""
        duration = self.latency + nbytes / self.bandwidth
        self.bytes_moved += nbytes
        return self._timeline.acquire(start, duration)

    def transfer_many(self, start: float, nbytes: np.ndarray) -> np.ndarray:
        """The end times of one :meth:`transfer` per entry of ``nbytes``
        (at least one), all requested at ``start``.  Each begins where
        the one before it ends, so the ends (and ``busy_time``) are
        running sums: the loop's float adds, in the loop's order."""
        line = self._timeline
        durations = self.latency + nbytes / self.bandwidth
        ends = np.add.accumulate(np.concatenate(
            ([max(start, line._free[0])], durations)))[1:]
        self.bytes_moved += int(nbytes.sum())
        line._free[0] = float(ends[-1])
        line.busy_time = float(np.add.accumulate(np.concatenate(
            ([line.busy_time], durations)))[-1])
        return ends

    def drain_time(self) -> float:
        return self._timeline.drain_time()

    def reset(self) -> None:
        self._timeline.reset()
        self.bytes_moved = 0
