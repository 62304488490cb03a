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
        self._free: List[float] = [0.0] * servers   # a heap: all equal
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

    def acquire_many(self, starts, durations) -> np.ndarray:
        """The ends of one :meth:`acquire` per duration from ``starts``
        (a column or a scalar), single server: the loop's floats, free
        time and ``busy_time``.  A round recomputes each end from its
        predecessor, settling all up to its first changed end; after
        eight rounds a backlog run is one running sum."""
        if self.servers != 1:
            raise ConfigError("acquire_many needs a single-server Timeline")
        durations = np.asarray(durations, dtype=np.float64)
        if (durations < 0).any():
            raise TimingError("negative duration in batch")
        n = durations.shape[0]
        starts = np.broadcast_to(np.asarray(starts, dtype=np.float64), n)
        ends = np.empty(n + 1)          # ends[i]: the end before piece i
        ends[0], ends[1:] = self._free[0], starts + durations
        lo = rounds = 0
        while lo < n:
            if rounds >= 8:     # one running sum, to the run's first idle
                run = np.add.accumulate(np.concatenate(
                    ([max(starts[lo], ends[lo])], durations[lo:])))
                idle = np.flatnonzero(starts[lo + 1:] > run[1:-1])
                stop = lo + 1 + int(idle[0]) if idle.shape[0] else n
                ends[lo + 1:stop + 1] = run[1:stop - lo + 1]
                lo = stop
            rounds += 1
            new = np.maximum(starts[lo:], ends[lo:n]) + durations[lo:]
            moved = np.flatnonzero(new != ends[lo + 1:])
            ends[lo + 1:] = new
            lo = lo + 1 + int(moved[0]) if moved.shape[0] else n
        self._free[0] = float(ends[n])
        self.busy_time = float(np.add.accumulate(np.concatenate(
            ([self.busy_time], durations)))[-1])
        return ends[1:]

    def next_free(self) -> float:
        """Earliest time any server is available."""
        return self._free[0]

    def drain_time(self) -> float:
        """Time by which every queued operation has completed."""
        return max(self._free)

    def reset(self) -> None:
        self._free = [0.0] * self.servers
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

    def transfer_many(self, starts, nbytes: np.ndarray) -> np.ndarray:
        """One :meth:`transfer` per entry of ``nbytes`` from ``starts`` (a
        column or a scalar): the ends, as :meth:`Timeline.acquire_many`."""
        self.bytes_moved += int(nbytes.sum())
        return self._timeline.acquire_many(
            starts, self.latency + nbytes / self.bandwidth)

    def drain_time(self) -> float:
        return self._timeline.drain_time()

    def reset(self) -> None:
        self._timeline.reset()
        self.bytes_moved = 0
