"""Split-phase request lifecycle: submissions and bounded device queues.

The simulator's call tree is one-shot — ``submit(req, now)`` returns a
completion time — but a real block stack runs a queued lifecycle: a
request is *issued*, waits for a device queue slot, *begins* service,
and *completes*.  This module makes that lifecycle explicit without
giving up the call-tree's cheapness:

* :class:`Submission` records the three timestamps plus the request's
  origin tag, so callers can separate queueing delay from service time
  and foreground latency from background occupancy;
* :class:`QueuedDevice` is a mixin for :class:`~repro.block.device.
  BlockDevice` subclasses that enforces a per-device queue-depth limit
  (SATA NCQ's 32 slots, an HBA's configured depth): once
  ``queue_depth`` submissions are outstanding, a new request's service
  *begin* is pushed to the earliest outstanding completion — explicit
  queueing delay per device.  A batch body keeps the same queue: the
  disk's as columns (``_queue_scan``), the SSD's in its own pipeline
  loop (``SSDDevice._pipeline``).

Devices that do not mix in :class:`QueuedDevice` keep the synchronous
fast path: :meth:`~repro.block.device.BlockDevice._admit` returns
``now`` unchanged and no per-request bookkeeping happens, which is the
zero-cost default the baseline targets rely on.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.common.errors import ConfigError, DeviceFailedError
from repro.common.types import IoOrigin, Request


class Submission:
    """One request's trip through a device: issue → begin → complete.

    ``issue_t`` is when the caller handed the request to the device;
    ``begin_t`` is when service actually started (the gap is queueing
    delay behind the device's queue-depth limit); ``done_t`` is the
    completion time.  ``origin`` attributes the work (foreground, GC,
    destage, rebuild) and ``device`` names the servicing device.

    One Submission is allocated per request on the split-phase path,
    so this is a ``__slots__`` class; treat instances as immutable.
    ``tenant`` is the request's tenant tag, ``req.tenant`` (``None``
    when the stack is single-tenant).
    """

    __slots__ = ("req", "device", "issue_t", "begin_t", "done_t", "origin",
                 "tenant")

    def __init__(self, req: Request, device: str, issue_t: float,
                 begin_t: float, done_t: float,
                 origin: IoOrigin = IoOrigin.FOREGROUND):
        self.req = req
        self.device = device
        self.issue_t = issue_t
        self.begin_t = begin_t
        self.done_t = done_t
        self.origin = origin
        self.tenant = req.tenant

    def __repr__(self) -> str:
        return (f"Submission(req={self.req!r}, device={self.device!r}, "
                f"issue_t={self.issue_t}, begin_t={self.begin_t}, "
                f"done_t={self.done_t}, origin={self.origin!r})")

    @property
    def queue_delay(self) -> float:
        """Time spent waiting for a device queue slot."""
        return self.begin_t - self.issue_t

    @property
    def service_time(self) -> float:
        """Time from service begin to completion."""
        return self.done_t - self.begin_t

    @property
    def latency(self) -> float:
        """Issue-to-completion time — what the submitter observes."""
        return self.done_t - self.issue_t

    def as_dict(self) -> dict:
        return {
            "device": self.device,
            "op": self.req.op.value,
            "origin": self.origin.value,
            "tenant": self.tenant,
            "issue_t": self.issue_t,
            "begin_t": self.begin_t,
            "done_t": self.done_t,
            "queue_delay": self.queue_delay,
            "service_time": self.service_time,
        }


class QueueStats:
    """Per-device queue-occupancy counters (``__slots__``: updated on
    every retire of a queued device)."""

    __slots__ = ("submissions", "queued_ops", "queue_delay_total",
                 "max_outstanding")

    def __init__(self) -> None:
        self.submissions = 0
        self.queued_ops = 0          # waited for a slot
        self.queue_delay_total = 0.0
        self.max_outstanding = 0

    @property
    def mean_queue_delay(self) -> float:
        return (self.queue_delay_total / self.queued_ops
                if self.queued_ops else 0.0)

    def as_dict(self) -> dict:
        return {
            "submissions": self.submissions,
            "queued_ops": self.queued_ops,
            "queue_delay_total": self.queue_delay_total,
            "max_outstanding": self.max_outstanding,
            "mean_queue_delay": self.mean_queue_delay,
        }


class QueuedDevice:
    """Mixin: bounded submission queue for a ``BlockDevice`` subclass.

    Call :meth:`init_queue` from ``__init__`` with the device's queue
    depth (0 disables the limit and restores the synchronous fast
    path).  The mixin overrides the ``_admit``/``_retire`` lifecycle
    hooks of :class:`~repro.block.device.BlockDevice`: admission pops
    completed submissions off the in-flight heap and, at the depth
    limit, delays service begin until the earliest outstanding
    completion.  Retries re-enter through ``submit`` like any other
    request, so a retried I/O queues behind the traffic that arrived
    while it backed off — it cannot jump the line.
    """

    queue_depth: int = 0

    def init_queue(self, queue_depth: int) -> None:
        if queue_depth < 0:
            raise ConfigError(
                f"queue_depth must be >= 0, got {queue_depth}")
        self.queue_depth = queue_depth
        self._inflight: List[float] = []
        self.qstats = QueueStats()

    # -- lifecycle hooks (see BlockDevice.submit) ----------------------
    def _admit(self, req: Request, now: float) -> float:
        if not self.queue_depth:
            return now
        q = self._inflight
        while q and q[0] <= now:
            heapq.heappop(q)
        begin = now
        while len(q) >= self.queue_depth:
            begin = max(begin, heapq.heappop(q))
        return begin

    def _retire(self, req: Request, now: float, begin: float,
                done: float) -> None:
        if not self.queue_depth:
            return
        heapq.heappush(self._inflight, done)
        qs = self.qstats
        qs.submissions += 1
        depth = len(self._inflight)
        if depth > qs.max_outstanding:
            qs.max_outstanding = depth
        if begin > now:
            qs.queued_ops += 1
            qs.queue_delay_total += begin - now
        if self.obs.enabled:
            self.obs.observe_queue(self, depth, begin - now)

    def submit_read_fast(self, offset: int, length: int, now: float,
                         origin: IoOrigin = IoOrigin.FOREGROUND) -> float:
        """Lean READ, bit-identical to ``submit`` without a ``Request`` (a
        failed device counted and admitted, then it raises); the caller
        guarantees telemetry off and the range inside the device."""
        stats = self.stats
        stats.read_ops += 1
        stats.read_bytes += length
        key = origin._value_
        stats.bytes_by_origin[key] = stats.bytes_by_origin.get(key, 0) + length
        begin = self._admit(None, now)
        if self.failed:
            raise DeviceFailedError(f"{self.name} has failed")
        done = self._read(offset, length, origin, begin)
        self._retire(None, now, begin, done)
        return done

    def _queue_scan(self, nows: np.ndarray, done: np.ndarray) -> None:
        """A batch's ``_admit`` / ``_retire`` pairs as columns, when
        ``done`` ascends from every in-flight completion, as one server's
        ends do: a full queue's slot frees by the server's free time,
        moving no completion.  With ``m`` in flight and ``S = sorted(heap)
        ++ done``, the heap before extent ``i`` is ``S[lo:m + i]``; full,
        it waits for ``S[m + i - depth]``."""
        depth, qs = self.queue_depth, self.qstats
        if not depth:
            return
        S = np.concatenate((np.sort(self._inflight), done))
        hi = len(self._inflight) + np.arange(done.shape[0])
        ss = np.minimum(np.searchsorted(S, nows, "right"), hi)
        lo = np.maximum.accumulate(np.maximum(ss, hi - depth + 1))
        left = np.maximum(np.concatenate(([0], lo[:-1])), ss)
        full = hi - left >= depth
        waits = S[hi[full] - depth] - nows[full]
        qs.submissions += done.shape[0]
        qs.queued_ops += waits.shape[0]
        qs.queue_delay_total = float(np.add.accumulate(np.concatenate(
            ([qs.queue_delay_total], waits)))[-1])
        qs.max_outstanding = max(qs.max_outstanding, int(np.max(
            (hi + 1 - left)[~full], initial=0)))
        self._inflight = S[lo[-1]:].tolist()

    def outstanding(self, now: float) -> int:
        """Submissions still in flight at simulated time ``now``."""
        return sum(1 for done in self._inflight if done > now)
