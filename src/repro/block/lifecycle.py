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
  queueing delay, accounted per device.

Devices that do not mix in :class:`QueuedDevice` keep the synchronous
fast path: :meth:`~repro.block.device.BlockDevice._admit` returns
``now`` unchanged and no per-request bookkeeping happens, which is the
zero-cost default the baseline targets rely on.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.common.errors import ConfigError
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
    ``tenant`` carries the request's tenant tag (``None`` when the
    stack is single-tenant), defaulting to ``req.tenant``.
    """

    __slots__ = ("req", "device", "issue_t", "begin_t", "done_t", "origin",
                 "tenant")

    def __init__(self, req: Request, device: str, issue_t: float,
                 begin_t: float, done_t: float,
                 origin: IoOrigin = IoOrigin.FOREGROUND,
                 tenant: "str | None" = None):
        self.req = req
        self.device = device
        self.issue_t = issue_t
        self.begin_t = begin_t
        self.done_t = done_t
        self.origin = origin
        self.tenant = tenant if tenant is not None else req.tenant

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

    def __init__(self, submissions: int = 0, queued_ops: int = 0,
                 queue_delay_total: float = 0.0, max_outstanding: int = 0):
        self.submissions = submissions
        self.queued_ops = queued_ops          # waited for a slot
        self.queue_delay_total = queue_delay_total
        self.max_outstanding = max_outstanding

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

    def _serve_extents(self, nows, service) -> np.ndarray:
        """A batch's queue lifecycle in extent order: the ``_admit`` /
        ``_retire`` pair of each extent, inline, around ``service(i,
        begin)`` (extent ``i``'s completion).  Heap, stats and telemetry
        end as the per-extent loop leaves them; the completion column."""
        depth, q, qs = self.queue_depth, self._inflight, self.qstats
        if not depth:
            return np.array([service(i, now) for i, now in enumerate(nows)])
        observe = self.obs.observe_queue if self.obs.enabled else None
        pop, push, replace = heapq.heappop, heapq.heappush, heapq.heapreplace
        queued, delay, top, done = 0, qs.queue_delay_total, 0, []
        for i, now in enumerate(nows):
            while q and q[0] <= now:
                pop(q)
            full = len(q) >= depth      # never more: _retire keeps it so
            begin = q[0] if full else now   # the earliest completion's slot
            end = service(i, begin)
            if full:
                replace(q, end)
                queued += 1
                delay += begin - now
            else:
                push(q, end)
                top = len(q) if len(q) > top else top
            if observe is not None:
                observe(self, len(q), begin - now)
            done.append(end)
        qs.submissions += len(done)
        qs.queued_ops += queued
        qs.queue_delay_total = delay
        qs.max_outstanding = max(qs.max_outstanding, top)
        return np.array(done)

    def outstanding(self, now: float) -> int:
        """Submissions still in flight at simulated time ``now``."""
        return sum(1 for done in self._inflight if done > now)
