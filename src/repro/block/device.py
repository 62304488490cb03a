"""Block-device abstraction — the Device Mapper analogue.

Every storage entity in the stack (raw simulated SSD, RAID array,
caching target, backend storage) implements :class:`BlockDevice`.  A
device consumes a :class:`~repro.common.types.Request` at a given
simulated time and returns the completion time, updating its internal
resource timelines.  Devices stack exactly like Device Mapper targets:
a cache target holds references to a cache device and an origin device
and forwards (possibly transformed) requests downward.
"""

from __future__ import annotations

import abc
from typing import List, Set

import numpy as np

from repro.block.lifecycle import Submission
from repro.common.errors import AddressError
from repro.common.types import (FLUSH, READ, TRIM, WRITE, IoOrigin,
                                IoStats, Op, Request)
from repro.obs.metrics import Histogram
from repro.obs.recorder import NULL_RECORDER


class BlockDevice(abc.ABC):
    """Abstract simulated block device.

    Requests run a split-phase lifecycle: ``submit`` validates and
    accounts the request, asks :meth:`_admit` when service may begin
    (the base class admits immediately; the
    :class:`~repro.block.lifecycle.QueuedDevice` mixin delays admission
    past a queue-depth limit), runs :meth:`_service` from that begin
    time, and hands the completed timestamps to :meth:`_retire` for
    queue bookkeeping.  ``submit`` returns the completion time;
    ``submit_request`` returns the full
    :class:`~repro.block.lifecycle.Submission`.

    Every device answers the fault surface SRC and the RAID layer ask
    of a member (:attr:`failed`, :meth:`fail`, :meth:`corrupted_in`,
    :meth:`clear_corruption`): by default it holds no latent corruption
    and, once failed, is skipped by its callers (an SSD refuses I/O).
    """

    failed = False

    def __init__(self, size: int, name: str = ""):
        self.size = size
        self.name = name or type(self).__name__
        self.stats = IoStats()
        self.obs = NULL_RECORDER
        self._begin = 0.0       # the last submit's service begin

    @abc.abstractmethod
    def _service(self, req: Request, now: float) -> float:
        """Device-specific handling; returns completion time."""

    # -- lifecycle hooks (overridden by QueuedDevice) ------------------
    def _admit(self, req: Request, now: float) -> float:
        """When service may begin; the no-queue fast path is ``now``."""
        return now

    def _retire(self, req: Request, now: float, begin: float,
                done: float) -> None:
        """Completion bookkeeping; no-op without a queue."""

    def submit(self, req: Request, now: float) -> float:
        """Validate, account, admit, service and retire a request; its
        completion time.  The one lifecycle body: it leaves the service
        begin in ``_begin`` for :meth:`submit_request`."""
        if req.op is not FLUSH and req.end > self.size:
            raise AddressError(
                f"{self.name}: request [{req.offset}, {req.end}) beyond "
                f"device size {self.size}")
        self.stats.record(req)
        begin = self._admit(req, now)
        done = self._service(req, begin)
        self._retire(req, now, begin, done)
        if self.obs.enabled:
            self.obs.observe_io(self, req, now, done)
        self._begin = begin     # last: a submit nested in _service sets it too
        return done

    # ``submit_request``'s way into the body: a wrapper set on an
    # instance's ``submit`` (a span recorder, a crash site) sees only
    # the calls made to ``submit`` itself.
    _lifecycle = submit

    def submit_request(self, req: Request, now: float) -> Submission:
        """Like :meth:`submit`, but return the full lifecycle record."""
        done = self._lifecycle(req, now)
        return Submission(req, self.name, now, self._begin, done, req.origin)

    def submit_extents(self, op: Op, offsets, lengths, nows,
                       origin: IoOrigin, tenants=None) -> np.ndarray:
        """Submit a batch of extents in order; the completion column.

        Extent ``i`` is ``op`` on ``lengths[i]`` bytes at ``offsets[i]``,
        tagged ``origin`` and ``tenants[i]`` (a list, or None), issued at
        ``nows[i]`` or at a scalar ``now``.  The whole batch is checked
        before anything mutates; then the device's :meth:`_batch` body
        serves it, or declines to :meth:`_submit_each`, the loop over
        :meth:`submit` that is the contract and every body's test
        oracle.  A served batch is counted and observed here, once.
        """
        offsets, lengths = np.asarray(offsets), np.asarray(lengths)
        nows = np.asarray(nows, dtype=np.float64)
        nows = (np.broadcast_to(nows, offsets.shape[0]) if nows.ndim
                else np.full(offsets.shape[0], nows))
        self._check_extents(offsets, lengths)
        done = (self._batch(op, offsets, lengths, nows, origin, tenants)
                if offsets.shape[0] else None)
        if done is None:
            return self._submit_each(op, offsets, lengths, nows, origin,
                                     tenants)
        self._count_extents(op, lengths, origin)
        if self.obs.enabled:
            self.obs.observe_io_chunk(self, done - nows)
        return done

    def _batch(self, op: Op, offsets: np.ndarray, lengths: np.ndarray,
               nows: np.ndarray, origin: IoOrigin, tenants):
        """A device's body for a checked, non-empty batch: its completion
        column, every float the loop's, or None — before mutating
        anything — to decline to the loop.  Only READs and WRITEs serve."""
        return None

    def _submit_each(self, op: Op, offsets, lengths, nows,
                     origin: IoOrigin, tenants=None) -> np.ndarray:
        """The loop over :meth:`submit`, one extent at a time."""
        n = len(offsets)
        nows = np.broadcast_to(np.asarray(nows, dtype=np.float64), n)
        return np.array([self.submit(
            Request(op, int(offsets[i]), int(lengths[i]), False, origin,
                    tenants[i] if tenants else None), float(nows[i]))
            for i in range(n)], dtype=np.float64)

    def _check_extents(self, offsets: np.ndarray,
                       lengths: np.ndarray) -> None:
        """``submit``'s argument checks over a whole batch."""
        if not offsets.shape[0]:
            return
        if offsets.min() < 0 or lengths.min() < 0:
            raise ValueError(f"{self.name}: negative offset/length in batch")
        if (offsets + lengths).max() > self.size:
            i = np.flatnonzero(offsets + lengths > self.size)[0]
            raise AddressError(
                f"{self.name}: request [{offsets[i]}, "
                f"{offsets[i] + lengths[i]}) beyond device size {self.size}")

    def _count_extents(self, op: Op, lengths: np.ndarray,
                       origin: IoOrigin) -> None:
        """``IoStats.record`` over a whole batch of READs or WRITEs."""
        stats, nbytes, key = self.stats, int(lengths.sum()), origin.value
        if op is READ:
            stats.read_ops += lengths.shape[0]
            stats.read_bytes += nbytes
        else:
            stats.write_ops += lengths.shape[0]
            stats.write_bytes += nbytes
        stats.bytes_by_origin[key] = stats.bytes_by_origin.get(key, 0) + nbytes

    # -- the fault surface -------------------------------------------
    def fail(self) -> None:
        """Fail-stop the device."""
        self.failed = True

    def corrupted_in(self, offset: int, length: int) -> Set[int]:
        """Latently corrupted page numbers inside a byte range."""
        return set()

    def clear_corruption(self, offset: int, length: int) -> None:
        """Forget latent corruption in a byte range (it was rewritten)."""

    # Convenience helpers used heavily by tests and examples.
    def read(self, offset: int, length: int, now: float) -> float:
        return self.submit(Request(READ, offset, length), now)

    def write(self, offset: int, length: int, now: float,
              fua: bool = False) -> float:
        return self.submit(Request(WRITE, offset, length, fua), now)

    def flush(self, now: float) -> float:
        return self.submit(Request(FLUSH), now)

    def trim(self, offset: int, length: int, now: float) -> float:
        return self.submit(Request(TRIM, offset, length), now)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} size={self.size}>"


class NullDevice(BlockDevice):
    """Infinitely fast device; useful as a stub in unit tests."""

    def __init__(self, size: int, latency: float = 0.0, name: str = "null"):
        super().__init__(size, name)
        self.latency = latency

    def _service(self, req: Request, now: float) -> float:
        return now + self.latency


class LinearDevice(BlockDevice):
    """A contiguous window onto a lower device (dm-linear)."""

    def __init__(self, lower: BlockDevice, start: int, size: int,
                 name: str = "linear"):
        if start + size > lower.size:
            raise AddressError(
                f"linear window [{start}, {start + size}) beyond "
                f"{lower.name} size {lower.size}")
        super().__init__(size, name)
        self.lower = lower
        self.start = start

    def _service(self, req: Request, now: float) -> float:
        if req.op is FLUSH:
            return self.lower.submit(req, now)
        shifted = Request(req.op, req.offset + self.start, req.length,
                          req.fua, req.origin, req.tenant)
        return self.lower.submit(shifted, now)


class StatsDevice(BlockDevice):
    """Transparent pass-through that measures traffic and latency.

    Interposed between layers to measure I/O amplification: the paper's
    amplification metric is (bytes observed at the cache-device layer) /
    (bytes requested by the application) — :meth:`amplification` divides
    this tap's observed bytes by the application byte count.  Every
    request's service latency (completion − issue time) is recorded in
    the log-scale :attr:`latency` histogram.
    """

    def __init__(self, lower: BlockDevice, name: str = ""):
        super().__init__(lower.size, name or f"stats({lower.name})")
        self.lower = lower
        self.latency = Histogram(f"{self.name}.latency_s")

    def _service(self, req: Request, now: float) -> float:
        done = self.lower.submit(req, now)
        self.latency.record(done - now)
        return done

    def amplification(self, app_bytes: int) -> float:
        """Observed-here bytes per application byte (the paper's metric).

        ``app_bytes`` is the application-level byte count the traffic
        through this tap amplifies; 0 when nothing was requested yet.
        """
        return self.stats.total_bytes / app_bytes if app_bytes else 0.0

    def snapshot_bytes(self) -> int:
        """Current observed byte total (for windowed amplification)."""
        return self.stats.total_bytes


def total_bytes(devices: List[BlockDevice]) -> int:
    """Sum of read+write bytes observed across ``devices``."""
    return sum(d.stats.total_bytes for d in devices)
