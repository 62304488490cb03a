"""Mechanical disk model.

Expected-value mechanical timing with two realism refinements that the
paper's measured baselines calibrate:

* **Queue reordering (NCQ/elevator):** the drive holds a queue and
  services it in positional order, so under concurrent load the average
  positioning cost is well below a blind seek + half rotation.  We keep
  the last few head positions and charge no positioning for requests
  landing near any of them, and a discounted positioning otherwise.
* **On-disk write cache:** writes are staged in the drive's cache and
  destaged in sorted batches, cutting their effective positioning cost
  further.  Table 2 of the paper (Flashcache write-through sustaining
  ~1.4K IOPS over the 8-disk RAID-10) pins this discount at roughly
  0.2x of the naive positioning cost.

Parameters default to the 2 TB 7.2K RPM drives of the paper's backend
(Table 1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.block.device import BlockDevice
from repro.block.lifecycle import QueuedDevice
from repro.common.errors import ConfigError
from repro.common.types import FLUSH, TRIM, WRITE, IoOrigin, Request
from repro.sim.timeline import Timeline
from repro.common.units import MB, MIB, MSEC, TIB


@dataclass(frozen=True)
class DiskSpec:
    """Mechanical drive parameters."""

    name: str = "hdd-7200"
    capacity: int = 2 * TIB
    avg_seek: float = 8.5 * MSEC
    rpm: int = 7200
    transfer_bw: float = 140 * MB        # outer-track media rate
    sequential_window: int = 1 * MIB     # "near" threshold for locality
    recent_positions: int = 32           # NCQ reordering depth proxy
    read_positioning_factor: float = 0.5   # elevator discount for reads
    write_positioning_factor: float = 0.2  # write-cache + sorted destage
    queue_depth: int = 32                  # NCQ command slots (0 = unbounded)

    def __post_init__(self) -> None:
        if self.rpm <= 0 or self.capacity <= 0 or self.transfer_bw <= 0:
            raise ConfigError("disk parameters must be positive")
        if self.queue_depth < 0:
            raise ConfigError("queue_depth must be >= 0 (0 = unbounded)")
        if self.recent_positions < 1:
            raise ConfigError("recent_positions must be >= 1")
        if not 0 < self.read_positioning_factor <= 1:
            raise ConfigError("read_positioning_factor must be in (0,1]")
        if not 0 < self.write_positioning_factor <= 1:
            raise ConfigError("write_positioning_factor must be in (0,1]")

    @property
    def avg_rotation(self) -> float:
        """Expected rotational latency: half a revolution."""
        return 0.5 * 60.0 / self.rpm


class DiskDevice(QueuedDevice, BlockDevice):
    """One simulated spinning disk (FCFS with locality credit)."""

    def __init__(self, spec: DiskSpec = DiskSpec(), name: str = ""):
        super().__init__(spec.capacity, name or spec.name)
        self.init_queue(spec.queue_depth)
        self.spec = spec
        self.arm = Timeline(1)
        self._recent: deque = deque(maxlen=spec.recent_positions)
        # The same positions in sorted order: the locality verdict is
        # one bisect instead of a scan.
        self._recent_sorted: list = []

    def _positioning(self, offset: int, write: bool) -> float:
        # Near iff some position lies in [offset - window, offset + window].
        window, view = self.spec.sequential_window, self._recent_sorted
        i = bisect_left(view, offset - window)
        if i < len(view) and view[i] <= offset + window:
            return 0.0
        cost = self.spec.avg_seek + self.spec.avg_rotation
        if write:
            return cost * self.spec.write_positioning_factor
        return cost * self.spec.read_positioning_factor

    def _service(self, req: Request, now: float) -> float:
        op = req.op
        if op is FLUSH:
            # Drain the on-disk write cache: wait for the arm to go idle.
            return self.arm.acquire(max(now, self.arm.drain_time()), 0.0)[1]
        if op is TRIM:
            return now  # no-op on spinning media
        return self._move(req.offset, req.length, op is WRITE, now)

    def _move(self, offset: int, length: int, write: bool,
              now: float) -> float:
        """Position, transfer ``length`` bytes at ``offset``: arm done."""
        duration = (self._positioning(offset, write)
                    + length / self.spec.transfer_bw)
        recent, view, pos = self._recent, self._recent_sorted, offset + length
        if len(recent) == recent.maxlen:      # the oldest leaves both
            del view[bisect_left(view, recent[0])]
        recent.append(pos)
        insort(view, pos)
        return self.arm.acquire(now, duration)[1]

    def _read(self, offset: int, length: int, origin: IoOrigin,
              now: float) -> float:
        """A READ's body (:meth:`submit_read_fast`, an origin miss's)."""
        return self._move(offset, length, False, now)

    def _batch(self, op, offsets, lengths, nows, origin, tenants):
        """WRITE batches: locality and durations as columns, the arm as
        one :meth:`Timeline.acquire_many` from the issue times, the
        queue as :meth:`_queue_scan`, so every float is the loop's.
        Telemetry, or an in-flight completion past the arm's free time
        (a TRIM's), takes the loop."""
        if (op is not WRITE or self.obs.enabled or (
                self._inflight and max(self._inflight) > self.arm._free[0])):
            return None
        spec, ends = self.spec, offsets + lengths
        # Extent j sees the last ``depth`` of [deque ++ ends[:j]], newest
        # first; a pad near no offset stands in for a deque not yet full.
        depth, window = spec.recent_positions, spec.sequential_window
        seen = np.concatenate((
            np.array([-(1 << 62)] * depth + list(self._recent)), ends[:-1]))
        before = np.lib.stride_tricks.sliding_window_view(
            seen, depth)[len(self._recent):]
        near = abs(before[:, -1] - offsets) <= window
        far = np.flatnonzero(~near)
        near[far] = (abs(before[far] - offsets[far, None])
                     <= window).any(axis=1)
        cost = spec.avg_seek + spec.avg_rotation
        self._recent.extend(ends[-depth:].tolist())
        self._recent_sorted = sorted(self._recent)
        done = self.arm.acquire_many(nows, np.where(
            near, 0.0, cost * spec.write_positioning_factor)
            + lengths / spec.transfer_bw)
        self._queue_scan(nows, done)
        return done
