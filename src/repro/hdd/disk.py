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

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.block.device import BlockDevice
from repro.block.lifecycle import QueuedDevice
from repro.common.errors import ConfigError
from repro.common.types import Op, Request
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

    def _positioning(self, req: Request) -> float:
        near = any(abs(req.offset - pos) <= self.spec.sequential_window
                   for pos in reversed(self._recent))
        if near:
            return 0.0
        cost = self.spec.avg_seek + self.spec.avg_rotation
        if req.op is Op.WRITE:
            return cost * self.spec.write_positioning_factor
        return cost * self.spec.read_positioning_factor

    def _service(self, req: Request, now: float) -> float:
        if req.op is Op.FLUSH:
            # Drain the on-disk write cache: wait for the arm to go idle.
            _, end = self.arm.acquire(max(now, self.arm.drain_time()), 0.0)
            return end
        if req.op is Op.TRIM:
            return now  # no-op on spinning media
        duration = self._positioning(req) + req.length / self.spec.transfer_bw
        self._recent.append(req.end)
        _, end = self.arm.acquire(now, duration)
        return end

    def submit_extents(self, op, offsets, lengths, nows, origin,
                       tenants=None) -> np.ndarray:
        """WRITE batches: locality and durations as columns, then the
        queue / arm recurrences of ``submit`` over plain floats in
        extent order, so every float is the loop's."""
        offsets, lengths = np.asarray(offsets), np.asarray(lengths)
        n = offsets.shape[0]
        if op is not Op.WRITE or not n:
            return super().submit_extents(op, offsets, lengths, nows,
                                          origin, tenants)
        self._check_extents(offsets, lengths)
        self._count_extents(op, lengths, origin)
        nows = np.broadcast_to(np.asarray(nows, dtype=np.float64), n)
        spec, ends = self.spec, offsets + lengths
        # Extent j sees the last ``depth`` of [deque ++ ends[:j]]; a pad
        # near no offset stands in for a deque not yet full.
        depth = spec.recent_positions
        seen = np.concatenate((
            np.array([-(1 << 62)] * depth + list(self._recent)), ends[:-1]))
        before = np.lib.stride_tricks.sliding_window_view(
            seen, depth)[len(self._recent):]
        near = (abs(before - offsets[:, None])
                <= spec.sequential_window).any(axis=1)
        cost = ((spec.avg_seek + spec.avg_rotation)
                * spec.write_positioning_factor)
        durations = (np.where(near, 0.0, cost)
                     + lengths / spec.transfer_bw).tolist()
        self._recent.extend(ends.tolist())
        arm = self.arm
        free, busy = arm._free[0], arm.busy_time

        def service(i: int, begin: float) -> float:   # arm.acquire
            nonlocal free, busy
            duration = durations[i]
            free = (begin if begin > free else free) + duration
            busy += duration
            return free

        done = self._serve_extents(nows.tolist(), service)
        arm._free[0], arm.busy_time = free, busy
        if self.obs.enabled:
            self.obs.observe_io_chunk(self, done - nows)
        return done
