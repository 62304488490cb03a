"""The segment log (paper §4.1): groups, seals and mapping install.

:class:`SegmentLog` (held as ``cache.segments``) is what makes SRC
log-structured.  It owns

* the segment-group books — every group is FREE, ACTIVE or CLOSED, one
  group is active at a time, a full group rolls to the next free one,
  and a roll that takes a group whose reclaim I/O is still in flight
  waits for it (the backpressure path at the free-space hard floor);
* :meth:`SegmentLog.seal`, which turns a drained segment buffer into
  one durable segment: install the mappings, write the MS summary,
  issue one unit write per member, seal with ME, flush at the
  configured point, and kick the watermark-driven reclaim;
* :meth:`SegmentLog.install`, the one place a segment's slots become
  mapping entries — the sealer calls it with a buffer's blocks, crash
  recovery (:mod:`repro.core.recovery`) with a summary's columns.

Reclaim always runs behind the foreground: its state changes apply at
once, its device I/O is issued from the triggering segment's ack time
onward and overlaps later writes instead of extending that ack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.checksum import block_checksum, block_checksums_array
from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.errors import ConfigError
from repro.common.types import FOREGROUND, GC
from repro.common.units import PAGE_SIZE
from repro.core.arrays import B_MAPPED
from repro.core.config import CleanRedundancy, FlushPoint
from repro.core.metadata import SegmentSummary
from repro.obs.events import BackpressureStall, SegmentSealed


class GroupState:
    """Runtime state of one segment group."""

    FREE = "free"
    ACTIVE = "active"
    CLOSED = "closed"

    def __init__(self, index: int):
        self.index = index
        self.state = GroupState.FREE
        self.next_segment = 0
        self.sequence = -1   # allocation order, for FIFO victim selection


class SegmentLog:
    """Group books, segment sealing and mapping install of one cache."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.layout = cache.layout
        self.groups = [GroupState(i) for i in range(self.layout.groups)]
        # SG 0 holds the superblock and is read-only (§4.1).
        self.groups[0].state = GroupState.CLOSED
        self._free: List[int] = list(range(self.layout.groups - 1, 0, -1))
        self._closed_fifo: List[int] = []
        self._sg_sequence = 0
        # Group index -> simulated time at which its (already
        # state-applied) reclaim I/O completes on the devices.
        self._group_ready: Dict[int, float] = {}
        self.active: GroupState = self.take_free_group()

    # ==================================================================
    # group books
    # ==================================================================
    def take_free_group(self) -> GroupState:
        if not self._free:
            raise ConfigError("no free segment groups")
        group = self.groups[self._free.pop()]
        group.state = GroupState.ACTIVE
        group.next_segment = 0
        self._sg_sequence += 1
        group.sequence = self._sg_sequence
        self.cache.srcstats.sg_allocations += 1
        return group

    def release_group(self, index: int, ready_at: float) -> None:
        """Return a reclaimed (closed, now empty) group to the free list.

        The books change now, but the reclaim's device I/O finishes at
        ``ready_at``; a writer taking the group earlier must wait for
        it (:meth:`_roll_group`).
        """
        group = self.groups[index]
        group.state = GroupState.FREE
        group.next_segment = 0
        self._closed_fifo.remove(index)
        self._free.insert(0, index)
        self._group_ready[index] = ready_at

    def _alloc_segment(self, now: float) -> Tuple[int, int, float]:
        """Reserve the next segment slot in the active SG."""
        start = now
        while self.active.next_segment >= self.layout.segments_per_group:
            start = self._roll_group(start)
        group = self.active
        segment = group.next_segment
        group.next_segment += 1
        return group.index, segment, start

    def _roll_group(self, now: float) -> float:
        """Close the active SG and open a new one, reclaiming if needed.

        Reclaim can itself write segments (S2S copies), which rolls the
        group reentrantly and installs a fresh active SG; in that case
        the outer roll must NOT take another group or the GC-opened one
        would leak (neither active, closed, nor free).

        Foreground throttles only when it takes a group whose reclaim
        has not yet finished — the backpressure path at the free-space
        hard floor.
        """
        cache = self.cache
        rolled = self.active
        if rolled.state is not GroupState.CLOSED:
            rolled.state = GroupState.CLOSED
            self._closed_fifo.append(rolled.index)
        end = now
        reclaim = cache.config.reclaim
        if (not cache.reclaimer.running
                and len(self._free) < reclaim.gc_free_low):
            # The trickle (kicked after segment writes) normally keeps
            # free groups above the low watermark; reaching it here is
            # the hard floor.  Reclaim state now — the I/O time lands
            # in _group_ready, so the cost surfaces as backpressure
            # below, not as gc time glued onto this roll.  Forced S2D:
            # when reclaim has fallen behind the foreground, copying
            # forward (S2S) consumes the very groups it frees and the
            # system can settle into a GC-feeds-GC equilibrium;
            # destaging always gains a whole group and sheds dirty
            # data, letting the trickle catch back up.
            cache.reclaimer.reclaim_until(reclaim.gc_free_low, end,
                                          force_s2d=True)
        if self.active is rolled:
            self.active = self.take_free_group()
            ready = self._group_ready.pop(self.active.index, 0.0)
            if ready > end:
                waited = ready - end
                if not cache.reclaimer.running:
                    cache.srcstats.throttle_stalls += 1
                    cache.srcstats.throttle_wait_s += waited
                    if cache.tenants is not None:
                        cache.tenants.count_stall(cache._active_tenant,
                                                  waited)
                    if cache.obs.enabled:
                        cache.obs.emit(BackpressureStall(
                            t=ready, device=cache.name, waited=waited,
                            free_groups=len(self._free)))
                end = ready
        return end

    # ==================================================================
    # segment writing (§4.1)
    # ==================================================================
    def parity_flag(self, dirty: bool) -> bool:
        """Whether a segment of this class carries a parity unit."""
        config = self.cache.config
        if config.raid_level == 0:
            return False
        return dirty or config.clean_redundancy is CleanRedundancy.PC

    def install(self, sg: int, segment: int, lbas: np.ndarray,
                versions: np.ndarray, dirty: bool, with_parity: bool,
                stored: Optional[np.ndarray] = None) -> List[int]:
        """Map slot ``i`` of the segments from ``segment`` on (each full
        but the last) to ``lbas[i]`` at ``versions[i]``.

        The sealer passes unique unmapped blocks (entering a buffer or
        leaving a victim invalidated them).  Recovery passes a
        summary's columns plus the checksums it ``stored``: a slot whose
        checksum disagrees stays unmapped, and a block an earlier
        segment mapped moves here (later sequence wins).  Returns the
        checksums of the slots installed, in slot order.

        Below :data:`SCALAR_THRESHOLD` blocks a per-slot loop beats the
        fixed cost of the array calls; partial segments are most of a
        read-mostly workload's seals (docs/performance.md).
        """
        cache = self.cache
        mapping = cache.mapping
        n_blocks = lbas.shape[0]
        if (n_blocks >= SCALAR_THRESHOLD or n_blocks
                > self.layout.segment_data_capacity(with_parity)):
            checksums = block_checksums_array(lbas, versions)
            segments, ssds, offsets = self.layout.slot_locations_array(
                sg, segment, n_blocks, with_parity)
            if stored is not None:
                keep = checksums == stored
                lbas, versions, checksums = (lbas[keep], versions[keep],
                                             checksums[keep])
                # (A summary is one segment: ``segments`` is its index.)
                ssds, offsets = ssds[keep], offsets[keep]
                if lbas.shape[0]:
                    codes = cache._state.ensure(int(lbas.max()) + 1)[lbas]
                    mapping.invalidate_many(lbas[codes == B_MAPPED])
            mapping.insert_batch(lbas, sg, segments, ssds, offsets, dirty,
                                 checksums, versions)
            return checksums.tolist()
        # One segment: slot s is row s % per_unit (past MS) of the unit
        # on data SSD s // per_unit, as in ``slot_locations_array``.
        layout, installed = self.layout, []
        per_unit = layout.data_blocks_per_unit
        order = layout.data_ssds(sg, segment, with_parity)
        base = layout.unit_offset(sg, segment) + PAGE_SIZE
        insert_row = mapping.insert_row
        for slot, (lba, version) in enumerate(zip(lbas.tolist(),
                                                  versions.tolist())):
            checksum = block_checksum(lba, version)
            if stored is not None and stored[slot] != checksum:
                continue
            unit, row = divmod(slot, per_unit)
            insert_row(lba, sg, segment, order[unit], base + row * PAGE_SIZE,
                       dirty, checksum, version)
            installed.append(checksum)
        return installed

    def seal(self, dirty: bool, now: float,
             more: Optional[np.ndarray] = None) -> float:
        """Write the dirty or clean segment buffer out as one segment,
        then ``more`` (unmapped blocks, whole segments that never enter
        the buffer) as the next ones, all at ``now``: a chunk at a time,
        up to the group's end (one segment under ``PER_SEGMENT``), is
        installed, summarized torn, written by one ``Members.write`` and
        only then sealed; members flush where a group ends."""
        cache = self.cache
        buf = cache.dirty_buf if dirty else cache.clean_buf
        size, lbas = buf.capacity, buf.drain_array()
        if not lbas.shape[0]:
            return now
        if more is not None:
            lbas = np.concatenate((lbas, more))
        with_parity = self.parity_flag(dirty)
        per_group = self.layout.segments_per_group
        per_segment = cache.config.flush_point is FlushPoint.PER_SEGMENT
        origin = GC if cache.reclaimer.running else FOREGROUND
        end, pos, n_blocks = now, 0, lbas.shape[0]
        while pos < n_blocks:
            sg, first, start = self._alloc_segment(now)
            k = 1 if per_segment else min(-(-(n_blocks - pos) // size),
                                          per_group - first)
            self.groups[sg].next_segment += k - 1
            chunk = lbas[pos:pos + k * size]
            pos += chunk.shape[0]
            versions = cache._versions.ensure(int(chunk.max()) + 1)[chunk]
            checksums = self.install(sg, first, chunk, versions, dirty,
                                     with_parity)
            # MS lands with the first pages of the unit writes; ME seals
            # each segment once every unit of the chunk completed.  A
            # power cut in between durably leaves torn summaries for
            # recovery to discard.
            segments, blocks = [], []
            for j in range(k):
                lo, hi = j * size, min((j + 1) * size, chunk.shape[0])
                cache.metadata.write_summary(SegmentSummary(
                    sg=sg, segment=first + j,
                    sequence=cache.metadata.next_sequence(),
                    generation=self._sg_sequence * per_group + first + j + 1,
                    dirty=dirty, with_parity=with_parity,
                    lbas=chunk[lo:hi].tolist(), checksums=checksums[lo:hi],
                    versions=versions[lo:hi].tolist()), torn=True)
                segments.append((self.layout.unit_offset(sg, first + j),
                                 now if j else start,
                                 self._units(sg, first + j, hi - lo,
                                             with_parity)))
                blocks.append(hi - lo)
            ends = cache.members.write(segments, origin)
            for j, done in enumerate(ends):
                cache.metadata.seal_summary(sg, first + j)
                cache.srcstats.segment_writes += 1
                if blocks[j] < size:       # a buffer holds one segment
                    cache.srcstats.partial_segment_writes += 1
                if cache.obs.enabled:
                    cache.obs.emit(SegmentSealed(
                        t=done, device=cache.name, sg=sg, segment=first + j,
                        dirty=dirty, with_parity=with_parity,
                        blocks=blocks[j], partial=blocks[j] < size))
                end = max(end, done)
            # Flush control (§4.1): per segment, or per SG boundary.
            # The internal durability flush drains the drives' buffered
            # backlog — reclaim I/O included — behind the application
            # ack: the drain still occupies the NAND timelines, so later
            # I/O queues after it.  The application-initiated flush
            # (handle_flush) blocks.
            if per_segment or self.groups[sg].next_segment >= per_group:
                cache.members.flush(ends[-1])
        # Watermark-driven reclaim.  Below the high watermark the
        # scheduler trickles: one victim group at a time, and only
        # once the previous reclaim's device I/O has finished (pacing
        # — an unbounded backlog of copy writes would push every later
        # foreground ack out through the drives' buffers).  Kicking at
        # the HIGH watermark keeps headroom above the hard floor, so
        # foreground rolls rarely wait on an unfinished reclaim;
        # waiting throttles the foreground, which slows invalidation,
        # which makes the next victims more valid — a feedback loop
        # that settles at high amplification.  If the trickle cannot
        # keep up, the roll path stalls at the hard floor.
        reclaim = cache.config.reclaim
        if (not cache.reclaimer.running
                and len(self._free) < reclaim.gc_free_low):
            cache.reclaimer.reclaim_until(reclaim.gc_free_high, end)
        return end

    def _units(self, sg: int, segment: int, n_blocks: int,
               with_parity: bool) -> List[Tuple[int, int]]:
        """A segment's unit writes, ``(member, length)``: one per member
        persists the whole segment.

        Each unit is MS + its rows + ME, contiguous from the unit
        start (a full unit is exactly ``segment_unit`` bytes).  Blocks
        fill the data units in order; parity covers the written rows of
        the stripe, and the first unit holds the row high-watermark.
        """
        per_unit = self.layout.data_blocks_per_unit
        units = [(idx, (min(per_unit, n_blocks - k) + 2) * PAGE_SIZE)
                 for k, idx in zip(range(0, n_blocks, per_unit),
                                   self.layout.data_ssds(sg, segment,
                                                         with_parity))]
        if with_parity:
            units.append((self.layout.parity_ssd(sg, segment),
                          (min(per_unit, n_blocks) + 2) * PAGE_SIZE))
        return units
