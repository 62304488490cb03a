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
  configured point, and kick the watermark-driven reclaim (or, in a
  window call, stage: :meth:`SegmentLog.apply_staged` finishes it);
* :meth:`SegmentLog.install`, the one place a segment's slots become
  mapping entries — the sealer calls it with a buffer's blocks, crash
  recovery (:mod:`repro.core.recovery`) with a summary's columns.

Reclaim always runs behind the foreground: its state changes apply at
once, its device I/O is issued from the triggering segment's ack time
onward and overlaps later writes instead of extending that ack.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.checksum import block_checksum, block_checksums_array
from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.errors import ConfigError
from repro.common.types import FOREGROUND, GC, WRITE
from repro.common.units import PAGE_SIZE
from repro.core.arrays import B_MAPPED
from repro.core.config import CleanRedundancy, FlushPoint
from repro.core.members import latest
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
        # A window call's staged seals (None outside one), per-FTL pages.
        self.staged: Optional[list] = None
        self._owed: Dict[object, list] = {}

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
        if self._reclaim_due():
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
            cache.reclaimer.reclaim_until(cache.config.reclaim.gc_free_low,
                                          end, force_s2d=True)
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
        read-mostly workload's seals (docs/performance.md), as lists.
        """
        cache = self.cache
        mapping = cache.mapping
        n_blocks = len(lbas)
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
            if lbas.shape[0]:
                mapping.insert_members(lbas, sg, dirty)
                mapping.insert_payload(lbas, segments, ssds, offsets,
                                       checksums, versions)
            return checksums.tolist()
        # One segment: slot s is row s % per_unit (past MS) of the unit
        # on data SSD s // per_unit, as in ``slot_locations_array``.
        layout, installed = self.layout, []
        per_unit = layout.data_blocks_per_unit
        order = layout.data_ssds(sg, segment, with_parity)
        base = layout.unit_offset(sg, segment) + PAGE_SIZE
        insert_row = mapping.insert_row
        if type(lbas) is not list:
            lbas, versions = lbas.tolist(), versions.tolist()
        for slot, (lba, version) in enumerate(zip(lbas, versions)):
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
        installed, summarized torn, written by one ``Members.issue`` and
        only then sealed; members flush where a group ends."""
        if self.staged is not None:
            end = self._stage(now) if dirty and more is None else None
            if end is not None:
                return end
            self.apply_staged(self.staged)
        cache = self.cache
        buf = cache.dirty_buf if dirty else cache.clean_buf
        # A lone segment under SCALAR_THRESHOLD blocks (mostly TWAIT's)
        # keeps its columns as Python-int lists from drain to summary.
        size, lbas = buf.capacity, (
            buf.drain() if more is None and len(buf) < SCALAR_THRESHOLD
            else buf.drain_array())
        if not len(lbas):
            return now
        if more is not None:
            lbas = np.concatenate((lbas, more))
        with_parity = self.parity_flag(dirty)
        per_group = self.layout.segments_per_group
        per_segment = cache.config.flush_point is FlushPoint.PER_SEGMENT
        origin = GC if cache.reclaimer.running else FOREGROUND
        end, pos, n_blocks = now, 0, len(lbas)
        while pos < n_blocks:
            sg, first, start = self._alloc_segment(now)
            k = 1 if per_segment else min(-(-(n_blocks - pos) // size),
                                          per_group - first)
            self.groups[sg].next_segment += k - 1
            chunk = lbas[pos:pos + k * size]
            pos += len(chunk)
            if type(chunk) is list:
                cache._versions.ensure(max(chunk) + 1)
                versions = list(map(cache._versions.a_v.__getitem__, chunk))
            else:
                versions = cache._versions.ensure(int(chunk.max()) + 1)[chunk]
            checksums = self.install(sg, first, chunk, versions, dirty,
                                     with_parity)
            # MS lands with the first pages of the unit writes; ME seals
            # each segment once every unit of the chunk completed.  A
            # power cut in between durably leaves torn summaries for
            # recovery to discard.
            blocks = [min(size, len(chunk) - lo)
                      for lo in range(0, len(chunk), size)]
            self._summarize(sg, first, chunk, checksums, versions, blocks,
                            dirty, with_parity)
            segments = [(self.layout.unit_offset(sg, first + j),
                         now if j else start,
                         self.layout.units(sg, first + j, n, with_parity))
                        for j, n in enumerate(blocks)]
            dones = iter(cache.members.issue(WRITE, [
                (idx, offset, length, at) for offset, at, units in segments
                for idx, length in units], origin))
            for j, (_, at, units) in enumerate(segments):
                done = latest(at, islice(dones, len(units)))
                cache.metadata.seal_summary(sg, first + j)
                if cache.obs.enabled:
                    cache.obs.emit(SegmentSealed(
                        t=done, device=cache.name, sg=sg, segment=first + j,
                        dirty=dirty, with_parity=with_parity,
                        blocks=blocks[j], partial=blocks[j] < size))
                end = max(end, done)
            self._written(sg, blocks, size, done)
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
        if self._reclaim_due():
            cache.reclaimer.reclaim_until(cache.config.reclaim.gc_free_high,
                                          end)
        return end

    def _reclaim_due(self) -> bool:
        """Free groups under the low watermark, no reclaim running."""
        return (not self.cache.reclaimer.running and len(self._free)
                < self.cache.config.reclaim.gc_free_low)

    def _summarize(self, sg: int, first: int, lbas: np.ndarray,
                   checksums: List[int], versions: np.ndarray,
                   blocks: List[int], dirty: bool, with_parity: bool) -> None:
        """Write, torn, the summaries of segments ``first + j``, each of
        the next ``blocks[j]`` slots."""
        metadata, lo = self.cache.metadata, 0
        generation = self._sg_sequence * self.layout.segments_per_group + 1
        if type(lbas) is not list:
            lbas, versions = lbas.tolist(), versions.tolist()
        for segment, n in enumerate(blocks, first):
            metadata.write_summary(SegmentSummary(
                sg=sg, segment=segment, sequence=metadata.next_sequence(),
                generation=generation + segment, dirty=dirty,
                with_parity=with_parity, lbas=lbas[lo:lo + n],
                checksums=checksums[lo:lo + n],
                versions=versions[lo:lo + n]), torn=True)
            lo += n

    def _written(self, sg: int, blocks: List[int], size: int,
                 done: float) -> None:
        """Count segment writes of ``blocks`` slots each (``size`` when
        full) and flush as configured (§4.1), per segment or SG: a drain
        of the drives' backlog, reclaim I/O included, behind the ack
        that later I/O queues after (handle_flush's flush blocks)."""
        cache, group = self.cache, self.groups[sg]
        cache.srcstats.segment_writes += len(blocks)
        cache.srcstats.partial_segment_writes += sum(n < size for n in blocks)
        if (cache.config.flush_point is FlushPoint.PER_SEGMENT
                or group.next_segment >= self.layout.segments_per_group):
            cache.members.flush(done)

    def _stage(self, now: float) -> Optional[float]:
        """A window call's foreground dirty seal, staged: the membership
        half and timed unit writes, FTL pages owed to :meth:`apply_staged`
        (a member whose FTL the unit would roll is written at once).  None
        (seal now) off the lean path, at a group roll or a reclaim kick."""
        cache, layout, group = self.cache, self.layout, self.active
        buf, members, owed = cache.dirty_buf, cache.members, self._owed
        n = len(buf)
        if (not n or cache.reclaimer.running or self._reclaim_due()
                or group.next_segment >= layout.segments_per_group
                or not members.seal_fast_ok()):
            return None
        sg, segment = group.index, group.next_segment
        group.next_segment += 1
        lbas = buf.drain_array()
        versions = cache._versions.ensure(int(lbas.max()) + 1)[lbas]
        self.staged.append((sg, segment, lbas, versions))
        cache.mapping.insert_members(lbas, sg, True)
        offset, end = layout.unit_offset(sg, segment), now
        for idx, size in layout.units(sg, segment, n, self.parity_flag(True)):
            if not members.alive(idx):
                continue
            ssd = cache.ssds[idx]
            page = ssd.spec.page_size
            first = offset // page
            pages = (offset + size + page - 1) // page - first
            extents = owed.setdefault(ssd.ftl, [])
            if ssd.ftl.fits(pages + sum(e[1] for e in extents)):
                extents.append((first, pages))
            else:               # it rolls: the FTL is written up to here
                if owed.pop(ssd.ftl):
                    ssd.ftl.write_extents(*map(np.array, zip(*extents)))
                pages = None
            done = ssd.submit_write_fast(offset, size, now, FOREGROUND, pages)
            end = done if done > end else end
        self._written(sg, [n], buf.capacity, end)
        return end

    def apply_staged(self, staged: list) -> None:
        """Finish ``staged`` (emptied first), this log's staged seals in
        segment order: one payload install, the summaries torn then
        sealed, one FTL write per member."""
        owed, self._owed = self._owed, {}
        if not staged:
            return
        (sg, *_), (first, *_), lbas, versions = zip(*staged)
        staged.clear()
        counts = [seal.shape[0] for seal in lbas]
        lbas, versions = np.concatenate(lbas), np.concatenate(versions)
        checksums = block_checksums_array(lbas, versions)
        with_parity = self.parity_flag(True)
        self.cache.mapping.insert_payload(lbas, *self.layout.locations(
            sg, first, counts, with_parity), checksums, versions)
        self._summarize(sg, first, lbas, checksums.tolist(), versions,
                        counts, True, with_parity)
        for segment in range(first, first + len(counts)):
            self.cache.metadata.seal_summary(sg, segment)
        for ftl, extents in owed.items():
            ftl.write_extents(*map(np.array, zip(*extents)))
