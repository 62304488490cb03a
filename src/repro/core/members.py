"""Member-device I/O and the reads around a lost block (paper §4.1, §4.3).

:class:`Members` (held as ``cache.members``) is the one path from SRC
to its SSDs.  :meth:`Members.submit` runs a request under the retry
policy and the fail-slow detectors; a drive that keeps erroring or
limps is converted to fail-stop and the cache decides what the loss
means (:meth:`~repro.core.src.SrcCache.member_failed`).  Where those
side channels are inert (:meth:`Members.lean`) the SSD's own lean
entries stand in (:meth:`Members.issue`, :meth:`Members.read`).  A read
around a dead member, a not-yet-rebuilt unit or a checksum mismatch
rebuilds the block from its stripe when the segment carries parity,
refetches clean data from the origin otherwise, and re-logs it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.common.errors import DeviceFailedError, RequestTimeoutError
from repro.common.types import (FLUSH, FOREGROUND, READ, TRIM, WRITE,
                                IoOrigin, Op, Request)
from repro.common.units import PAGE_SIZE
from repro.core.mapping import CacheEntry
from repro.faults.failslow import FailSlowDetector
from repro.faults.policy import submit_with_retry
from repro.obs.events import DegradedRead, DeviceLimping, FlushBarrier
from repro.ssd.device import SSDDevice


class Members:
    """Resilient submission to, and reads around, one cache's SSDs."""

    def __init__(self, cache) -> None:
        self.cache = cache
        faults = cache.config.faults
        self.failslow: Optional[FailSlowDetector] = (
            FailSlowDetector(faults.failslow_p99,
                             window=faults.failslow_window,
                             min_samples=min(64, faults.failslow_window))
            if faults.failslow_p99 > 0 else None)
        # FLUSH latencies get their own detector: flushes are rare and far
        # slower, so one window would drown both signals; a limping drive
        # often shows in FLUSH first (docs/fault_model.md).
        self.flush_failslow: Optional[FailSlowDetector] = (
            FailSlowDetector(faults.failslow_flush_p99,
                             window=32, min_samples=8)
            if faults.failslow_flush_p99 > 0 else None)

    def alive(self, idx: int) -> bool:
        return not self.cache.ssds[idx].failed

    def _count_retry(self, _attempt: int) -> None:
        self.cache.srcstats.retries += 1

    # ==================================================================
    # resilient submission (retry/backoff, fail-slow)
    # ==================================================================
    def submit(self, idx: int, req: Request, now: float) -> Optional[float]:
        """Submit to one SSD under the retry policy; None if it died.

        Transient errors are retried with backoff inside the timeout
        budget; exhaustion or a fail-stop error converts the drive to
        fail-stop, and so does a rolling p99 over the fail-slow
        detector's threshold."""
        cache = self.cache
        stats, ssd = cache.srcstats, cache.ssds[idx]
        try:
            end = submit_with_retry(ssd, req, now, obs=cache.obs,
                                    on_retry=self._count_retry)
        except (RequestTimeoutError, DeviceFailedError) as exc:
            stats.retry_give_ups += isinstance(exc, RequestTimeoutError)
            self._convert_fail_stop(idx, now)
            return None
        detector = (self.flush_failslow if req.op is FLUSH
                    else None if req.op is TRIM else self.failslow)
        if detector is not None and detector.observe(idx, end - now):
            stats.limping_detected += 1
            if cache.obs.enabled:
                cache.obs.emit(DeviceLimping(
                    t=end, device=ssd.name, p99=detector.p99(idx) or 0.0,
                    threshold=detector.p99_threshold))
            self._convert_fail_stop(idx, end)
        return end

    def armed_fault(self) -> bool:
        """True while any member (or the origin) has an armed plan."""
        for device in (*self.cache.ssds, self.cache.origin):
            plan = getattr(device, "plan", None)
            if plan is not None and plan.armed:
                return True
        return False

    def lean(self, ssd) -> bool:
        """Whether :meth:`submit` to ``ssd`` reduces to its lean entries: a
        plain ``SSDDevice`` (nothing to retry), telemetry off, no detector."""
        return (type(ssd) is SSDDevice and not ssd.obs.enabled
                and self.failslow is None)

    def seal_fast_ok(self) -> bool:
        """Whether :meth:`issue` may go lean: every member :meth:`lean`, no
        FLUSH detector, SRC telemetry or armed fault plan.  Read once per
        call: the lean path runs none of those, so none can flip it."""
        cache = self.cache
        return (self.flush_failslow is None and not cache.obs.enabled
                and all(map(self.lean, cache.ssds))
                and not self.armed_fault())

    def issue(self, op: Op, commands,
              origin: IoOrigin) -> List[Optional[float]]:
        """``op`` on each ``(member, offset, length, now)`` command: when
        it completed, None where the member is dead or died.  A READ may
        carry columns of offsets and lengths (a run from one ``now``, its
        member's only command).  Lean: a lone command by :meth:`_fork`
        (no grouping when each member has one, as unit writes and FLUSH
        do), a member's several as one ``submit_extents`` batch.  Else a
        :meth:`submit` per extent in order: each sees every earlier one."""
        if not self.seal_fast_ok():
            done = []
            for idx, offsets, lengths, now in commands:
                spans = (zip(offsets.tolist(), lengths.tolist())
                         if isinstance(offsets, np.ndarray)
                         else [(offsets, lengths)])
                done.append(latest(None, [
                    self.submit(idx, Request(op, offset, length, False,
                                             origin), now)
                    for offset, length in spans if self.alive(idx)]))
            return done
        if type(commands) is not list:
            commands = list(commands)
        if len({command[0] for command in commands}) == len(commands):
            return [self._fork(op, *command, origin) for command in commands]
        done: List[Optional[float]] = [None] * len(commands)
        rows: dict = {}
        for i, command in enumerate(commands):
            rows.setdefault(command[0], []).append(i)
        for idx, mine in rows.items():
            if len(mine) == 1:
                done[mine[0]] = self._fork(op, *commands[mine[0]], origin)
            elif self.alive(idx):
                _, offsets, lengths, nows = zip(*[commands[i] for i in mine])
                try:
                    ends = self.cache.ssds[idx].submit_extents(
                        op, np.array(offsets), np.array(lengths), nows, origin)
                except DeviceFailedError:
                    self._convert_fail_stop(idx, nows[0])
                    continue
                for i, end in zip(mine, ends.tolist()):
                    done[i] = end
        return done

    def _fork(self, op: Op, idx: int, offset, length, now: float,
              origin: IoOrigin) -> Optional[float]:
        """A member's lone command by its lean entry; None if it died."""
        ssd = self.cache.ssds[idx]
        if ssd.failed:
            return None
        try:
            if op is WRITE:
                return ssd.submit_write_fast(offset, length, now, origin)
            if op is FLUSH:
                return ssd.submit_flush_fast(now)
            if op is TRIM:
                return ssd.submit(Request(op, offset, length, False, origin),
                                  now)
            return ssd.submit_extents(op, np.atleast_1d(offset),
                                      np.atleast_1d(length), now,
                                      origin).max().item()
        except DeviceFailedError:
            self._convert_fail_stop(idx, now)
            return None

    def flush(self, now: float) -> float:
        """FLUSH every live member; returns when the last one drained."""
        cache = self.cache
        end = latest(now, self.issue(
            FLUSH, [(idx, 0, 0, now) for idx in range(len(cache.ssds))],
            FOREGROUND))
        cache.srcstats.flush_commands += 1
        if cache.obs.enabled:
            cache.obs.emit(FlushBarrier(t=now, device=cache.name))
        return end

    def _convert_fail_stop(self, idx: int, now: float) -> None:
        """Stop using an erroring or limping drive; tell the cache even
        if the drive died on its own (it needs a spare)."""
        cache = self.cache
        if not cache.ssds[idx].failed:
            cache.ssds[idx].fail()
            cache.srcstats.failstop_conversions += 1
        cache.member_failed(idx, now)

    # ==================================================================
    # reads with integrity / failure handling (§4.1)
    # ==================================================================
    def read(self, block: int, now: float) -> float:
        """Read one mapped block from its home member, or around it.  The
        mapping entry is built only off the plain path."""
        cache = self.cache
        idx, offset = cache.mapping.home(block)
        ssd = cache.ssds[idx]
        if ssd.failed:
            return self._degraded_read(block, now)
        if cache.repair.jobs:
            loc = cache.mapping.lookup(block).location
            if not cache.repair.unit_ready(idx, loc.sg, loc.segment):
                # A rebuilding spare holds the slot but not yet this unit:
                # serve degraded, pull the unit to the rebuild queue's front.
                cache.repair.promote(idx, loc.sg, loc.segment)
                return self._degraded_read(block, now)
        try:
            end = (ssd.submit_read_fast(offset, PAGE_SIZE, now)
                   if self.lean(ssd) else
                   self.submit(idx, Request(READ, offset, PAGE_SIZE), now))
        except DeviceFailedError:       # the lean read met a dead drive
            self._convert_fail_stop(idx, now)
            end = None
        if end is None:   # the home drive just died under this read
            if cache.bypass:
                cache.srcstats.bypass_reads += 1
                return cache.origin_read(block, now)
            return self._degraded_read(block, now)
        if ssd.corrupted_in(offset, PAGE_SIZE):
            entry = cache.mapping.lookup(block)
            end = self.repair_corruption(block, entry, end)
            self._reinsert(block, entry, end)
        return end

    def stripe_read(self, home: int, offset: int, length: int, now: float,
                    origin: IoOrigin) -> float:
        """The range on every member but ``home`` (a stripe's units share
        offsets) as one :meth:`issue`; its last end.  Ask
        :meth:`can_reconstruct` first."""
        return latest(now, self.issue(READ, [
            (idx, offset, length, now)
            for idx in range(self.cache.config.n_ssds) if idx != home],
            origin))

    def can_reconstruct(self, home: int, sg: int, segment: int,
                        dirty: bool) -> bool:
        """Whether parity can rebuild ``home``'s unit of a segment: it
        carries parity (by ``dirty`` while its summary is unwritten) and
        every other member is alive with its unit readable."""
        cache = self.cache
        summary = cache.metadata.read_summary(sg, segment)
        with_parity = (summary.with_parity if summary is not None
                       else cache.segments.parity_flag(dirty))
        # A parity segment spans every member: data units plus parity.
        return with_parity and all(
            self.alive(idx) and cache.repair.unit_ready(idx, sg, segment)
            for idx in range(cache.config.n_ssds) if idx != home)

    def _parity_read(self, entry: CacheEntry, now: float) -> Optional[float]:
        """A block rebuilt from its stripe; None (a dirty one lost) if not."""
        stats, loc = self.cache.srcstats, entry.location
        if not self.can_reconstruct(loc.ssd, loc.sg, loc.segment,
                                    entry.dirty):
            if entry.dirty:
                stats.unrecoverable_errors += 1
            return None
        stats.parity_reconstructions += 1
        return self.stripe_read(loc.ssd, loc.offset, PAGE_SIZE, now,
                                FOREGROUND)

    def _degraded_read(self, block: int, now: float) -> float:
        """Serve a read whose home SSD has failed."""
        cache = self.cache
        entry = cache.mapping.lookup(block)
        cache.srcstats.degraded_reads += 1
        if cache.obs.enabled:
            cache.obs.emit(DegradedRead(t=now, device=cache.name, lba=block))
        end = self._parity_read(entry, now)
        if end is not None:
            # Re-cached through its buffer, so it lands on healthy drives.
            self._reinsert(block, entry, end)
            return end
        # No parity: clean data can be re-fetched; dirty data is lost.
        cache.mapping.invalidate(block)
        cache.hotness.evict(block)
        fetch_end = cache.origin_read(block, now)
        cache._fill(block, fetch_end)
        return fetch_end

    def repair_corruption(self, block: int, entry: CacheEntry,
                          now: float) -> float:
        """Checksum mismatch on read: recover via parity or re-fetch, in
        place (the caller moves the block, or re-logs it)."""
        cache = self.cache
        end = self._parity_read(entry, now)
        if end is None:
            end = cache.origin_read(block, now)
        cache.srcstats.corruption_repairs += 1
        cache.ssds[entry.location.ssd].clear_corruption(
            entry.location.offset, PAGE_SIZE)
        return end

    def _reinsert(self, block: int, entry: CacheEntry, now: float) -> None:
        """Re-log a recovered block through the segment buffers."""
        cache = self.cache
        if cache.bypass:
            return
        cache.mapping.invalidate(block)
        buf = cache.dirty_buf if entry.dirty else cache.clean_buf
        if block not in buf and buf.add(block):     # now full
            cache.segments.seal(dirty=entry.dirty, now=now)


def latest(start: Optional[float], ends) -> Optional[float]:
    """The last of ``start`` and the completions in ``ends`` (None where
    nothing completed); None if there is none."""
    for end in ends:
        if end is not None and (start is None or end > start):
            start = end
    return start
