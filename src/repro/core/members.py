"""Member-device I/O and failure handling (paper §4.1, §4.3).

:class:`Members` (held as ``cache.members``) is the one path from SRC
to its SSDs.  It owns

* :meth:`Members.submit` — every request to a member runs under the
  retry policy and feeds the fail-slow detectors; a drive that keeps
  erroring or limps is converted to fail-stop, a hot spare may take
  its slot (:mod:`repro.repair`), and when the array can no longer
  serve the cache degrades to origin bypass;
* the lean twins the segment sealer and reclaim use while every side
  channel of ``submit`` is provably inert (:meth:`Members.write`,
  :meth:`Members.flush`, :meth:`Members.read_extents`; to add a side
  channel to ``submit``, add its liveness check to
  :meth:`Members.seal_fast_ok`);
* :meth:`Members.read` — a cached block's read around a dead member,
  a not-yet-rebuilt unit or a checksum mismatch: reconstruct from the
  stripe when the segment carries parity, refetch clean data from the
  origin otherwise, and re-log what was recovered on healthy drives.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.common.errors import DeviceFailedError, RequestTimeoutError
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.mapping import CacheEntry
from repro.faults.failslow import FailSlowDetector
from repro.faults.policy import RetryPolicy, submit_with_retry
from repro.obs.events import (BypassEntered, DegradedRead, DeviceLimping,
                              FlushBarrier)
from repro.ssd.device import SSDDevice


class Members:
    """Resilient submission to, and reads around, one cache's SSDs."""

    def __init__(self, cache) -> None:
        self.cache = cache
        faults = cache.config.faults
        self.retry_policy = RetryPolicy(
            max_attempts=faults.retry_attempts,
            backoff=faults.retry_backoff,
            timeout=faults.retry_timeout)
        self.failslow: Optional[FailSlowDetector] = (
            FailSlowDetector(faults.failslow_p99,
                             window=faults.failslow_window,
                             min_samples=min(64, faults.failslow_window))
            if faults.failslow_p99 > 0 else None)
        # FLUSH latencies get their own detector: flushes are rare and
        # orders of magnitude slower, so one window would drown both
        # signals; a limping drive often shows in FLUSH first, a backed-up
        # buffer's drain magnifying a slowdown (docs/fault_model.md).
        self.flush_failslow: Optional[FailSlowDetector] = (
            FailSlowDetector(faults.failslow_flush_p99,
                             window=32, min_samples=8)
            if faults.failslow_flush_p99 > 0 else None)

    def alive(self, idx: int) -> bool:
        return not getattr(self.cache.ssds[idx], "failed", False)

    # ==================================================================
    # resilient submission (retry/backoff, fail-slow, bypass)
    # ==================================================================
    def submit(self, idx: int, req: Request, now: float) -> Optional[float]:
        """Submit to one SSD under the retry policy; None if it died.

        Transient errors are retried with exponential backoff inside
        the configured timeout budget; exhaustion (or a fail-stop error
        from the device) converts the drive to fail-stop and returns
        None so callers skip or reconstruct around it.  Completion
        latencies feed the fail-slow detectors: a drive whose rolling
        p99 crosses the threshold is likewise converted to fail-stop.
        """
        cache = self.cache
        stats = cache.srcstats

        def count_retry(_attempt: int) -> None:
            stats.retries += 1

        ssd = cache.ssds[idx]
        try:
            end = submit_with_retry(ssd, req, now, self.retry_policy,
                                    obs=cache.obs, on_retry=count_retry)
        except RequestTimeoutError:
            stats.retry_give_ups += 1
            self._convert_fail_stop(idx, now)
            return None
        except DeviceFailedError:
            self._convert_fail_stop(idx, now)
            return None
        if req.op is Op.FLUSH:
            detector = self.flush_failslow
        else:
            detector = self.failslow if req.op is not Op.TRIM else None
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
            if getattr(getattr(device, "plan", None), "armed", False):
                return True
        return False

    def seal_fast_ok(self) -> bool:
        """Whether :meth:`write`, :meth:`flush` and :meth:`read_extents`
        may use the SSDs' lean submission: only while every side channel
        of :meth:`submit` is inert — no fail-slow detector sampling, no
        telemetry on SRC or a member, every member a plain ``SSDDevice``
        (an injector wrapper or test double keeps the full path), no
        armed fault plan (retry only acts on injected errors).  Read
        once per call: the lean path runs none of those, so nothing in
        the loop can flip it."""
        cache = self.cache
        return (self.failslow is None and self.flush_failslow is None
                and not cache.obs.enabled
                and all(type(s) is SSDDevice and not s.obs.enabled
                        for s in cache.ssds)
                and not self.armed_fault())

    def write(self, segments, origin: IoOrigin) -> List[float]:
        """Each segment's ``(offset, now, [(member, length)])`` unit
        WRITEs to the live members; each segment's end.  Lean: a member's
        units of 2+ segments as one extent batch; else segment by segment."""
        ends = [now for _, now, _ in segments]
        lean, batch, ssds = self.seal_fast_ok(), {}, self.cache.ssds
        many = lean and len(segments) > 1
        for j, (offset, now, units) in enumerate(segments):
            for idx, size in units:
                if not self.alive(idx):
                    continue
                if many:
                    batch.setdefault(idx, []).append((offset, size, now, j))
                    continue
                done = (ssds[idx].submit_write_fast(offset, size, now, origin)
                        if lean else self.submit(idx, Request(
                            Op.WRITE, offset, size, origin=origin), now))
                if done is not None and done > ends[j]:
                    ends[j] = done
        for idx, rows in batch.items():
            offsets, lengths, nows, js = zip(*rows)
            for j, done in zip(js, ssds[idx].submit_extents(
                    Op.WRITE, np.array(offsets), np.array(lengths),
                    np.array(nows), origin).tolist()):
                ends[j] = max(ends[j], done)
        return ends

    def flush(self, now: float) -> float:
        """FLUSH every live member; returns when the last one drained."""
        cache, fast, end = self.cache, self.seal_fast_ok(), now
        for idx in range(len(cache.ssds)):
            if self.alive(idx):
                done = (cache.ssds[idx].submit_flush_fast(now) if fast
                        else self.submit(idx, Request(Op.FLUSH), now))
                if done is not None:
                    end = max(end, done)
        cache.srcstats.flush_commands += 1
        if cache.obs.enabled:
            cache.obs.emit(FlushBarrier(t=now, device=cache.name))
        return end

    def read_extents(self, idx: int, offsets, lengths, now: float,
                     origin: IoOrigin) -> Optional[float]:
        """One member's READ spans (reclaim's victim reads), all issued
        at ``now``: when the last one completed, None if none did."""
        if self.seal_fast_ok():
            try:
                return self.cache.ssds[idx].submit_extents(
                    Op.READ, offsets, lengths, now, origin).max().item()
            except DeviceFailedError:
                self._convert_fail_stop(idx, now)
                return None
        dones = [self.submit(idx, Request(Op.READ, o, n, origin=origin), now)
                 for o, n in zip(offsets.tolist(), lengths.tolist())]
        return max((d for d in dones if d is not None), default=None)

    def _convert_fail_stop(self, idx: int, now: float) -> None:
        """Stop using a drive that keeps erroring or is limping."""
        cache = self.cache
        ssd = cache.ssds[idx]
        if not getattr(ssd, "failed", False):
            if hasattr(ssd, "fail"):
                ssd.fail()
            else:
                ssd.failed = True
            cache.srcstats.failstop_conversions += 1
        # Repair before bypass: a hot spare may take the slot here, and
        # then the bypass check below no longer counts this drive against
        # the tolerance.  Notified unconditionally — a drive that died on
        # its own reports ``failed`` before we mark it, and needs a spare.
        cache.repair.on_member_failed(idx, now)
        # Bypass is the last resort: a slot a hot spare has taken
        # counts only as REBUILDING (still one missing data copy per
        # stripe until its job completes), so with one spare attached a
        # parity array keeps serving instead of declaring the cache
        # lost.
        if not cache.bypass and cache.config.faults.bypass_on_failure:
            missing = cache.repair.missing_members()
            tolerated = 1 if cache.config.raid_level in (4, 5) else 0
            if missing > tolerated:
                self.enter_bypass(now, f"{missing} of {len(cache.ssds)} "
                                  "members unavailable")

    def enter_bypass(self, now: float, reason: str) -> None:
        """Degrade to pass-through: all I/O goes straight to the origin.

        Dirty blocks that were only in the cache become unreachable;
        they are counted explicitly (the cost of graceful degradation —
        Table 5's loss column, not silent corruption).
        """
        cache = self.cache
        if cache.bypass:
            return
        cache.bypass = True
        lost = cache.mapping.dirty_count + len(cache.dirty_buf)
        cache.srcstats.bypass_lost_dirty += lost
        cache.repair.enter_bypass(now)
        if cache.obs.enabled:
            cache.obs.emit(BypassEntered(t=now, device=cache.name,
                                         reason=reason, lost_dirty=lost))

    # ==================================================================
    # reads with integrity / failure handling (§4.1)
    # ==================================================================
    def read(self, block: int, entry: CacheEntry, now: float) -> float:
        """Read one mapped block from its home member, or around it."""
        cache = self.cache
        loc = entry.location
        ssd = cache.ssds[loc.ssd]
        if not self.alive(loc.ssd):
            return self._degraded_read(block, entry, now)
        if not cache.repair.unit_ready(loc.ssd, loc.sg, loc.segment):
            # A rebuilding spare holds the slot but this unit is not
            # reconstructed yet; serve degraded and pull the unit to
            # the front of the rebuild queue.
            cache.repair.promote(loc.ssd, loc.sg, loc.segment)
            return self._degraded_read(block, entry, now)
        end = self.submit(loc.ssd, Request(Op.READ, loc.offset, PAGE_SIZE),
                          now)
        if end is None:   # the home drive just died under this read
            if cache.bypass:
                cache.srcstats.bypass_reads += 1
                return cache.origin_read(block, now)
            return self._degraded_read(block, entry, now)
        corrupted = getattr(ssd, "corrupted_in", None)
        if corrupted is not None and corrupted(loc.offset, PAGE_SIZE):
            end = self.repair_corruption(block, entry, end)
            self._reinsert(block, entry, end)
        return end

    def stripe_read(self, entry: CacheEntry, now: float) -> float:
        """Read the same-row blocks from every other SSD (reconstruct)."""
        cache = self.cache
        loc = entry.location
        end = now
        for idx in range(cache.config.n_ssds):
            # (A rebuilding spare's copy of the unit is not there yet.)
            if (idx == loc.ssd or not self.alive(idx)
                    or not cache.repair.unit_ready(idx, loc.sg, loc.segment)):
                continue
            # Same row of every unit: the units share their offset.
            done = self.submit(idx, Request(Op.READ, loc.offset, PAGE_SIZE),
                               now)
            if done is not None:
                end = max(end, done)
        return end

    def can_reconstruct(self, entry: CacheEntry) -> bool:
        """Whether parity reconstruction has all its source copies.

        Requires the segment to carry parity AND every member of the
        stripe other than the entry's home to be alive with its unit
        readable (a second failure or a still-rebuilding spare among
        the sources makes the stripe unreconstructable).
        """
        cache = self.cache
        loc = entry.location
        summary = cache.metadata.read_summary(loc.sg, loc.segment)
        with_parity = (summary.with_parity if summary is not None
                       else cache.segments.parity_flag(entry.dirty))
        # A parity segment spans every member: data units plus parity.
        return with_parity and all(
            self.alive(idx)
            and cache.repair.unit_ready(idx, loc.sg, loc.segment)
            for idx in range(cache.config.n_ssds) if idx != loc.ssd)

    def _degraded_read(self, block: int, entry: CacheEntry,
                       now: float) -> float:
        """Serve a read whose home SSD has failed."""
        cache = self.cache
        cache.srcstats.degraded_reads += 1
        if cache.obs.enabled:
            cache.obs.emit(DegradedRead(t=now, device=cache.name, lba=block))
        if self.can_reconstruct(entry):
            cache.srcstats.parity_reconstructions += 1
            end = self.stripe_read(entry, now)
            # Reconstructed data is re-cached through the proper buffer
            # so it lands on healthy drives.
            self._reinsert(block, entry, end)
            return end
        # No parity: clean data can be re-fetched; dirty data is lost.
        if entry.dirty:
            cache.srcstats.unrecoverable_errors += 1
        cache.mapping.invalidate(block)
        cache.hotness.evict(block)
        fetch_end = cache.origin_read(block, now)
        cache.staging.put(block, fetch_end)
        cache._fill_clean(block, fetch_end)
        return fetch_end

    def repair_corruption(self, block: int, entry: CacheEntry,
                          now: float) -> float:
        """Checksum mismatch on read: recover via parity or re-fetch, in
        place (the caller moves the block, or re-logs it)."""
        cache = self.cache
        loc = entry.location
        if self.can_reconstruct(entry):
            cache.srcstats.parity_reconstructions += 1
            end = self.stripe_read(entry, now)
        else:
            if entry.dirty:
                cache.srcstats.unrecoverable_errors += 1
            end = cache.origin_read(block, now)
        cache.srcstats.corruption_repairs += 1
        if hasattr(cache.ssds[loc.ssd], "clear_corruption"):
            cache.ssds[loc.ssd].clear_corruption(loc.offset, PAGE_SIZE)
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
