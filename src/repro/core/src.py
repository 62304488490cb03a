"""SRC — SSD RAID as a Cache (paper §4).

The cache target that ties the pieces together:

* log-structured writes into Segment Groups aligned to the SSDs' erase
  group size, with one active SG at a time (§4.1);
* separate in-RAM segment buffers for clean and dirty data, a staging
  buffer for read misses, and a TWAIT partial-segment timeout;
* per-segment metadata blocks (MS/ME) bundling LBAs and checksums with
  the data, so both clean and dirty contents survive crashes;
* cache-level RAID-0/4/5 stripes assembled inside segments, with the
  NPC option that omits parity for clean-data segments (§4.3);
* free-space reclamation (:mod:`repro.core.reclaim`) by S2D destaging
  or Sel-GC, with FIFO or Greedy victims and the UMAX bound (§4.2);
* flush-command control: SSD flushes per segment or per SG (§4.1);
* failure handling: parity reconstruction for reads under a failed or
  silently-corrupted SSD block, online rebuild, and crash recovery by
  metadata scan (implemented in :mod:`repro.core.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import CacheTarget
from repro.block.device import BlockDevice
from repro.common.checksum import block_checksum, block_checksums_array
from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.errors import (ConfigError, DeviceFailedError,
                                 RaidDegradedError, RequestTimeoutError)
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.arrays import (B_CLEAN, B_DIRTY, B_MAPPED, B_NONE,
                               B_STAGING, BlockState, VersionArray)
from repro.core.buffers import RAM_LATENCY, SegmentBuffer, StagingBuffer
from repro.core.config import CleanRedundancy, FlushPoint, SrcConfig
from repro.core.hotness import HotnessBitmap
from repro.core.layout import SegmentLayout
from repro.core.mapping import CacheEntry, MappingTable
from repro.core.metadata import (MetadataStore, SegmentSummary, Superblock,
                                 SRC_MAGIC)
from repro.core.reclaim import Reclaimer
from repro.core.window import WriteWindow
from repro.faults.failslow import FailSlowDetector
from repro.faults.policy import RetryPolicy, submit_with_retry
from repro.obs.events import (BackpressureStall, BypassEntered, DegradedRead,
                              DeviceLimping, FlushBarrier, RebuildProgress,
                              SegmentSealed)
from repro.repair.controller import RepairController


@dataclass
class SrcStats:
    """SRC-specific counters on top of the shared cache stats."""

    segment_writes: int = 0
    partial_segment_writes: int = 0
    sg_allocations: int = 0
    s2s_collections: int = 0
    s2d_collections: int = 0
    gc_copied_blocks: int = 0
    gc_destaged_blocks: int = 0
    gc_dropped_clean: int = 0
    gc_reserved_copies: int = 0
    flush_commands: int = 0
    background_reclaims: int = 0
    throttle_stalls: int = 0
    throttle_wait_s: float = 0.0
    corruption_repairs: int = 0
    parity_reconstructions: int = 0
    degraded_reads: int = 0
    unrecoverable_errors: int = 0
    timeout_flushes: int = 0
    retries: int = 0
    retry_give_ups: int = 0
    failstop_conversions: int = 0
    limping_detected: int = 0
    bypass_reads: int = 0
    bypass_writes: int = 0
    bypass_lost_dirty: int = 0
    # Online repair (repro.repair).
    spares_attached: int = 0
    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    rebuild_units: int = 0
    rebuild_dropped_blocks: int = 0
    rebuild_throttle_defers: int = 0
    mttr_s: float = 0.0              # summed over completed rebuilds
    degraded_window_s: float = 0.0   # total slot-seconds spent unhealthy
    scrub_passes: int = 0
    scrub_checked_blocks: int = 0
    scrub_repairs: int = 0
    scrub_unrepairable: int = 0
    # Cluster shard migration (repro.cluster).
    migrated_in_blocks: int = 0
    migrated_out_blocks: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: dict) -> "SrcStats":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def snapshot(self) -> "SrcStats":
        return SrcStats(**self.__dict__)

    def delta(self, earlier: "SrcStats") -> "SrcStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return SrcStats(**{k: v - getattr(earlier, k)
                           for k, v in self.__dict__.items()})


class _GroupState:
    """Runtime state of one segment group."""

    FREE = "free"
    ACTIVE = "active"
    CLOSED = "closed"

    def __init__(self, index: int):
        self.index = index
        self.state = _GroupState.FREE
        self.next_segment = 0
        self.sequence = -1   # allocation order, for FIFO victim selection


class SrcCache(CacheTarget):
    """The SRC caching device over an array of SSDs."""

    def __init__(self, ssds: List[BlockDevice], origin: BlockDevice,
                 config: SrcConfig = SrcConfig(),
                 metadata: Optional[MetadataStore] = None,
                 create_time: float = 0.0,
                 spares: Optional[List[BlockDevice]] = None):
        if len(ssds) != config.n_ssds:
            raise ConfigError(
                f"config expects {config.n_ssds} SSDs, got {len(ssds)}")
        # Built first: BlockDevice.__init__ assigns ``obs``, and the
        # ``obs`` setter below invalidates the window's gates.
        self.window = WriteWindow(self)
        super().__init__(ssds[0], origin, "src")  # cache_dev unused directly
        self.ssds = ssds
        self.config = config
        self.layout = SegmentLayout(config, min(s.size for s in ssds))
        # One residency array shared by mapping, buffers and staging:
        # a block's cache location is a single uint8 load, and the
        # batch path masks whole chunks against it.
        self._state = BlockState()
        self.mapping = MappingTable(self.layout.groups, state=self._state)
        self.hotness = HotnessBitmap()
        self.dirty_buf = SegmentBuffer(
            self.layout.dirty_segment_capacity(), dirty=True, name="dirty",
            state=self._state, code=B_DIRTY)
        self.clean_buf = SegmentBuffer(
            self.layout.clean_segment_capacity(), dirty=False, name="clean",
            state=self._state, code=B_CLEAN)
        self.staging = StagingBuffer(state=self._state)
        self.metadata = metadata if metadata is not None else MetadataStore()
        self.srcstats = SrcStats()

        self.groups = [_GroupState(i) for i in range(self.layout.groups)]
        # SG 0 holds the superblock and is read-only (§4.1).
        self.groups[0].state = _GroupState.CLOSED
        self._free: List[int] = list(range(self.layout.groups - 1, 0, -1))
        self._closed_fifo: List[int] = []
        self._sg_sequence = 0
        self.active: _GroupState = self._take_free_group()
        self._versions = VersionArray()
        self._last_dirty_write = 0.0
        self.reclaimer = Reclaimer(self)
        # Background reclaim bookkeeping: group index -> simulated time
        # at which its (already state-applied) reclaim I/O completes on
        # the devices.  A foreground roll that takes such a group before
        # that time throttles until the group is time-wise ready.
        self._group_ready: Dict[int, float] = {}

        # Resilience policies (docs/fault_model.md).
        self.bypass = False
        self._retry_policy = RetryPolicy(
            max_attempts=config.faults.retry_attempts,
            backoff=config.faults.retry_backoff,
            timeout=config.faults.retry_timeout)
        self.failslow: Optional[FailSlowDetector] = (
            FailSlowDetector(config.faults.failslow_p99,
                             window=config.faults.failslow_window,
                             min_samples=min(64, config.faults.failslow_window))
            if config.faults.failslow_p99 > 0 else None)
        # FLUSH latencies get their own detector: flushes are rare and
        # orders of magnitude slower than reads/writes, so mixing them
        # into the per-op window would drown both signals
        # (docs/fault_model.md).
        self.flush_failslow: Optional[FailSlowDetector] = (
            FailSlowDetector(config.faults.failslow_flush_p99,
                             window=32, min_samples=8)
            if config.faults.failslow_flush_p99 > 0 else None)
        # Online repair: health state machine, hot spares, rebuild and
        # scrub scheduling (repro.repair; docs/fault_model.md).
        self.repair = RepairController(self, spares)

        # Multi-tenant control plane (repro.tenancy.TenantRegistry
        # installs itself here; None = single-tenant, zero overhead).
        self.tenants = None
        self._active_tenant: Optional[str] = None

        # Everything that can flip a fast-path gate input notifies the
        # window (core/window.py lists the sites).
        self.mapping.on_observer_change = self.window.invalidate
        self.dirty_buf.on_observer_change = self.window.invalidate
        self.clean_buf.on_observer_change = self.window.invalidate
        for device in (*self.ssds, origin):
            self.window.watch_member_faults(device)

        if self.metadata.superblock is None:
            self.metadata.format(Superblock(
                magic=SRC_MAGIC, create_time=create_time,
                device_size=origin.size, n_ssds=config.n_ssds,
                erase_group_size=config.erase_group_size,
                segment_unit=config.segment_unit))

    # ==================================================================
    # small helpers
    # ==================================================================
    def utilization(self) -> float:
        """Fraction of cache data capacity holding valid blocks.

        Capacity is computed for the parity (dirty) layout; NPC clean
        segments pack slightly more, so the raw ratio can nudge past
        1.0 — clamp, since callers treat this as a fraction.
        """
        raw = (self.mapping.valid_blocks()
               / self.layout.cache_data_capacity_blocks())
        return min(1.0, raw)

    @property
    def free_groups(self) -> int:
        return len(self._free)

    def ssd_bytes(self) -> int:
        """Total bytes moved at the SSD-array layer (I/O amplification)."""
        return sum(s.stats.total_bytes for s in self.ssds)

    def io_amplification(self) -> float:
        app = self.stats.total_bytes
        return self.ssd_bytes() / app if app else 0.0

    def _take_free_group(self) -> _GroupState:
        if not self._free:
            raise ConfigError("no free segment groups")
        group = self.groups[self._free.pop()]
        group.state = _GroupState.ACTIVE
        group.next_segment = 0
        self._sg_sequence += 1
        group.sequence = self._sg_sequence
        self.srcstats.sg_allocations += 1
        return group

    def _release_group(self, index: int) -> None:
        """Return a reclaimed (closed, now empty) group to the free list."""
        group = self.groups[index]
        group.state = _GroupState.FREE
        group.next_segment = 0
        self._closed_fifo.remove(index)
        self._free.insert(0, index)

    def _version_of(self, lba: int, bump: bool) -> int:
        if bump:
            self._versions[lba] = self._versions.get(lba, 0) + 1
        return self._versions.get(lba, 0)

    def _alive(self, ssd_idx: int) -> bool:
        return not getattr(self.ssds[ssd_idx], "failed", False)

    @property
    def spares(self) -> List[BlockDevice]:
        """Unattached hot spares (walked by the observability attach)."""
        return self.repair.spares

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, recorder) -> None:
        # Telemetry only changes by (re)assignment (obs.recorder.attach
        # / detach walk the tree setting this attribute), so the setter
        # is the single choke point the window's cached gates need.
        self._obs = recorder
        self.window.invalidate()

    # ==================================================================
    # resilient SSD submission (retry/backoff, fail-slow, bypass)
    # ==================================================================
    def _ssd_submit(self, idx: int, req: Request,
                    now: float) -> Optional[float]:
        """Submit to one SSD under the retry policy; None if it died.

        Transient errors are retried with exponential backoff inside
        the configured timeout budget; exhaustion (or a fail-stop error
        from the device) converts the drive to fail-stop and returns
        None so callers skip or reconstruct around it.  Completion
        latencies feed the fail-slow detector: a drive whose rolling
        p99 crosses the threshold is likewise converted to fail-stop.
        """

        def count_retry(_attempt: int) -> None:
            self.srcstats.retries += 1

        ssd = self.ssds[idx]
        try:
            end = submit_with_retry(ssd, req, now, self._retry_policy,
                                    obs=self.obs, on_retry=count_retry)
        except RequestTimeoutError:
            self.srcstats.retry_give_ups += 1
            self._convert_fail_stop(idx, now)
            return None
        except DeviceFailedError:
            self._convert_fail_stop(idx, now)
            return None
        if (self.failslow is not None and req.op in (Op.READ, Op.WRITE)
                and self.failslow.observe(idx, end - now)):
            self.srcstats.limping_detected += 1
            if self.obs.enabled:
                self.obs.emit(DeviceLimping(
                    t=end, device=ssd.name,
                    p99=self.failslow.p99(idx) or 0.0,
                    threshold=self.config.faults.failslow_p99))
            self._convert_fail_stop(idx, end)
        elif (self.flush_failslow is not None and req.op is Op.FLUSH
                and self.flush_failslow.observe(idx, end - now)):
            # A limping drive often shows in FLUSH first: the drain of
            # a backed-up internal buffer magnifies a modest slowdown.
            self.srcstats.limping_detected += 1
            if self.obs.enabled:
                self.obs.emit(DeviceLimping(
                    t=end, device=ssd.name,
                    p99=self.flush_failslow.p99(idx) or 0.0,
                    threshold=self.config.faults.failslow_flush_p99))
            self._convert_fail_stop(idx, end)
        return end

    def _convert_fail_stop(self, idx: int, now: float) -> None:
        """Stop using a drive that keeps erroring or is limping."""
        ssd = self.ssds[idx]
        if not getattr(ssd, "failed", False):
            if hasattr(ssd, "fail"):
                ssd.fail()
            else:
                ssd.failed = True
            self.srcstats.failstop_conversions += 1
        # Repair before bypass: a hot spare may take the slot here, in
        # which case the bypass check below no longer counts this drive
        # against the tolerance.  Notified unconditionally — a drive
        # that died on its own (fail-stop injection) reports ``failed``
        # before we ever mark it, and needs the spare just as much.
        self.repair.on_member_failed(idx, now)
        self._maybe_bypass(now)

    def _maybe_bypass(self, now: float) -> None:
        """Enter origin-bypass when the array can no longer serve.

        Bypass is the last resort: a slot a hot spare has taken counts
        only as REBUILDING (still one missing data copy per stripe
        until its job completes), so with one spare attached a parity
        array keeps serving instead of declaring the cache lost.
        """
        if self.bypass or not self.config.faults.bypass_on_failure:
            return
        missing = self.repair.missing_members()
        tolerated = 1 if self.config.raid_level in (4, 5) else 0
        if missing > tolerated:
            self._enter_bypass(
                now, f"{missing} of {len(self.ssds)} members unavailable")

    def _enter_bypass(self, now: float, reason: str) -> None:
        """Degrade to pass-through: all I/O goes straight to the origin.

        Dirty blocks that were only in the cache become unreachable;
        they are counted explicitly (the cost of graceful degradation —
        Table 5's loss column, not silent corruption).
        """
        if self.bypass:
            return
        self.bypass = True
        self.window.invalidate()
        lost = self.mapping.dirty_count + len(self.dirty_buf)
        self.srcstats.bypass_lost_dirty += lost
        self.repair.enter_bypass(now)
        if self.obs.enabled:
            self.obs.emit(BypassEntered(t=now, device=self.name,
                                        reason=reason, lost_dirty=lost))

    def _service(self, req: Request, now: float) -> float:
        """Service with graceful degradation: an array-loss error flips
        SRC into origin-bypass and the request is re-served from the
        origin instead of surfacing the failure to the application."""
        # Attribute any reclaim/backpressure stall this request triggers
        # to the tenant that submitted it (None in single-tenant mode).
        self._active_tenant = req.tenant
        try:
            end = super()._service(req, now)
        except (DeviceFailedError, RaidDegradedError) as exc:
            if not self.config.faults.bypass_on_failure:
                raise
            self._enter_bypass(now, f"{type(exc).__name__}: {exc}")
            return super()._service(req, now)
        if req.origin is IoOrigin.FOREGROUND:
            # Rebuild back-off watches the foreground's rolling p99.
            self.repair.observe_foreground(end - now)
        return end

    def submit_chunk(self, rows: np.ndarray, start: float,
                     think_time: float, deadline: float,
                     limit: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Serve a closed-loop (qd1) prefix of ``rows`` in one call.

        ``rows`` is a :data:`repro.common.chunks.CHUNK_DTYPE` array;
        the stream issues row ``i+1`` at ``done[i] + think_time``,
        starting at ``start``, never at or past ``deadline``, and
        processing at most ``limit`` rows (0 = unbounded).  Returns
        ``(issue_times, done_times, n_processed)`` — bit-identical to
        driving the same rows through :meth:`submit` one at a time,
        which is what the differential suite asserts.
        """
        return self.window.submit_chunk(rows, start, think_time, deadline,
                                        limit)

    # ==================================================================
    # application write path
    # ==================================================================
    def write_block(self, block: int, now: float) -> float:
        if self.bypass:
            self.srcstats.bypass_writes += 1
            return self.origin_write(block, now)
        self._check_timeout(now)
        # One load of the shared residency array replaces the four
        # membership probes (dirty buf, clean buf, staging, mapping).
        code = self._state.get(block)
        if code != B_NONE:
            self.cstats.write_hits += 1
            self.hotness.touch(block)
        else:
            self.cstats.write_misses += 1
            if self.tenants is not None and \
                    not self.tenants.admit(block, now):
                # Over-share tenant: serve the write around the cache so
                # the array footprint stays bounded without stalling it.
                self.tenants.count_write_around(block)
                return self.origin_write(block, now)
        if code == B_DIRTY:
            return now + RAM_LATENCY  # absorbed rewrite
        # The block's previous incarnation is superseded (a block lives
        # in at most one structure, so only its holder needs the drop).
        if code == B_MAPPED:
            self.mapping.invalidate(block)
        elif code == B_CLEAN:
            self.clean_buf.remove(block)
        elif code == B_STAGING:
            self.staging.pop(block)
        self._version_of(block, bump=True)
        full = self.dirty_buf.add(block)
        # max(): an in-flight segment write's ack may already extend the
        # activity horizon past this issue time (streams interleave).
        self._last_dirty_write = max(self._last_dirty_write, now)
        if full:
            end = self._write_segment(dirty=True, now=now)
            # Dirty-write activity lasts until the segment write is
            # acknowledged: a long ack (inline GC, backpressure stall)
            # is device busy time, not TWAIT idleness, and must not
            # trip the timeout into flushing partial segments.
            self._last_dirty_write = max(self._last_dirty_write, end)
            return end
        return now + RAM_LATENCY

    # ==================================================================
    # application read path
    # ==================================================================
    def read_block(self, block: int, now: float) -> float:
        if self.bypass:
            self.srcstats.bypass_reads += 1
            return self.origin_read(block, now)
        self._check_timeout(now)
        code = self._state.get(block)
        if code != B_NONE and code != B_MAPPED:
            # RAM-resident: dirty buffer, clean buffer, or staging.
            self.cstats.read_hits += 1
            self.hotness.touch(block)
            return now + RAM_LATENCY
        if code == B_MAPPED:
            entry = self.mapping.lookup(block)
            self.cstats.read_hits += 1
            self.hotness.touch(block)
            return self._cache_read(block, entry, now)
        return self._read_miss(block, now)

    def block_cached(self, block: int) -> bool:
        if self.bypass:
            return False
        return self._state.get(block) != B_NONE

    def install_fill(self, block: int, now: float) -> None:
        if self.bypass:
            self.srcstats.bypass_reads += 1
            return
        self.cstats.read_misses += 1
        if self.tenants is not None and not self.tenants.admit(block, now):
            self.tenants.count_read_around(block)
            return
        self.staging.put(block, now)
        self._fill_clean(block, now)

    def read_request(self, req: Request, now: float) -> float:
        self._check_timeout(now)
        return super().read_request(req, now)

    def _read_miss(self, block: int, now: float) -> float:
        self.cstats.read_misses += 1
        fetch_end = self.origin_read(block, now)
        if self.tenants is not None and \
                not self.tenants.admit(block, fetch_end):
            # The read is already served from the origin; an over-share
            # tenant just does not get the block cached behind it.
            self.tenants.count_read_around(block)
            return fetch_end
        # Stage it, then move it to the clean segment buffer; the host
        # is acked at fetch completion (§4.1).
        self.staging.put(block, fetch_end)
        self._fill_clean(block, fetch_end)
        return fetch_end

    def _fill_clean(self, block: int, now: float) -> None:
        self.staging.pop(block)
        if block in self.dirty_buf or block in self.clean_buf:
            return
        if self.mapping.lookup(block) is not None:
            return
        full = self.clean_buf.add(block)
        self.cstats.fills += 1
        if full:
            self._write_segment(dirty=False, now=now)

    # ------------------------------------------------------------------
    # SSD reads with integrity / failure handling (§4.1)
    # ------------------------------------------------------------------
    def _cache_read(self, block: int, entry: CacheEntry, now: float) -> float:
        loc = entry.location
        ssd = self.ssds[loc.ssd]
        if not self._alive(loc.ssd):
            return self._degraded_read(block, entry, now)
        if not self.repair.unit_ready(loc.ssd, loc.sg, loc.segment):
            # A rebuilding spare holds the slot but this unit is not
            # reconstructed yet; serve degraded and pull the unit to
            # the front of the rebuild queue.
            self.repair.promote(loc.ssd, loc.sg, loc.segment)
            return self._degraded_read(block, entry, now)
        end = self._ssd_submit(loc.ssd,
                               Request(Op.READ, loc.offset, PAGE_SIZE), now)
        if end is None:   # the home drive just died under this read
            if self.bypass:
                self.srcstats.bypass_reads += 1
                return self.origin_read(block, now)
            return self._degraded_read(block, entry, now)
        corrupted = getattr(ssd, "corrupted_in", None)
        if corrupted is not None and corrupted(loc.offset, PAGE_SIZE):
            return self._repair_corruption(block, entry, end)
        return end

    def _segment_has_parity(self, entry: CacheEntry) -> bool:
        summary = self.metadata.read_summary(entry.location.sg,
                                             entry.location.segment)
        if summary is not None:
            return summary.with_parity
        if self.config.raid_level == 0:
            return False
        return (entry.dirty or
                self.config.clean_redundancy is CleanRedundancy.PC)

    def _stripe_read(self, entry: CacheEntry, now: float,
                     skip_ssd: int) -> float:
        """Read the same-row blocks from every other SSD (reconstruct)."""
        loc = entry.location
        row_offset = loc.offset - self.layout.unit_offset(loc.sg, loc.segment)
        end = now
        for idx in range(self.config.n_ssds):
            if idx == skip_ssd or not self._alive(idx):
                continue
            if not self.repair.unit_ready(idx, loc.sg, loc.segment):
                continue   # rebuilding spare: its copy isn't there yet
            offset = self.layout.unit_offset(loc.sg, loc.segment) + row_offset
            done = self._ssd_submit(idx,
                                    Request(Op.READ, offset, PAGE_SIZE), now)
            if done is not None:
                end = max(end, done)
        return end

    def _can_reconstruct(self, entry: CacheEntry) -> bool:
        """Whether parity reconstruction has all its source copies.

        Requires the segment to carry parity AND every member of the
        stripe other than the entry's home to be alive with its unit
        readable (a second failure or a still-rebuilding spare among
        the sources makes the stripe unreconstructable).
        """
        if not self._segment_has_parity(entry):
            return False
        loc = entry.location
        summary = self.metadata.read_summary(loc.sg, loc.segment)
        with_parity = summary.with_parity if summary is not None else True
        involved = list(self.layout.data_ssds(loc.sg, loc.segment,
                                              with_parity))
        if with_parity:
            involved.append(self.layout.parity_ssd(loc.sg, loc.segment))
        return all(self._alive(idx)
                   and self.repair.unit_ready(idx, loc.sg, loc.segment)
                   for idx in involved if idx != loc.ssd)

    def _degraded_read(self, block: int, entry: CacheEntry,
                       now: float) -> float:
        """Serve a read whose home SSD has failed."""
        self.srcstats.degraded_reads += 1
        if self.obs.enabled:
            self.obs.emit(DegradedRead(t=now, device=self.name, lba=block))
        if self._can_reconstruct(entry):
            self.srcstats.parity_reconstructions += 1
            end = self._stripe_read(entry, now, skip_ssd=entry.location.ssd)
            # Reconstructed data is re-cached through the proper buffer
            # so it lands on healthy drives.
            self._reinsert(block, entry, end)
            return end
        # No parity: clean data can be re-fetched; dirty data is lost.
        if entry.dirty:
            self.srcstats.unrecoverable_errors += 1
        self.mapping.invalidate(block)
        self.hotness.evict(block)
        fetch_end = self.origin_read(block, now)
        self.staging.put(block, fetch_end)
        self._fill_clean(block, fetch_end)
        return fetch_end

    def _repair_corruption(self, block: int, entry: CacheEntry,
                           now: float) -> float:
        """Checksum mismatch on read: recover via parity or re-fetch."""
        loc = entry.location
        ssd = self.ssds[loc.ssd]
        if self._can_reconstruct(entry):
            self.srcstats.parity_reconstructions += 1
            end = self._stripe_read(entry, now, skip_ssd=loc.ssd)
        else:
            if entry.dirty:
                self.srcstats.unrecoverable_errors += 1
            end = self.origin_read(block, now)
        self.srcstats.corruption_repairs += 1
        if hasattr(ssd, "clear_corruption"):
            ssd.clear_corruption(loc.offset, PAGE_SIZE)
        self._reinsert(block, entry, end)
        return end

    def _reinsert(self, block: int, entry: CacheEntry, now: float) -> None:
        """Re-log a recovered block through the segment buffers."""
        if self.bypass:
            return
        dirty = entry.dirty
        self.mapping.invalidate(block)
        buf = self.dirty_buf if dirty else self.clean_buf
        if block not in buf:
            full = buf.add(block)
            if full:
                self._write_segment(dirty=dirty, now=now)

    # ==================================================================
    # segment writing (§4.1)
    # ==================================================================
    def _segment_parity_flag(self, dirty: bool) -> bool:
        if self.config.raid_level == 0:
            return False
        if dirty:
            return True
        return self.config.clean_redundancy is CleanRedundancy.PC

    def _write_segment(self, dirty: bool, now: float) -> float:
        buf = self.dirty_buf if dirty else self.clean_buf
        blocks_arr = buf.drain_array()
        n_blocks = blocks_arr.shape[0]
        if not n_blocks:
            return now
        with_parity = self._segment_parity_flag(dirty)
        capacity = self.layout.segment_data_capacity(with_parity)
        partial = n_blocks < capacity

        sg, segment, start = self._alloc_segment(now)
        group_done = self.groups[sg].next_segment >= \
            self.layout.segments_per_group

        # Install mappings and build the durable summary.  Above the
        # scalar threshold the whole segment installs in one vector
        # call; drained blocks are never mapped (entering a buffer
        # invalidated them), so no per-slot invalidate is needed.
        lbas = blocks_arr.tolist()
        if n_blocks >= SCALAR_THRESHOLD:
            ssds, offsets = self.layout.slot_locations_array(
                sg, segment, n_blocks, with_parity)
            va = self._versions.ensure(int(blocks_arr.max()) + 1)
            versions_arr = va[blocks_arr]
            versions = versions_arr.tolist()
            checksums_arr = block_checksums_array(blocks_arr, versions_arr)
            checksums = checksums_arr.tolist()
            self.mapping.insert_batch(
                blocks_arr, sg, segment, ssds, offsets, dirty,
                checksums_arr, versions_arr)
        else:
            checksums = []
            versions = []
            for slot, lba in enumerate(lbas):
                loc = self.layout.slot_location(sg, segment, slot,
                                                with_parity)
                version = self._version_of(lba, bump=False)
                checksum = block_checksum(lba, version)
                self.mapping.insert(lba, CacheEntry(
                    location=loc, dirty=dirty, checksum=checksum,
                    version=version))
                checksums.append(checksum)
                versions.append(version)

        # MS lands with the first pages of the unit writes; ME seals the
        # segment only once they all complete.  A power cut in between
        # durably leaves a torn summary for recovery to discard.
        self.metadata.write_summary(SegmentSummary(
            sg=sg, segment=segment, sequence=self.metadata.next_sequence(),
            generation=self._sg_sequence * self.layout.segments_per_group
            + segment + 1,
            dirty=dirty, with_parity=with_parity,
            lbas=lbas, checksums=checksums, versions=versions), torn=True)
        end = self._issue_unit_writes(sg, segment, n_blocks, with_parity,
                                      start)
        self.metadata.seal_summary(sg, segment)

        self.srcstats.segment_writes += 1
        if partial:
            self.srcstats.partial_segment_writes += 1
        if self.obs.enabled:
            self.obs.emit(SegmentSealed(
                t=end, device=self.name, sg=sg, segment=segment,
                dirty=dirty, with_parity=with_parity,
                blocks=n_blocks, partial=partial))

        # flush control (§4.1): per segment, or per SG boundary.
        if (self.config.flush_point is FlushPoint.PER_SEGMENT
                or group_done):
            flush_end = self._flush_ssds(end)
            # Internal durability flushes drain the drives' buffered
            # backlog — including background reclaim I/O.  Inline mode
            # glues that drain onto the application ack; background
            # mode lets it ride behind (the drain still occupies the
            # NAND timelines, so later I/O queues after it).  The
            # application-initiated flush path (handle_flush) always
            # blocks regardless of mode.
            if not self.config.reclaim.background_reclaim:
                end = flush_end
        # Watermark-driven background reclaim.  Below the high
        # watermark the scheduler trickles: one victim group at a time,
        # and only once the previous reclaim's device I/O has finished
        # (pacing — an unbounded backlog of copy writes would push
        # every later foreground ack out through the drives' buffers).
        # Kicking at the HIGH watermark keeps headroom above the hard
        # floor, so foreground rolls rarely wait on an unfinished
        # reclaim; waiting throttles the foreground, which slows
        # invalidation, which makes the next victims more valid — a
        # feedback loop that settles at high amplification.
        # State is applied immediately; the reclaim I/O is issued from
        # this segment's ack time onward, so it overlaps with
        # subsequent foreground writes instead of extending this one's
        # acknowledgement.  If the trickle cannot keep up, the roll
        # path stalls at the hard floor (backpressure).
        reclaim = self.config.reclaim
        if (reclaim.background_reclaim and not self.reclaimer.running
                and len(self._free) < reclaim.gc_free_low):
            self.reclaimer.reclaim_until(reclaim.gc_free_high, end)
        return end

    def _issue_unit_writes(self, sg: int, segment: int, nblocks: int,
                           with_parity: bool, now: float) -> float:
        """One unit-sized write per SSD persists the whole segment."""
        per_unit = self.layout.data_blocks_per_unit
        data_ssds = self.layout.data_ssds(sg, segment, with_parity)
        parity_ssd = (self.layout.parity_ssd(sg, segment)
                      if with_parity else -1)
        base = self.layout.unit_offset(sg, segment)
        origin = IoOrigin.GC if self.reclaimer.running else IoOrigin.FOREGROUND
        fast = self.window.seal_fast_ok()
        end = now
        blocks_left = nblocks
        for idx in data_ssds:
            in_unit = min(per_unit, blocks_left)
            blocks_left -= in_unit
            if in_unit == 0:
                continue
            # MS + data + ME: contiguous from the unit start; ME rides at
            # the unit end so a full unit is written when the unit fills.
            length = (1 + in_unit + 1) * PAGE_SIZE
            if in_unit == per_unit:
                length = self.layout.unit_blocks * PAGE_SIZE
            if self._alive(idx):
                if fast:
                    done = self.ssds[idx].submit_write_fast(
                        base, length, now, origin)
                else:
                    done = self._ssd_submit(
                        idx, Request(Op.WRITE, base, length, origin=origin),
                        now)
                if done is not None:
                    end = max(end, done)
        if parity_ssd >= 0 and self._alive(parity_ssd):
            # Parity covers the written rows of the stripe; units fill in
            # order, so the first unit holds the row high-watermark.
            rows = min(per_unit, nblocks)
            length = (1 + rows + 1) * PAGE_SIZE
            if rows == per_unit:
                length = self.layout.unit_blocks * PAGE_SIZE
            if fast:
                done = self.ssds[parity_ssd].submit_write_fast(
                    base, length, now, origin)
            else:
                done = self._ssd_submit(
                    parity_ssd,
                    Request(Op.WRITE, base, length, origin=origin), now)
            if done is not None:
                end = max(end, done)
        return end

    def _flush_ssds(self, now: float) -> float:
        end = now
        fast = self.window.seal_fast_ok()
        for idx in range(len(self.ssds)):
            if self._alive(idx):
                if fast:
                    done = self.ssds[idx].submit_flush_fast(now)
                else:
                    done = self._ssd_submit(idx, Request(Op.FLUSH), now)
                if done is not None:
                    end = max(end, done)
        self.srcstats.flush_commands += 1
        if self.obs.enabled:
            self.obs.emit(FlushBarrier(t=now, device=self.name))
        return end

    # ------------------------------------------------------------------
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

        With ``background_reclaim`` the reclaim's device I/O overlaps
        with foreground work: its completion time is recorded per group
        in ``_group_ready`` instead of extending this roll's return
        time.  Foreground throttles only when it takes a group whose
        reclaim has not yet finished — the backpressure path at the
        free-space hard floor.
        """
        rolled = self.active
        if rolled.state is not _GroupState.CLOSED:
            rolled.state = _GroupState.CLOSED
            self._closed_fifo.append(rolled.index)
        end = now
        reclaim = self.config.reclaim
        if (not self.reclaimer.running
                and len(self._free) < reclaim.gc_free_low):
            if reclaim.background_reclaim:
                # The trickle (kicked after segment writes) normally
                # keeps free groups above the low watermark; reaching
                # it here is the hard floor.  Reclaim state now — the
                # I/O time still lands in _group_ready, so the cost
                # surfaces as backpressure below, not as gc time glued
                # onto this roll.  Forced S2D: when reclaim has fallen
                # behind the foreground, copying forward (S2S) consumes
                # the very groups it frees and the system can settle
                # into a GC-feeds-GC equilibrium; destaging always
                # gains a whole group and sheds dirty data, letting
                # the trickle catch back up.
                self.reclaimer.reclaim_until(reclaim.gc_free_low, end,
                                             force_s2d=True)
            else:
                end = self.reclaimer.reclaim_until(reclaim.gc_free_high, end)
        if self.active is rolled:
            self.active = self._take_free_group()
            ready = self._group_ready.pop(self.active.index, 0.0)
            if ready > end:
                waited = ready - end
                if not self.reclaimer.running:
                    self.srcstats.throttle_stalls += 1
                    self.srcstats.throttle_wait_s += waited
                    if self.tenants is not None:
                        self.tenants.count_stall(self._active_tenant, waited)
                    if self.obs.enabled:
                        self.obs.emit(BackpressureStall(
                            t=ready, device=self.name, waited=waited,
                            free_groups=len(self._free)))
                end = ready
        return end

    # ==================================================================
    # partial segments and flush handling (§4.1)
    # ==================================================================
    def _check_timeout(self, now: float) -> None:
        """TWAIT expiry: persist a partial dirty segment."""
        if self.bypass:
            return
        # Background repair advances from foreground entry points: its
        # I/O is issued here, at simulated `now`, and competes with the
        # request being served — the contention the throttle bounds.
        self.repair.pump(now)
        if (not self.dirty_buf.empty
                and now - self._last_dirty_write > self.config.t_wait):
            self.srcstats.timeout_flushes += 1
            end = self._write_segment(dirty=True, now=now)
            self._last_dirty_write = max(now, end)

    def flush_partial(self, now: float) -> float:
        """Force out a partial dirty segment (timeout path, tests)."""
        if self.bypass or self.dirty_buf.empty:
            return now
        self.srcstats.timeout_flushes += 1
        return self._write_segment(dirty=True, now=now)

    def handle_flush(self, now: float) -> float:
        """Application flush: persist buffered dirty data durably.

        Unlike write-through caches, SRC does NOT propagate the flush to
        primary storage: the segment bundles data, metadata and parity,
        which is the durability contract (§2.2, Qin et al. comparison).
        """
        if self.bypass:
            return self.origin.submit(Request(Op.FLUSH), now)
        end = now
        if not self.dirty_buf.empty:
            end = self._write_segment(dirty=True, now=now)
        return self._flush_ssds(end)

    def handle_trim(self, req: Request, now: float) -> float:
        if self.bypass:
            return self.origin.submit(req, now)
        pages = req.pages()
        n = len(pages)
        if (n >= SCALAR_THRESHOLD
                and self.mapping.observer is None
                and self.dirty_buf.observer is None
                and self.clean_buf.observer is None):
            # One residency load classifies the whole range; each
            # structure drops only the blocks it actually holds (the
            # scalar loop's calls on the others are no-ops).
            lbas = np.arange(pages.start, pages.stop, dtype=np.int64)
            codes = self._state.ensure(int(pages.stop))[lbas]
            self.mapping.invalidate_many(lbas[codes == B_MAPPED])
            self.dirty_buf.remove_many(lbas[codes == B_DIRTY])
            self.clean_buf.remove_many(lbas[codes == B_CLEAN])
            for lba in lbas[codes == B_STAGING].tolist():
                self.staging.pop(lba)
            self.hotness.evict_many(lbas)
            return now
        for block in pages:
            self.mapping.invalidate(block)
            self.dirty_buf.remove(block)
            self.clean_buf.remove(block)
            self.staging.pop(block)
            self.hotness.evict(block)
        return now

    # ==================================================================
    # shard-extraction hooks (repro.cluster migration)
    # ==================================================================
    # The cluster layer moves individual blocks between SrcCache
    # instances when a hash range changes owner.  These entry points
    # expose the block-granular pieces of the read/write paths without
    # the application-facing accounting (hit/miss counters, tenant
    # admission, hotness touches): migration traffic is plumbing, not
    # workload, and must not skew the cache statistics the experiments
    # measure.

    def cached_blocks(self) -> List[Tuple[int, bool]]:
        """Snapshot of every cached block as ``(lba, dirty)`` pairs.

        Covers the RAM segment buffers, the staging buffer, and the
        on-flash mapping.  A snapshot copy: migration mutates the cache
        while walking the result.
        """
        found: Dict[int, bool] = {}
        for lba, entry in self.mapping.items():
            found[lba] = entry.dirty
        for lba in self.staging.peek():
            found.setdefault(lba, False)
        for lba in self.clean_buf.peek():
            found[lba] = False
        for lba in self.dirty_buf.peek():
            found[lba] = True   # dirty supersedes any stale clean copy
        return list(found.items())

    def block_version(self, block: int) -> int:
        """Write-version counter for ``block`` (bumped per app write).

        Migration compares versions across a copy to detect a write
        that raced the copy and must be re-copied.
        """
        return self._version_of(block, bump=False)

    def block_dirty(self, block: int) -> bool:
        """Current dirty state of ``block`` (False if not cached).

        Migration must consult this at copy time, not trust its walk
        snapshot: a write racing between snapshot and copy makes the
        block dirty *and* bumps its version before the copy reads it,
        so the version-based catch-up would never revisit it — copying
        the snapshot's stale clean flag would silently drop the dirty
        bit across the hand-off.
        """
        if block in self.dirty_buf:
            return True
        entry = self.mapping.lookup(block)
        return entry is not None and entry.dirty

    def migrate_read(self, block: int, now: float) -> Optional[float]:
        """Read one block for migration; None if it is not cached here.

        Serves from RAM buffers or the flash mapping without touching
        hit/miss counters or hotness — the block is leaving, not being
        referenced.
        """
        if self.bypass:
            return None
        if (block in self.dirty_buf or block in self.clean_buf
                or block in self.staging):
            return now + RAM_LATENCY
        entry = self.mapping.lookup(block)
        if entry is None:
            return None
        return self._cache_read(block, entry, now)

    def admit_block(self, block: int, dirty: bool, now: float) -> float:
        """Install a migrated block, preserving its dirty state.

        The lean core of :meth:`write_block` / :meth:`_fill_clean`:
        supersede prior incarnations, land in the matching segment
        buffer, seal a segment when one fills.  No admission control —
        ownership already moved, the block must land.
        """
        if self.bypass:
            return now   # bypass shard caches nothing; owner is origin
        self.srcstats.migrated_in_blocks += 1
        if dirty:
            if block in self.dirty_buf:
                return now + RAM_LATENCY
            self.mapping.invalidate(block)
            self.clean_buf.remove(block)
            self.staging.pop(block)
            self._version_of(block, bump=True)
            full = self.dirty_buf.add(block)
            self._last_dirty_write = max(self._last_dirty_write, now)
            if full:
                end = self._write_segment(dirty=True, now=now)
                self._last_dirty_write = max(self._last_dirty_write, end)
                return end
            return now + RAM_LATENCY
        if (block in self.dirty_buf or block in self.clean_buf
                or block in self.mapping):
            return now + RAM_LATENCY   # already here; dirty supersedes
        self.staging.pop(block)
        full = self.clean_buf.add(block)
        if full:
            return self._write_segment(dirty=False, now=now)
        return now + RAM_LATENCY

    def evict_block(self, block: int) -> bool:
        """Forget a block this shard no longer owns (RAM-only, instant).

        Pure bookkeeping — mapping row, buffer slots, hotness bit — so
        it cannot be interrupted by a device fault.  The caller
        guarantees a durable copy exists at the block's new owner (or
        the block is clean and the origin still holds it).
        """
        found = self.mapping.invalidate(block) is not None
        found = self.dirty_buf.remove(block) or found
        found = self.clean_buf.remove(block) or found
        found = self.staging.pop(block) is not None or found
        self.hotness.evict(block)
        if found:
            self.srcstats.migrated_out_blocks += 1
        return found

    # ==================================================================
    # drive failure / replacement (§4.1 failure handling, §6 scaling)
    # ==================================================================
    def rebuild_ssd(self, ssd_idx: int, now: float) -> float:
        """Reconstruct a replaced SSD's cache contents from parity.

        Walks every closed/active SG; for parity-protected segments the
        lost unit is recomputed from the surviving units and written to
        the replacement.  Non-parity segments (NPC clean) lose their
        blocks, which are dropped from the mapping (a later read
        re-fetches from primary storage).
        """
        if not self._alive(ssd_idx):
            raise RaidDegradedError("replace/repair the SSD before rebuild")
        end = now
        summaries = list(self.metadata.all_summaries())
        done = 0
        for summary in summaries:
            base = self.layout.unit_offset(summary.sg, summary.segment)
            length = self.layout.unit_blocks * PAGE_SIZE
            involved = (self.layout.data_ssds(summary.sg, summary.segment,
                                              summary.with_parity)
                        + ([self.layout.parity_ssd(summary.sg,
                                                   summary.segment)]
                           if summary.with_parity else []))
            if ssd_idx not in involved:
                continue
            done += 1
            if self.obs.enabled:
                self.obs.emit(RebuildProgress(
                    t=end, device=self.name, done=done,
                    total=len(summaries)))
            if summary.with_parity:
                step = now
                for other in involved:
                    if other != ssd_idx and self._alive(other):
                        got = self._ssd_submit(
                            other, Request(Op.READ, base, length,
                                           origin=IoOrigin.REBUILD), now)
                        if got is not None:
                            step = max(step, got)
                wrote = self._ssd_submit(
                    ssd_idx, Request(Op.WRITE, base, length,
                                     origin=IoOrigin.REBUILD), step)
                if wrote is not None:
                    end = max(end, wrote)
            else:
                for lba, entry in self.mapping.sg_blocks(summary.sg):
                    if (entry.location.segment == summary.segment
                            and entry.location.ssd == ssd_idx):
                        self.mapping.invalidate(lba)
                        self.hotness.evict(lba)
        return end
