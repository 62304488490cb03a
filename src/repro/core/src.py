"""SRC — SSD RAID as a Cache (paper §4).

:class:`SrcCache` is the cache itself — residency, the block read /
write / fill paths, TWAIT, flush and TRIM, the cluster migration hooks
— and the wiring of its four components: ``segments``
(:mod:`repro.core.segments`, the segment log), ``members``
(:mod:`repro.core.members`, member I/O and failure handling),
``reclaimer`` (:mod:`repro.core.reclaim`) and ``window``
(:mod:`repro.core.window`, the vector write window).  Together:

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
  silently-corrupted SSD block, online rebuild onto hot spares
  (:mod:`repro.repair`), and crash recovery by metadata scan
  (:mod:`repro.core.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import CacheTarget
from repro.block.device import BlockDevice
from repro.common.errors import (ConfigError, DeviceFailedError,
                                 RaidDegradedError)
from repro.common.types import IoOrigin, Op, Request
from repro.core.arrays import (B_CLEAN, B_DIRTY, B_MAPPED, B_NONE,
                               B_STAGING, BlockState, VersionArray)
from repro.core.buffers import RAM_LATENCY, SegmentBuffer, StagingBuffer
from repro.core.config import SrcConfig
from repro.core.hotness import HotnessBitmap
from repro.core.layout import SegmentLayout
from repro.core.mapping import MappingTable
from repro.core.members import Members
from repro.core.metadata import MetadataStore, Superblock, SRC_MAGIC
from repro.core.reclaim import Reclaimer
from repro.core.segments import SegmentLog
from repro.core.window import WriteWindow, serve_lanes
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

        self._versions = VersionArray()
        self._last_dirty_write = 0.0
        self.segments = SegmentLog(self)
        self.members = Members(self)
        self.reclaimer = Reclaimer(self)
        self.window = WriteWindow(self)
        # Origin bypass: the array was lost, all I/O goes to the origin
        # (Members.enter_bypass; docs/fault_model.md).
        self.bypass = False
        # Online repair: health state machine, hot spares, rebuild and
        # scrub scheduling (repro.repair; docs/fault_model.md).
        self.repair = RepairController(self, spares)

        # Multi-tenant control plane (repro.tenancy.TenantRegistry
        # installs itself here; None = single-tenant, zero overhead).
        self.tenants = None
        self._active_tenant: Optional[str] = None

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
        return len(self.segments._free)

    def ssd_bytes(self) -> int:
        """Total bytes moved at the SSD-array layer (I/O amplification)."""
        return sum(s.stats.total_bytes for s in self.ssds)

    def io_amplification(self) -> float:
        app = self.stats.total_bytes
        return self.ssd_bytes() / app if app else 0.0

    @property
    def spares(self) -> List[BlockDevice]:
        """Unattached hot spares (walked by the observability attach)."""
        return self.repair.spares

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
            self.members.enter_bypass(now, f"{type(exc).__name__}: {exc}")
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
        return serve_lanes(self.window, rows, self.size, self.tenants, start,
                           think_time, deadline, limit)

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
        return self._buffer_dirty(block, code, now)

    def _buffer_dirty(self, block: int, code: int, now: float) -> float:
        """Land a block not yet dirty-buffered (residency ``code``) in
        the dirty buffer: the tail :meth:`write_block` and
        :meth:`admit_block` share."""
        # The block's previous incarnation is superseded (a block lives
        # in at most one structure, so only its holder needs the drop).
        if code == B_MAPPED:
            self.mapping.invalidate(block)
        elif code == B_CLEAN:
            self.clean_buf.remove(block)
        elif code == B_STAGING:
            self.staging.pop(block)
        self._versions.bump(block)
        full = self.dirty_buf.add(block)
        # max(): an in-flight segment write's ack may already extend the
        # activity horizon past this issue time (streams interleave).
        self._last_dirty_write = max(self._last_dirty_write, now)
        if full:
            end = self.segments.seal(dirty=True, now=now)
            # Dirty-write activity lasts until the segment write is
            # acknowledged: a long ack (a backpressure stall) is device
            # busy time, not TWAIT idleness, and must not trip the
            # timeout into flushing partial segments.
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
            return self.members.read(block, entry, now)
        # Only reached when the repair pump in _check_timeout unmapped
        # the block after read_request saw it cached: an ordinary miss.
        return self._fetch_run([block], now)

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
            # The read is already served from the origin; an over-share
            # tenant just does not get the block cached behind it.
            self.tenants.count_read_around(block)
            return
        # Stage it, then move it to the clean segment buffer; the host
        # is acked at fetch completion (§4.1).
        self.staging.put(block, now)
        self._fill_clean(block, now)

    def read_request(self, req: Request, now: float) -> float:
        self._check_timeout(now)
        return super().read_request(req, now)

    def _fill_clean(self, block: int, now: float) -> None:
        self.staging.pop(block)
        if block in self.dirty_buf or block in self.clean_buf:
            return
        if self.mapping.lookup(block) is not None:
            return
        full = self.clean_buf.add(block)
        self.cstats.fills += 1
        if full:
            self.segments.seal(dirty=False, now=now)

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
            self._last_dirty_write = max(now, self.flush_partial(now))

    def flush_partial(self, now: float) -> float:
        """Force out a partial dirty segment (timeout path, tests)."""
        if self.bypass or self.dirty_buf.empty:
            return now
        self.srcstats.timeout_flushes += 1
        return self.segments.seal(dirty=True, now=now)

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
            end = self.segments.seal(dirty=True, now=now)
        return self.members.flush(end)

    def handle_trim(self, req: Request, now: float) -> float:
        if self.bypass:
            return self.origin.submit(req, now)
        # Only blocks the range covers whole are dropped: the rest of a
        # partly covered block is still live data.  One residency load
        # classifies the range; each structure drops the blocks it
        # actually holds.
        pages = req.whole_pages()
        if not pages:
            return now
        lbas = np.arange(pages.start, pages.stop, dtype=np.int64)
        codes = self._state.ensure(pages.stop)[lbas]
        self.mapping.invalidate_many(lbas[codes == B_MAPPED])
        self.dirty_buf.remove_many(lbas[codes == B_DIRTY])
        self.clean_buf.remove_many(lbas[codes == B_CLEAN])
        for lba in lbas[codes == B_STAGING].tolist():
            self.staging.pop(lba)
        self.hotness.evict_many(lbas)
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
        return self._versions[block]

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
        return self.members.read(block, entry, now)

    def admit_block(self, block: int, dirty: bool, now: float) -> float:
        """Install a migrated block, preserving its dirty state.

        :meth:`write_block` / :meth:`_fill_clean` without the
        application-facing accounting: supersede prior incarnations,
        land in the matching segment buffer, seal a segment when one
        fills.  No admission control — ownership already moved, the
        block must land.
        """
        if self.bypass:
            return now   # bypass shard caches nothing; owner is origin
        self.srcstats.migrated_in_blocks += 1
        if dirty:
            code = self._state.get(block)
            if code == B_DIRTY:
                return now + RAM_LATENCY
            return self._buffer_dirty(block, code, now)
        if (block in self.dirty_buf or block in self.clean_buf
                or block in self.mapping):
            return now + RAM_LATENCY   # already here; dirty supersedes
        self.staging.pop(block)
        full = self.clean_buf.add(block)
        if full:
            return self.segments.seal(dirty=False, now=now)
        return now + RAM_LATENCY

    def evict_block(self, block: int) -> bool:
        """Forget a block this shard no longer owns (RAM-only, instant).

        Pure bookkeeping — mapping row, buffer slots, hotness bit — so
        it cannot be interrupted by a device fault.  The caller
        guarantees a durable copy exists at the block's new owner (or
        the block is clean and the origin still holds it).
        """
        found = self.mapping.invalidate(block)
        found = self.dirty_buf.remove(block) or found
        found = self.clean_buf.remove(block) or found
        found = self.staging.pop(block) is not None or found
        self.hotness.evict(block)
        if found:
            self.srcstats.migrated_out_blocks += 1
        return found
