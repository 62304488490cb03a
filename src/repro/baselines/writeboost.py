"""DM-Writeboost behavioural model.

SRC's prototype was built by modifying Akira Hayakawa's DM-Writeboost
(§5.1): a single-device, log-structured *write* cache.  Modelling it
completes the lineage and gives a useful reference point between the
block-mapped baselines and SRC:

* writes are gathered in a RAM buffer and persisted as sequential
  512 KB segments (data + metadata header), like SRC but on one SSD
  and without parity, clean segments, or S2S GC;
* reads check the cache but misses do NOT populate it (write cache);
* reclamation is migrate-only: the oldest segment's live dirty blocks
  are written back to the origin and the segment is reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.baselines.common import CacheTarget, WritebackScheduler
from repro.block.device import BlockDevice
from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import KIB, PAGE_SIZE


@dataclass
class _Segment:
    index: int
    blocks: List[int] = field(default_factory=list)
    valid: List[bool] = field(default_factory=list)


class WriteboostDevice(CacheTarget):
    """Single-SSD log-structured write cache (DM-Writeboost style)."""

    def __init__(self, cache_dev: BlockDevice, origin: BlockDevice,
                 segment_size: int = 512 * KIB,
                 migrate_threshold: float = 0.7,
                 flush_per_segment: bool = True,
                 name: str = "writeboost"):
        super().__init__(cache_dev, origin, name)
        if segment_size % PAGE_SIZE or segment_size < 3 * PAGE_SIZE:
            raise ConfigError("segment_size must be >= 3 pages, aligned")
        self.segment_size = segment_size
        # One metadata header block per segment.
        self.blocks_per_segment = segment_size // PAGE_SIZE - 1
        self.n_segments = cache_dev.size // segment_size
        if self.n_segments < 4:
            raise ConfigError("cache device too small for four segments")
        self.migrate_threshold = migrate_threshold
        self.flush_per_segment = flush_per_segment

        self.segments: List[_Segment] = [
            _Segment(i) for i in range(self.n_segments)]
        self.free: List[int] = list(range(self.n_segments - 1, 0, -1))
        self.fifo: List[int] = []
        self.current = self.segments[0]
        self.ram_buffer: List[int] = []
        self.lookup: Dict[int, tuple] = {}   # lba -> (segment, slot)
        self.writeback = WritebackScheduler(origin)
        self.segment_writes = 0

    # ------------------------------------------------------------------
    def _segment_offset(self, index: int) -> int:
        return index * self.segment_size

    @property
    def used_fraction(self) -> float:
        return 1.0 - len(self.free) / self.n_segments

    def _invalidate(self, lba: int) -> None:
        entry = self.lookup.pop(lba, None)
        if entry is None:
            return
        seg_idx, slot = entry
        self.segments[seg_idx].valid[slot] = False

    # ------------------------------------------------------------------
    # segment lifecycle
    # ------------------------------------------------------------------
    def _persist_buffer(self, now: float) -> float:
        """Write the RAM buffer out as one sequential segment."""
        if not self.ram_buffer:
            return now
        segment = self.current
        for lba in self.ram_buffer:
            slot = len(segment.blocks)
            segment.blocks.append(lba)
            segment.valid.append(True)
            self.lookup[lba] = (segment.index, slot)
        length = (len(self.ram_buffer) + 1) * PAGE_SIZE   # + header
        end = self.cache_write(self._segment_offset(segment.index), now,
                               length)
        if self.flush_per_segment:
            end = self.cache_dev.submit(Request(Op.FLUSH), end)
        self.ram_buffer = []
        self.segment_writes += 1
        self._advance_segment(now)
        return end

    def _advance_segment(self, now: float) -> None:
        self.fifo.append(self.current.index)
        if not self.free:
            self._migrate_oldest(now)
        index = self.free.pop()
        segment = self.segments[index]
        segment.blocks.clear()
        segment.valid.clear()
        self.current = segment
        if self.used_fraction > self.migrate_threshold:
            self._migrate_oldest(now)

    def _migrate_oldest(self, now: float) -> None:
        """Write back the oldest segment's live blocks, then reuse it."""
        if not self.fifo:
            return
        index = self.fifo.pop(0)
        segment = self.segments[index]
        live = [lba for lba, ok in zip(segment.blocks, segment.valid)
                if ok]
        if live:
            read_end = self.cache_read(
                self._segment_offset(index), now,
                (len(segment.blocks) + 1) * PAGE_SIZE)
            for lba in live:
                self.writeback.enqueue(lba, read_end)
                self.lookup.pop(lba, None)
            self.cstats.destaged_blocks += len(live)
        segment.blocks.clear()
        segment.valid.clear()
        self.free.append(index)

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------
    def block_cached(self, block: int) -> bool:
        return block in self.lookup or block in self.ram_buffer

    def install_fill(self, block: int, now: float) -> None:
        # Write cache: read misses are served from the origin and NOT
        # inserted (miss accounting only).
        self.cstats.read_misses += 1

    def read_block(self, block: int, now: float) -> float:
        self.cstats.read_hits += 1
        if block in self.ram_buffer:
            return now + 2e-6
        seg_idx, slot = self.lookup[block]
        offset = self._segment_offset(seg_idx) + (slot + 1) * PAGE_SIZE
        return self.cache_read(offset, now)

    def write_block(self, block: int, now: float) -> float:
        if self.block_cached(block):
            self.cstats.write_hits += 1
        else:
            self.cstats.write_misses += 1
        self._invalidate(block)
        if block not in self.ram_buffer:
            self.ram_buffer.append(block)
        self.cstats.fills += 1
        if len(self.ram_buffer) >= self.blocks_per_segment:
            return self._persist_buffer(now)
        return now + 2e-6

    def handle_flush(self, now: float) -> float:
        end = self._persist_buffer(now)
        return self.cache_dev.submit(Request(Op.FLUSH), end)

    def destage_all(self, now: float) -> float:
        """Migrate everything to the origin (shutdown path)."""
        end = self._persist_buffer(now)
        while self.fifo:
            self._migrate_oldest(end)
        return max(end, self.writeback.flush(end))
