"""Flashcache behavioural model (§3.1).

Facebook's Flashcache maps 4 KiB blocks set-associatively: the cache is
divided into sets (default 2 MB = 512 blocks) and a block's home set is
``hash(lba) % n_sets``.  Characteristics the paper calls out and this
model reproduces:

* metadata for **dirty** blocks is written to a dedicated metadata
  partition on every dirty write (an extra 4 KiB SSD write); clean-block
  metadata lives only in memory, so clean contents are lost on restart;
* **flush commands from above are ignored** and acknowledged
  immediately (the file-system-consistency hazard noted in §3.1);
* write-back destaging is throttled by ``dirty_thresh_pct`` but the
  threshold is soft — under load the dirty ratio may exceed it;
* in write-through mode every write goes to both the origin and the
  cache synchronously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines.common import CacheTarget, WritePolicy, WritebackScheduler
from repro.block.device import BlockDevice
from repro.common.errors import ConfigError
from repro.common.units import MIB, PAGE_SIZE

# Dirty blocks one destage pass writes back before it yields.
DESTAGE_BATCH = 64


@dataclass
class _Slot:
    block: int = -1          # origin block cached here (-1 = empty)
    dirty: bool = False
    seq: int = 0             # insertion sequence for FIFO replacement


class FlashcacheDevice(CacheTarget):
    """Set-associative SSD cache in the style of Flashcache."""

    def __init__(self, cache_dev: BlockDevice, origin: BlockDevice,
                 set_size: int = 2 * MIB,
                 policy: WritePolicy = WritePolicy.WRITE_BACK,
                 dirty_thresh_pct: float = 0.20,
                 name: str = "flashcache"):
        super().__init__(cache_dev, origin, name)
        if set_size % PAGE_SIZE:
            raise ConfigError("set_size must be 4 KiB aligned")
        self.policy = policy
        self.dirty_thresh_pct = dirty_thresh_pct
        self.destage_batch = DESTAGE_BATCH

        # Layout: a metadata partition up front, then data sets.
        self.blocks_per_set = set_size // PAGE_SIZE
        data_space = int(cache_dev.size * 0.98)
        self.n_sets = max(1, data_space // set_size)
        self.meta_base = 0
        self.data_base = cache_dev.size - self.n_sets * set_size
        self.total_blocks = self.n_sets * self.blocks_per_set

        self.sets: List[List[_Slot]] = [
            [_Slot() for _ in range(self.blocks_per_set)]
            for _ in range(self.n_sets)
        ]
        self.lookup: Dict[int, tuple] = {}   # origin block -> (set, way)
        self.dirty_blocks = 0
        self._seq = 0
        self.writeback = WritebackScheduler(origin)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _set_of(self, block: int) -> int:
        # Real Flashcache hashes whole set-sized LBA ranges to sets, so
        # consecutive blocks share a set (locality-preserving).
        range_index = block // self.blocks_per_set
        return (range_index * 2654435761 & 0xFFFFFFFF) % self.n_sets

    def _slot_offset(self, set_idx: int, way: int) -> int:
        return (self.data_base + set_idx * self.blocks_per_set * PAGE_SIZE
                + way * PAGE_SIZE)

    def _meta_offset(self, set_idx: int) -> int:
        return self.meta_base + (set_idx % 1024) * PAGE_SIZE

    @property
    def dirty_ratio(self) -> float:
        return self.dirty_blocks / self.total_blocks if self.total_blocks else 0.0

    # ------------------------------------------------------------------
    # replacement
    # ------------------------------------------------------------------
    def _victim_way(self, set_idx: int) -> int:
        """FIFO within the set; prefer an empty way."""
        ways = self.sets[set_idx]
        empties = [w for w, slot in enumerate(ways) if slot.block < 0]
        if empties:
            return empties[0]
        return min(range(len(ways)), key=lambda w: ways[w].seq)

    def _destage(self, set_idx: int, way: int, now: float) -> float:
        """Read one dirty way back and queue it for writeback."""
        slot = self.sets[set_idx][way]
        read_end = self.cache_read(self._slot_offset(set_idx, way), now)
        self.writeback.enqueue(slot.block, read_end)
        slot.dirty = False
        self.dirty_blocks -= 1
        self.cstats.destaged_blocks += 1
        return read_end

    def _evict(self, set_idx: int, way: int, now: float) -> float:
        """Free a way, destaging its contents if dirty."""
        slot = self.sets[set_idx][way]
        end = now
        if slot.block >= 0:
            if slot.dirty:
                end = self._destage(set_idx, way, now)
            else:
                self.cstats.evicted_clean_blocks += 1
            self.lookup.pop(slot.block, None)
            slot.block = -1
        return end

    def _install(self, block: int, set_idx: int, way: int,
                 dirty: bool) -> None:
        slot = self.sets[set_idx][way]
        self._seq += 1
        slot.block = block
        slot.dirty = dirty
        slot.seq = self._seq
        self.lookup[block] = (set_idx, way)
        if dirty:
            self.dirty_blocks += 1
        self.cstats.fills += 1

    # ------------------------------------------------------------------
    # background destage (soft threshold)
    # ------------------------------------------------------------------
    def _maybe_destage(self, now: float) -> None:
        """Destage a bounded batch when past dirty_thresh_pct.

        Runs "in background": the destage I/O occupies the devices from
        ``now`` (stealing bandwidth from the foreground) but the caller
        does not wait for it — which is why the threshold is soft.
        """
        if self.dirty_ratio <= self.dirty_thresh_pct:
            return
        destaged = 0
        for set_idx in range(self.n_sets):
            if destaged >= self.destage_batch:
                break
            if self.dirty_ratio <= self.dirty_thresh_pct:
                break
            for way, slot in enumerate(self.sets[set_idx]):
                if slot.block >= 0 and slot.dirty:
                    self._destage(set_idx, way, now)
                    destaged += 1
                    if destaged >= self.destage_batch:
                        break

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------
    def block_cached(self, block: int) -> bool:
        return block in self.lookup

    def install_fill(self, block: int, now: float) -> None:
        self.cstats.read_misses += 1
        # Load the clean copy into cache (metadata stays in memory).
        set_idx = self._set_of(block)
        way = self._victim_way(set_idx)
        self._evict(set_idx, way, now)
        self.cache_write(self._slot_offset(set_idx, way), now)
        self._install(block, set_idx, way, dirty=False)

    def read_block(self, block: int, now: float) -> float:
        hit = self.lookup.get(block)
        if hit is None:         # evicted by the fills fetched just before
            return self._fetch_run([block], now)
        self.cstats.read_hits += 1
        set_idx, way = hit
        return self.cache_read(self._slot_offset(set_idx, way), now)

    def write_block(self, block: int, now: float) -> float:
        if self.policy is WritePolicy.WRITE_THROUGH:
            return self._write_through(block, now)
        return self._write_back(block, now)

    def _write_through(self, block: int, now: float) -> float:
        hit = self.lookup.get(block)
        origin_end = self.origin_write(block, now)
        if hit is not None:
            self.cstats.write_hits += 1
            set_idx, way = hit
        else:
            self.cstats.write_misses += 1
            set_idx = self._set_of(block)
            way = self._victim_way(set_idx)
            self._evict(set_idx, way, now)
            self._install(block, set_idx, way, dirty=False)
        cache_end = self.cache_write(self._slot_offset(set_idx, way), now)
        return max(origin_end, cache_end)

    def _write_back(self, block: int, now: float) -> float:
        hit = self.lookup.get(block)
        if hit is not None:
            self.cstats.write_hits += 1
            set_idx, way = hit
            slot = self.sets[set_idx][way]
            if not slot.dirty:
                slot.dirty = True
                self.dirty_blocks += 1
        else:
            self.cstats.write_misses += 1
            set_idx = self._set_of(block)
            way = self._victim_way(set_idx)
            # Eviction destage runs in the background cleaner: its I/O
            # occupies the devices but the new write is not held up.
            self._evict(set_idx, way, now)
            self._install(block, set_idx, way, dirty=True)
        data_end = self.cache_write(self._slot_offset(set_idx, way), now)
        # Dirty metadata is persisted on every dirty write.
        meta_end = self.cache_write(self._meta_offset(set_idx), now)
        self._maybe_destage(now)
        return max(data_end, meta_end)

    def handle_flush(self, now: float) -> float:
        # Flashcache ignores flushes entirely (§3.1).
        return now

    # ------------------------------------------------------------------
    def destage_all(self, now: float) -> float:
        """Push every dirty block to the origin (used by tests/examples)."""
        end = now
        for set_idx in range(self.n_sets):
            for way, slot in enumerate(self.sets[set_idx]):
                if slot.block >= 0 and slot.dirty:
                    end = max(end, self._destage(set_idx, way, now))
        return max(end, self.writeback.flush(end))
