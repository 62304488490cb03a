"""Bcache behavioural model (§3.1).

Bcache divides the cache device into *buckets* (default 2 MB in the
paper's comparison setup) and fills the open bucket sequentially, which
turns random writes into sequential SSD writes.  The properties the
paper measures and this model reproduces:

* metadata updates go through a **journal committed with a flush
  command** — the flush traffic is what makes Bcache the slowest system
  in Figure 7 (and Bcache5 worse still, since the flush hits every
  RAID-5 member);
* clean-data metadata lives in memory only: clean contents do not
  survive restart;
* ``writeback_percent`` triggers immediate destaging when the dirty
  ratio exceeds it;
* bucket reclaim invalidates clean blocks and destages dirty ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.baselines.common import CacheTarget, WritePolicy, WritebackScheduler
from repro.block.device import BlockDevice
from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE


@dataclass
class _Bucket:
    index: int
    blocks: List[int] = field(default_factory=list)   # origin block per slot
    dirty: List[bool] = field(default_factory=list)
    valid: List[bool] = field(default_factory=list)
    gen: int = 0

    def live_count(self) -> int:
        return sum(self.valid)


class BcacheDevice(CacheTarget):
    """Bucket-log SSD cache in the style of Bcache."""

    def __init__(self, cache_dev: BlockDevice, origin: BlockDevice,
                 bucket_size: int = 2 * MIB,
                 policy: WritePolicy = WritePolicy.WRITE_BACK,
                 writeback_percent: float = 0.10,
                 journal_commit_bytes: int = 1 * MIB,
                 name: str = "bcache"):
        super().__init__(cache_dev, origin, name)
        if bucket_size % PAGE_SIZE:
            raise ConfigError("bucket_size must be 4 KiB aligned")
        self.policy = policy
        self.writeback_percent = writeback_percent
        self.journal_commit_bytes = journal_commit_bytes

        # Layout: journal region (8 MiB or 2 buckets, whichever larger),
        # then bucket space.
        self.bucket_blocks = bucket_size // PAGE_SIZE
        self.bucket_size = bucket_size
        journal_space = max(8 * MIB, 2 * bucket_size)
        journal_space = min(journal_space, cache_dev.size // 4)
        self.journal_base = 0
        self.journal_size = journal_space
        self.data_base = journal_space
        self.n_buckets = (cache_dev.size - journal_space) // bucket_size
        if self.n_buckets < 2:
            raise ConfigError("cache device too small for two buckets")

        self.buckets: List[_Bucket] = [_Bucket(i) for i in range(self.n_buckets)]
        self.free: List[int] = list(range(self.n_buckets - 1, 0, -1))
        self.fifo: List[int] = []          # closed buckets, oldest first
        self.open = self.buckets[0]
        self.lookup: Dict[int, tuple] = {}  # origin block -> (bucket, slot)
        self.dirty_blocks = 0
        self.total_blocks = self.n_buckets * self.bucket_blocks
        self._journal_head = 0
        self._uncommitted_bytes = 0
        self.journal_commits = 0
        self.writeback = WritebackScheduler(origin)

    # ------------------------------------------------------------------
    @property
    def dirty_ratio(self) -> float:
        return self.dirty_blocks / self.total_blocks

    def _slot_offset(self, bucket_idx: int, slot: int) -> int:
        return (self.data_base + bucket_idx * self.bucket_size
                + slot * PAGE_SIZE)

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------
    def _journal_write(self, now: float, nbytes: int = PAGE_SIZE) -> float:
        """Append metadata to the journal; commit (flush!) periodically."""
        offset = self.journal_base + self._journal_head
        self._journal_head = (self._journal_head + nbytes) % (
            self.journal_size - PAGE_SIZE)
        end = self.cache_write(offset, now, nbytes)
        self._uncommitted_bytes += nbytes
        if self._uncommitted_bytes >= self.journal_commit_bytes:
            self._uncommitted_bytes = 0
            self.journal_commits += 1
            end = self.cache_dev.submit(Request(Op.FLUSH), end)
        return end

    # ------------------------------------------------------------------
    # bucket allocation / reclaim
    # ------------------------------------------------------------------
    def _invalidate(self, block: int) -> None:
        entry = self.lookup.pop(block, None)
        if entry is None:
            return
        bucket_idx, slot = entry
        bucket = self.buckets[bucket_idx]
        if bucket.valid[slot]:
            bucket.valid[slot] = False
            if bucket.dirty[slot]:
                bucket.dirty[slot] = False
                self.dirty_blocks -= 1

    def _place(self, block: int, dirty: bool, now: float) -> int:
        """Assign a block the next open-bucket slot (no I/O yet)."""
        self._invalidate(block)
        if len(self.open.blocks) >= self.bucket_blocks:
            self._roll_bucket(now)
        slot = len(self.open.blocks)
        self.open.blocks.append(block)
        self.open.valid.append(True)
        self.open.dirty.append(dirty)
        if dirty:
            self.dirty_blocks += 1
        self.lookup[block] = (self.open.index, slot)
        self.cstats.fills += 1
        return self._slot_offset(self.open.index, slot)

    def write_request(self, req: Request, now: float) -> float:
        """Insert a whole write as one extent (real Bcache inserts
        extent keys, and consecutive open-bucket slots are physically
        contiguous, so one larger cache write covers the request)."""
        blocks = list(req.pages())
        for block in blocks:
            if block in self.lookup:
                self.cstats.write_hits += 1
            else:
                self.cstats.write_misses += 1
        if self.policy is WritePolicy.WRITE_THROUGH:
            origin_end = self.origin.submit(
                Request(Op.WRITE, req.offset, req.length), now)
            end = max(origin_end, self._extent_insert(blocks, False, now))
            return end
        end = self._extent_insert(blocks, True, now)
        end = self._journal_write(end)
        self._writeback(now)
        return end

    def _extent_insert(self, blocks, dirty: bool, now: float) -> float:
        """Place blocks and issue merged writes over contiguous slots."""
        offsets = [self._place(b, dirty, now) for b in blocks]
        end = now
        run_start = prev = offsets[0]
        for off in offsets[1:] + [None]:
            if off is not None and off == prev + PAGE_SIZE:
                prev = off
                continue
            end = max(end, self.cache_write(
                run_start, now, prev - run_start + PAGE_SIZE))
            if off is not None:
                run_start = prev = off
        return end

    def _roll_bucket(self, now: float) -> float:
        self.fifo.append(self.open.index)
        if not self.free:
            # Reclaim I/O runs via the background writeback/GC threads:
            # it occupies the devices but the roll does not wait for it.
            self._reclaim_bucket(now)
        idx = self.free.pop()
        bucket = self.buckets[idx]
        bucket.blocks.clear()
        bucket.dirty.clear()
        bucket.valid.clear()
        bucket.gen += 1
        self.open = bucket
        return now

    def _reclaim_bucket(self, now: float) -> float:
        """Reclaim the oldest closed bucket; destage its dirty blocks."""
        idx = self.fifo.pop(0)
        bucket = self.buckets[idx]
        end = now
        for slot, block in enumerate(bucket.blocks):
            if not bucket.valid[slot]:
                continue
            if bucket.dirty[slot]:
                end = max(end, self._destage(bucket, slot, now))
            else:
                self.cstats.evicted_clean_blocks += 1
            bucket.valid[slot] = False
            self.lookup.pop(block, None)
        self.free.append(idx)
        # Reclaim is a metadata operation: journal it.
        return self._journal_write(end)

    # ------------------------------------------------------------------
    # destage on writeback_percent (immediate, per §3.1)
    # ------------------------------------------------------------------
    def _destage(self, bucket: _Bucket, slot: int, now: float) -> float:
        """Read one dirty slot back and queue it for writeback."""
        read_end = self.cache_read(
            self._slot_offset(bucket.index, slot), now)
        self.writeback.enqueue(bucket.blocks[slot], read_end)
        bucket.dirty[slot] = False
        self.dirty_blocks -= 1
        self.cstats.destaged_blocks += 1
        return read_end

    def _writeback(self, now: float) -> None:
        rotations = 0
        while self.dirty_ratio > self.writeback_percent and self.fifo:
            oldest = self.buckets[self.fifo[0]]
            destaged_any = False
            for slot in range(len(oldest.blocks)):
                if oldest.valid[slot] and oldest.dirty[slot]:
                    self._destage(oldest, slot, now)
                    destaged_any = True
            if destaged_any:
                rotations = 0
                continue
            # Oldest bucket holds no dirty data; rotate it so the loop
            # can reach younger buckets.  Once the whole fifo has been
            # scanned without progress, the remaining dirty data lives
            # in the open bucket and cannot be written back yet.
            rotations += 1
            self.fifo.append(self.fifo.pop(0))
            if rotations >= len(self.fifo):
                break

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------
    def block_cached(self, block: int) -> bool:
        return block in self.lookup

    def install_fill(self, block: int, now: float) -> None:
        self.cstats.read_misses += 1
        # Clean insert: data write only, metadata cached in memory.
        self.cache_write(self._place(block, False, now), now)

    def read_block(self, block: int, now: float) -> float:
        entry = self.lookup.get(block)
        if entry is None:       # reclaimed by the fills fetched just before
            return self._fetch_run([block], now)
        self.cstats.read_hits += 1
        bucket_idx, slot = entry
        return self.cache_read(self._slot_offset(bucket_idx, slot), now)

    def handle_flush(self, now: float) -> float:
        # Bcache honours flushes: commit the journal.
        self._uncommitted_bytes = 0
        self.journal_commits += 1
        return self.cache_dev.submit(Request(Op.FLUSH), now)

    # ------------------------------------------------------------------
    def destage_all(self, now: float) -> float:
        """Flush every dirty block to the origin."""
        end = now
        for bucket in self.buckets:
            for slot in range(len(bucket.blocks)):
                if bucket.valid[slot] and bucket.dirty[slot]:
                    end = max(end, self._destage(bucket, slot, now))
        return max(end, self.writeback.flush(end))
