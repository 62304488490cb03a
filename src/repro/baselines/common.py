"""Shared machinery for the baseline SSD cache targets.

Bcache and Flashcache (§3.1) are modelled behaviourally: their mapping
policies, metadata-write and flush disciplines, and destage policies are
implemented faithfully enough that the performance phenomena the paper
attributes to them (flush stalls, set-conflict misses, parity RMW under
RAID) arise from the model rather than being asserted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from repro.block.device import BlockDevice
from repro.common.chunks import run_bounds
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import PAGE_SIZE
from repro.obs.events import Destage
from repro.obs.recorder import NULL_RECORDER


class WritePolicy(enum.Enum):
    WRITE_THROUGH = "wt"
    WRITE_BACK = "wb"


@dataclass
class CacheStats:
    """Hit/miss and traffic counters every cache target maintains."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    destaged_blocks: int = 0
    evicted_clean_blocks: int = 0
    fills: int = 0

    def as_dict(self) -> dict:
        data = dict(self.__dict__)
        data["hit_ratio"] = self.hit_ratio
        data["read_hit_ratio"] = self.read_hit_ratio
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    @property
    def lookups(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def read_hit_ratio(self) -> float:
        reads = self.read_hits + self.read_misses
        return self.read_hits / reads if reads else 0.0

    def copy(self) -> "CacheStats":
        return CacheStats(**self.__dict__)

    def snapshot(self) -> "CacheStats":
        """Point-in-time copy (the unified stats-protocol spelling)."""
        return self.copy()

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return CacheStats(**{k: v - getattr(earlier, k)
                             for k, v in self.__dict__.items()})

    def window_hit_ratio(self, earlier: "CacheStats") -> float:
        """Hit ratio accumulated since ``earlier`` was copied."""
        hits = self.hits - earlier.hits
        lookups = self.lookups - earlier.lookups
        return hits / lookups if lookups else 0.0


class WritebackScheduler:
    """Background writeback with LBA-sorted batching.

    Both Bcache and Flashcache destage through background daemons that
    sort dirty blocks by origin disk offset before issuing (Bcache's
    writeback explicitly sorts; Flashcache sweeps sets in order), which
    is what makes their destage rate survivable on spinning backends.
    Dirty blocks are enqueued here and written to the origin in sorted,
    run-coalesced batches; the I/O occupies the devices but callers do
    not wait on it.
    """

    def __init__(self, origin: BlockDevice, batch_blocks: int = 256):
        self.origin = origin
        self.batch_blocks = batch_blocks
        self._pending: set = set()
        self.destaged = 0
        self.obs = NULL_RECORDER

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, lba: int, now: float) -> None:
        self._pending.add(lba)
        if len(self._pending) >= self.batch_blocks:
            self.flush(now)

    def flush(self, now: float) -> float:
        """Issue every pending block, merging consecutive runs."""
        if not self._pending:
            return now
        lbas = np.array(sorted(self._pending))
        self._pending.clear()
        starts, stops = run_bounds(np.diff(lbas) != 1).T
        end = max(now, self.origin.submit_extents(
            Op.WRITE, lbas[starts] * PAGE_SIZE, (stops - starts) * PAGE_SIZE,
            now, IoOrigin.DESTAGE).max().item())
        self.destaged += len(lbas)
        if self.obs.enabled:
            self.obs.emit(Destage(t=end,
                                  device=f"writeback({self.origin.name})",
                                  blocks=len(lbas)))
        return end


class CacheTarget(BlockDevice):
    """Base class for all caching devices (baselines and SRC).

    Exposes the origin volume's address space; holds a cache device and
    the origin (primary storage).  Subclasses implement the block-level
    read/write paths; this class splits byte requests into aligned
    4 KiB cache blocks, the granularity all three systems manage.
    """

    def __init__(self, cache_dev: BlockDevice, origin: BlockDevice,
                 name: str):
        super().__init__(origin.size, name)
        self.cache_dev = cache_dev
        self.origin = origin
        self.cstats = CacheStats()

    # Subclass interface ------------------------------------------------
    def read_block(self, block: int, now: float) -> float:
        """Serve a read hit.  Cached blocks only: :meth:`read_request`
        sends misses through :meth:`_fetch_run` — as does a target
        whose fills can evict, for a block the run fetched just before
        this call pushed out (``_fetch_run([block], now)``)."""
        raise NotImplementedError

    def write_block(self, block: int, now: float) -> float:
        raise NotImplementedError

    def handle_flush(self, now: float) -> float:
        raise NotImplementedError

    def handle_trim(self, req: Request, now: float) -> float:
        return now

    def block_cached(self, block: int) -> bool:
        """Whether ``block`` can be served without touching the origin.

        With :meth:`install_fill` this gives every target coalesced
        miss fetches: consecutive missing blocks of one request are
        read from the origin in a single extent, as the real systems
        do, instead of one random 4 KiB read per block.
        """
        raise NotImplementedError

    def install_fill(self, block: int, now: float) -> None:
        """Account a read miss and cache the freshly fetched block."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _service(self, req: Request, now: float) -> float:
        if req.op is Op.FLUSH:
            return self.handle_flush(now)
        if req.op is Op.TRIM:
            return self.handle_trim(req, now)
        if req.op is Op.READ:
            return self.read_request(req, now)
        return self.write_request(req, now)

    def write_request(self, req: Request, now: float) -> float:
        """Serve a write; default is block-by-block."""
        end = now
        for block in req.pages():
            end = max(end, self.write_block(block, now))
        return end

    def read_request(self, req: Request, now: float) -> float:
        """Serve a read: cached blocks per block, misses as extents."""
        end = now
        run: list = []
        for block in req.pages():
            if self.block_cached(block):
                if run:
                    end = max(end, self._fetch_run(run, now))
                    run = []
                end = max(end, self.read_block(block, now))
            else:
                run.append(block)
        if run:
            end = max(end, self._fetch_run(run, now))
        return end

    def _fetch_run(self, blocks: list, now: float) -> float:
        """One origin read covering a run of consecutive missing blocks."""
        fetch_end = self.origin.submit(Request(
            Op.READ, blocks[0] * PAGE_SIZE, len(blocks) * PAGE_SIZE), now)
        for block in blocks:
            self.install_fill(block, fetch_end)
        return fetch_end

    # Helpers shared by subclasses --------------------------------------
    def origin_write(self, block: int, now: float) -> float:
        return self.origin.submit(
            Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE), now)

    def origin_read(self, block: int, now: float) -> float:
        return self.origin.submit(
            Request(Op.READ, block * PAGE_SIZE, PAGE_SIZE), now)

    def cache_write(self, slot_offset: int, now: float,
                    length: int = PAGE_SIZE) -> float:
        return self.cache_dev.submit(
            Request(Op.WRITE, slot_offset, length), now)

    def cache_read(self, slot_offset: int, now: float,
                   length: int = PAGE_SIZE) -> float:
        return self.cache_dev.submit(
            Request(Op.READ, slot_offset, length), now)
