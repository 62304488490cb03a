"""Segment buffers (paper §4.1).

SRC maintains two in-memory segment buffers — one for dirty data (host
writes) and one for clean data (read-miss fills) — plus a temporary
staging buffer for data fetched from primary storage.  A buffer gathers
4 KiB blocks until it holds a full segment's worth, at which point the
whole segment is written to the active Segment Group.

Clean and dirty data are kept apart because a clean block can be lost
without consequence (it has a copy on primary storage), which is what
enables the NPC stripe mode and timeout-free clean buffering: only the
dirty buffer needs the TWAIT partial-segment timeout.

Buffer membership lives in a :class:`~repro.core.arrays.BlockState`
residency array (shared with the mapping table and staging buffer when
the cache wires one in), so ``block in buffer`` is one array load and
the batch path can test a whole chunk against it in a single mask.
Arrival order is a flat int64 array, drained wholesale.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.core.arrays import B_NONE, B_STAGING, BlockState, grow_to

RAM_LATENCY = 2e-6  # buffer hit / insert latency


class SegmentBuffer:
    """An in-RAM accumulation buffer for one class of data.

    ``observer`` (optional; duck-typed with ``block_cached(lba)`` /
    ``block_evicted(lba)`` and the array twins ``blocks_cached(lbas)``
    / ``blocks_evicted(lbas)`` the batch methods call once) is notified
    on real membership changes.  ``drain`` reports its blocks evicted:
    the segment writer re-inserts them into the mapping table at once,
    whose own ``blocks_cached`` nets the count back out — so an
    observer tracking (mapping ∪ buffers) membership stays exact.
    """

    def __init__(self, capacity_blocks: int, dirty: bool, name: str,
                 state: Optional[BlockState] = None, code: int = 0):
        if capacity_blocks <= 0:
            raise ConfigError("segment buffer needs positive capacity")
        self.capacity = capacity_blocks
        self.dirty = dirty
        self.name = name
        # Standalone buffers (tests, tooling) get a private residency
        # array; inside a cache all structures share one.
        self._state = state if state is not None else BlockState()
        self._code = code if code else (3 if dirty else 2)
        self._order = np.zeros(capacity_blocks, dtype=np.int64)
        self._n = 0
        self.observer = None

    def __len__(self) -> int:
        return self._n

    def __contains__(self, lba: int) -> bool:
        a = self._state.a
        return lba < a.shape[0] and a[lba] == self._code

    @property
    def full(self) -> bool:
        return self._n >= self.capacity

    @property
    def empty(self) -> bool:
        return self._n == 0

    def add(self, lba: int) -> bool:
        """Buffer a block.  Returns True if the buffer is now full.

        Re-adding a block already buffered is an in-place update (the
        common rewrite-absorption win of a RAM buffer) and consumes no
        additional slot.
        """
        state = self._state
        if lba >= state.a.shape[0]:
            state.ensure(lba + 1)
        if state.a[lba] == self._code:
            return self.full
        if self._n >= self.capacity:
            raise ConfigError(f"{self.name} buffer overfull")
        if self._n >= self._order.shape[0]:
            self._order = grow_to(self._order, self._n + 1)
        self._order[self._n] = lba
        self._n += 1
        state.a[lba] = self._code
        if self.observer is not None:
            self.observer.block_cached(lba)
        return self._n >= self.capacity

    def add_many(self, lbas: np.ndarray) -> None:
        """Vector ``add`` for blocks known new and within capacity.

        Batch-path only: the caller has already split absorbs from new
        adds and bounded the run so the buffer cannot overflow.
        """
        k = lbas.shape[0]
        if k == 0:
            return
        if self._n + k > self.capacity:
            raise ConfigError(f"{self.name} buffer overfull")
        if self._n + k > self._order.shape[0]:
            self._order = grow_to(self._order, self._n + k)
        self._order[self._n:self._n + k] = lbas
        self._n += k
        state = self._state
        state.ensure(int(lbas.max()) + 1)
        state.a[lbas] = self._code
        if self.observer is not None:
            self.observer.blocks_cached(lbas)

    def remove(self, lba: int) -> bool:
        """Drop a buffered block (e.g. invalidated by a newer write)."""
        state = self._state
        if lba >= state.a.shape[0] or state.a[lba] != self._code:
            return False
        order = self._order[:self._n]
        pos = int(np.nonzero(order == lba)[0][0])
        self._order[pos:self._n - 1] = self._order[pos + 1:self._n]
        self._n -= 1
        state.a[lba] = B_NONE
        if self.observer is not None:
            self.observer.block_evicted(lba)
        return True

    def remove_many(self, lbas: np.ndarray) -> None:
        """Vector :meth:`remove` of blocks known to be buffered here.

        Batch-path only: the caller masked ``lbas`` down to blocks whose
        residency code matches this buffer, so every row is a member.
        """
        k = lbas.shape[0]
        if k == 0:
            return
        order = self._order[:self._n]
        keep = order[~np.isin(order, lbas)]
        self._order[:keep.shape[0]] = keep
        self._n = keep.shape[0]
        self._state.a[lbas] = B_NONE
        if self.observer is not None:
            self.observer.blocks_evicted(lbas)

    def drain(self) -> List[int]:
        """Take every buffered block, emptying the buffer."""
        return self.drain_array().tolist()

    def drain_array(self) -> np.ndarray:
        """Batch-path ``drain``: the order array itself, no row objects."""
        blocks = self._order[:self._n].copy()
        self._state.a[blocks] = B_NONE
        self._n = 0
        if self.observer is not None:
            self.observer.blocks_evicted(blocks)
        return blocks

    def peek(self) -> List[int]:
        return self._order[:self._n].tolist()

    def resize(self, capacity_blocks: int) -> None:
        """Adjust capacity (used when the active segment type changes)."""
        if capacity_blocks < self._n:
            raise ConfigError("cannot shrink below current occupancy")
        self.capacity = capacity_blocks
        if capacity_blocks > self._order.shape[0]:
            self._order = grow_to(self._order, capacity_blocks)


class StagingBuffer:
    """Transient holding area for read-miss fetches (paper §4.1).

    Data lands here on arrival from primary storage so the application
    read can be acknowledged immediately; blocks move to the clean
    segment buffer asynchronously.  We track membership so a re-read
    while staged is a RAM hit.
    """

    def __init__(self, state: Optional[BlockState] = None) -> None:
        self._staged: Dict[int, float] = {}   # lba -> arrival time
        self._state = state if state is not None else BlockState()

    def __contains__(self, lba: int) -> bool:
        return lba in self._staged

    def __len__(self) -> int:
        return len(self._staged)

    def put(self, lba: int, now: float) -> None:
        self._staged[lba] = now
        self._state.set(lba, B_STAGING)

    def pop(self, lba: int) -> Optional[float]:
        arrival = self._staged.pop(lba, None)
        if arrival is not None and self._state.a[lba] == B_STAGING:
            self._state.a[lba] = B_NONE
        return arrival

    def drain(self) -> List[int]:
        blocks = list(self._staged)
        self._staged.clear()
        if blocks:
            a = self._state.a
            for lba in blocks:
                if a[lba] == B_STAGING:
                    a[lba] = B_NONE
        return blocks

    def peek(self) -> List[int]:
        """Staged LBAs without draining (cluster migration snapshots)."""
        return list(self._staged)
