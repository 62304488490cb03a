"""In-memory logical-to-cache mapping (paper §4.1).

SRC keeps an in-memory table translating origin logical block addresses
to cache locations — 16 bytes per 4 KiB cached, ~0.3% of cache
capacity.  The table here also powers GC: each segment group tracks the
blocks it currently holds so victims can be enumerated in O(valid).

State lives in flat LBA-indexed numpy arrays (location columns, dirty
bit, checksum, version) rather than a dict of row objects, so the
batched request path tests and installs whole chunks with vector ops;
:class:`CacheEntry` is materialized on demand for the scalar API, which
is unchanged.  The per-SG reverse index is an append-only log of LBAs
with tombstone validity (a log slot is live iff the block still maps
into this SG *from* that slot), reset wholesale by ``drop_sg`` — the
log length is bounded by the SG's block capacity between reclaims, and
enumeration order matches the old dict's insertion order exactly (the
differential tests depend on that for byte-identical GC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.arrays import B_MAPPED, B_NONE, BlockState, grow_to
from repro.core.layout import BlockLocation


@dataclass
class CacheEntry:
    """Mapping-table row for one cached block."""

    location: BlockLocation
    dirty: bool
    checksum: int = 0
    version: int = 0


_INITIAL = 1024


class MappingTable:
    """LBA -> cache-location map plus per-SG reverse indexes.

    ``observer`` (optional; duck-typed with ``block_cached(lba)`` /
    ``block_evicted(lba)`` and, for the batch methods, the array twins
    ``blocks_cached(lbas)`` / ``blocks_evicted(lbas)``) is notified on
    every real membership change — an insert that adds a new LBA, an
    invalidate that removes one.
    Re-inserting a mapped LBA fires evicted-then-cached (the insert
    invalidates first), so an observer counting membership nets zero.
    The tenancy layer uses this for exact per-tenant occupancy.
    """

    def __init__(self, n_groups: int,
                 state: Optional[BlockState] = None):
        n = _INITIAL
        self._sg = np.full(n, -1, dtype=np.int32)
        self._segment = np.zeros(n, dtype=np.int32)
        self._ssd = np.zeros(n, dtype=np.int32)
        self._offset = np.zeros(n, dtype=np.int64)
        self._dirty = np.zeros(n, dtype=bool)
        self._checksum = np.zeros(n, dtype=np.int64)
        self._version = np.zeros(n, dtype=np.int64)
        self._pos = np.zeros(n, dtype=np.int64)
        # Per-SG append-only logs: LBA per insert, tombstoned by _pos.
        self._log: List[np.ndarray] = [
            np.zeros(64, dtype=np.int64) for _ in range(n_groups)
        ]
        self._log_n = [0] * n_groups
        self._sg_valid = [0] * n_groups
        self._count = 0
        self.dirty_count = 0
        self.observer = None
        self._state = state if state is not None else BlockState()

    # ------------------------------------------------------------------
    def _ensure(self, n: int) -> None:
        if n <= self._sg.shape[0]:
            return
        self._sg = grow_to(self._sg, n, fill=-1)
        self._segment = grow_to(self._segment, n)
        self._ssd = grow_to(self._ssd, n)
        self._offset = grow_to(self._offset, n)
        self._dirty = grow_to(self._dirty, n, fill=False)
        self._checksum = grow_to(self._checksum, n)
        self._version = grow_to(self._version, n)
        self._pos = grow_to(self._pos, n)
        self._state.ensure(n)

    def _entry_at(self, lba: int) -> CacheEntry:
        return CacheEntry(
            location=BlockLocation(int(self._sg[lba]),
                                   int(self._segment[lba]),
                                   int(self._ssd[lba]),
                                   int(self._offset[lba])),
            dirty=bool(self._dirty[lba]),
            checksum=int(self._checksum[lba]),
            version=int(self._version[lba]))

    def lookup(self, lba: int) -> Optional[CacheEntry]:
        sg = self._sg
        if lba >= sg.shape[0] or sg[lba] < 0:
            return None
        return self._entry_at(lba)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, lba: int) -> bool:
        sg = self._sg
        return lba < sg.shape[0] and sg[lba] >= 0

    def _log_append(self, sg: int, lba: int) -> None:
        log, n = self._log[sg], self._log_n[sg]
        if n >= log.shape[0]:
            self._log[sg] = log = grow_to(log, n + 1)
        log[n] = lba
        self._pos[lba] = n
        self._log_n[sg] = n + 1
        self._sg_valid[sg] += 1

    def insert(self, lba: int, entry: CacheEntry) -> None:
        """Install a mapping, invalidating any previous location."""
        self.invalidate(lba)
        self._ensure(lba + 1)
        loc = entry.location
        self._sg[lba] = loc.sg
        self._segment[lba] = loc.segment
        self._ssd[lba] = loc.ssd
        self._offset[lba] = loc.offset
        self._dirty[lba] = entry.dirty
        self._checksum[lba] = entry.checksum
        self._version[lba] = entry.version
        self._log_append(loc.sg, lba)
        self._count += 1
        if entry.dirty:
            self.dirty_count += 1
        self._state.a[lba] = B_MAPPED
        if self.observer is not None:
            self.observer.block_cached(lba)

    def insert_batch(self, lbas: np.ndarray, sg: int, segment: int,
                     ssds: np.ndarray, offsets: np.ndarray, dirty: bool,
                     checksums: np.ndarray,
                     versions: np.ndarray) -> None:
        """Vector insert of one sealed segment's blocks (slot order).

        The caller (``SegmentLog.install``) guarantees the LBAs are
        currently unmapped: they came straight out of a segment buffer
        (anything buffered was invalidated on entry), or recovery
        invalidated the ones an earlier segment had mapped.
        """
        k = lbas.shape[0]
        if k == 0:
            return
        self._ensure(int(lbas.max()) + 1)
        self._sg[lbas] = sg
        self._segment[lbas] = segment
        self._ssd[lbas] = ssds
        self._offset[lbas] = offsets
        self._dirty[lbas] = dirty
        self._checksum[lbas] = checksums
        self._version[lbas] = versions
        log, n = self._log[sg], self._log_n[sg]
        if n + k > log.shape[0]:
            self._log[sg] = log = grow_to(log, n + k)
        log[n:n + k] = lbas
        self._pos[lbas] = np.arange(n, n + k)
        self._log_n[sg] = n + k
        self._sg_valid[sg] += k
        self._count += k
        if dirty:
            self.dirty_count += k
        self._state.a[lbas] = B_MAPPED
        if self.observer is not None:
            self.observer.blocks_cached(lbas)

    def invalidate(self, lba: int) -> bool:
        """Drop the mapping for ``lba``; whether there was one."""
        sg_arr = self._sg
        if lba >= sg_arr.shape[0] or sg_arr[lba] < 0:
            return False
        self._sg_valid[sg_arr[lba]] -= 1
        sg_arr[lba] = -1
        self._count -= 1
        if self._dirty[lba]:
            self.dirty_count -= 1
            self._dirty[lba] = False
        if self._state.a[lba] == B_MAPPED:
            self._state.a[lba] = B_NONE
        if self.observer is not None:
            self.observer.block_evicted(lba)
        return True

    def invalidate_many(self, lbas: np.ndarray) -> None:
        """Vector :meth:`invalidate` of currently-mapped LBAs.

        Batch-path only: the caller has already masked down to blocks
        whose residency code is ``B_MAPPED``, so every row is live.
        """
        k = lbas.shape[0]
        if k == 0:
            return
        counts = np.bincount(self._sg[lbas])
        for sg in np.nonzero(counts)[0].tolist():
            self._sg_valid[sg] -= int(counts[sg])
        self._sg[lbas] = -1
        self._count -= k
        self.dirty_count -= int(np.count_nonzero(self._dirty[lbas]))
        self._dirty[lbas] = False
        self._state.a[lbas] = B_NONE
        if self.observer is not None:
            self.observer.blocks_evicted(lbas)

    def mark_clean(self, lba: int) -> None:
        """Transition a dirty block to clean after destaging."""
        if lba >= self._sg.shape[0] or self._sg[lba] < 0:
            raise KeyError(lba)
        if self._dirty[lba]:
            self._dirty[lba] = False
            self.dirty_count -= 1

    # ------------------------------------------------------------------
    # per-SG views (GC)
    # ------------------------------------------------------------------
    def sg_valid_count(self, sg: int) -> int:
        return self._sg_valid[sg]

    def _sg_live_lbas(self, sg: int) -> np.ndarray:
        """Live LBAs of ``sg`` in insertion order (tombstones skipped)."""
        n = self._log_n[sg]
        lbas = self._log[sg][:n]
        live = (self._sg[lbas] == sg) & (self._pos[lbas] == np.arange(n))
        return lbas[live]

    def sg_blocks(self, sg: int) -> List[Tuple[int, CacheEntry]]:
        """Valid (lba, entry) pairs currently living in ``sg``."""
        return [(lba, self._entry_at(lba))
                for lba in self._sg_live_lbas(sg).tolist()]

    def sg_blocks_arrays(self, sg: int) -> Tuple[np.ndarray, np.ndarray]:
        """Live LBAs of ``sg`` (insertion order) plus their dirty bits.

        Batch-path counterpart of :meth:`sg_blocks`: returns the LBA
        array and a dirty-bit gather instead of materialized entries,
        so reclaim can classify a whole victim with vector ops.
        """
        lbas = self._sg_live_lbas(sg)
        return lbas, self._dirty[lbas].copy()

    def locations_arrays(self, lbas: np.ndarray) -> Tuple[np.ndarray,
                                                          np.ndarray,
                                                          np.ndarray,
                                                          np.ndarray]:
        """``(sg, segment, ssd, offset)`` column gathers for mapped LBAs.

        Copies, not views: reclaim invalidates/reinserts the same LBAs
        while it still holds the gathered locations.
        """
        return (self._sg[lbas].copy(), self._segment[lbas].copy(),
                self._ssd[lbas].copy(), self._offset[lbas].copy())

    def items(self) -> List[Tuple[int, CacheEntry]]:
        """Every valid (lba, entry) pair, in no particular order.

        Snapshot copy: callers (cluster migration walks) mutate the
        table while iterating the result.
        """
        lbas = np.nonzero(self._sg >= 0)[0]
        return [(int(lba), self._entry_at(lba)) for lba in lbas]

    def drop_sg(self, sg: int) -> None:
        """Forget every mapping in a segment group (post-reclaim)."""
        self.invalidate_many(self._sg_live_lbas(sg))
        self._log_n[sg] = 0

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """The paper's 16 bytes/entry accounting."""
        return 16 * self._count

    def valid_blocks(self) -> int:
        return self._count

    def check_invariants(self) -> None:
        mapped = self._sg >= 0
        assert int(np.count_nonzero(mapped)) == self._count, \
            "valid count drifted"
        assert int(np.count_nonzero(self._dirty & mapped)) == \
            self.dirty_count, "dirty_count drifted"
        per_sg_total = 0
        for sg in range(len(self._log)):
            live = self._sg_live_lbas(sg)
            assert live.shape[0] == self._sg_valid[sg], \
                f"sg {sg} valid count drifted"
            per_sg_total += live.shape[0]
            assert np.all(self._sg[live] == sg), "entry in wrong SG index"
            assert live.shape[0] == len(set(live.tolist())), \
                f"sg {sg} log holds duplicate live lbas"
        assert per_sg_total == self._count, "per-SG index drifted"
