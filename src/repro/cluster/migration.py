"""Resumable, throttled hand-off of hash ranges between shards.

A topology change (shard add/remove) re-homes a set of ring arcs.  The
migration layer moves the cached blocks of each arc from its current
data owner to its new ring owner without losing a single acknowledged
dirty block, without a stop-the-world pause, and in a way that a power
cut can interrupt at any device write and still leave every block with
exactly one owner after recovery.

The protocol per range, modeled on the rebuild job in
:mod:`repro.repair.rebuild` (unit-granular work list, token-bucket
pacing, foreground-p99 back-off, caller-driven pump):

1. **Intent** — the topology op and its full move list are written to
   the :class:`MigrationLedger` *before* any data moves.  The ledger
   models a durable journal (same convention as the metadata store:
   durability is modeled, power cuts only fire on data-device writes),
   so recovery always knows which ranges were mid-flight.
2. **Copy** — walk a snapshot of the source's cached blocks in the
   range and admit each into the target, dirty state preserved.  The
   copy rate rides the shared token bucket and defers while the
   foreground guard reports hot.
3. **Catch-up** — re-walk the range; any block whose write-version
   changed (or appeared) since its copy is copied again.  Bounded by
   :data:`MAX_CATCHUP_PASSES`; the final pass copies the remainder inside
   one pump step, which the single-threaded simulation cannot
   interleave writes into.
4. **Seal & flip** — ``target.handle_flush`` makes the copies durable,
   *then* the range is recorded in the ledger.  Ordering is the safety
   argument: a cut during the flush leaves the range unrecorded, so it
   still routes to the source, which has evicted nothing yet.
5. **Evict** — the source forgets the range.  RAM-only bookkeeping:
   it cannot be interrupted by a device fault.

Routing consults the pending (uncommitted) moves first — an in-flight
range keeps routing to its source — so ownership flips atomically per
range at step 4, never per block.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.common.errors import ReproError
from repro.common.throttle import ForegroundGuard, TokenBucket
from repro.common.units import PAGE_SIZE

from .config import ClusterConfig
from .hashring import arc_contains


# Re-walks chasing concurrent writes before the final forced copy: the
# bound that keeps a rebalance from chasing a hot writer forever.
MAX_CATCHUP_PASSES = 8


class MigrationError(ReproError):
    """Cluster migration protocol violation."""


@dataclass(frozen=True)
class RangeMove:
    """One ring arc changing data owner: ``(lo, hi]`` source -> target."""

    lo: int
    hi: int
    source: int
    target: int

    @property
    def key(self) -> Tuple[int, int]:
        return (self.lo, self.hi)

    def contains(self, point: int) -> bool:
        return arc_contains(self.lo, self.hi, point)


class MigrationLedger:
    """Durable intent + commit journal for topology changes.

    Holds at most one open intent (the active topology op with its full
    move list) and the set of its committed ranges.  Modeled durable:
    the simulation's power cuts fire only on data-device writes, so the
    ledger object survives a cut the way the metadata store does, and
    recovery reads it to learn which ranges were still in flight.
    """

    def __init__(self) -> None:
        self.op: Optional[str] = None        # "add" / "remove"
        self.slot: Optional[int] = None
        self.moves: List[RangeMove] = []
        self._committed: Set[Tuple[int, int]] = set()

    @property
    def active(self) -> bool:
        return self.op is not None

    def begin(self, op: str, slot: int, moves: List[RangeMove]) -> None:
        if self.active:
            raise MigrationError(
                f"ledger already holds an open {self.op} intent")
        self.op = op
        self.slot = slot
        self.moves = list(moves)
        self._committed = set()

    def record(self, move: RangeMove) -> None:
        """Commit one range: its ownership flip is now durable."""
        if not self.active:
            raise MigrationError("record() with no open intent")
        self._committed.add(move.key)

    def committed(self, move: RangeMove) -> bool:
        return move.key in self._committed

    def pending_moves(self) -> List[RangeMove]:
        return [m for m in self.moves if m.key not in self._committed]

    def complete(self) -> None:
        """Close the intent once every range is committed."""
        if not self.active:
            raise MigrationError("complete() with no open intent")
        self.op = None
        self.slot = None
        self.moves = []
        self._committed = set()

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "slot": self.slot,
            "moves": len(self.moves),
            "committed": len(self._committed),
        }


@dataclass
class MigrationStats:
    """Counters for one migration job (merged into ClusterStats)."""

    ranges_total: int = 0
    ranges_done: int = 0
    blocks_copied: int = 0
    dirty_blocks_copied: int = 0
    catchup_passes: int = 0
    forced_finals: int = 0
    throttle_defers: int = 0
    guard_defers: int = 0
    frozen_skips: int = 0


class MigrationJob:
    """One resumable topology change, pumped from the router's I/O path.

    The router calls :meth:`pump` from its service path (exactly how
    ``SrcCache._check_timeout`` pumps the rebuild controller), so
    migration only makes progress while simulated time advances, and
    its I/O competes with the foreground traffic the throttle bounds.
    """

    def __init__(self, router, moves: List[RangeMove],
                 config: ClusterConfig, bucket: TokenBucket,
                 guard: ForegroundGuard, kind: str = "start"):
        self.router = router
        self.config = config
        self.bucket = bucket
        self.guard = guard
        self.kind = kind
        self.moves: Deque[RangeMove] = deque(moves)
        self.stats = MigrationStats(ranges_total=len(moves))
        # Per-move walk state.
        self._work: Optional[Deque[Tuple[int, bool]]] = None
        self._copied: Dict[int, int] = {}     # lba -> version at copy time
        self._passes = 0

    @property
    def done(self) -> bool:
        return not self.moves

    # ------------------------------------------------------------------
    def _range_blocks(self, move: RangeMove,
                      source) -> List[Tuple[int, bool]]:
        """Source's cached blocks whose slab hashes into the move's arc."""
        ring = self.router.ring
        slab = self.config.slab_blocks
        return [(lba, dirty) for lba, dirty in source.cached_blocks()
                if move.contains(ring.key_hash(lba // slab))]

    def _stale(self, move: RangeMove, source) -> List[Tuple[int, bool]]:
        """Blocks written (or newly admitted) since their last copy."""
        return [(lba, dirty)
                for lba, dirty in self._range_blocks(move, source)
                if self._copied.get(lba) != source.block_version(lba)]

    def _copy_one(self, lba: int, source, target, now: float) -> float:
        read_end = source.migrate_read(lba, now)
        if read_end is None:
            # Trimmed or dropped between snapshot and copy: nothing to
            # move, and nothing to own.
            self._copied.pop(lba, None)
            return now
        # Dirty state and version are read at copy time, together with
        # the data: the walk snapshot's flag may be stale, and a write
        # that raced in between already bumped the version this copy
        # records — trusting the snapshot would drop the dirty bit.
        dirty = source.block_dirty(lba)
        end = target.admit_block(lba, dirty, read_end)
        self._copied[lba] = source.block_version(lba)
        self.stats.blocks_copied += 1
        if dirty:
            self.stats.dirty_blocks_copied += 1
        return end

    # ------------------------------------------------------------------
    def pump(self, now: float) -> None:
        """Advance the migration by at most one copy batch or hand-off."""
        if self.done:
            return
        if self.guard.hot():
            self.stats.guard_defers += 1
            return
        move = self.moves[0]
        source = self.router.shards.get(move.source)
        target = self.router.shards.get(move.target)
        if (source is None or target is None
                or not self.router.slot_serving(move.source)
                or not self.router.slot_serving(move.target)):
            # An endpoint died mid-migration: freeze this move (its
            # override keeps routing the range to the source slot, which
            # falls through to the origin while unhealthy) and rotate it
            # to the back so healthy moves still progress.
            self.stats.frozen_skips += 1
            self.moves.rotate(-1)
            self._work = None
            self._copied = {}
            self._passes = 0
            return

        if self._work is None:
            self._work = deque(self._range_blocks(move, source))
            self._copied = {}
            self._passes = 0

        if self._work:
            batch = min(len(self._work), self.config.migration_unit_blocks)
            nbytes = batch * PAGE_SIZE
            if self.bucket.ready_time(nbytes, now) > now:
                self.stats.throttle_defers += 1
                return
            self.bucket.consume(nbytes, now)
            for _ in range(batch):
                lba, _dirty = self._work.popleft()
                self._copy_one(lba, source, target, now)
            if self._work:
                return

        # Work list drained: catch up with writes that raced the copy.
        stale = self._stale(move, source)
        if stale and self._passes < MAX_CATCHUP_PASSES:
            self._passes += 1
            self.stats.catchup_passes += 1
            self._work = deque(stale)
            return
        if stale:
            # Forced final copy: one uninterruptible (single pump step,
            # single-threaded simulation) pass over the remainder.
            self.stats.forced_finals += 1
            for lba, _dirty in stale:
                self._copy_one(lba, source, target, now)

        self._handoff(move, source, target, now)

    def _handoff(self, move: RangeMove, source, target, now: float) -> None:
        """Seal the target, commit the flip, forget on the source."""
        target.handle_flush(now)          # durable BEFORE the flip
        self.router.commit_move(move, now)
        for lba, _ in self._range_blocks(move, source):
            source.evict_block(lba)
        self.moves.popleft()
        self._work = None
        self._copied = {}
        self._passes = 0
        self.stats.ranges_done += 1
