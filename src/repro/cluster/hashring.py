"""Consistent-hash ring mapping routing slabs to shard slots.

Classic ring with virtual nodes: every shard slot owns ``vnodes``
deterministic points on a 64-bit circle, and a slab belongs to the
first point clockwise from its hash.  Adding or removing a slot moves
only the arcs adjacent to that slot's points — ``add`` / ``remove``
return exactly those arcs as ``(lo, hi, other_slot)`` triples so the
migration layer knows what re-homes and from/to where, without any
global reshuffle.

Hashes come from ``blake2b`` (stable across processes and Python
versions — ``hash()`` is salted and useless here), so the same seed
always produces the same placement: a cluster rebuilt after a power
cut recomputes identical ownership, which is what makes the migration
hand-off ledger meaningful.

Arcs are half-open ``(lo, hi]`` intervals on the circle and may wrap
through zero; :func:`arc_contains` is the one membership test every
layer shares.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Dict, List, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.core.arrays import grow_to

RING_BITS = 64


def arc_contains(lo: int, hi: int, point: int) -> bool:
    """Whether ``point`` lies on the half-open arc ``(lo, hi]``.

    ``lo == hi`` denotes the full circle (a single-point ring owns
    everything), matching how the arc of a lone vnode degenerates.
    """
    if lo == hi:
        return True
    if lo < hi:
        return lo < point <= hi
    return point > lo or point <= hi


class HashRing:
    """Consistent-hash ring over integer shard slots."""

    def __init__(self, vnodes: int = 32, seed: int = 1):
        if vnodes < 1:
            raise ConfigError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.seed = seed
        self._shards: Dict[int, List[int]] = {}
        self._rebuild()

    # ------------------------------------------------------------------
    def _hash(self, key: str) -> int:
        digest = hashlib.blake2b(key.encode("ascii"),
                                 digest_size=RING_BITS // 8).digest()
        return int.from_bytes(digest, "big")

    def key_hash(self, slab: int) -> int:
        """Ring position of one routing slab."""
        return self._hash(f"{self.seed}:slab:{slab}")

    def _shard_points(self, slot: int) -> List[int]:
        return [self._hash(f"{self.seed}:shard:{slot}:{v}")
                for v in range(self.vnodes)]

    def _rebuild(self) -> None:
        """Recompute the ring from ``_shards``: the one place points
        change, so the one place the slab-owner array is dropped."""
        self._points = sorted(   # (hash, slot)
            (h, slot) for slot, hashes in self._shards.items()
            for h in hashes)
        # slab -> owning slot, filled lazily by owner() / owners() (the
        # blake2b slab hash cannot vectorize, and per page it dominates
        # the routing cost); -1 = not yet computed.
        self._slab_owner = np.empty(0, dtype=np.int32)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, slot: int) -> bool:
        return slot in self._shards

    def slots(self) -> List[int]:
        return sorted(self._shards)

    def owner_of_hash(self, point: int) -> int:
        """The slot owning ``point``: first ring point clockwise."""
        if not self._points:
            raise ConfigError("hash ring is empty")
        index = bisect_left(self._points, (point, -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def owner(self, slab: int) -> int:
        """The slot owning routing slab ``slab``."""
        owners = self._slab_owner
        if slab >= owners.shape[0]:
            owners = self._slab_owner = grow_to(owners, slab + 1, fill=-1)
        slot = int(owners[slab])
        if slot < 0:
            slot = owners[slab] = self.owner_of_hash(self.key_hash(slab))
        return slot

    def owners(self, slabs: np.ndarray) -> np.ndarray:
        """:meth:`owner` of every slab in a non-empty array: misses hash
        once per distinct slab and stay until the ring next changes."""
        owners = self._slab_owner = grow_to(
            self._slab_owner, int(slabs.max()) + 1, fill=-1)
        slots = owners[slabs]
        if (slots < 0).any():
            for slab in np.unique(slabs[slots < 0]).tolist():
                owners[slab] = self.owner_of_hash(self.key_hash(slab))
            slots = owners[slabs]
        return slots

    def _predecessor(self, point: int) -> int:
        """The ring point strictly counter-clockwise of ``point``."""
        index = bisect_left(self._points, (point, -1)) - 1
        return self._points[index][0]   # index -1 wraps, as intended

    # ------------------------------------------------------------------
    def add(self, slot: int) -> List[Tuple[int, int, int]]:
        """Insert ``slot``; return the arcs it steals.

        Each returned ``(lo, hi, old_owner)`` is an arc now owned by
        ``slot`` that ``old_owner`` held before.  Empty for the first
        slot (nothing existed to steal from).
        """
        if slot in self._shards:
            raise ConfigError(f"shard slot {slot} already on the ring")
        points = self._shard_points(slot)
        was_empty = not self._points
        old_owners = {} if was_empty else {
            h: self.owner_of_hash(h) for h in points}
        self._shards[slot] = points
        self._rebuild()
        if was_empty:
            return []
        moves = []
        for h in points:
            # The arc (pred, h] contains no other point of the new
            # ring, so its previous owner is constant: the old-ring
            # successor of h.
            moves.append((self._predecessor(h), h, old_owners[h]))
        return moves

    def remove(self, slot: int) -> List[Tuple[int, int, int]]:
        """Remove ``slot``; return the arcs it cedes.

        Each returned ``(lo, hi, new_owner)`` is an arc ``slot`` owned
        that ``new_owner`` inherits.  Removing the last slot empties
        the ring and cedes nothing (there is nowhere to move data to).
        """
        if slot not in self._shards:
            raise ConfigError(f"shard slot {slot} not on the ring")
        points = self._shards[slot]
        arcs = [(self._predecessor(h), h) for h in points]
        del self._shards[slot]
        self._rebuild()
        if not self._points:
            return []
        moves = []
        for lo, hi in arcs:
            new_owner = self.owner_of_hash(hi)
            moves.append((lo, hi, new_owner))
        return moves
