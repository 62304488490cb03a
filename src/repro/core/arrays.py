"""Flat-array state primitives for the SRC core (batch path, PR 8).

The per-request hot path historically kept cache state in Python dicts
and sets keyed by LBA.  The batched request engine moves that state
into flat numpy arrays indexed by LBA so membership tests, version
bumps and hotness touches vectorize over whole chunks; the scalar path
reads and writes the same buffers element-wise through a ``memoryview``
of each array (:class:`~repro.common.types.ElementViews`), so the two
stay identical by construction (the ``SCALAR_THRESHOLD`` discipline
:mod:`repro.ssd.ftl` established).

Arrays grow geometrically on first touch of a new high LBA, so memory
tracks the *touched* address span, not the device size — a trace over
a 2 TiB volume that only visits 1 GiB pays for 1 GiB of index.
"""

from __future__ import annotations

import numpy as np

from repro.common.types import ElementViews

# Block-residency codes (at most one structure holds a block at a time;
# the SRC write/read paths maintain this invariant).
B_NONE = 0       # not cached
B_CLEAN = 2      # clean segment buffer (RAM)
B_DIRTY = 3      # dirty segment buffer (RAM)
B_MAPPED = 4     # persisted in a segment (mapping table)

_INITIAL = 1024


def grow_to(arr: np.ndarray, n: int, fill=0) -> np.ndarray:
    """Return ``arr`` grown (geometrically) to cover index ``n - 1``."""
    size = arr.shape[0]
    if n <= size:
        return arr
    # 1/8 headroom past the requested index: a uniform workload's first
    # chunk lands within a hair of the span's top LBA, and without slack
    # the true top arriving later would force a second full-size
    # realloc+copy of every state array.
    new_size = max(n + (n >> 3), size * 2, _INITIAL)
    if fill:
        grown = np.empty(new_size, dtype=arr.dtype)
        grown[size:] = fill
    else:
        # calloc path: the kernel hands back zero pages, so a zero fill
        # costs nothing until touched — the common case (codes, counts,
        # versions all default to 0/False).
        grown = np.zeros(new_size, dtype=arr.dtype)
    grown[:size] = arr
    return grown


class BlockState(ElementViews):
    """Shared LBA -> residency-code array (one ``B_*`` code per block).

    One instance is shared by the mapping table and the segment buffers
    of a cache; each updates its blocks' codes on membership change,
    which turns ``block_cached`` (four dict probes) into a single array
    load and gives the batch path its vectorized membership masks.
    """

    __slots__ = ("a", "a_v")
    _VIEWS = ("a",)

    def __init__(self, initial: int = _INITIAL):
        self.a = np.zeros(max(1, initial), dtype=np.uint8)
        self._view()

    def ensure(self, n: int) -> np.ndarray:
        """Grow to cover LBAs < ``n``; returns the (possibly new) array."""
        if n > self.a.shape[0]:
            self.a = grow_to(self.a, n)
            self._view()
        return self.a

    def get(self, lba: int) -> int:
        """Residency code of ``lba`` (B_NONE past the touched span)."""
        v = self.a_v
        return v[lba] if lba < len(v) else B_NONE


class VersionArray(ElementViews):
    """LBA -> write-version counter, dict-compatible surface.

    Replaces the SRC core's ``Dict[int, int]``.  Version 0 doubles as
    "never written": the write path always bumps to >= 1 before a block
    becomes dirty, and every caller that distinguishes absence does so
    with ``get(lba, 0)`` (or only consults blocks whose version is
    necessarily >= 1), so collapsing the two is behavior-preserving.
    """

    __slots__ = ("a", "a_v")
    _VIEWS = ("a",)

    def __init__(self, initial: int = _INITIAL):
        self.a = np.zeros(max(1, initial), dtype=np.int64)
        self._view()

    def ensure(self, n: int) -> np.ndarray:
        if n > self.a.shape[0]:
            self.a = grow_to(self.a, n)
            self._view()
        return self.a

    def __getitem__(self, lba: int) -> int:
        v = self.a_v
        return v[lba] if lba < len(v) else 0

    def __setitem__(self, lba: int, version: int) -> None:
        self.ensure(lba + 1)
        self.a_v[lba] = version

    def get(self, lba: int, default: int = 0):
        return self[lba] or default

    def bump(self, lba: int) -> int:
        if lba >= len(self.a_v):
            self.ensure(lba + 1)
        v = self.a_v
        version = v[lba] + 1
        v[lba] = version
        return version
