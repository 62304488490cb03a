"""Per-page hotness tracking (paper §4.2).

Sel-GC keeps hot clean data in the cache during S2S collection and
drops cold clean data.  Hotness is determined by a per-page bitmap kept
in RAM: a page is hot if it has been re-referenced since it was last
given a chance (a second-chance / clock discipline, which is what a
single bitmap degenerate form of LRU provides).

The bitmap is a flat numpy bool array indexed by LBA (grow-on-demand),
so the batch path can touch or evict a whole chunk's blocks in one
vector op while the scalar path reads the same bits element-wise,
through a ``memoryview`` of the array.
"""

from __future__ import annotations

import numpy as np

from repro.common.types import ElementViews
from repro.core.arrays import grow_to


class HotnessBitmap(ElementViews):
    """Second-chance hotness bits over origin logical blocks."""

    __slots__ = ("_hot", "_hot_v", "_count", "references")
    _VIEWS = ("_hot",)

    def __init__(self) -> None:
        self._hot = np.zeros(1024, dtype=bool)
        self._view()
        self._count = 0          # None = recount lazily (batch updates)
        self.references = 0

    def touch(self, lba: int) -> None:
        """Record a reference (read hit or rewrite)."""
        if lba >= len(self._hot_v):
            self._hot = grow_to(self._hot, lba + 1, fill=False)
            self._view()
        hot = self._hot_v
        if not hot[lba]:
            hot[lba] = True
            if self._count is not None:
                self._count += 1
        self.references += 1

    def touch_many(self, lbas: np.ndarray) -> None:
        """Vector ``touch`` — one reference per row, duplicates included."""
        if lbas.shape[0] == 0:
            return
        hot = self._hot
        top = int(lbas.max()) + 1
        if top > hot.shape[0]:
            self._hot = hot = grow_to(hot, top, fill=False)
            self._view()
        cold = lbas[~hot[lbas]]
        if cold.shape[0]:
            # Duplicate rows scatter the same True; the bit count is
            # recomputed on demand instead of deduplicating here.
            hot[cold] = True
            self._count = None
        self.references += lbas.shape[0]

    def is_hot(self, lba: int) -> bool:
        hot = self._hot_v
        return hot[lba] if lba < len(hot) else False

    def is_hot_many(self, lbas: np.ndarray) -> np.ndarray:
        """Vector :meth:`is_hot` — bounds-checked bit gather."""
        hot = self._hot
        out = np.zeros(lbas.shape[0], dtype=bool)
        inside = lbas < hot.shape[0]
        out[inside] = hot[lbas[inside]]
        return out

    def evict(self, lba: int) -> None:
        """Forget a block that left the cache."""
        hot = self._hot_v
        if lba < len(hot) and hot[lba]:
            hot[lba] = False
            if self._count is not None:
                self._count -= 1

    # Consuming a block's second chance (on GC consideration) is the same.
    clear = evict

    def evict_many(self, lbas: np.ndarray) -> None:
        if lbas.shape[0] == 0:
            return
        hot = self._hot
        inside = lbas[lbas < hot.shape[0]]
        stale = inside[hot[inside]]
        if stale.shape[0]:
            hot[stale] = False
            self._count = None

    @property
    def hot_count(self) -> int:
        if self._count is None:
            self._count = int(np.count_nonzero(self._hot))
        return self._count

    @property
    def memory_bytes(self) -> int:
        """One bit per tracked page, as the paper's RAM bitmap."""
        return (self.hot_count + 7) // 8
