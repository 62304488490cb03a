"""Online drive scaling — the paper's §6 future-work feature.

"We expect to provide a stable means to expand or contract the number
of SSDs in RAID-5 in a smooth and seamless manner while providing
sustained performance."

The log-structured layout makes this natural: a new array geometry is
brought up alongside the old one and the valid contents are re-logged
into new-geometry segments (reads charged against the old SSDs, writes
flowing through the new cache's ordinary segment buffers).  Service
continues against the new instance from the moment it is constructed;
migration I/O competes with foreground traffic exactly like GC does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

import numpy as np

from repro.block.device import BlockDevice
from repro.common.errors import ConfigError
from repro.core.src import SrcCache


def _migrate(old: SrcCache, new: SrcCache, now: float) -> float:
    """Re-log every valid block of ``old`` into ``new``."""
    end = now
    # Buffered (not yet persisted) blocks move for free: RAM to RAM.
    for dirty, src, dst in ((True, old.dirty_buf, new.dirty_buf),
                            (False, old.clean_buf, new.clean_buf)):
        for lba in src.drain():
            full = dst.add(lba)
            new._versions[lba] = old._versions.get(lba, int(dirty))
            if full:
                end = max(end, new.segments.seal(dirty=dirty, now=now))
    # Persisted blocks: bulk-read from the old array, re-log into new.
    for sg in range(1, old.layout.groups):
        blocks = old.mapping.sg_blocks(sg)
        if not blocks:
            continue
        read_end = old.reclaimer.victim_read(
            np.array([lba for lba, _ in blocks], dtype=np.int64), now)
        end = max(end, read_end)
        for lba, entry in blocks:
            new._versions[lba] = entry.version
            buf = new.dirty_buf if entry.dirty else new.clean_buf
            if lba in buf or lba in new.mapping:
                continue
            full = buf.add(lba)
            if full:
                end = max(end, new.segments.seal(dirty=entry.dirty,
                                                  now=read_end))
    # Whatever remains buffered is persisted as partial segments so the
    # new instance is immediately crash-consistent.
    end = max(end, new.flush_partial(end))
    if not new.clean_buf.empty:
        end = max(end, new.segments.seal(dirty=False, now=end))
    return end


def expand_array(cache: SrcCache, new_ssd: BlockDevice,
                 now: float = 0.0) -> Tuple[SrcCache, float]:
    """Grow an SRC array by one SSD, migrating contents online.

    Returns the new cache instance and the simulated completion time of
    the migration.
    """
    new_ssds = list(cache.ssds) + [new_ssd]
    config = replace(cache.config, n_ssds=len(new_ssds))
    new_cache = SrcCache(new_ssds, cache.origin, config)
    end = _migrate(cache, new_cache, now)
    return new_cache, end


def contract_array(cache: SrcCache, remove_index: int,
                   now: float = 0.0) -> Tuple[SrcCache, float]:
    """Shrink an SRC array by one SSD, migrating contents off it."""
    if not 0 <= remove_index < len(cache.ssds):
        raise ConfigError(f"no SSD at index {remove_index}")
    remaining = [s for i, s in enumerate(cache.ssds) if i != remove_index]
    config = replace(cache.config, n_ssds=len(remaining))
    if config.raid_level in (4, 5) and config.n_ssds < 3:
        raise ConfigError("cannot contract a parity array below 3 SSDs")
    new_cache = SrcCache(remaining, cache.origin, config)
    end = _migrate(cache, new_cache, now)
    return new_cache, end
