"""Crash recovery by metadata scan (paper §4.1, "Failure Handling").

After a power failure, SRC scans the MS/ME metadata blocks of every
segment.  A segment whose MS and ME generation numbers agree is
consistent and its mappings are replayed in log (sequence) order —
later segments supersede earlier ones.  A torn segment (generation
mismatch) is discarded and its space returned.  Because SRC persists
metadata for *clean* data too, both clean and dirty contents survive —
the property Table 5 credits SRC with, unlike Bcache and Flashcache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.block.device import BlockDevice
from repro.common.errors import RecoveryError
from repro.common.types import FOREGROUND, READ
from repro.common.units import PAGE_SIZE
from repro.core.config import SrcConfig
from repro.core.members import latest
from repro.core.metadata import MetadataStore
from repro.core.segments import GroupState
from repro.core.src import SrcCache


@dataclass
class RecoveryReport:
    """What the scan found and restored."""

    segments_scanned: int = 0
    segments_recovered: int = 0
    segments_discarded: int = 0
    blocks_recovered: int = 0
    dirty_blocks: int = 0
    clean_blocks: int = 0
    checksum_failures: int = 0
    elapsed: float = 0.0
    groups_in_use: List[int] = field(default_factory=list)


def recover(ssds: List[BlockDevice], origin: BlockDevice,
            config: SrcConfig, metadata: MetadataStore,
            now: float = 0.0) -> "tuple[SrcCache, RecoveryReport]":
    """Rebuild an SRC instance from its durable metadata.

    Returns the recovered cache and a report; the report's ``elapsed``
    is the simulated time the scan took (metadata reads are charged to
    the SSDs).
    """
    if metadata.superblock is None:
        raise RecoveryError("no superblock: device was never formatted")

    cache = SrcCache(ssds, origin, config, metadata=metadata)
    summaries = metadata.all_summaries()
    report = RecoveryReport(segments_scanned=len(summaries))

    # Hand the constructor-allocated active SG back; the replay decides
    # which groups are occupied before a fresh active SG is chosen.
    log = cache.segments
    recycled = log.active.index
    log.groups[recycled].state = GroupState.FREE
    log._free.append(recycled)

    # Scan pass: every summary's MS and ME block on every live member,
    # read at ``now`` through the member door.
    end = latest(now, cache.members.issue(READ, [
        (idx, offset, PAGE_SIZE, now) for summary in summaries
        for idx in range(len(ssds))
        for offset in cache.layout.metadata_offsets(summary.sg,
                                                    summary.segment)],
        FOREGROUND))

    # Replay pass: later sequence numbers win.
    discarded = []
    groups_seen: Dict[int, int] = {}   # sg -> first sequence seen
    for summary in summaries:
        if not summary.consistent:
            report.segments_discarded += 1
            discarded.append((summary.sg, summary.segment))
            continue
        groups_seen.setdefault(summary.sg, summary.sequence)
        report.segments_recovered += 1
        kept = len(log.install(
            summary.sg, summary.segment,
            np.asarray(summary.lbas, dtype=np.int64),
            np.asarray(summary.versions, dtype=np.int64),
            summary.dirty, summary.with_parity,
            stored=np.asarray(summary.checksums, dtype=np.int64)))
        report.checksum_failures += len(summary.lbas) - kept
        report.blocks_recovered += kept
        if summary.dirty:
            report.dirty_blocks += kept
        else:
            report.clean_blocks += kept
    # Write versions resume from the copies that won the replay.
    for lba, entry in cache.mapping.items():
        cache._versions[lba] = entry.version

    for sg, segment in discarded:
        metadata.discard_summary(sg, segment)

    # Group states: any SG with recovered segments is closed; FIFO order
    # follows first-use sequence so victim selection behaves as before.
    for sg in sorted(groups_seen, key=groups_seen.get):
        group = log.groups[sg]
        group.state = GroupState.CLOSED
        group.next_segment = cache.layout.segments_per_group
        log._free.remove(sg)
        log._closed_fifo.append(sg)
    report.groups_in_use = sorted(groups_seen)

    if not log._free:
        # Every group holds recovered segments: the cache died at its
        # free-space hard floor, writing into the last group it had
        # (counted full above).  It would have gone on by reclaiming at
        # its next roll, so recovery makes the call that roll makes.
        end = cache.reclaimer.reclaim_until(config.reclaim.gc_free_low, end,
                                            force_s2d=True)
    log.active = log.take_free_group()
    report.elapsed = end - now
    return cache, report
