"""Golden pins for crash recovery by metadata scan (paper §4.1).

Two seeded ``TINY_SRC`` runs — mixed reads and writes with idle gaps
(TWAIT partial segments of a few blocks next to full ones), enough
churn that groups are reclaimed and LBAs live in several summaries —
are cut and recovered.  One loses its last segment torn (MS without
ME); the other has checksum-failed slots, one of them the *later* copy
of an LBA whose earlier copy is intact, in a full and in a small
segment.  Each asserts a sha256 over what the scan rebuilds: the
mapping columns, the version array, the group books and the
``RecoveryReport``.

The digests were recorded from the commit before ``core/segments.py``
existed, when recovery installed mappings slot by slot with its own
loop; the sealer and recovery now share one ``install`` and these pins
are what keeps it equal to that loop.  A digest may only change
together with an intended change of simulated behaviour.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.units import PAGE_SIZE
from repro.core.recovery import recover

from _stacks import make_src

GOLDEN = {
    "torn":
        "74180fe3df649cf919e75fae2f99d3e64c82ffa66a9283883a61b494c6237d98",
    "checksum":
        "dbf960d2732b252e9fae3291fbb93ca90a6fd6c08f076bb14021c71117fec74c",
}


def recovered_digest(cache, report) -> str:
    # The group books live on ``cache.segments``; on the commit the
    # pins were recorded from they were SrcCache's own attributes.
    books = getattr(cache, "segments", cache)
    versions = cache._versions.a
    written = np.nonzero(versions)[0]
    doc = {
        "mapping": sorted(
            (lba, e.location.sg, e.location.segment, e.location.ssd,
             e.location.offset, e.dirty, e.checksum, e.version)
            for lba, e in cache.mapping.items()),
        "versions": [written.tolist(), versions[written].tolist()],
        "groups": [(g.index, g.state, g.next_segment, g.sequence)
                   for g in books.groups],
        "free": list(books._free),
        "closed": list(books._closed_fifo),
        "active": books.active.index,
        "summaries": [(s.sequence, s.sg, s.segment)
                      for s in cache.metadata.all_summaries()],
        "report": asdict(report),
    }
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _churned_cache(seed: int):
    """Seeded read/write mix over 1.5x the cache, with idle gaps."""
    cache = make_src()
    rng = np.random.default_rng(seed)
    capacity = cache.layout.cache_data_capacity_blocks()
    span = int(capacity * 1.5)
    now = 0.0
    for _ in range(int(capacity * 2.2)):
        block = int(rng.integers(0, span))
        gap = 0.05 if rng.random() < 0.004 else 1e-4
        if rng.random() < 0.75:
            now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + gap)
        else:
            now = cache.read(block * PAGE_SIZE, PAGE_SIZE, now + gap)
    stats = cache.srcstats
    assert stats.s2s_collections + stats.s2d_collections > 0
    sizes = [len(s.lbas) for s in cache.metadata.all_summaries()]
    assert min(sizes) < SCALAR_THRESHOLD <= max(sizes)
    return cache


def _crash_and_recover(cache):
    return recover(cache.ssds, cache.origin, cache.config, cache.metadata)


def _superseding_slot(summaries, small: bool):
    """(summary, slot) of an LBA that an earlier summary also holds,
    in a segment below / at or above the scalar threshold."""
    seen = set()
    for summary in summaries:
        if (len(summary.lbas) < SCALAR_THRESHOLD) == small:
            for slot, lba in enumerate(summary.lbas):
                if lba in seen:
                    return summary, slot
        seen.update(summary.lbas)
    raise AssertionError("no superseding slot in the log")


def test_golden_torn_last_segment():
    cache = _churned_cache(seed=21)
    last = cache.metadata.all_summaries()[-1]
    last.me_generation = last.generation - 1
    recovered, report = _crash_and_recover(cache)
    assert report.segments_discarded == 1
    assert report.checksum_failures == 0
    recovered.mapping.check_invariants()
    assert recovered_digest(recovered, report) == GOLDEN["torn"]


def test_golden_checksum_failed_slots():
    cache = _churned_cache(seed=22)
    summaries = cache.metadata.all_summaries()
    damaged = []
    for small in (True, False):
        summary, slot = _superseding_slot(summaries, small)
        summary.checksums[slot] ^= 0xDEAD
        damaged.append(summary.lbas[slot])
    # Plain latent damage too: the first slot of the newest segment.
    summaries[-1].checksums[0] ^= 0xBEEF
    recovered, report = _crash_and_recover(cache)
    assert report.checksum_failures == 3
    for lba in damaged:
        # The damaged copy is skipped, the earlier intact one stands.
        assert recovered.mapping.lookup(lba) is not None
    recovered.mapping.check_invariants()
    assert recovered_digest(recovered, report) == GOLDEN["checksum"]
