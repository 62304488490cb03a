"""Crash recovery by metadata scan (§4.1) — including torn segments."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import RecoveryError
from repro.common.units import PAGE_SIZE
from repro.core.recovery import recover

from _stacks import make_src


def crash_and_recover(cache):
    """Simulate a power failure: only durable metadata survives."""
    return recover(cache.ssds, cache.origin, cache.config, cache.metadata)


def fill_segments(cache, n_segments=2, dirty=True, start=0):
    cap = (cache.layout.dirty_segment_capacity() if dirty
           else cache.layout.clean_segment_capacity())
    now = 0.0
    for i in range(cap * n_segments):
        block = (start + i) * PAGE_SIZE
        if dirty:
            now = cache.write(block, PAGE_SIZE, now)
        else:
            now = cache.read(block, PAGE_SIZE, now + 1.0)
    return now


def test_recover_unformatted_store_fails():
    from repro.core.metadata import MetadataStore
    cache = make_src()
    with pytest.raises(RecoveryError):
        recover(cache.ssds, cache.origin, cache.config, MetadataStore())


def test_dirty_data_survives_crash():
    cache = make_src()
    fill_segments(cache, 2, dirty=True)
    persisted = {lba for s in cache.metadata.all_summaries()
                 for lba in s.lbas}
    recovered, report = crash_and_recover(cache)
    assert report.segments_recovered == 2
    assert report.blocks_recovered == len(persisted)
    for lba in persisted:
        entry = recovered.mapping.lookup(lba)
        assert entry is not None and entry.dirty


def test_clean_data_survives_crash_unlike_baselines():
    cache = make_src()
    fill_segments(cache, 1, dirty=False)
    recovered, report = crash_and_recover(cache)
    assert report.clean_blocks > 0
    entry = recovered.mapping.lookup(0)
    assert entry is not None and not entry.dirty


def test_unpersisted_buffer_lost_on_crash():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)   # sits in the dirty buffer only
    recovered, report = crash_and_recover(cache)
    assert recovered.mapping.lookup(0) is None
    assert report.blocks_recovered == 0


def test_torn_segment_discarded():
    cache = make_src()
    fill_segments(cache, 2, dirty=True)
    # Tear the LAST segment: MS written, ME missing.
    last = cache.metadata.all_summaries()[-1]
    last.me_generation = last.generation - 1
    torn_lbas = set(last.lbas)
    recovered, report = crash_and_recover(cache)
    assert report.segments_discarded == 1
    for lba in torn_lbas:
        assert recovered.mapping.lookup(lba) is None


def test_later_segment_wins_replay():
    cache = make_src()
    cap = cache.layout.dirty_segment_capacity()
    fill_segments(cache, 1, dirty=True)              # version 1 of 0..cap
    fill_segments(cache, 1, dirty=True)              # version 2 (rewrites)
    recovered, report = crash_and_recover(cache)
    # Both segments contain lba 0; the later one must win.
    entry = recovered.mapping.lookup(0)
    later = cache.metadata.all_summaries()[-1]
    assert entry.location.segment == later.segment
    assert entry.location.sg == later.sg


def test_recovery_charges_metadata_scan_io():
    cache = make_src()
    fill_segments(cache, 2, dirty=True)
    reads_before = sum(s.stats.read_ops for s in cache.ssds)
    recovered, report = crash_and_recover(cache)
    assert sum(s.stats.read_ops for s in cache.ssds) > reads_before
    assert report.elapsed > 0


def test_recovered_cache_resumes_service():
    cache = make_src()
    fill_segments(cache, 2, dirty=True)
    recovered, _ = crash_and_recover(cache)
    recovered.write(0, PAGE_SIZE, 100.0)
    recovered.read(10 * PAGE_SIZE, PAGE_SIZE, 101.0)
    recovered.mapping.check_invariants()


def test_recovered_groups_marked_closed():
    cache = make_src()
    fill_segments(cache, 2, dirty=True)
    used = {s.sg for s in cache.metadata.all_summaries()}
    recovered, report = crash_and_recover(cache)
    assert set(report.groups_in_use) == used
    for sg in used:
        assert recovered.segments.groups[sg].state == "closed"
        assert sg not in recovered.segments._free
    assert recovered.segments.active.index not in used


def test_hit_ratio_preserved_after_recovery():
    """Recovered clean data serves hits without re-fetch (Table 5)."""
    cache = make_src()
    fill_segments(cache, 1, dirty=False)
    recovered, _ = crash_and_recover(cache)
    origin_reads = recovered.origin.stats.read_ops
    recovered.read(0, PAGE_SIZE, 200.0)
    assert recovered.origin.stats.read_ops == origin_reads
    assert recovered.cstats.read_hits == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_recovery_equivalence_property(seed, tear_last):
    """After any persisted workload, recovery restores exactly the
    mapping implied by consistent summaries in log order."""
    cache = make_src()
    rng = np.random.default_rng(seed)
    now = 0.0
    for _ in range(600):
        block = int(rng.integers(0, 800))
        if rng.random() < 0.7:
            now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
        else:
            now = cache.read(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
    if tear_last and cache.metadata.all_summaries():
        last = cache.metadata.all_summaries()[-1]
        last.me_generation = last.generation - 1
    expected = {}
    for summary in cache.metadata.all_summaries():
        if not summary.consistent:
            continue
        for lba in summary.lbas:
            expected[lba] = (summary.sg, summary.segment)
    recovered, _ = crash_and_recover(cache)
    assert recovered.mapping.valid_blocks() == len(expected)
    for lba, (sg, segment) in expected.items():
        entry = recovered.mapping.lookup(lba)
        assert (entry.location.sg, entry.location.segment) == (sg, segment)
    recovered.mapping.check_invariants()


def test_double_crash_recovery_is_stable():
    """Recover, write more, crash again: replay stays consistent."""
    cache = make_src()
    fill_segments(cache, 1, dirty=True)
    first, _ = crash_and_recover(cache)
    fill_segments(first, 1, dirty=True, start=5000)
    second, report = crash_and_recover(first)
    assert report.segments_recovered >= 2
    second.mapping.check_invariants()
    assert second.mapping.lookup(0) is not None
    assert second.mapping.lookup(5000) is not None


def test_recovery_after_gc_reflects_reclaimed_groups():
    """Crash after GC: reclaimed SGs have no summaries, so their old
    contents must not resurrect."""
    import numpy as np
    cache = make_src()
    cap = cache.layout.cache_data_capacity_blocks()
    rng = np.random.default_rng(11)
    now = 0.0
    for _ in range(int(cap * 1.5)):
        block = int(rng.integers(0, cap * 2))
        now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
    assert (cache.srcstats.s2d_collections
            + cache.srcstats.s2s_collections) > 0
    live_before = {lba for s in cache.metadata.all_summaries()
                   for lba in s.lbas}
    recovered, report = crash_and_recover(cache)
    # blocks_recovered counts replayed slots (duplicates superseded);
    # the resulting mapping is bounded by the summaries' unique LBAs.
    assert recovered.mapping.valid_blocks() <= len(live_before)
    assert {lba for lba, _ in recovered.mapping.items()} <= live_before
    recovered.mapping.check_invariants()


def test_recovery_with_no_free_group_reclaims_like_a_roll():
    # A cache that died with its free list empty and its last group
    # partly written — where the live cache's next roll reclaims at the
    # hard floor — recovers, and loses no dirty block doing so.
    from dataclasses import replace
    from repro.chaos.invariants import check_group_accounting
    from repro.core.config import ReclaimConfig
    from _stacks import TINY_SRC
    filling = replace(TINY_SRC, reclaim=ReclaimConfig(gc_free_low=0,
                                                      gc_free_high=0))
    cache = make_src(filling)
    log = cache.segments
    now, block = 0.0, 0
    while log._free or not log.active.next_segment:
        now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now)
        block += 1
    assert log.active.next_segment < cache.layout.segments_per_group
    persisted = {lba for s in cache.metadata.all_summaries()
                 for lba in s.lbas}

    recovered, report = recover(cache.ssds, cache.origin, TINY_SRC,
                                cache.metadata)
    assert len(report.groups_in_use) == cache.layout.groups - 1
    assert check_group_accounting(recovered) == []
    assert recovered.segments._free
    kept = sum(1 for lba in persisted
               if (entry := recovered.mapping.lookup(lba)) is not None
               and entry.dirty)
    assert kept + recovered.cstats.destaged_blocks == len(persisted)
    assert recovered.cstats.destaged_blocks > 0
    recovered.write(0, PAGE_SIZE, now)


def test_recovery_with_failed_ssd_still_scans():
    """Metadata scan proceeds on the survivors when a drive is down."""
    cache = make_src()
    fill_segments(cache, 1, dirty=True)
    cache.ssds[2].fail()
    recovered, report = crash_and_recover(cache)
    assert report.segments_recovered == 1
    assert report.blocks_recovered > 0


def test_recovery_scan_charges_no_io_to_failed_ssd():
    """The scan's MS/ME reads skip the dead drive entirely."""
    cache = make_src()
    fill_segments(cache, 2, dirty=True)
    cache.ssds[2].fail()
    before = [ssd.stats.read_ops for ssd in cache.ssds]
    crash_and_recover(cache)
    after = [ssd.stats.read_ops for ssd in cache.ssds]
    assert after[2] == before[2]
    for i in (0, 1, 3):
        assert after[i] > before[i]


def test_recovery_checksum_failure_skips_block():
    """A summary slot whose checksum disagrees is not replayed."""
    cache = make_src()
    fill_segments(cache, 1, dirty=True)
    summary = cache.metadata.all_summaries()[-1]
    bad_lba = summary.lbas[0]
    summary.checksums[0] ^= 0xDEAD            # latent metadata damage
    recovered, report = crash_and_recover(cache)
    assert report.checksum_failures == 1
    assert recovered.mapping.lookup(bad_lba) is None
    assert report.blocks_recovered == len(summary.lbas) - 1
    for lba in summary.lbas[1:]:
        assert recovered.mapping.lookup(lba) is not None
    recovered.mapping.check_invariants()
