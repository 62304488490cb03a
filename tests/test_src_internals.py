"""White-box tests of SRC internals: unit writes, bulk reads, parity."""


from repro.common.units import PAGE_SIZE

from _stacks import make_src


def test_issue_unit_writes_full_segment_lengths():
    cache = make_src()
    cap = cache.layout.dirty_segment_capacity()
    now = 0.0
    for i in range(cap):
        now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
    unit = cache.config.segment_unit
    # All four SSDs (3 data + parity) wrote exactly one full unit.
    for ssd in cache.ssds:
        assert ssd.stats.write_bytes == unit
        assert ssd.stats.write_ops == 1


def test_partial_segment_writes_less_than_full_unit():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    cache.flush_partial(0.0)
    # One data block -> MS + block + ME on the first data SSD, and a
    # parity unit of matching row count; untouched SSDs write nothing.
    written = sorted(s.stats.write_bytes for s in cache.ssds)
    assert written[0] == 0                       # two idle data SSDs
    assert written[-1] == 3 * PAGE_SIZE          # MS + 1 row + ME
    total_units = sum(1 for s in cache.ssds if s.stats.write_bytes)
    assert total_units == 2                      # data unit + parity unit


def test_bulk_read_merges_contiguous_slots():
    # Healthy, then with one member fail-stopped: its blocks have
    # nothing to read and are masked out before any I/O is issued.
    for failed, expected_reads in ((None, 3), (1, 2)):
        cache = make_src()
        cap = cache.layout.dirty_segment_capacity()
        now = 0.0
        for i in range(cap):
            now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
        if failed is not None:
            cache.ssds[failed].fail()
        before = [s.stats.read_ops for s in cache.ssds]
        sg = cache.mapping.lookup(0).location.sg
        lbas, _ = cache.mapping.sg_blocks_arrays(sg)
        cache.reclaimer.victim_read(lbas, now)
        reads = [s.stats.read_ops - b for s, b in zip(cache.ssds, before)]
        # A whole segment's blocks are contiguous per SSD: one read
        # on each live data member, none on the parity member.
        assert sum(reads) == expected_reads and max(reads) == 1
        assert failed is None or reads[failed] == 0
        assert cache.reclaimer.victim_read(lbas[:0], now) == now


def test_degraded_segment_write_skips_failed_ssd():
    cache = make_src()
    cache.ssds[1].fail()
    cap = cache.layout.dirty_segment_capacity()
    now = 0.0
    for i in range(cap):
        now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
    assert cache.ssds[1].stats.write_ops == 0
    live_writes = sum(1 for s in cache.ssds if s.stats.write_ops)
    assert live_writes == 3


def test_parity_flag_by_segment_class():
    cache = make_src()
    assert cache.segments.parity_flag(dirty=True) is True
    assert cache.segments.parity_flag(dirty=False) is False  # NPC default


def test_sg0_reserved_for_superblock():
    cache = make_src()
    assert cache.segments.groups[0].state == "closed"
    assert 0 not in cache.segments._free
    assert cache.segments.active.index != 0


def test_active_group_advances_across_segments():
    cache = make_src()
    cap = cache.layout.dirty_segment_capacity()
    segments_per_group = cache.layout.segments_per_group
    now = 0.0
    first_active = cache.segments.active.index
    for seg in range(segments_per_group):
        for i in range(cap):
            now = cache.write((seg * cap + i) * PAGE_SIZE, PAGE_SIZE, now)
    # The SG filled up; the next segment write rolls to a new group.
    cache.write(1_000_000 * PAGE_SIZE, PAGE_SIZE, now)
    for i in range(cap):
        now = cache.write((1_000_000 + i) * PAGE_SIZE, PAGE_SIZE, now)
    assert cache.segments.active.index != first_active
    assert cache.segments.groups[first_active].state == "closed"


def test_version_bumps_on_rewrite():
    cache = make_src()
    cap = cache.layout.dirty_segment_capacity()
    now = 0.0
    for _ in range(2):
        for i in range(cap):
            now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
    entry = cache.mapping.lookup(0)
    assert entry.version == 2


def test_checksums_recorded_in_mapping_and_summary():
    from repro.common.checksum import block_checksum
    cache = make_src()
    cap = cache.layout.dirty_segment_capacity()
    now = 0.0
    for i in range(cap):
        now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
    entry = cache.mapping.lookup(0)
    assert entry.checksum == block_checksum(0, entry.version)
    summary = cache.metadata.all_summaries()[-1]
    slot = summary.lbas.index(0)
    assert summary.checksums[slot] == entry.checksum
