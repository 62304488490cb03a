"""SRC mapping table, buffers, and hotness tracking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core.buffers import SegmentBuffer, StagingBuffer
from repro.core.hotness import HotnessBitmap
from repro.core.layout import BlockLocation
from repro.core.mapping import CacheEntry, MappingTable


def loc(sg=1, segment=0, ssd=0, offset=4096):
    return BlockLocation(sg, segment, ssd, offset)


def entry(sg=1, dirty=False, offset=4096):
    return CacheEntry(location=loc(sg=sg, offset=offset), dirty=dirty)


# ------------------------------------------------------------------
# mapping table
# ------------------------------------------------------------------
def test_insert_lookup_roundtrip():
    table = MappingTable(4)
    table.insert(7, entry())
    assert table.lookup(7) is not None
    assert 7 in table
    assert len(table) == 1


def test_insert_replaces_previous_location():
    table = MappingTable(4)
    table.insert(7, entry(sg=1, offset=4096))
    table.insert(7, entry(sg=2, offset=8192))
    assert table.lookup(7).location.sg == 2
    assert table.sg_valid_count(1) == 0
    assert table.sg_valid_count(2) == 1


def test_dirty_count_tracks_transitions():
    table = MappingTable(4)
    table.insert(1, entry(dirty=True))
    table.insert(2, entry(dirty=False, offset=8192))
    assert table.dirty_count == 1
    table.mark_clean(1)
    assert table.dirty_count == 0


def test_invalidate_reports_a_dropped_mapping():
    table = MappingTable(4)
    table.insert(1, entry(dirty=True))
    assert table.invalidate(1) is True
    assert table.invalidate(1) is False
    assert table.invalidate(10_000) is False     # beyond the arrays
    assert table.dirty_count == 0
    assert table.lookup(1) is None


def test_sg_blocks_enumerates_valid():
    table = MappingTable(4)
    table.insert(1, entry(sg=2, offset=4096))
    table.insert(2, entry(sg=2, offset=8192))
    table.insert(3, entry(sg=3, offset=4096))
    assert sorted(lba for lba, _ in table.sg_blocks(2)) == [1, 2]


def test_drop_sg_clears_all():
    table = MappingTable(4)
    table.insert(1, entry(sg=2))
    table.insert(2, entry(sg=2, offset=8192))
    table.drop_sg(2)
    assert len(table) == 0


def test_memory_accounting_16_bytes_per_entry():
    table = MappingTable(4)
    for i in range(10):
        table.insert(i, entry(offset=4096 * (i + 1)))
    assert table.memory_bytes == 160


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("iv"), st.integers(0, 30),
                          st.integers(1, 3), st.booleans()),
                max_size=80))
def test_mapping_invariants_under_random_ops(ops):
    table = MappingTable(4)
    for op, lba, sg, dirty in ops:
        if op == "i":
            table.insert(lba, CacheEntry(
                location=BlockLocation(sg, 0, lba % 4, 4096 * (lba + 1)),
                dirty=dirty))
        else:
            table.invalidate(lba)
    table.check_invariants()


# ------------------------------------------------------------------
# segment buffers
# ------------------------------------------------------------------
def test_buffer_fills_and_drains():
    buf = SegmentBuffer(4, dirty=True, name="d")
    for i in range(3):
        assert not buf.add(i)
    assert buf.add(3)           # now full
    assert buf.drain() == [0, 1, 2, 3]
    assert buf.empty


def test_buffer_rewrite_absorbed():
    buf = SegmentBuffer(4, dirty=True, name="d")
    buf.add(1)
    buf.add(1)
    assert len(buf) == 1


def test_buffer_overfull_rejected():
    buf = SegmentBuffer(1, dirty=True, name="d")
    buf.add(1)
    with pytest.raises(ConfigError):
        buf.add(2)


def test_buffer_remove():
    buf = SegmentBuffer(4, dirty=False, name="c")
    buf.add(1)
    assert buf.remove(1)
    assert not buf.remove(1)
    assert buf.empty


def test_buffer_resize_guard():
    buf = SegmentBuffer(4, dirty=False, name="c")
    buf.add(1)
    buf.add(2)
    with pytest.raises(ConfigError):
        buf.resize(1)
    buf.resize(8)
    assert buf.capacity == 8


def test_staging_buffer_roundtrip():
    staging = StagingBuffer()
    staging.put(5, 1.0)
    assert 5 in staging
    assert staging.pop(5) == 1.0
    assert staging.pop(5) is None


def test_staging_drain():
    staging = StagingBuffer()
    staging.put(1, 0.0)
    staging.put(2, 0.0)
    assert sorted(staging.drain()) == [1, 2]
    assert len(staging) == 0


# ------------------------------------------------------------------
# hotness
# ------------------------------------------------------------------
def test_hotness_touch_and_clear():
    hot = HotnessBitmap()
    hot.touch(1)
    assert hot.is_hot(1)
    hot.clear(1)
    assert not hot.is_hot(1)


def test_hotness_evict():
    hot = HotnessBitmap()
    hot.touch(1)
    hot.evict(1)
    assert not hot.is_hot(1)
    assert hot.hot_count == 0


def test_hotness_memory_is_bitmap_scale():
    hot = HotnessBitmap()
    for i in range(80):
        hot.touch(i)
    assert hot.memory_bytes == 10
