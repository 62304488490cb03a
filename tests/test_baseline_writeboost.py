"""DM-Writeboost behavioural model."""

import pytest

from repro.baselines.writeboost import WriteboostDevice
from repro.block.device import NullDevice
from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, PAGE_SIZE


def make_wb(cache_size=16 * MIB, segment_size=64 * KIB, **kwargs):
    cache = NullDevice(cache_size, latency=1e-5, name="ssd")
    origin = NullDevice(256 * MIB, latency=1e-3, name="hdd")
    return WriteboostDevice(cache, origin, segment_size=segment_size,
                            **kwargs)


def test_writes_buffer_in_ram_first():
    wb = make_wb()
    wb.write(0, PAGE_SIZE, 0.0)
    assert wb.cache_dev.stats.write_bytes == 0
    assert len(wb.ram_buffer) == 1


def test_full_buffer_persists_one_sequential_segment():
    wb = make_wb()
    for i in range(wb.blocks_per_segment):
        wb.write(i * PAGE_SIZE, PAGE_SIZE, 0.0)
    assert wb.segment_writes == 1
    assert wb.cache_dev.stats.write_ops == 1   # one big write
    # Header included in the persisted length.
    assert wb.cache_dev.stats.write_bytes == \
        (wb.blocks_per_segment + 1) * PAGE_SIZE


def test_flush_per_segment_issues_flush():
    wb = make_wb()
    for i in range(wb.blocks_per_segment):
        wb.write(i * PAGE_SIZE, PAGE_SIZE, 0.0)
    assert wb.cache_dev.stats.flush_ops == 1


def test_read_hit_from_ram_and_log():
    wb = make_wb()
    wb.write(0, PAGE_SIZE, 0.0)
    wb.read(0, PAGE_SIZE, 1.0)        # RAM hit
    for i in range(1, wb.blocks_per_segment + 1):
        wb.write(i * PAGE_SIZE, PAGE_SIZE, 1.0)
    wb.read(0, PAGE_SIZE, 2.0)        # log hit
    assert wb.cstats.read_hits == 2


def test_read_miss_not_inserted():
    wb = make_wb()
    wb.read(123 * PAGE_SIZE, PAGE_SIZE, 0.0)
    assert wb.cstats.read_misses == 1
    assert 123 not in wb.lookup
    assert wb.origin.stats.read_ops == 1


def test_rewrite_invalidates_log_copy():
    wb = make_wb()
    for i in range(wb.blocks_per_segment):
        wb.write(i * PAGE_SIZE, PAGE_SIZE, 0.0)
    seg_idx, slot = wb.lookup[0]
    wb.write(0, PAGE_SIZE, 1.0)
    assert not wb.segments[seg_idx].valid[slot]
    assert 0 in wb.ram_buffer


def test_migration_destages_live_blocks():
    wb = make_wb(cache_size=1 * MIB, segment_size=64 * KIB,
                 migrate_threshold=0.3)
    total = wb.blocks_per_segment * wb.n_segments
    for i in range(total):
        wb.write(i * PAGE_SIZE, PAGE_SIZE, float(i) * 1e-4)
    assert wb.cstats.destaged_blocks > 0


def test_app_flush_persists_partial_segment():
    wb = make_wb()
    wb.write(0, PAGE_SIZE, 0.0)
    wb.flush(1.0)
    assert wb.segment_writes == 1
    assert not wb.ram_buffer


def test_destage_all_empties_cache():
    wb = make_wb()
    for i in range(wb.blocks_per_segment * 2):
        wb.write(i * PAGE_SIZE, PAGE_SIZE, 0.0)
    wb.destage_all(10.0)
    assert not wb.fifo
    assert wb.origin.stats.write_bytes > 0


def test_config_validation():
    cache = NullDevice(64 * KIB)
    origin = NullDevice(1 * MIB)
    with pytest.raises(ConfigError):
        WriteboostDevice(cache, origin, segment_size=8192)
    with pytest.raises(ConfigError):
        WriteboostDevice(NullDevice(128 * KIB), origin,
                         segment_size=64 * KIB)
