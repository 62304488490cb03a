"""Flashcache behavioural model."""

import pytest

from repro.baselines.common import WritePolicy
from repro.baselines.flashcache import FlashcacheDevice
from repro.block.device import NullDevice
from repro.common.units import KIB, MIB, PAGE_SIZE


def make_fc(policy=WritePolicy.WRITE_BACK, cache_size=8 * MIB,
            set_size=256 * KIB, thresh=0.9):
    cache = NullDevice(cache_size, latency=1e-5, name="ssd")
    origin = NullDevice(64 * MIB, latency=1e-3, name="hdd")
    return FlashcacheDevice(cache, origin, set_size=set_size,
                            policy=policy, dirty_thresh_pct=thresh)


def test_write_back_does_not_touch_origin():
    fc = make_fc()
    fc.write(0, PAGE_SIZE, 0.0)
    assert fc.origin.stats.write_bytes == 0
    assert fc.cache_dev.stats.write_bytes > 0


def test_write_back_writes_data_and_metadata():
    fc = make_fc()
    fc.write(0, PAGE_SIZE, 0.0)
    assert fc.cache_dev.stats.write_ops == 2   # data + dirty metadata


def test_write_through_hits_origin_synchronously():
    fc = make_fc(policy=WritePolicy.WRITE_THROUGH)
    fc.write(0, PAGE_SIZE, 0.0)
    assert fc.origin.stats.write_bytes == PAGE_SIZE
    assert fc.dirty_blocks == 0


def test_read_miss_fetches_and_fills():
    fc = make_fc()
    fc.read(0, PAGE_SIZE, 0.0)
    assert fc.cstats.read_misses == 1
    assert fc.origin.stats.read_bytes == PAGE_SIZE
    assert fc.cache_dev.stats.write_ops == 1   # clean fill, no metadata


def test_read_hit_stays_on_cache():
    fc = make_fc()
    fc.write(0, PAGE_SIZE, 0.0)
    origin_reads = fc.origin.stats.read_ops
    fc.read(0, PAGE_SIZE, 1.0)
    assert fc.cstats.read_hits == 1
    assert fc.origin.stats.read_ops == origin_reads


def test_read_serves_a_block_its_own_fills_evicted():
    """One read, blocks 0..1, block 1 cached and oldest in a full set:
    fetching block 0 evicts block 1 before it is read, and it is then
    served as the miss it has become."""
    fc = make_fc(cache_size=16 * KIB, set_size=8 * KIB)   # one 2-way set
    fc.read(PAGE_SIZE, PAGE_SIZE, 0.0)
    fc.read(5 * PAGE_SIZE, PAGE_SIZE, 1.0)
    assert fc.block_cached(1) and fc.block_cached(5)
    fc.read(0, 2 * PAGE_SIZE, 2.0)
    assert (fc.cstats.read_hits, fc.cstats.read_misses) == (0, 4)
    assert fc.origin.stats.read_ops == 4
    assert fc.block_cached(0) and fc.block_cached(1)


def test_write_hit_marks_dirty_once():
    fc = make_fc()
    fc.write(0, PAGE_SIZE, 0.0)
    fc.write(0, PAGE_SIZE, 1.0)
    assert fc.dirty_blocks == 1
    assert fc.cstats.write_hits == 1


def test_flush_ignored():
    fc = make_fc()
    fc.write(0, PAGE_SIZE, 0.0)
    assert fc.flush(5.0) == 5.0   # acked immediately (§3.1)


def test_set_conflict_evicts_fifo():
    fc = make_fc(cache_size=1 * MIB, set_size=64 * KIB)
    blocks_per_set = 64 * KIB // PAGE_SIZE
    # Fill one set beyond capacity with blocks that all map there.
    set0 = fc._set_of(0)
    same_set = [b for b in range(0, 4096)
                if fc._set_of(b) == set0][:blocks_per_set + 1]
    for i, b in enumerate(same_set):
        fc.write(b * PAGE_SIZE, PAGE_SIZE, float(i))
    assert same_set[0] not in fc.lookup        # FIFO victim
    assert same_set[-1] in fc.lookup


def test_eviction_of_dirty_enqueues_writeback():
    fc = make_fc(cache_size=1 * MIB, set_size=64 * KIB)
    blocks_per_set = 64 * KIB // PAGE_SIZE
    set0 = fc._set_of(0)
    same_set = [b for b in range(0, 4096)
                if fc._set_of(b) == set0][:blocks_per_set + 1]
    for i, b in enumerate(same_set):
        fc.write(b * PAGE_SIZE, PAGE_SIZE, float(i))
    assert fc.cstats.destaged_blocks == 1
    assert len(fc.writeback) == 1


def test_destage_all_drains_dirty():
    fc = make_fc()
    for b in range(16):
        fc.write(b * PAGE_SIZE, PAGE_SIZE, 0.0)
    fc.destage_all(1.0)
    assert fc.dirty_blocks == 0
    assert fc.origin.stats.write_bytes == 16 * PAGE_SIZE


def test_dirty_threshold_triggers_background_destage():
    fc = make_fc(cache_size=1 * MIB, set_size=128 * KIB, thresh=0.05)
    for b in range(64):
        fc.write(b * PAGE_SIZE, PAGE_SIZE, float(b))
    assert fc.cstats.destaged_blocks > 0


def test_set_hash_locality_preserving():
    fc = make_fc()
    assert fc._set_of(0) == fc._set_of(1)   # same set-sized range


def test_hit_ratio_accounting():
    fc = make_fc()
    fc.write(0, PAGE_SIZE, 0.0)     # miss
    fc.write(0, PAGE_SIZE, 1.0)     # hit
    fc.read(0, PAGE_SIZE, 2.0)      # hit
    assert fc.cstats.hit_ratio == pytest.approx(2 / 3)
