"""CacheTarget base-class contracts (dispatch, miss extents, helpers)."""

import pytest

from repro.baselines.common import CacheStats, CacheTarget
from repro.block.device import NullDevice
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE


class MinimalCache(CacheTarget):
    """The required interface and nothing else; every block is
    resident unless a test lists it in ``missing``."""

    def __init__(self):
        super().__init__(NullDevice(8 * MIB, name="c"),
                         NullDevice(64 * MIB, latency=1e-3, name="o"),
                         "minimal")
        self.reads = []
        self.writes = []
        self.missing = set()
        self.fills = []

    def block_cached(self, block):
        return block not in self.missing

    def install_fill(self, block, now):
        self.fills.append(block)

    def read_block(self, block, now):
        self.reads.append(block)
        return now + 1e-4

    def write_block(self, block, now):
        self.writes.append(block)
        return now + 1e-4

    def handle_flush(self, now):
        return now + 1.0


def test_read_falls_back_to_per_block_without_hooks():
    """Resident blocks are read per block; a run of missing ones is
    one origin extent, each block installed once."""
    cache = MinimalCache()
    cache.submit(Request(Op.READ, 0, 3 * PAGE_SIZE), 0.0)
    assert cache.reads == [0, 1, 2]
    cache.missing = {4, 5}
    cache.submit(Request(Op.READ, 3 * PAGE_SIZE, 4 * PAGE_SIZE), 1.0)
    assert cache.reads == [0, 1, 2, 3, 6]
    assert cache.fills == [4, 5]
    assert cache.origin.stats.read_ops == 1
    assert cache.origin.stats.read_bytes == 2 * PAGE_SIZE


def test_write_dispatch_per_block():
    cache = MinimalCache()
    cache.submit(Request(Op.WRITE, PAGE_SIZE, 2 * PAGE_SIZE), 0.0)
    assert cache.writes == [1, 2]


def test_flush_dispatch():
    cache = MinimalCache()
    assert cache.submit(Request(Op.FLUSH), 2.0) == 3.0


def test_trim_default_noop():
    cache = MinimalCache()
    assert cache.submit(Request(Op.TRIM, 0, PAGE_SIZE), 4.0) == 4.0


def test_target_size_is_origin_size():
    cache = MinimalCache()
    assert cache.size == cache.origin.size


def test_origin_helpers_route_correctly():
    cache = MinimalCache()
    cache.origin_write(3, 0.0)
    cache.origin_read(5, 0.0)
    assert cache.origin.stats.write_bytes == PAGE_SIZE
    assert cache.origin.stats.read_bytes == PAGE_SIZE


def test_cache_helpers_route_correctly():
    cache = MinimalCache()
    cache.cache_write(0, 0.0, 2 * PAGE_SIZE)
    cache.cache_read(PAGE_SIZE, 0.0)
    assert cache.cache_dev.stats.write_bytes == 2 * PAGE_SIZE
    assert cache.cache_dev.stats.read_bytes == PAGE_SIZE


def test_cache_stats_copy_is_independent():
    stats = CacheStats(read_hits=3)
    snap = stats.copy()
    stats.read_hits = 10
    assert snap.read_hits == 3


def test_window_hit_ratio():
    earlier = CacheStats(read_hits=10, read_misses=10)
    later = CacheStats(read_hits=25, read_misses=15)
    # window: 15 hits over 20 lookups
    assert later.window_hit_ratio(earlier) == pytest.approx(0.75)
