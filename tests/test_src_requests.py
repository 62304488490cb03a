"""Request-level SRC behaviour and model-based property tests."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.types import Op, Request
from repro.common.units import PAGE_SIZE

from _stacks import make_src


def test_multiblock_write_buffers_every_block():
    cache = make_src()
    cache.submit(Request(Op.WRITE, 0, 8 * PAGE_SIZE), 0.0)
    assert len(cache.dirty_buf) == 8


def test_write_crossing_segment_boundary():
    cache = make_src()
    cap = cache.layout.dirty_segment_capacity()
    # Fill to one block short of a segment, then write 4 blocks.
    now = 0.0
    for i in range(cap - 1):
        now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
    cache.submit(Request(Op.WRITE, cap * PAGE_SIZE, 4 * PAGE_SIZE), now)
    assert cache.srcstats.segment_writes == 1
    assert len(cache.dirty_buf) == 3   # overflow stays buffered


def test_unaligned_write_covers_partial_pages():
    cache = make_src()
    cache.submit(Request(Op.WRITE, PAGE_SIZE // 2, PAGE_SIZE), 0.0)
    assert len(cache.dirty_buf) == 2   # straddles two blocks


def test_large_read_mixes_hits_and_misses():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)            # block 0 cached
    cache.submit(Request(Op.READ, 0, 4 * PAGE_SIZE), 1.0)
    assert cache.cstats.read_hits == 1
    assert cache.cstats.read_misses == 3
    # The three missing blocks came in one coalesced origin read.
    assert cache.origin.stats.read_ops == 1


def test_flush_via_submit():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    end = cache.submit(Request(Op.FLUSH), 1.0)
    assert end > 1.0
    assert cache.dirty_buf.empty


def test_reads_of_staged_blocks_hit():
    cache = make_src()
    cache.read(0, PAGE_SIZE, 0.0)      # miss, filled into the clean buffer
    cache.read(0, PAGE_SIZE, 0.1)      # must hit RAM now
    assert cache.cstats.read_hits == 1


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_src_matches_reference_cache_semantics(seed):
    """Model check: after any op sequence, every block the reference
    says is cached must hit, and dirtiness must match the reference."""
    cache = make_src()
    rng = np.random.default_rng(seed)
    reference_dirty = {}
    now = 0.0
    for _ in range(400):
        block = int(rng.integers(0, 600))
        r = rng.random()
        if r < 0.55:
            now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
            reference_dirty[block] = True
        elif r < 0.9:
            now = cache.read(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
            reference_dirty.setdefault(block, False)
        else:
            now = cache.trim(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
            reference_dirty.pop(block, None)
    # No GC ran (working set fits), so everything must still be cached
    # with correct dirtiness.
    assert cache.srcstats.s2s_collections == 0
    assert cache.srcstats.s2d_collections == 0
    for block, dirty in reference_dirty.items():
        entry = cache.mapping.lookup(block)
        if entry is not None:
            assert entry.dirty == dirty, f"block {block} dirtiness"
        else:
            in_dirty = block in cache.dirty_buf
            in_clean = block in cache.clean_buf
            assert in_dirty or in_clean, f"block {block} lost"
            assert in_dirty == dirty, f"block {block} wrong buffer"
    cache.mapping.check_invariants()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_src_invariants_survive_gc_pressure(seed):
    """Random ops over a working set larger than the cache."""
    cache = make_src()
    cap = cache.layout.cache_data_capacity_blocks()
    rng = np.random.default_rng(seed)
    now = 0.0
    for _ in range(3000):
        block = int(rng.integers(0, cap * 2))
        nblocks = int(rng.integers(1, 9))
        op = Op.WRITE if rng.random() < 0.7 else Op.READ
        now = cache.submit(
            Request(op, block * PAGE_SIZE, nblocks * PAGE_SIZE),
            now + 1e-4)
    cache.mapping.check_invariants()
    for ssd in cache.ssds:
        ssd.ftl.check_invariants()
    assert cache.free_groups >= 1
