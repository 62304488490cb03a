"""SRC cache behaviour: write path, read path, segment machinery."""


from repro.common.types import Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.config import CleanRedundancy, FlushPoint

from _stacks import TINY_SRC, make_src


def fill_dirty_segment(cache, start_block=0, now=0.0):
    """Write exactly one dirty segment's worth of unique blocks."""
    cap = cache.layout.dirty_segment_capacity()
    end = now
    for i in range(cap):
        end = cache.write((start_block + i) * PAGE_SIZE, PAGE_SIZE, end)
    return end, cap


# ------------------------------------------------------------------
# write path
# ------------------------------------------------------------------
def test_small_writes_buffered_until_segment_full():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    assert cache.srcstats.segment_writes == 0
    assert all(s.stats.write_bytes == 0 for s in cache.ssds)


def test_full_buffer_triggers_segment_write():
    cache = make_src()
    fill_dirty_segment(cache)
    assert cache.srcstats.segment_writes == 1
    # All four SSDs got one unit write each (RAID-5 dirty segment).
    assert all(s.stats.write_ops == 1 for s in cache.ssds)


def test_segment_write_is_unit_sized():
    cache = make_src()
    fill_dirty_segment(cache)
    unit = cache.config.segment_unit
    assert all(s.stats.write_bytes == unit for s in cache.ssds)


def test_rewrite_in_buffer_absorbed():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    cache.write(0, PAGE_SIZE, 0.0)
    assert len(cache.dirty_buf) == 1
    assert cache.cstats.write_hits == 1


def test_mapping_installed_after_segment_write():
    cache = make_src()
    _, cap = fill_dirty_segment(cache)
    assert cache.mapping.valid_blocks() == cap
    entry = cache.mapping.lookup(0)
    assert entry.dirty


def test_write_invalidates_cached_clean_copy():
    cache = make_src()
    cache.read(0, PAGE_SIZE, 0.0)           # miss -> clean fill
    cache.write(0, PAGE_SIZE, 1.0)
    assert 0 in cache.dirty_buf
    assert 0 not in cache.clean_buf


# ------------------------------------------------------------------
# read path
# ------------------------------------------------------------------
def test_read_hit_from_dirty_buffer_is_ram_fast():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    end = cache.read(0, PAGE_SIZE, 1.0)
    assert end - 1.0 < 1e-4
    assert cache.cstats.read_hits == 1


def test_read_miss_fetches_origin_and_fills_clean():
    cache = make_src()
    end = cache.read(0, PAGE_SIZE, 0.0)
    assert end > 0.0
    assert cache.cstats.read_misses == 1
    assert cache.origin.stats.read_bytes == PAGE_SIZE
    assert 0 in cache.clean_buf


def test_read_hit_from_ssd_charges_ssd_io():
    cache = make_src()
    _, cap = fill_dirty_segment(cache)
    ssd_reads_before = sum(s.stats.read_ops for s in cache.ssds)
    cache.read(0, PAGE_SIZE, 10.0)
    assert sum(s.stats.read_ops for s in cache.ssds) == ssd_reads_before + 1


def test_miss_run_coalesced_into_one_origin_read():
    cache = make_src()
    cache.submit(Request(Op.READ, 0, 8 * PAGE_SIZE), 0.0)
    assert cache.origin.stats.read_ops == 1
    assert cache.origin.stats.read_bytes == 8 * PAGE_SIZE
    assert cache.cstats.read_misses == 8


def test_clean_fill_segment_write_has_no_parity_in_npc():
    cache = make_src()
    cap = cache.layout.clean_segment_capacity()
    now = 0.0
    for i in range(cap):
        now = cache.read(i * PAGE_SIZE, PAGE_SIZE, now + 1.0)
    assert cache.srcstats.segment_writes == 1
    summary = cache.metadata.all_summaries()[-1]
    assert not summary.dirty
    assert not summary.with_parity   # NPC default


def test_clean_fill_with_pc_mode_keeps_parity():
    from dataclasses import replace
    cache = make_src(replace(TINY_SRC,
                             clean_redundancy=CleanRedundancy.PC))
    cap = cache.layout.clean_segment_capacity()
    now = 0.0
    for i in range(cap):
        now = cache.read(i * PAGE_SIZE, PAGE_SIZE, now + 1.0)
    summary = cache.metadata.all_summaries()[-1]
    assert summary.with_parity


# ------------------------------------------------------------------
# flush and timeout
# ------------------------------------------------------------------
def test_app_flush_persists_partial_dirty_segment():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    cache.flush(1.0)
    assert cache.srcstats.segment_writes == 1
    assert cache.srcstats.partial_segment_writes == 1
    assert cache.dirty_buf.empty
    assert cache.srcstats.flush_commands >= 1


def test_app_flush_does_not_touch_origin():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    cache.flush(1.0)
    assert cache.origin.stats.write_bytes == 0   # §4 durability contract


def test_twait_timeout_flushes_partial_segment():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    # Next request arrives past TWAIT: the partial segment goes out.
    cache.write(PAGE_SIZE, PAGE_SIZE, 0.0 + cache.config.t_wait * 2)
    assert cache.srcstats.timeout_flushes == 1


def test_flush_point_per_segment_issues_flush_every_segment():
    from dataclasses import replace
    cache = make_src(replace(TINY_SRC,
                             flush_point=FlushPoint.PER_SEGMENT))
    fill_dirty_segment(cache)
    assert cache.srcstats.flush_commands == 1
    assert all(s.stats.flush_ops == 1 for s in cache.ssds)


def test_flush_point_per_sg_defers_flush():
    cache = make_src()   # default: per segment group
    fill_dirty_segment(cache)
    assert all(s.stats.flush_ops == 0 for s in cache.ssds)


def test_trim_invalidates_cached_blocks():
    cache = make_src()
    fill_dirty_segment(cache)
    cache.trim(0, 4 * PAGE_SIZE, 10.0)
    assert cache.mapping.lookup(0) is None
    assert cache.mapping.lookup(4) is not None


# ------------------------------------------------------------------
# metadata & accounting
# ------------------------------------------------------------------
def test_segment_summary_written_with_lbas():
    cache = make_src()
    _, cap = fill_dirty_segment(cache)
    summary = cache.metadata.all_summaries()[-1]
    assert len(summary.lbas) == cap
    assert summary.dirty
    assert summary.consistent


def test_utilization_grows_with_content():
    cache = make_src()
    assert cache.utilization() == 0.0
    fill_dirty_segment(cache)
    assert cache.utilization() > 0.0


def test_io_amplification_reported():
    cache = make_src()
    fill_dirty_segment(cache)
    # 4 unit writes for 3 units of data -> amp > 1 (parity + metadata).
    assert cache.io_amplification() > 1.2


def test_partial_segment_consumes_slot():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    cache.flush_partial(1.0)
    seg_before = cache.segments.active.next_segment
    assert seg_before == 1
