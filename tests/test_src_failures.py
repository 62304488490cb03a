"""SRC failure handling: SSD loss, silent corruption, rebuild."""

from dataclasses import replace

from repro.common.types import Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.config import CleanRedundancy, RepairConfig
from repro.core.src import SrcCache
from repro.hdd.backend import PrimaryStorage
from repro.ssd.device import SSDDevice

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD, make_src


def fill_one_dirty_segment(cache, start=0):
    cap = cache.layout.dirty_segment_capacity()
    now = 0.0
    for i in range(cap):
        now = cache.write((start + i) * PAGE_SIZE, PAGE_SIZE, now)
    return now, cap


def fill_one_clean_segment(cache, start=0):
    cap = cache.layout.clean_segment_capacity()
    now = 0.0
    for i in range(cap):
        now = cache.read((start + i) * PAGE_SIZE, PAGE_SIZE, now + 1.0)
    return now, cap


# ------------------------------------------------------------------
# silent corruption (§4.1 failure handling)
# ------------------------------------------------------------------
def test_corrupted_dirty_block_recovered_via_parity():
    cache = make_src()
    now, cap = fill_one_dirty_segment(cache)
    entry = cache.mapping.lookup(0)
    ssd = cache.ssds[entry.location.ssd]
    ssd.inject_corruption(entry.location.offset, PAGE_SIZE)
    cache.read(0, PAGE_SIZE, now + 1.0)
    assert cache.srcstats.corruption_repairs == 1
    assert cache.srcstats.parity_reconstructions == 1
    assert cache.srcstats.unrecoverable_errors == 0
    # The repaired block is re-logged, not left on the bad location.
    assert 0 in cache.dirty_buf or cache.mapping.lookup(0) is not None


def test_corrupted_clean_block_refetched_from_origin_in_npc():
    cache = make_src()   # NPC default: clean stripes carry no parity
    now, cap = fill_one_clean_segment(cache)
    entry = cache.mapping.lookup(0)
    assert not entry.dirty
    ssd = cache.ssds[entry.location.ssd]
    origin_reads = cache.origin.stats.read_ops
    ssd.inject_corruption(entry.location.offset, PAGE_SIZE)
    cache.read(0, PAGE_SIZE, now + 1.0)
    assert cache.srcstats.corruption_repairs == 1
    assert cache.origin.stats.read_ops == origin_reads + 1
    assert cache.srcstats.unrecoverable_errors == 0


def test_corrupted_clean_block_uses_parity_in_pc():
    cache = make_src(replace(TINY_SRC,
                             clean_redundancy=CleanRedundancy.PC))
    now, cap = fill_one_clean_segment(cache)
    entry = cache.mapping.lookup(0)
    ssd = cache.ssds[entry.location.ssd]
    origin_reads = cache.origin.stats.read_ops
    ssd.inject_corruption(entry.location.offset, PAGE_SIZE)
    cache.read(0, PAGE_SIZE, now + 1.0)
    assert cache.srcstats.parity_reconstructions == 1
    assert cache.origin.stats.read_ops == origin_reads


# ------------------------------------------------------------------
# SSD fail-stop
# ------------------------------------------------------------------
def test_degraded_read_of_dirty_data_reconstructs():
    cache = make_src()
    now, cap = fill_one_dirty_segment(cache)
    entry = cache.mapping.lookup(0)
    cache.ssds[entry.location.ssd].fail()
    end = cache.read(0, PAGE_SIZE, now + 1.0)
    assert cache.srcstats.degraded_reads == 1
    assert cache.srcstats.parity_reconstructions == 1
    assert cache.srcstats.unrecoverable_errors == 0


def test_degraded_read_of_npc_clean_falls_back_to_origin():
    cache = make_src()
    now, cap = fill_one_clean_segment(cache)
    entry = cache.mapping.lookup(0)
    cache.ssds[entry.location.ssd].fail()
    origin_reads = cache.origin.stats.read_ops
    cache.read(0, PAGE_SIZE, now + 1.0)
    assert cache.srcstats.degraded_reads == 1
    assert cache.origin.stats.read_ops == origin_reads + 1
    assert cache.srcstats.unrecoverable_errors == 0   # clean data is safe


def test_raid0_dirty_loss_is_unrecoverable():
    cache = make_src(replace(TINY_SRC, raid_level=0))
    now, cap = fill_one_dirty_segment(cache)
    entry = cache.mapping.lookup(0)
    cache.ssds[entry.location.ssd].fail()
    cache.read(0, PAGE_SIZE, now + 1.0)
    assert cache.srcstats.unrecoverable_errors == 1


def test_writes_continue_degraded():
    cache = make_src()
    cache.ssds[2].fail()
    now, cap = fill_one_dirty_segment(cache)
    assert cache.srcstats.segment_writes >= 1
    assert cache.ssds[2].stats.write_ops == 0


def test_read_block_after_scrub_unmap_is_an_ordinary_miss():
    # read_request saw the block cached; the repair pump at the top of
    # read_block then scrubs it — corrupt, dirty, no redundancy: a
    # double fault, dropped from the mapping — so the read finds
    # nothing and must take the one miss path: fetch, count, fill.
    cache = make_src(replace(TINY_SRC, raid_level=0,
                             repair=RepairConfig(scrub_interval=1.0)))
    now, cap = fill_one_dirty_segment(cache)
    entry = cache.mapping.lookup(0)
    cache.ssds[entry.location.ssd].inject_corruption(entry.location.offset,
                                                     PAGE_SIZE)
    assert now < 1.0 and cache.block_cached(0)
    origin_reads = cache.origin.stats.read_ops
    end = cache.read_block(0, 2.0)
    assert cache.srcstats.scrub_unrepairable == 1
    assert cache.cstats.read_misses == 1 and cache.cstats.read_hits == 0
    assert cache.origin.stats.read_ops == origin_reads + 1
    assert end > 2.0 and cache.cstats.fills == 1 and 0 in cache.clean_buf


# ------------------------------------------------------------------
# hot-spare rebuild (repro.repair; more in tests/test_repair.py)
# ------------------------------------------------------------------
def make_spared_src(config=TINY_SRC):
    """A cache with one hot spare and an unthrottled rebuild."""
    config = replace(config, repair=RepairConfig(hot_spares=1,
                                                 rebuild_rate=0.0))
    ssds = [SSDDevice(TINY_SSD, name=f"tiny{i}")
            for i in range(config.n_ssds)]
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    return SrcCache(ssds, origin, config,
                    spares=[SSDDevice(TINY_SSD, name="spare")])


def lose_member(cache, idx, now):
    """Fail-stop a member under an I/O, so SRC notices, swaps the
    spare into the slot and rebuilds it on the next pump."""
    cache.ssds[idx].fail()
    assert cache.members.submit(
        idx, Request(Op.READ, 0, PAGE_SIZE), now) is None
    assert cache.ssds[idx].name == "spare"
    cache.repair.pump(now)
    assert not cache.repair.jobs


def test_rebuild_restores_parity_protected_units():
    cache = make_spared_src()
    now, cap = fill_one_dirty_segment(cache)
    cache.flush_partial(now)
    before = cache.mapping.valid_blocks()
    lose_member(cache, 1, now + 1.0)
    stats = cache.srcstats
    assert stats.rebuilds_completed == 1 and stats.rebuild_units > 0
    assert cache.ssds[1].stats.write_ops > 0
    assert stats.rebuild_dropped_blocks == 0
    assert cache.mapping.valid_blocks() == before
    # The rebuilt unit serves reads directly again.
    lba = next(lba for lba, e in cache.mapping.items()
               if e.location.ssd == 1)
    cache.read(lba * PAGE_SIZE, PAGE_SIZE, now + 2.0)
    assert stats.degraded_reads == 0


def test_rebuild_drops_npc_clean_of_lost_ssd():
    cache = make_spared_src()
    now, cap = fill_one_clean_segment(cache)
    lost_ssd = cache.mapping.lookup(0).location.ssd
    before = cache.mapping.valid_blocks()
    lose_member(cache, lost_ssd, now + 1.0)
    stats = cache.srcstats
    assert cache.mapping.lookup(0) is None
    assert stats.rebuild_dropped_blocks == \
        before - cache.mapping.valid_blocks() > 0
    assert stats.rebuild_units == 0            # nothing to rebuild from
    assert stats.unrecoverable_errors == 0     # clean data refetches


# ------------------------------------------------------------------
# observability: failure handling narrates itself (satellite events)
# ------------------------------------------------------------------
def _recorded(cache):
    from repro.obs import ObsRecorder
    from repro.obs.recorder import attach
    rec = ObsRecorder()
    return attach(cache, rec), rec


def test_degraded_read_emits_event():
    cache, rec = _recorded(make_src())
    now, cap = fill_one_dirty_segment(cache)
    entry = cache.mapping.lookup(0)
    cache.ssds[entry.location.ssd].fail()
    cache.read(0, PAGE_SIZE, now + 1.0)
    counts = rec.trace.counts()
    assert counts.get("DegradedRead") == 1
    event = [e for e in rec.trace.events if e.kind == "DegradedRead"][0]
    assert event.lba == 0


def test_rebuild_emits_progress_events():
    cache, rec = _recorded(make_spared_src())
    now, cap = fill_one_dirty_segment(cache)
    cache.flush_partial(now)
    lose_member(cache, 1, now + 1.0)
    progress = [e for e in rec.trace.events if e.kind == "RebuildProgress"]
    assert progress
    assert progress[-1].done == progress[-1].total > 0
