"""A READ is served the same down the lean and the full member path.

``SrcCache.read_request`` serves a request's pages in one loop: RAM
residencies inline, a mapped page by ``Members.read``, a run of missing
pages by one origin fetch whose blocks land straight in the clean
buffer.  ``Members.read`` takes the SSD's ``submit_read_fast`` when the
member is a plain ``SSDDevice`` with nothing sampling it, else the full
``Members.submit``.  Each case drives twin stacks — one lean, one forced
onto the full path by a fail-slow detector whose threshold no latency
reaches (it closes ``seal_fast_ok`` too) — and compares everything a read
touches; then it checks what the read should have done.
"""

from dataclasses import replace

import numpy as np

from repro.common.types import READ, WRITE, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.arrays import B_CLEAN, B_MAPPED, B_NONE
from repro.core.buffers import RAM_LATENCY
from repro.core.config import RepairConfig
from repro.core.src import SrcCache
from repro.hdd.backend import PrimaryStorage
from repro.ssd.device import SSDDevice
from repro.tenancy import QosSpec, TenantRegistry

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD


def build(config=TINY_SRC, full=False, spares=0):
    if full:
        config = replace(config, faults=replace(config.faults,
                                                failslow_p99=1e9))
    ssds = [SSDDevice(TINY_SSD, name=f"tiny{i}")
            for i in range(config.n_ssds)]
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    spare = [SSDDevice(TINY_SSD, name=f"spare{i}") for i in range(spares)]
    return SrcCache(ssds, origin, config, spares=spare or None)


def state(cache) -> dict:
    """What a read can change, as plain values."""
    codes = cache._state.a
    return {
        "cstats": cache.cstats.as_dict(), "srcstats": cache.srcstats.as_dict(),
        "ssds": [(s.name, s.failed, s.stats.as_dict(), s.qstats.as_dict(),
                  sorted(s._inflight), s.nand._free, s.nand_reads._free,
                  s.read_link._timeline._free, s.link._timeline._free)
                 for s in cache.ssds],
        "origin": cache.origin.stats.as_dict(),
        "clean": cache.clean_buf.peek(), "dirty": cache.dirty_buf.peek(),
        "hot": (np.flatnonzero(cache.hotness._hot).tolist(),
                cache.hotness.hot_count, cache.hotness.references),
        "mapping": sorted((lba, tuple(e.location), e.dirty)
                          for lba, e in cache.mapping.items()),
        "residency": [(lba, codes.item(lba))
                      for lba in np.flatnonzero(codes).tolist()],
        "tenants": (cache.tenants.stats() if cache.tenants is not None
                    else None),
    }


def write(cache, first: int, npages: int, now: float) -> float:
    return cache.submit(
        Request(WRITE, first * PAGE_SIZE, npages * PAGE_SIZE), now)


def read(cache, first: int, npages: int, now: float) -> float:
    return cache.submit(
        Request(READ, first * PAGE_SIZE, npages * PAGE_SIZE), now)


def assert_twins(setup, first: int, npages: int, now: float, **kw):
    """``setup`` (cache -> None) on a lean and a full stack, then one
    read on each: equal completion and state.  Returns the lean stack,
    its state before the read and the read's completion."""
    lean, full = build(**kw), build(full=True, **kw)
    assert lean.members.lean(lean.ssds[0])
    assert not full.members.lean(full.ssds[0])
    assert not full.members.seal_fast_ok()
    setup(lean)
    setup(full)
    assert state(lean) == state(full)
    before = state(lean)
    done = read(lean, first, npages, now)
    assert read(full, first, npages, now) == done
    assert state(lean) == state(full)
    return lean, before, done


def delta(cache, before: dict, group: str, key: str) -> int:
    return getattr(cache, group).as_dict()[key] - before[group][key]


def ssd_reads(cache) -> int:
    return sum(s.stats.read_ops for s in cache.ssds)


def mapped(cache, first, npages, now=0.0):
    """Pages ``first ..`` written and sealed: mapped, dirty."""
    write(cache, first, npages, now)
    cache.flush_partial(now)


def test_the_two_ram_residencies():
    def setup(cache):
        write(cache, 0, 2, 0.0)                 # 0, 1 dirty
        read(cache, 2, 2, 0.0)                  # 2, 3 clean
    cache, before, done = assert_twins(setup, 0, 4, 0.001)
    assert done == 0.001 + RAM_LATENCY
    assert delta(cache, before, "cstats", "read_hits") == 4
    assert ssd_reads(cache) == 0
    assert cache.origin.stats.read_ops == before["origin"]["read_ops"]


def test_a_mapped_hit():
    cache, before, done = assert_twins(lambda c: mapped(c, 0, 4), 1, 1, 0.5)
    assert delta(cache, before, "cstats", "read_hits") == 1
    assert ssd_reads(cache) == 1 and done > 0.5 + RAM_LATENCY
    assert cache.hotness.references == before["hot"][2] + 1


def test_a_miss_run_is_one_origin_extent():
    cache, before, _ = assert_twins(lambda c: None, 100, 8, 0.1)
    origin = cache.origin.stats
    assert origin.read_ops == 1 and origin.read_bytes == 8 * PAGE_SIZE
    assert cache.cstats.read_misses == cache.cstats.fills == 8
    assert cache.clean_buf.peek() == list(range(100, 108))


def test_hits_and_misses_interleaved():
    """Mapped, missing x2, dirty, missing, clean, missing: three fetches."""
    def setup(cache):
        mapped(cache, 10, 1)
        write(cache, 13, 1, 0.0)
        read(cache, 15, 1, 0.0)
    cache, before, _ = assert_twins(setup, 10, 7, 0.001)
    assert cache.origin.stats.read_ops - before["origin"]["read_ops"] == 3
    assert delta(cache, before, "cstats", "read_hits") == 3
    assert delta(cache, before, "cstats", "read_misses") == 4
    assert cache.clean_buf.peek() == [15, 11, 12, 14, 16]


def test_a_fill_seals_the_clean_buffer_under_a_buffered_page():
    """Three misses fill the clean buffer; its seal maps page 2000, which
    read as clean RAM before the run: the read must load its residency
    again and fetch it from its member."""
    capacity = build().layout.clean_segment_capacity()

    def setup(cache):
        read(cache, 1000, capacity - 4, 0.0)
        read(cache, 2000, 1, 0.0)
        assert cache._state.get(2000) == B_CLEAN
    cache, before, _ = assert_twins(setup, 1997, 4, 0.001)
    assert delta(cache, before, "srcstats", "segment_writes") == 1
    assert cache._state.get(2000) == B_MAPPED and not cache.clean_buf.peek()
    assert delta(cache, before, "cstats", "read_hits") == 1
    assert ssd_reads(cache) == 1


def home(cache, block):
    return cache.mapping.lookup(block).location


def test_a_dead_home_member():
    def setup(cache):
        mapped(cache, 0, 8)
        cache.ssds[home(cache, 5).ssd].fail()
    cache, before, _ = assert_twins(setup, 5, 1, 0.5)
    assert delta(cache, before, "srcstats", "degraded_reads") == 1
    assert delta(cache, before, "srcstats", "parity_reconstructions") == 1
    assert cache.dirty_buf.peek() == [5]        # re-logged on healthy drives


def test_a_corrupted_page():
    def setup(cache):
        mapped(cache, 0, 8)
        loc = home(cache, 3)
        cache.ssds[loc.ssd].inject_corruption(loc.offset, PAGE_SIZE)
    cache, before, _ = assert_twins(setup, 3, 1, 0.5)
    assert delta(cache, before, "srcstats", "corruption_repairs") == 1
    assert delta(cache, before, "srcstats", "parity_reconstructions") == 1
    _, (_, _, ssd, offset), _ = before["mapping"][3]   # block 3
    assert not cache.ssds[ssd].corrupted_in(offset, PAGE_SIZE)


def test_a_rebuilding_spare_not_yet_holding_the_unit():
    config = replace(TINY_SRC, repair=RepairConfig(rebuild_rate=1.0))

    def setup(cache):
        for segment in range(5):        # the burst rebuilds two units
            mapped(cache, segment * 100, 8)
        loc = home(cache, 406)
        cache.members._convert_fail_stop(loc.ssd, 0.1)
        assert cache.repair.active_job is not None
        assert not cache.repair.unit_ready(loc.ssd, loc.sg, loc.segment)
    cache, before, _ = assert_twins(setup, 406, 1, 0.5, config=config,
                                    spares=1)
    assert delta(cache, before, "srcstats", "degraded_reads") == 1
    assert delta(cache, before, "srcstats", "parity_reconstructions") == 1


def test_bypass_reads_the_whole_request_from_the_origin():
    def setup(cache):
        mapped(cache, 0, 2)
        write(cache, 2, 1, 0.0)
        cache.enter_bypass(0.0, "test")
    cache, before, _ = assert_twins(setup, 0, 4, 0.5)
    assert delta(cache, before, "srcstats", "bypass_reads") == 4
    assert cache.origin.stats.read_ops - before["origin"]["read_ops"] == 1
    assert ssd_reads(cache) == 0 and cache.cstats.read_hits == 0


def whale(cache) -> int:
    """A tenant over its share; returns its first refused block."""
    registry = TenantRegistry(cache)
    registry.create_volume("whale", 16 * MIB, QosSpec(max_share=0.05))
    block, now = 0, 0.0
    while not registry.stats()["whale"]["rejected_blocks"]:
        now = write(cache, block, 1, now)
        block += 1
    return block - 1


def test_tenant_read_around():
    """An over-share tenant's read misses are served and not cached."""
    refused = whale(build())
    cache, before, _ = assert_twins(whale, refused + 1, 4, 1.0)
    assert delta(cache, before, "cstats", "read_misses") == 4
    assert delta(cache, before, "cstats", "fills") == 0
    assert cache.tenants.stats()["whale"]["read_arounds"] == 4
    assert all(cache._state.get(b) == B_NONE
               for b in range(refused + 1, refused + 5))


def test_a_page_the_per_page_check_moves_is_loaded_again(monkeypatch):
    """The check before a cached page may move it: here the pump, on its
    second call of the request, unmaps the page, which then misses."""
    cache = build()
    mapped(cache, 0, 4)
    pump, calls = cache.repair.pump, []

    def moving_pump(now):
        calls.append(now)
        if len(calls) == 2:
            cache.mapping.invalidate(2)
            return True
        return pump(now)
    monkeypatch.setattr(cache.repair, "pump", moving_pump)
    read(cache, 2, 1, 0.5)
    assert len(calls) == 2
    assert cache.cstats.read_misses == 1 and cache.cstats.read_hits == 0
    assert ssd_reads(cache) == 0 and cache.clean_buf.peek() == [2]
