"""A multi-page WRITE lands exactly as its pages written one at a time.

``SrcCache.write_request`` serves a request's pages in one loop, each
page issued at the request's ``now``: bypass, TWAIT (the partial-segment
timeout), residency, hit / miss and hotness, tenant write-around, then
absorb or buffer.  Each case drives two identical stacks, one with the
whole request and one with a one-page request per page at the same
``now``, and compares everything the write path touches.
"""

from dataclasses import replace

import numpy as np

from repro.common.types import WRITE, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import RepairConfig
from repro.faults import FaultPlan
from repro.tenancy import QosSpec, TenantRegistry

from _stacks import TINY_SRC, make_src
from test_repair import FAIL_AT, fill_segments, make_repair_src


def state(cache) -> dict:
    """What a write can change, as plain values."""
    codes = cache._state.a
    touched = np.flatnonzero(codes).tolist()
    return {
        "mapping": sorted((lba, tuple(e.location), e.dirty, e.checksum,
                           e.version) for lba, e in cache.mapping.items()),
        "residency": [(lba, codes.item(lba)) for lba in touched],
        "dirty": cache.dirty_buf.peek(), "clean": cache.clean_buf.peek(),
        "versions": np.trim_zeros(cache._versions.a, "b").tolist(),
        "hot": (np.flatnonzero(cache.hotness._hot).tolist(),
                cache.hotness.hot_count, cache.hotness.references),
        "cstats": cache.cstats.as_dict(), "srcstats": cache.srcstats.as_dict(),
        "last_dirty_write": cache._last_dirty_write,
        "summaries": [vars(s) for s in cache.metadata.all_summaries()],
        "ssds": [s.stats.as_dict() for s in cache.ssds],
        "origin": cache.origin.stats.as_dict(),
        "tenants": (cache.tenants.stats() if cache.tenants is not None
                    else None),
    }


def write(cache, first: int, npages: int, now: float) -> float:
    return cache.write_request(
        Request(WRITE, first * PAGE_SIZE, npages * PAGE_SIZE), now)


def assert_pages_alike(setup, first: int, npages: int, now: float,
                       build=make_src):
    """``setup`` (cache -> None) on two ``build()`` stacks; then one
    request against a request per page; returns the stack that took the
    request."""
    whole, pages = build(), build()
    setup(whole)
    setup(pages)
    assert state(whole) == state(pages)
    done = write(whole, first, npages, now)
    dones = [write(pages, block, 1, now)
             for block in range(first, first + npages)]
    assert done == max(dones)
    assert state(whole) == state(pages)
    return whole


def test_every_residency_in_one_request():
    """Mapped, clean, dirty and absent pages, hit and miss."""
    def setup(cache):
        write(cache, 0, 4, 0.0)
        cache.flush_partial(0.0)                # 0..3 mapped
        cache.read_request(Request(0, 4 * PAGE_SIZE, 2 * PAGE_SIZE), 0.0)
        write(cache, 7, 2, 0.001)               # 4, 5 clean; 7, 8 dirty
    cache = assert_pages_alike(setup, 0, 12, 0.002)
    assert cache.cstats.write_hits == 8                  # 0..5, 7, 8
    assert cache.cstats.write_misses == 6 + 4            # setup + 6, 9..11
    assert cache.dirty_buf.peek() == [7, 8, 0, 1, 2, 3, 4, 5, 6, 9, 10, 11]
    assert not (len(cache.mapping) or cache.clean_buf.peek())
    assert cache._versions.a[:12].tolist() == [2] * 4 + [1] * 8   # 7, 8 absorbed


def test_a_seal_in_the_middle_of_the_request():
    capacity = make_src().layout.dirty_segment_capacity()

    def setup(cache):
        write(cache, 0, capacity - 2, 0.0)
    cache = assert_pages_alike(setup, 1000, 6, 0.001)
    assert cache.srcstats.segment_writes == 1
    assert len(cache.dirty_buf) == 4


def test_twait_flushes_at_the_first_page():
    def setup(cache):
        write(cache, 0, 3, 0.0)
    cache = assert_pages_alike(setup, 500, 5, 2 * TINY_SRC.t_wait)
    assert cache.srcstats.timeout_flushes == 1
    assert cache.dirty_buf.peek() == list(range(500, 505))


def test_bypass_writes_go_to_the_origin():
    def setup(cache):
        write(cache, 0, 3, 0.0)
        cache.enter_bypass(0.0, "test")
    cache = assert_pages_alike(setup, 1, 4, 0.001)
    assert cache.srcstats.bypass_writes == 4


def test_the_repair_pump_runs_per_page():
    """TWAIT's check pumps repair on every page: with a rebuild under
    a hot foreground guard, each page defers it once."""
    config = replace(TINY_SRC, repair=RepairConfig(rebuild_fg_p99=1e-9))

    def build():
        return make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT)},
                               config=config)

    def setup(cache):
        now = fill_segments(cache, n=2)
        fill_segments(cache, n=1, start=50_000, now=max(now, 2 * FAIL_AT))
        assert cache.repair.active_job is not None
    before = build()
    setup(before)
    cache = assert_pages_alike(setup, 90_000, 6, 1.0, build)
    assert (cache.srcstats.rebuild_throttle_defers
            == before.srcstats.rebuild_throttle_defers + 6)


def whale(cache) -> int:
    """A tenant over its share; returns its first refused block."""
    registry = TenantRegistry(cache)
    registry.create_volume("whale", 16 * MIB, QosSpec(max_share=0.05))
    block, now = 0, 0.0
    while not registry.stats()["whale"]["rejected_blocks"]:
        now = write(cache, block, 1, now)
        block += 1
    return block - 1


def test_tenant_write_around():
    """An over-share tenant's misses go round the cache; its hits, and
    untagged pages past its volume, do not."""
    refused = whale(make_src())
    cache = assert_pages_alike(whale, refused - 3, 8, 1.0)
    assert cache.cstats.write_hits == 3
    assert cache.tenants.stats()["whale"]["write_arounds"] == 1 + 5
    end = 16 * MIB // PAGE_SIZE
    cache = assert_pages_alike(whale, end - 3, 8, 1.0)
    assert cache.tenants.stats()["whale"]["write_arounds"] == 1 + 3
    assert cache.dirty_buf.peek()[-5:] == list(range(end, end + 5))
