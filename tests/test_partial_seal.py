"""A partial segment's element path against its array path.

Below ``SCALAR_THRESHOLD`` blocks, ``SegmentLog.seal`` keeps a lone
segment's columns as Python ints from the buffer drain to the summary;
the array twin runs the same seal with ``SCALAR_THRESHOLD`` patched to
0 in :mod:`repro.core.segments`, so every step takes its NumPy columns.
The twins seal the same buffers and must agree on everything a seal
touches: mapping columns and logs, summaries (sequence, generation,
LBAs, checksums, versions, ME), each member's stats, queue, timelines
and FTL, the group books and the returned end.  A 64 KiB unit holds 14
data blocks, so the element path crosses unit boundaries too.

The origin miss has a lean path as well: a READ inside one chunk of
the backend's striped mirror goes straight to the disk the read toggle
picks.  Its twin sends every READ through ``Raid1Device.submit``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.segments as segments_module
from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.types import Op, Request
from repro.common.units import KIB, PAGE_SIZE
from repro.core.config import CleanRedundancy
from repro.hdd.backend import CHUNK_SIZE, PrimaryStorage

from _stacks import TINY_DISK, TINY_SRC, make_src
from test_copy_forward import stack_state
from test_ssd_extents import timeline_state

SMALL_UNITS = replace(TINY_SRC, segment_unit=64 * KIB)
CONFIGS = {
    "raid5": SMALL_UNITS,
    "raid5-clean-parity": replace(SMALL_UNITS,
                                  clean_redundancy=CleanRedundancy.PC),
    "raid0": replace(SMALL_UNITS, raid_level=0),
}
PER_UNIT = 14
SIZES = [1, PER_UNIT - 1, PER_UNIT, PER_UNIT + 1, SCALAR_THRESHOLD - 1,
         SCALAR_THRESHOLD]


def twins(config):
    """The element-path cache and its array twin, each with a few sealed
    segments behind it."""
    pair = [make_src(config), make_src(config)]
    for cache in pair:
        assert cache.layout.data_blocks_per_unit == PER_UNIT
    return pair


class Twin:
    """Runs a step on one cache, the array twin with the threshold at 0."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def __call__(self, array: bool, step):
        with self.monkeypatch.context() as patch:
            if array:
                patch.setattr(segments_module, "SCALAR_THRESHOLD", 0)
            return step()


def fill_buffer(cache, dirty: bool, lbas, now: float) -> float:
    """Buffer ``lbas``: dirty by writes, clean by read misses."""
    op = Op.WRITE if dirty else Op.READ
    for lba in lbas:
        now = cache.submit(Request(op, lba * PAGE_SIZE, PAGE_SIZE),
                           now + 1e-6)
    return now


def seal(cache, dirty: bool, now: float) -> float:
    return (cache.flush_partial(now) if dirty
            else cache.segments.seal(dirty=False, now=now))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dirty", [True, False], ids=["dirty", "clean"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_partial_seal_matches_its_array_twin(monkeypatch, name, dirty,
                                               size):
    twin = Twin(monkeypatch)
    ends = []
    for array, cache in zip((False, True), twins(CONFIGS[name])):
        def step(cache=cache):
            now = fill_buffer(cache, True, range(0, 90, 3), 0.0)
            now = cache.flush_partial(now)         # one sealed segment
            now = fill_buffer(cache, dirty, range(1000, 1000 + size), now)
            assert len(cache.dirty_buf if dirty else cache.clean_buf) == size
            return seal(cache, dirty, now)
        ends.append(twin(array, step))
        ends.append(stack_state(cache, None))
    lean, array = ends[:2], ends[2:]
    assert lean[1]["src"]["segment_writes"] == 2
    assert lean == array


@pytest.mark.parametrize("name", list(CONFIGS))
def test_partial_seals_through_a_roll_and_reclaim(monkeypatch, name):
    """Hundreds of small seals fill every group: the element path rolls
    groups and kicks reclaim (which copies forward on the array path)
    exactly as the array twin does, end by end."""
    twin = Twin(monkeypatch)
    sizes = SIZES * 3
    trails, states = [], []
    for array, cache in zip((False, True), twins(CONFIGS[name])):
        def step(cache=cache):
            now, trail, lba = 0.0, [], 0
            for k in range(700):
                size = sizes[k % len(sizes)]
                dirty = k % 3 != 2
                # Rewrites of earlier blocks leave holes to reclaim.
                blocks = [(lba + 5 * i) % 2000 for i in range(size)]
                lba += 7 * size
                now = fill_buffer(cache, dirty, blocks, now)
                buf = cache.dirty_buf if dirty else cache.clean_buf
                if len(buf):
                    now = seal(cache, dirty, now)
                trail.append(now)
            return trail
        trails.append(twin(array, step))
        states.append(stack_state(cache, None))
    assert states[0]["src"]["background_reclaims"] > 0
    assert states[0]["src"]["sg_allocations"] > CONFIGS[name].cache_space // (
        CONFIGS[name].erase_group_size * CONFIGS[name].n_ssds)
    assert trails[0] == trails[1]
    assert states[0] == states[1]


def origin_state(origin: PrimaryStorage) -> dict:
    array = origin.array
    return {"stats": (origin.stats.as_dict(), array.stats.as_dict()),
            "toggle": array._read_toggle, "health": array.health.as_dict(),
            "link": (origin.link.bytes_moved,
                     timeline_state(origin.link._timeline)),
            "disks": [(d.stats.as_dict(), d.qstats.as_dict(),
                       sorted(d._inflight), timeline_state(d.arm),
                       list(d._recent), d._recent_sorted)
                      for d in array.members]}


def test_a_one_chunk_origin_read_matches_the_array_submit():
    """Both mirror halves in turn, a dead even half (its odd twin
    serves, the slot turns DEGRADED) and a read spanning two chunks:
    the lean one-chunk read leaves what ``Raid1Device.submit`` does."""
    lean, full = (PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
                  for _ in range(2))
    full.array.read_chunk = full.array.submit
    reads = [(0, PAGE_SIZE), (PAGE_SIZE, PAGE_SIZE),       # even, odd
             (CHUNK_SIZE, 2 * PAGE_SIZE),                  # the next pair
             (3 * CHUNK_SIZE - PAGE_SIZE, PAGE_SIZE),
             (CHUNK_SIZE - PAGE_SIZE, 2 * PAGE_SIZE),      # two chunks
             (5 * CHUNK_SIZE, CHUNK_SIZE)]                 # one whole
    for origin in (lean, full):
        now, ends = 0.0, []
        for k in range(3):
            if k == 2:
                origin.disks[0].fail()                     # the even half
            for offset, length in reads:
                now = origin.submit(Request(Op.READ, offset, length), now)
                ends.append(now)
        origin.ends = ends
    assert lean.ends == full.ends
    assert origin_state(lean) == origin_state(full)
    assert lean.array.health.as_dict()["states"][0] != "healthy"
