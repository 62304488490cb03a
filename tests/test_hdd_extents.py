"""``submit_extents``: the HDD stack's batch overrides against the loop.

``BlockDevice.submit_extents`` (the loop over ``submit``) is the
oracle.  Twin ``PrimaryStorage`` stacks take the same batches, one
through the overrides and one through the loop called unbound, and
must agree on every completion time and every piece of device state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.block.device import BlockDevice, StatsDevice
from repro.common.errors import AddressError, PowerCutError
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import GIB, KIB, MIB, PAGE_SIZE
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hdd.backend import PrimaryStorage, Raid10Array
from repro.hdd.disk import DiskDevice, DiskSpec

DISK = DiskSpec(capacity=8 * GIB)
CHUNK = 64 * KIB


def build(observed: bool = False):
    """A 4-disk backend in a state no fresh stack has: pair 0's arms
    busy behind full 32-slot queues, pair 1's ``_recent`` half filled,
    and the mirrors' deques diverged by reads."""
    origin = PrimaryStorage(n_disks=4, disk_spec=DISK)
    recorder = obs.ObsRecorder() if observed else None
    if observed:
        obs.attach(origin, recorder)
    for i in range(16):                       # pair 1: chunks 1, 3, 5, ...
        origin.write((i * 2 * 97 + 1) * CHUNK, PAGE_SIZE, 0.0)
    for i in range(5):
        origin.read(i * 7 * CHUNK + 512, PAGE_SIZE, 0.0)
    for k, disk in enumerate(origin.disks[:2]):    # pair 0, under the link
        for i in range(80):
            disk.write((i * 64 + 3 * k) * MIB, PAGE_SIZE, 0.0)
    assert origin.disks[0].outstanding(0.1) == DISK.queue_depth
    assert len(origin.disks[2]._recent) < DISK.recent_positions
    assert list(origin.disks[0]._recent) != list(origin.disks[1]._recent)
    return origin, recorder


def device_state(dev) -> dict:
    return {"stats": dev.stats.as_dict()}


def disk_state(disk: DiskDevice) -> dict:
    return {**device_state(disk), "queue": disk.qstats.as_dict(),
            "arm_free": list(disk.arm._free), "arm_busy": disk.arm.busy_time,
            "recent": list(disk._recent), "inflight": sorted(disk._inflight)}


def state(origin: PrimaryStorage) -> dict:
    line = origin.link._timeline
    return {"origin": device_state(origin),
            "link": (origin.link.bytes_moved, list(line._free),
                     line.busy_time),
            "array": device_state(origin.array),
            "toggle": origin.array._read_toggle,
            "disks": [disk_state(d) for d in origin.disks]}


def histograms(recorder) -> dict:
    return {name: (h.count, h.total, h.max, h.min, dict(h._bins))
            for name, h in recorder.registry._instruments.items()
            if hasattr(h, "_bins")}


# Offsets cluster around a few bases (so some extents land within the
# locality window of earlier ones and some do not) or fall anywhere;
# lengths cover single blocks, runs, none, one and two chunk crossings.
SPAN = 16 * GIB - 4 * MIB
offsets = st.one_of(
    st.integers(0, SPAN // 512).map(lambda s: s * 512),
    st.builds(lambda base, delta: base * 3 * GIB + delta * 512,
              st.integers(0, 4), st.integers(0, 8 * MIB // 512)))
lengths = st.one_of(
    st.sampled_from([0, PAGE_SIZE, 2 * PAGE_SIZE, CHUNK, 2 * CHUNK,
                     3 * CHUNK, 8 * CHUNK]),
    st.integers(0, 3 * CHUNK))
batch = st.lists(st.tuples(offsets, lengths), max_size=48)
step = st.tuples(batch, st.floats(0.0, 0.05),
                 st.lists(st.tuples(offsets, st.just(PAGE_SIZE)), max_size=3))


def columns(extents):
    offs = np.array([o for o, _ in extents], dtype=np.int64)
    lens = np.array([n for _, n in extents], dtype=np.int64)
    return offs, lens


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=4), observed=st.booleans(),
       tagged=st.booleans())
def test_overrides_match_the_loop(steps, observed, tagged):
    fast, fast_rec = build(observed)
    loop, loop_rec = build(observed)
    for extents, now, reads in steps:
        offs, lens = columns(extents)
        tenants = ([f"t{i % 3}" for i in range(len(extents))]
                   if tagged else None)
        got = fast.submit_extents(Op.WRITE, offs, lens, now,
                                  IoOrigin.DESTAGE, tenants)
        want = BlockDevice.submit_extents(loop, Op.WRITE, offs, lens, now,
                                          IoOrigin.DESTAGE, tenants)
        assert got.tolist() == want.tolist()
        assert state(fast) == state(loop)
        for offset, length in reads:        # the mirrors' deques diverge
            assert fast.read(offset, length, now) == loop.read(
                offset, length, now)
    if observed:
        assert fast_rec.telemetry() == loop_rec.telemetry()
        assert histograms(fast_rec) == histograms(loop_rec)


def test_split_edge_shapes():
    """Zero length off a chunk boundary, an extent ending exactly on a
    boundary, and three chunks of one pair row."""
    extents = [(CHUNK + 512, 0), (CHUNK - PAGE_SIZE, PAGE_SIZE),
               (4 * CHUNK, 0), (2 * CHUNK + 512, 3 * CHUNK),
               (5 * CHUNK, 2 * CHUNK)]
    fast, _ = build()
    loop, _ = build()
    offs, lens = columns(extents)
    got = fast.submit_extents(Op.WRITE, offs, lens, 0.01, IoOrigin.DESTAGE)
    want = BlockDevice.submit_extents(loop, Op.WRITE, offs, lens, 0.01,
                                      IoOrigin.DESTAGE)
    assert got.tolist() == want.tolist()
    assert state(fast) == state(loop)
    # The zero-length extents reached no disk: 1 + 4 + 2 pieces, twice.
    before, _ = build()
    writes = sum(d.stats.write_ops for d in fast.disks)
    assert writes - sum(d.stats.write_ops for d in before.disks) == 14


@pytest.mark.parametrize("op", [Op.READ, Op.TRIM])
def test_other_ops_take_the_loop(op):
    fast, _ = build()
    loop, _ = build()
    offs, lens = columns([(0, PAGE_SIZE), (CHUNK - 512, PAGE_SIZE)])
    got = fast.submit_extents(op, offs, lens, 0.2, IoOrigin.GC)
    want = [loop.submit(Request(op, int(o), int(n), origin=IoOrigin.GC), 0.2)
            for o, n in zip(offs, lens)]
    assert got.tolist() == want
    assert state(fast) == state(loop)


def test_column_nows_reach_the_array_and_disks():
    fast, _ = build()
    loop, _ = build()
    for origin in (fast, loop):             # one disk with no queue limit
        origin.disks[1].init_queue(0)
    offs, lens = columns([(i * 3 * CHUNK, PAGE_SIZE) for i in range(50)])
    nows = np.linspace(0.0, 0.05, 50)
    for level in (lambda o: o, lambda o: o.array, lambda o: o.disks[1]):
        got = level(fast).submit_extents(Op.WRITE, offs, lens, nows,
                                         IoOrigin.DESTAGE)
        want = BlockDevice.submit_extents(level(loop), Op.WRITE, offs, lens,
                                          nows, IoOrigin.DESTAGE)
        assert got.tolist() == want.tolist()
        assert state(fast) == state(loop)


class Tap(StatsDevice):
    """Logs the sub-requests a wrapped disk is sent, one at a time."""

    def __init__(self, lower, log):
        super().__init__(lower)
        self.log = log

    def _service(self, req, now):
        self.log.append((self.lower.name, req.offset, req.length, req.tenant,
                         req.origin, now))
        return super()._service(req, now)


def test_wrapped_disks_take_the_loop_by_dispatch():
    """Each tapped mirror sees, through its inherited loop, exactly the
    tagged sub-requests the scalar array sends it, in the same order."""
    offs, lens = columns([(CHUNK - 512, PAGE_SIZE), (7 * CHUNK, 0),
                          (2 * CHUNK + 512, 3 * CHUNK), (9 * CHUNK, CHUNK)])
    tenants, nows = ["a", "b", None, "a"], np.array([0.0, 0.1, 0.1, 0.3])
    logs, dones = [], []
    for submit in (Raid10Array.submit_extents, BlockDevice.submit_extents):
        log = []
        array = Raid10Array([Tap(DiskDevice(DISK, name=f"d{i}"), log)
                             for i in range(4)])
        dones.append(submit(array, Op.WRITE, offs, lens, nows,
                            IoOrigin.DESTAGE, tenants).tolist())
        logs.append([[row for row in log if row[0] == f"d{i}"]
                     for i in range(4)])
    assert dones[0] == dones[1]
    assert logs[0] == logs[1]
    assert all(logs[0])


@pytest.mark.parametrize("level", ["origin", "array", "disk"])
def test_a_bad_last_extent_leaves_the_level_untouched(level):
    origin, recorder = build(observed=True)
    dev = {"origin": origin, "array": origin.array,
           "disk": origin.disks[0]}[level]
    before, seen = state(origin), histograms(recorder)
    offs, lens = columns([(0, PAGE_SIZE), (3 * CHUNK, 2 * CHUNK),
                          (dev.size - PAGE_SIZE, 2 * PAGE_SIZE)])
    with pytest.raises(AddressError, match=dev.name):
        dev.submit_extents(Op.WRITE, offs, lens, 0.5, IoOrigin.DESTAGE)
    assert state(origin) == before
    assert histograms(recorder) == seen
    lens[-1] = -1
    with pytest.raises(ValueError):
        dev.submit_extents(Op.WRITE, offs, lens, 0.5, IoOrigin.DESTAGE)
    assert state(origin) == before


def wrapped(cut_after: int):
    origin, _ = build()
    injector = FaultInjector(
        origin, FaultPlan().power_cut_on_write(cut_after),
        record_writes=True)
    return origin, injector, StatsDevice(injector)


def test_wrapped_origin_cuts_power_at_the_same_extent():
    extents = [(i * 5 * CHUNK, (1 + i % 3) * PAGE_SIZE) for i in range(12)]
    offs, lens = columns(extents)
    batch_origin, batch_inj, batch_tap = wrapped(cut_after=8)
    with pytest.raises(PowerCutError):
        batch_tap.submit_extents(Op.WRITE, offs, lens, 0.1, IoOrigin.DESTAGE)
    loop_origin, loop_inj, loop_tap = wrapped(cut_after=8)
    with pytest.raises(PowerCutError):
        for offset, length in extents:
            loop_tap.submit(Request(Op.WRITE, offset, length,
                                    origin=IoOrigin.DESTAGE), 0.1)
    assert batch_inj.writes_seen == loop_inj.writes_seen == 8
    assert batch_inj.written_pages == loop_inj.written_pages
    assert len(batch_inj.written_pages) == sum(1 + i % 3 for i in range(7))
    assert batch_tap.latency.as_dict() == loop_tap.latency.as_dict()
    assert batch_tap.latency.count == 7
    assert state(batch_origin) == state(loop_origin)


def test_destage_enters_the_origin_once_per_victim():
    """A count, not a clock: driven past its first S2D victims, a
    stack writes every destage extent through ``submit_extents`` and
    none through ``submit`` (wrapped on the instance, as bench/spans.py
    wraps it, so a regrown per-extent loop is seen)."""
    from _stacks import make_src
    cache = make_src()
    origin = cache.origin
    inner_submit, inner_batch = origin.submit, origin.submit_extents
    scalar_destages, batches = [], []

    def submit(req, now):
        if req.origin is IoOrigin.DESTAGE:
            scalar_destages.append(req)
        return inner_submit(req, now)

    def submit_extents(op, offsets, lengths, *args, **kwargs):
        batches.append(len(offsets))
        return inner_batch(op, offsets, lengths, *args, **kwargs)

    origin.submit, origin.submit_extents = submit, submit_extents
    rng = np.random.default_rng(5)
    now = 0.0
    for lba in rng.integers(0, 200_000, size=60_000).tolist():
        now = cache.submit(Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE), now)
    assert cache.srcstats.s2d_collections > 0
    assert not scalar_destages
    assert len(batches) == cache.srcstats.s2d_collections
    assert origin.stats.write_ops == sum(batches)
    assert cache.srcstats.gc_destaged_blocks >= sum(batches)
