"""``submit_extents``: the HDD stack's batch bodies against the loop.

``BlockDevice._submit_each`` (the loop over ``submit``) is the
oracle.  Twin ``PrimaryStorage`` stacks take the same batches, one
through the bodies and one through the loop called unbound, and
must agree on every completion time and every piece of device state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.block.device import BlockDevice, StatsDevice
from repro.common.errors import AddressError, ConfigError, PowerCutError
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import GIB, KIB, MIB, PAGE_SIZE
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskDevice, DiskSpec
from repro.raid.array import Raid1Device

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
            "recent": list(disk._recent),
            "recent_sorted": list(disk._recent_sorted),
            "inflight": sorted(disk._inflight)}


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
        want = BlockDevice._submit_each(loop, Op.WRITE, offs, lens, now,
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
    want = BlockDevice._submit_each(loop, Op.WRITE, offs, lens, 0.01,
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
        want = BlockDevice._submit_each(level(loop), Op.WRITE, offs, lens,
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


def test_wrapped_disks_take_the_loop_by_dispatch(monkeypatch):
    """Members with no batch body of their own send the array to its
    loop: each tapped mirror sees exactly the tagged sub-requests the
    scalar array sends it, in the same order."""
    offs, lens = columns([(CHUNK - 512, PAGE_SIZE), (7 * CHUNK, 0),
                          (2 * CHUNK + 512, 3 * CHUNK), (9 * CHUNK, CHUNK)])
    tenants, nows = ["a", "b", None, "a"], np.array([0.0, 0.1, 0.1, 0.3])
    logs, dones = [], []
    calls = counting_loop(monkeypatch)
    for submit in (Raid1Device.submit_extents, ORACLE):
        log = []
        array = Raid1Device([Tap(DiskDevice(DISK, name=f"d{i}"), log)
                             for i in range(4)], CHUNK)
        dones.append(submit(array, Op.WRITE, offs, lens, nows,
                            IoOrigin.DESTAGE, tenants).tolist())
        logs.append([[row for row in log if row[0] == f"d{i}"]
                     for i in range(4)])
    assert calls == ["raid1"]
    assert dones[0] == dones[1]
    assert logs[0] == logs[1]
    assert all(logs[0])


def test_a_degraded_origin_declines_to_the_loop(monkeypatch):
    """One disk down: a destage batch takes the array's loop, which
    writes the surviving half of pair 0, and lands every float and
    every piece of state the loop does."""
    fast, _ = build()
    loop, _ = build()
    for origin in (fast, loop):
        origin.disks[0].fail()
    untouched = disk_state(fast.disks[0])
    offs, lens = columns([(i * 5 * CHUNK + 512, (1 + i % 3) * PAGE_SIZE)
                          for i in range(24)])
    calls = counting_loop(monkeypatch)
    got = fast.submit_extents(Op.WRITE, offs, lens, 0.1, IoOrigin.DESTAGE)
    want = ORACLE(loop, Op.WRITE, offs, lens, 0.1, IoOrigin.DESTAGE)
    assert calls == [fast.array.name]
    assert got.tolist() == want.tolist()
    assert state(fast) == state(loop)
    assert disk_state(fast.disks[0]) == untouched


def test_a_faulty_member_takes_the_loop_and_its_retries(monkeypatch):
    """A disk behind a fault injector has no batch body: the array
    declines, and its loop retries the injector's transient errors as
    the per-request path does."""
    def faulty(origin):
        origin.array.members[2] = FaultInjector(
            origin.disks[2], FaultPlan(seed=3).transient_window(
                0.0, 1.0, 0.3), name="f2")
        return origin
    fast, loop = faulty(build()[0]), faulty(build()[0])
    offs, lens = columns([(i * CHUNK, PAGE_SIZE) for i in range(40)])
    calls = counting_loop(monkeypatch)
    got = fast.submit_extents(Op.WRITE, offs, lens, 0.1, IoOrigin.DESTAGE)
    want = [loop.submit(Request(Op.WRITE, int(o), int(n),
                                origin=IoOrigin.DESTAGE), 0.1)
            for o, n in zip(offs, lens)]
    assert calls == [fast.array.name]
    assert got.tolist() == want
    assert fast.array.member_retries == loop.array.member_retries > 0
    for a, b in zip(fast.disks, loop.disks):
        a, b = getattr(a, "lower", a), getattr(b, "lower", b)
        assert disk_state(a) == disk_state(b)


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


# -- one disk: the arm scan and queue columns against the loop ---------

ORACLE = BlockDevice._submit_each     # before any test patches it


def primed_disk(spec: DiskSpec = DISK) -> DiskDevice:
    """A disk whose queue is full at 0.0 and whose recent positions
    are half filled, so the batch starts from a state the loop left."""
    disk = DiskDevice(spec, name="d")
    for i in range(40):
        disk.write((i % 16) * 97 * MIB, PAGE_SIZE, 0.0)
    return disk


def scan_shapes():
    far = np.arange(2000, dtype=np.int64) * 3 * MIB
    near = far[:200] // 3 // MIB * 8 * KIB          # 8 KiB apart
    blocks = np.repeat(np.arange(20) * 0.5, 50)      # 50 at each now
    return {
        # 2,000 far pieces at one now: the arm never idles.
        "never-idle": (far, np.full(2000, PAGE_SIZE), 0.0),
        # Each piece issued after the one before it completes.
        "always-idle": (far[:300], np.full(300, CHUNK),
                        0.1 + np.arange(300) * 0.01),
        # Backlogged blocks of 50 far pieces, the arm idle between.
        "blocks": (far[:1000], np.full(1000, PAGE_SIZE), blocks),
        # Zero-length pieces, near and far, among 4 KiB ones.
        "zero-length": (np.concatenate((near, far[:200])),
                        np.tile([0, PAGE_SIZE, 0, 0], 100),
                        np.linspace(0.0, 0.3, 400)),
        # Near zero-length pieces on an idle arm: each completes at its
        # issue time, the time the next one pops it.
        "zero-time": (near[:100] + PAGE_SIZE, np.zeros(100, np.int64), 1.0),
    }


def run_twins(fast: DiskDevice, loop: DiskDevice, offs, lens, nows):
    got = fast.submit_extents(Op.WRITE, offs, lens, nows, IoOrigin.DESTAGE)
    want = ORACLE(loop, Op.WRITE, offs, lens, nows, IoOrigin.DESTAGE)
    assert got.tobytes() == want.tobytes()
    assert disk_state(fast) == disk_state(loop)


def refuse_the_loop(monkeypatch):
    def loop(*args, **kwargs):
        raise AssertionError("took the per-extent loop")
    monkeypatch.setattr(BlockDevice, "_submit_each", loop)


@pytest.mark.parametrize("shape", sorted(scan_shapes()))
@pytest.mark.parametrize("depth", [32, 0])
def test_disk_batches_take_the_scan(shape, depth, monkeypatch):
    offs, lens, nows = scan_shapes()[shape]
    spec = DiskSpec(capacity=8 * GIB, queue_depth=depth)
    fast, loop = primed_disk(spec), primed_disk(spec)
    refuse_the_loop(monkeypatch)
    run_twins(fast, loop, offs, lens, nows)
    if depth and shape == "never-idle":
        assert fast.qstats.queued_ops >= 1900


def test_an_issue_time_tied_to_a_completion_frees_its_slot(monkeypatch):
    """A piece issued exactly when an in-flight one completes takes
    its slot without waiting, as ``_admit`` pops ``<= now``."""
    fast, loop = primed_disk(), primed_disk()
    nows = np.array(sorted(fast._inflight))
    offs = np.arange(nows.shape[0], dtype=np.int64) * 3 * MIB
    refuse_the_loop(monkeypatch)
    run_twins(fast, loop, offs, np.full(nows.shape[0], PAGE_SIZE), nows)


def counting_loop(monkeypatch) -> list:
    calls = []

    def loop(self, *args, **kwargs):
        calls.append(self.name)
        return ORACLE(self, *args, **kwargs)
    monkeypatch.setattr(BlockDevice, "_submit_each", loop)
    return calls


def test_a_trim_in_flight_past_the_arm_takes_the_loop(monkeypatch):
    fast, loop = primed_disk(), primed_disk()
    for disk in (fast, loop):
        disk.trim(0, PAGE_SIZE, 5.0)
    assert max(fast._inflight) > fast.arm._free[0]
    offs, lens, nows = scan_shapes()["blocks"]
    calls = counting_loop(monkeypatch)
    run_twins(fast, loop, offs, lens, nows)
    assert calls == ["d"]


def test_telemetry_takes_the_loop(monkeypatch):
    fast, loop = primed_disk(), primed_disk()
    recorders = [obs.ObsRecorder(), obs.ObsRecorder()]
    for disk, recorder in zip((fast, loop), recorders):
        obs.attach(disk, recorder)
    offs, lens, nows = scan_shapes()["zero-length"]
    calls = counting_loop(monkeypatch)
    run_twins(fast, loop, offs, lens, nows)
    assert calls == ["d"]
    assert recorders[0].telemetry() == recorders[1].telemetry()
    assert histograms(recorders[0]) == histograms(recorders[1])


@settings(max_examples=150, deadline=None)
@given(extents=st.lists(st.tuples(offsets, lengths), min_size=1,
                        max_size=80).map(lambda rows: [
                            (o % (DISK.capacity - 4 * MIB), n)
                            for o, n in rows]),
       spacing=st.sampled_from([0.0, 1e-4, 3e-3, 0.02]),
       shuffled=st.booleans(), depth=st.sampled_from([0, 1, 3, 32]))
def test_disk_scan_matches_the_loop(extents, spacing, shuffled, depth):
    """Any batch a disk can take by the scan: column ``nows`` ascending
    or not, queues from unbounded to one slot."""
    offs, lens = columns(extents)
    nows = 0.001 + np.arange(len(extents)) * spacing
    if shuffled:
        nows = np.random.default_rng(len(extents)).permutation(nows)
    spec = DiskSpec(capacity=8 * GIB, queue_depth=depth)
    run_twins(primed_disk(spec), primed_disk(spec), offs, lens, nows)


def test_recent_positions_below_one_is_refused():
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="recent_positions"):
            DiskSpec(recent_positions=bad)
