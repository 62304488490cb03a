"""``submit_extents``: the SSD's READ and WRITE batches against the
loop, and ``Members.issue`` / ``Reclaimer.victim_read`` on top of it.

``BlockDevice._submit_each`` (the loop over ``submit``) is the
oracle.  Twin aged ``SSDDevice``s take the same batches, one through
the body and one through the loop called unbound, and must agree
on every completion time and every piece of device state — the FTL's
maps included, since a write moves them.  One level up the oracle is
the same stack with ``Members``' lean gate forced closed: one
``Members.submit`` per span.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.block.device import BlockDevice
from repro.common.errors import AddressError, DeviceFailedError
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.ssd.device import SSDDevice

from _stacks import ODD_SSD, TINY_DISK, TINY_SRC, TINY_SSD, make_src
from test_write_extents import ftl_state

UNIT = 256 * KIB
OPS = [Op.READ, Op.WRITE]


def build(spec=TINY_SSD, observed: bool = False):
    """An SSD in a state no fresh drive has: a 10 MiB burst of writes
    backed up behind the 4 MiB buffer, all 32 command slots taken, the
    outbound link busy with foreground reads, and corruption seeded in
    written and unwritten pages."""
    ssd = SSDDevice(spec)
    recorder = obs.ObsRecorder() if observed else None
    if observed:
        obs.attach(ssd, recorder)
    for i in range(40):
        ssd.write(i * UNIT, UNIT, 0.0)
    for i in range(40):
        ssd.read(i * 2 * PAGE_SIZE, PAGE_SIZE, 0.0)
    ssd.inject_corruption(3 * UNIT + 5 * PAGE_SIZE, 3 * PAGE_SIZE)
    ssd.inject_corruption(50 * UNIT, PAGE_SIZE)
    assert ssd.outstanding(1e-3) == spec.queue_depth == 32
    assert ssd.nand.drain_time() > 0.02
    assert ssd.read_link.drain_time() > 1e-3
    return ssd, recorder


def timeline_state(line) -> tuple:
    return list(line._free), line.busy_time


def ssd_state(ssd: SSDDevice) -> dict:
    return {"stats": ssd.stats.as_dict(), "queue": ssd.qstats.as_dict(),
            "inflight": sorted(ssd._inflight),
            "nand": timeline_state(ssd.nand),
            "nand_reads": timeline_state(ssd.nand_reads),
            "read_link": (ssd.read_link.bytes_moved,
                          timeline_state(ssd.read_link._timeline)),
            "link": (ssd.link.bytes_moved,
                     timeline_state(ssd.link._timeline)),
            "corrupted": sorted(ssd._corrupted_pages),
            "ftl": ftl_state(ssd.ftl)}


def columns(extents):
    offs = np.array([o for o, _ in extents], dtype=np.int64)
    lens = np.array([n for _, n in extents], dtype=np.int64)
    return offs, lens


offsets = st.integers(0, (TINY_SSD.capacity - UNIT) // 512).map(
    lambda s: s * 512)
# READ: single pages, multi-page spans, unaligned sectors and the
# zero-length command; batches long enough to run past the 32 slots.
read_extent = st.tuples(offsets, st.one_of(
    st.sampled_from([PAGE_SIZE, PAGE_SIZE, 2 * PAGE_SIZE, 16 * PAGE_SIZE,
                     UNIT, 512, 0]),
    st.integers(1, 8 * PAGE_SIZE)))
read_batch = st.one_of(st.lists(read_extent, max_size=6),
                       st.lists(st.tuples(offsets, st.just(PAGE_SIZE)),
                                min_size=30, max_size=90),
                       st.lists(read_extent, max_size=90))
# WRITE: scattered extents, or unit-shaped ones — ascending, back to
# back, over a range TRIMmed first.  Either op is issued at one now, as
# a rising column, or "tied": each extent exactly at a queued
# completion time, whose slot it takes without waiting.
scattered = st.lists(st.tuples(offsets, st.one_of(
    st.sampled_from([PAGE_SIZE, UNIT, 3 * PAGE_SIZE, 512]),
    st.integers(1, 16 * PAGE_SIZE))), min_size=1, max_size=40)
contiguous = st.tuples(st.integers(0, 200).map(lambda u: u * UNIT),
                       st.lists(st.sampled_from([UNIT, UNIT, 3 * PAGE_SIZE]),
                                min_size=2, max_size=40))
TIMINGS = st.sampled_from(["now", "column", "tied"])
STEPS = {
    Op.READ: st.lists(st.tuples(
        read_batch, st.floats(0.0, 0.05), TIMINGS,
        st.sampled_from([IoOrigin.GC, IoOrigin.DESTAGE,
                         IoOrigin.FOREGROUND])), min_size=1, max_size=4),
    Op.WRITE: st.lists(st.tuples(
        st.one_of(scattered, contiguous), st.floats(0.0, 0.05),
        TIMINGS, st.sampled_from([IoOrigin.GC, IoOrigin.FOREGROUND])),
        min_size=1, max_size=3),
}


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), observed=st.booleans())
def test_override_matches_the_loop(op, data, observed):
    fast, fast_rec = build(observed=observed)
    loop, loop_rec = build(observed=observed)
    for shape, now, timing, origin in data.draw(STEPS[op]):
        if isinstance(shape, tuple):            # unit-shaped
            base, sizes = shape
            extents = list(zip(base + np.cumsum([0] + sizes[:-1]), sizes))
            for ssd in (fast, loop):
                ssd.trim(base, sum(sizes), now)
        else:
            extents = shape
        offs, lens = columns(extents)
        if timing == "tied":
            nows = np.resize(sorted(fast._inflight) or [now], len(extents))
        elif timing == "column":
            nows = now + np.linspace(0.0, 2e-3, len(extents))
        else:
            nows = now
        got = fast.submit_extents(op, offs, lens, nows, origin)
        want = BlockDevice._submit_each(loop, op, offs, lens, nows, origin)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert ssd_state(fast) == ssd_state(loop)
        # Ordinary traffic between batches sees the same device.
        assert fast.write(UNIT, PAGE_SIZE, now) == loop.write(
            UNIT, PAGE_SIZE, now)
        assert fast.read(0, PAGE_SIZE, now) == loop.read(0, PAGE_SIZE, now)
    assert ssd_state(fast) == ssd_state(loop)
    if observed:
        assert fast_rec.telemetry() == loop_rec.telemetry()


@pytest.mark.parametrize("origin", [IoOrigin.GC, IoOrigin.DESTAGE,
                                    IoOrigin.FOREGROUND])
def test_a_victims_worth_of_spans(origin):
    """The shape reclaim sends: ~270 sorted spans at one ``now``, so all
    but the first few begin at an earlier span's completion."""
    rng = np.random.default_rng(3)
    pages = np.sort(rng.choice(8_000, size=270, replace=False))
    offs, lens = pages * 2 * PAGE_SIZE, rng.integers(1, 4, 270) * PAGE_SIZE
    fast, _ = build()
    loop, _ = build()
    before = fast.qstats.queued_ops
    got = fast.submit_extents(Op.READ, offs, lens, 0.04, origin)
    want = BlockDevice._submit_each(loop, Op.READ, offs, lens, 0.04,
                                    origin)
    assert got.tolist() == want.tolist()
    assert ssd_state(fast) == ssd_state(loop)
    assert fast.qstats.queued_ops - before > 200
    assert fast.stats.bytes_by_origin[origin.value] >= int(lens.sum())


def test_a_members_units_at_one_now():
    """The shape copy-forward sends: ~30 full units back to back into a
    TRIMmed group, all issued at one ``now`` — queue-full admission
    from the first, the buffer's backlog holding every ack back, and
    the corruption seeded in the range scrubbed by the overwrites."""
    fast, _ = build()
    loop, _ = build()
    base = 48 * UNIT
    offs = base + np.arange(30) * UNIT
    lens = np.full(30, UNIT)
    for ssd in (fast, loop):
        ssd.trim(base, 30 * UNIT, 0.0)
    before = fast.qstats.queued_ops
    got = fast.submit_extents(Op.WRITE, offs, lens, 1e-3, IoOrigin.GC)
    want = BlockDevice._submit_each(loop, Op.WRITE, offs, lens, 1e-3,
                                    IoOrigin.GC)
    assert got.tolist() == want.tolist()
    assert ssd_state(fast) == ssd_state(loop)
    assert fast.qstats.queued_ops - before == 30
    assert not fast._corrupted_pages & set(range(48 * 64, 78 * 64))


@pytest.mark.parametrize("op", [Op.WRITE, Op.TRIM])
def test_other_ops_take_the_loop(op):
    fast, _ = build()
    loop, _ = build()
    offs, lens = columns([(0, PAGE_SIZE), (UNIT - 512, 2 * PAGE_SIZE)])
    got = fast.submit_extents(op, offs, lens, 0.2, IoOrigin.GC)
    want = [loop.submit(Request(op, int(o), int(n), origin=IoOrigin.GC), 0.2)
            for o, n in zip(offs, lens)]
    assert got.tolist() == want
    assert ssd_state(fast) == ssd_state(loop)


@pytest.mark.parametrize("spec,last,error,match", [
    (TINY_SSD, (TINY_SSD.capacity - PAGE_SIZE, 2 * PAGE_SIZE),
     AddressError, "beyond device size"),
    (TINY_SSD, (PAGE_SIZE, -1), ValueError, "negative"),
    # Inside the device, past the FTL's last whole page.
    (ODD_SSD, (64 * MIB, 2 * KIB), AddressError, "beyond logical space"),
])
def test_a_bad_last_extent_leaves_the_device_untouched(spec, last, error,
                                                       match):
    bad_last_extent(Op.READ, spec, last, error, match)


def bad_last_extent(op, spec, last, error, match) -> None:
    """A batch whose last extent is bad raises before the first extent
    touches the device (the WRITE case is in test_write_extents.py)."""
    ssd, _ = build(spec)
    before = ssd_state(ssd)
    offs, lens = columns([(0, PAGE_SIZE), (5 * UNIT, 3 * PAGE_SIZE), last])
    with pytest.raises(error, match=match):
        ssd.submit_extents(op, offs, lens, 0.5, IoOrigin.GC)
    assert ssd_state(ssd) == before


@pytest.mark.parametrize("op", OPS)
def test_a_failed_device_raises_and_is_left_untouched(op):
    ssd, _ = build()
    ssd.fail()
    before = ssd_state(ssd)
    offs, lens = columns([(0, PAGE_SIZE), (5 * UNIT, 3 * PAGE_SIZE)])
    with pytest.raises(DeviceFailedError, match=ssd.name):
        ssd.submit_extents(op, offs, lens, 0.5, IoOrigin.GC)
    assert ssd_state(ssd) == before


# ----------------------------------------------------------------------
# Members.issue / Reclaimer.victim_read
# ----------------------------------------------------------------------
def close_gate(cache) -> None:
    """``Members.issue``'s resilient branch whatever the members are:
    one ``Members.submit`` per extent."""
    cache.members.seal_fast_ok = lambda: False


def drive(cache, blocks=20_000, span=12_000, seed=5) -> float:
    """Hot 4 KiB overwrites: past the first S2S victims in ~0.2 s."""
    now = 0.0
    rng = np.random.default_rng(seed)
    for lba in rng.integers(0, span, size=blocks).tolist():
        now = cache.submit(Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE), now)
    return now


def stack_state(cache) -> dict:
    return {"src": asdict(cache.srcstats), "cache": asdict(cache.cstats),
            "failed": [bool(getattr(s, "failed", False)) for s in cache.ssds],
            "ssds": [ssd_state(getattr(s, "lower", s)) for s in cache.ssds],
            "origin": cache.origin.stats.as_dict()}


@pytest.mark.parametrize("observed", [False, True],
                         ids=["lean", "telemetry"])
def test_collections_match_the_per_span_loop(observed):
    """Same simulated outcome whether the victim reads go down as a
    batch or one at a time; with a recorder attached (which keeps the
    per-request path) the telemetry is the same too."""
    twins, recorders, ends = [], [], []
    for oracle in (False, True):
        cache = make_src()
        recorder = obs.ObsRecorder() if observed else None
        if observed:
            obs.attach(cache, recorder)
        if oracle:
            close_gate(cache)
        assert cache.members.seal_fast_ok() is not (observed or oracle)
        ends.append(drive(cache))
        twins.append(cache)
        recorders.append(recorder)
    assert twins[0].srcstats.s2s_collections > 0
    assert ends[0] == ends[1]
    assert stack_state(twins[0]) == stack_state(twins[1])
    if observed:
        assert recorders[0].telemetry() == recorders[1].telemetry()


def faulty_stack(oracle: bool):
    """Member 1 behind an injector: errors on everything for 100 us
    from t=5 (the first backoff lands each retry outside), and from t=6
    for good (the retry budget runs out)."""
    plan = (FaultPlan().transient_window(5.0, 5.0001, 1.0)
            .transient_window(6.0, 1e9, 1.0))
    ssds = [SSDDevice(TINY_SSD, name=f"t{i}") for i in range(4)]
    ssds[1] = FaultInjector(ssds[1], plan, name="fault1")
    cache = SrcCache(ssds, PrimaryStorage(n_disks=4, disk_spec=TINY_DISK),
                     TINY_SRC)
    if oracle:
        close_gate(cache)
    assert drive(cache, blocks=4_000) < 5.0
    return cache


def test_a_wrapped_member_takes_reclaim_reads_per_span():
    """Retry, give-up and fail-stop conversion act on single requests,
    so an injector-wrapped member keeps the per-span path."""
    fast, loop = faulty_stack(oracle=False), faulty_stack(oracle=True)
    assert not fast.members.seal_fast_ok()
    victim = fast.segments._closed_fifo[0]
    lbas, _ = fast.mapping.sg_blocks_arrays(victim)
    assert lbas.shape[0] > 100
    for now in (5.0, 6.0):
        ends = [c.reclaimer.victim_read(lbas, now, IoOrigin.GC)
                for c in (fast, loop)]
        assert ends[0] == ends[1] > now
        assert stack_state(fast) == stack_state(loop)
        if now == 5.0:
            assert fast.srcstats.retries > 0
            assert fast.srcstats.failstop_conversions == 0
    assert fast.srcstats.retry_give_ups >= 1
    assert fast.srcstats.failstop_conversions == 1
    assert [s.failed for s in fast.ssds] == [False, True, False, False]


def test_a_member_dying_under_the_batch_is_converted():
    """A member raising ``DeviceFailedError`` under its lean batch is
    converted to fail-stop and its commands complete as None, as
    ``submit`` does it; a member already dead is skipped, no I/O."""
    cache = make_src()
    drive(cache, blocks=4_000)
    members, ssd = cache.members, cache.ssds[2]

    def dies(*_args):
        raise DeviceFailedError(ssd.name)

    def reads(idx):
        return [(idx, offset, PAGE_SIZE, 1.0) for offset in (0, UNIT)]

    ssd.submit_extents = dies
    assert members.seal_fast_ok()
    assert members.issue(Op.READ, reads(2), IoOrigin.GC) == [None, None]
    assert ssd.failed and cache.srcstats.failstop_conversions == 1
    assert cache.repair.missing_members() == 1
    ssd.submit_extents = None                   # skipped: never called
    assert members.issue(Op.READ, reads(2), IoOrigin.GC) == [None, None]
    assert cache.srcstats.failstop_conversions == 1
    assert min(members.issue(Op.READ, reads(0), IoOrigin.GC)) > 1.0


def test_victim_reads_enter_each_ssd_as_a_batch():
    """A count, not a clock: past its first S2S victims a lean stack
    sends no GC READ through any member's ``submit`` (wrapped on the
    instance, as bench/spans.py wraps it, so a regrown per-span loop is
    seen) while ``read_ops`` advances by the span count."""
    cache = make_src()
    gc_reads, spans = [], []
    for ssd in cache.ssds:
        def submit(req, now, inner=ssd.submit):
            if req.op is Op.READ and req.origin is IoOrigin.GC:
                gc_reads.append(req)
            return inner(req, now)

        def submit_extents(op, offsets, *args, inner=ssd.submit_extents):
            if op is Op.READ:       # copy-forward unit writes batch too
                spans.append(len(offsets))
            return inner(op, offsets, *args)

        ssd.submit, ssd.submit_extents = submit, submit_extents
    drive(cache)
    assert cache.srcstats.s2s_collections > 0
    assert not gc_reads
    assert sum(spans) > 10 * len(spans)           # many spans per call
    assert sum(s.stats.read_ops for s in cache.ssds) == sum(spans)
