"""Copy-forward as one batched seal, against one seal per segment.

``Reclaimer._copy_forward`` hands ``SegmentLog.seal`` every full
segment of a run at once: one install and, on a lean stack, one WRITE
extent batch per member.  The oracle is the loop it replaced — blocks
through the buffer, a seal per full buffer — on a twin stack forced
onto the full member path (``Members.submit`` per unit, as a wrapped
member would force it).  Both must agree on the end time and on
everything the stack holds afterwards.

Then what the batch must keep: a power cut at any member's unit batch
loses no acknowledged block, and a block that fails its checksum on
the victim is repaired before it moves.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.chaos.oracle import IntegrityOracle
from repro.chaos.rig import build_origin
from repro.common.chunks import run_bounds
from repro.common.errors import PowerCutError
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import FlushPoint
from repro.core.recovery import recover
from repro.core.src import SrcCache
from repro.obs.collect import collect
from repro.ssd.device import SSDDevice
from repro.tenancy import QosSpec, TenantRegistry

from _stacks import TINY_SRC, TINY_SSD, make_src
from test_write_extents import ssd_state


def per_segment(cache):
    """``_copy_forward`` as it was before it had a batch to hand down:
    each run through the buffer, one seal per full buffer."""
    def copy_forward(lbas, dirty, avail, end):
        if not lbas.shape[0]:
            return end
        for pos, stop in run_bounds(dirty[1:] != dirty[:-1]).tolist():
            to_dirty = bool(dirty[pos])
            buf = cache.dirty_buf if to_dirty else cache.clean_buf
            while pos < stop:
                take = lbas[pos:min(stop, pos + buf.capacity - len(buf))]
                cache.mapping.invalidate_many(take)
                buf.add_many(take)
                pos += take.shape[0]
                if buf.full:
                    end = max(end, cache.segments.seal(dirty=to_dirty,
                                                       now=avail))
        return end
    return copy_forward


def fill(config, oracle: bool, tenants: bool, prefill: int):
    """A stack with three groups' worth of sealed blocks (some of them
    rewritten, so the groups hold holes) and ``prefill`` blocks waiting
    in the dirty buffer; the oracle twin seals per segment on the full
    member path.  Counts the member WRITE batches of the lean twin."""
    cache = make_src(config)
    registry = None
    if tenants:
        registry = TenantRegistry(cache)
        registry.create_volume("small", 8 * MIB, QosSpec(min_share=0.3))
        registry.create_volume("big", 256 * MIB, QosSpec(min_share=0.1))
    batches = []
    if oracle:
        cache.members.seal_fast_ok = lambda: False
        cache.reclaimer._copy_forward = per_segment(cache)
    else:
        for ssd in cache.ssds:
            def submit_extents(op, offsets, *args, inner=ssd.submit_extents):
                if op is Op.WRITE:
                    batches.append(len(offsets))
                return inner(op, offsets, *args)
            ssd.submit_extents = submit_extents
    per_group = (cache.layout.segments_per_group
                 * cache.layout.dirty_segment_capacity())
    now = 0.0
    blocks = list(range(3 * per_group)) + list(range(0, 3 * per_group, 7))
    for k, lba in enumerate(blocks + list(range(10**6, 10**6 + prefill))):
        now = cache.submit(Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE),
                           now + 1e-6)
        if k == len(blocks) - 1:
            now = cache.flush_partial(now)
    assert len(cache.dirty_buf) == prefill
    return cache, registry, now, batches


def stack_state(cache, registry) -> dict:
    mapping = cache.mapping
    log = cache.segments
    return {
        "src": asdict(cache.srcstats), "cache": asdict(cache.cstats),
        "ssds": [ssd_state(s) for s in cache.ssds],
        "origin": cache.origin.stats.as_dict(),
        "tree": collect(cache),
        "mapping": sorted((lba, e.version, e.dirty, e.checksum,
                           e.location.sg, e.location.segment,
                           e.location.ssd, e.location.offset)
                          for lba, e in mapping.items()),
        "dirty_count": mapping.dirty_count,
        "logs": [mapping._sg_live_lbas(sg).tolist()
                 for sg in range(cache.layout.groups)],
        "summaries": [(s.sequence, s.sg, s.segment, s.generation, s.dirty,
                       s.with_parity, s.lbas, s.checksums, s.versions,
                       s.consistent)
                      for s in cache.metadata.all_summaries()],
        "buffers": [cache.dirty_buf.peek(), cache.clean_buf.peek()],
        "groups": [(g.state, g.next_segment, g.sequence) for g in log.groups],
        "books": (list(log._free), list(log._closed_fifo), log.active.index,
                  dict(log._group_ready)),
        "tenants": None if registry is None else (
            registry.as_dict(), registry._total_occupancy,
            registry._total_unmet_reserve),
    }


def copy_forward(cache, lbas, dirty, avail, end, ready_in=None):
    """Run one copy-forward as reclaim runs it; ``ready_in`` puts the
    next free group's reclaim I/O that far past ``avail``, so the roll
    into it waits (backpressure) inside the batch."""
    if ready_in is not None:
        cache.segments._group_ready[cache.segments._free[-1]] = (
            avail + ready_in)
    cache.reclaimer.running = True
    try:
        return cache.reclaimer._copy_forward(lbas, dirty, avail, end)
    finally:
        cache.reclaimer.running = False


def victims(cache, n: int) -> np.ndarray:
    """The first ``n`` live blocks of the closed groups, in log order."""
    lbas = np.concatenate([cache.mapping.sg_blocks_arrays(sg)[0]
                           for sg in cache.segments._closed_fifo])
    assert lbas.shape[0] >= n
    return lbas[:n]


CONFIGS = {
    "raid5": TINY_SRC,
    "raid4": replace(TINY_SRC, raid_level=4),
    "raid0": replace(TINY_SRC, raid_level=0),
    "raid5-per-segment": replace(TINY_SRC,
                                 flush_point=FlushPoint.PER_SEGMENT),
}


def twin_copy_forward(config, segments: int, runs, tenants=False,
                      prefill=0, tail=40, ready_in=None):
    """Copy ``segments`` segments' worth (the buffer's room first) plus
    ``tail`` blocks forward on both twins, ``runs`` the dirty mask's
    run lengths as fractions; returns the lean twin and its batches."""
    results = []
    for oracle in (True, False):
        cache, registry, now, batches = fill(config, oracle, tenants,
                                             prefill)
        cap = cache.dirty_buf.capacity
        n = segments * cap - prefill + tail
        lbas = victims(cache, n)
        dirty = np.ones(n, dtype=bool)
        for lo, hi in runs:
            dirty[int(lo * n):int(hi * n)] = False
        end = copy_forward(cache, lbas, dirty, now + 1e-3, now, ready_in)
        cache.mapping.check_invariants()
        if registry is not None:
            registry.check_invariants()
        results.append((end, stack_state(cache, registry), cache, batches))
    (want, oracle_state, *_), (got, batch_state, cache, batches) = results
    assert got == want
    assert batch_state == oracle_state
    return cache, batches, got - now


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("segments", [1, 2, 30])
def test_a_dirty_run_matches_the_per_segment_seals(name, segments):
    cache, batches, _ = twin_copy_forward(CONFIGS[name], segments, runs=[])
    assert cache.srcstats.segment_writes > segments
    per_segment = CONFIGS[name].flush_point is FlushPoint.PER_SEGMENT
    if segments > 1 and not per_segment:
        assert max(batches) >= 2          # units went down as batches


@pytest.mark.parametrize("name", ["raid5", "raid4", "raid0"])
def test_clean_and_dirty_runs_a_prefilled_buffer_and_a_roll_wait(name):
    """Runs alternate class (clean segments carry no parity under NPC),
    the dirty buffer already holds foreground blocks, a group boundary
    falls inside the batch and the group rolled into is still being
    reclaimed."""
    cache, batches, took = twin_copy_forward(
        CONFIGS[name], 30, runs=[(0.1, 0.3), (0.6, 0.62)], prefill=17,
        ready_in=0.25)
    assert max(batches) >= 2
    assert took > 0.25                    # the roll waited for the group


def test_a_tenant_registrys_occupancy_follows_the_batch():
    cache, *_ = twin_copy_forward(TINY_SRC, 30, runs=[(0.5, 0.7)],
                                  tenants=True, prefill=5)
    assert cache.tenants.occupancy("small") > 0


# ----------------------------------------------------------------------
# a power cut inside the batch
# ----------------------------------------------------------------------
def cut_stack(cut_at=None):
    """Lean members, the origin behind a recording injector; member
    WRITE batches of two or more units are counted (``cut_at`` = a
    ``(call, flavor)`` to cut power at) across the members, and each
    batched seal notes the victim being collected and the summary
    sequence it starts from."""
    origin = build_origin()
    ssds = [SSDDevice(TINY_SSD, name=f"tiny{i}") for i in range(4)]
    cache = SrcCache(ssds, origin, TINY_SRC)
    calls, batches = [], []
    for ssd in ssds:
        def submit_extents(op, offsets, *args, inner=ssd.submit_extents):
            if op is not Op.WRITE or len(offsets) < 2:
                return inner(op, offsets, *args)
            call = len(calls)
            calls.append(len(offsets))
            if cut_at == (call, "pre"):
                raise PowerCutError(f"cut before batch {call}")
            done = inner(op, offsets, *args)
            if cut_at == (call, "post"):
                raise PowerCutError(f"cut after batch {call}")
            return done
        ssd.submit_extents = submit_extents
    collect, seal = cache.reclaimer.collect_group, cache.segments.seal

    def collect_group(victim, *args, **kwargs):
        batches.append((victim, None))
        return collect(victim, *args, **kwargs)

    def batched_seal(dirty, now, more=None):
        if more is not None and more.shape[0]:
            batches.append((batches[-1][0], cache.metadata._sequence))
        return seal(dirty=dirty, now=now, more=more)

    cache.reclaimer.collect_group = collect_group
    cache.segments.seal = batched_seal
    return cache, origin, calls, batches


def drive_until_cut(cache, oracle, ops=20_000, seed=5):
    """Hot overwrites with the oracle fed as the chaos explorer feeds
    it; True if power was cut."""
    rng = np.random.default_rng(seed)
    now = 0.0
    try:
        for lba in rng.integers(0, 12_000, size=ops).tolist():
            oracle.note_write(lba)
            now = cache.submit(Request(Op.WRITE, lba * PAGE_SIZE,
                                       PAGE_SIZE), now) + 1e-6
            oracle.sweep_sealed(lambda b: b in cache.dirty_buf)
    except PowerCutError:
        return True
    return False


def units_written(cache, summary) -> bool:
    """Whether every unit page a summary describes is on its member."""
    layout = cache.layout
    rows = len(summary.lbas)
    base = layout.unit_offset(summary.sg, summary.segment) // PAGE_SIZE
    for k, idx in enumerate(layout.data_ssds(summary.sg, summary.segment,
                                             summary.with_parity)):
        n = min(layout.data_blocks_per_unit, rows - k
                * layout.data_blocks_per_unit)
        if n > 0 and (cache.ssds[idx].ftl.l2p[base:base + n + 2] < 0).any():
            return False
    return True


def test_a_power_cut_inside_a_batch_loses_nothing():
    """Cut before and after each member's unit batch of the first
    multi-segment copy-forward: every summary the batch wrote is torn
    until all its units are in, no sealed summary lacks a unit, the
    victim group is still whole, and recovery loses no acknowledged
    block."""
    pilot, _, calls, _ = cut_stack()
    assert pilot.members.seal_fast_ok()
    assert not drive_until_cut(pilot, IntegrityOracle())
    assert pilot.srcstats.s2s_collections > 0 and calls
    for point in [(call, flavor) for call in range(4)
                  for flavor in ("pre", "post")]:
        cache, origin, _, batches = cut_stack(point)
        oracle = IntegrityOracle()
        assert drive_until_cut(cache, oracle), point
        victim, sequence = batches[-1]
        summaries = cache.metadata.all_summaries()
        batch = [s for s in summaries if s.sequence > sequence]
        assert len(batch) >= 2 and not any(s.consistent for s in batch)
        assert any(s.sg == victim and s.consistent for s in summaries)
        for summary in summaries:
            assert not summary.consistent or units_written(cache, summary), (
                point, summary.sg, summary.segment)
        origin.disarm()
        recovered, _ = recover(list(cache.ssds), origin, cache.config,
                               cache.metadata)
        assert oracle.verify_cache(recovered) == []
        assert oracle.verify_durability([recovered],
                                        origin.written_pages) == [], point


# ----------------------------------------------------------------------
# checksums on the victim
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dirty", [True, False])
def test_a_corrupt_block_on_an_s2s_victim_is_repaired_not_laundered(dirty):
    """A victim block whose stored copy fails its checksum is
    reconstructed from its stripe (dirty: parity) or refetched (clean,
    no parity) before it is copied forward, and counted; it is not
    re-logged on its own — the copy moves it."""
    cache = make_src()
    now = 0.0
    per_group = (cache.layout.segments_per_group
                 * cache.layout.dirty_segment_capacity())
    for lba in range(2 * per_group):
        op = Op.WRITE if dirty else Op.READ
        now = cache.submit(Request(op, lba * PAGE_SIZE, PAGE_SIZE), now)
    victim = cache.segments._closed_fifo[0]
    lbas, _ = cache.mapping.sg_blocks_arrays(victim)
    block = int(lbas[len(lbas) // 2])
    cache.hotness.touch(block)              # keep a clean block: hot
    loc = cache.mapping.lookup(block).location
    ssd = cache.ssds[loc.ssd]
    ssd.inject_corruption(loc.offset, PAGE_SIZE)
    stats = cache.srcstats
    origin_reads = cache.origin.stats.read_ops
    cache.reclaimer.running = True
    cache.reclaimer.collect_group(victim, now)
    cache.reclaimer.running = False
    assert stats.s2s_collections == 1
    assert stats.corruption_repairs == 1
    assert stats.parity_reconstructions == int(dirty)
    assert cache.origin.stats.read_ops - origin_reads == int(not dirty)
    assert not ssd.corrupted_in(loc.offset, PAGE_SIZE)
    entry = cache.mapping.lookup(block)       # moved, or still buffered
    assert (entry.dirty and entry.location.sg != victim if dirty
            else block in cache.clean_buf)
    assert stats.unrecoverable_errors == 0
