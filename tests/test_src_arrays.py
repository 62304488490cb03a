"""Array-native SRC state vs the scalar oracle (PR 8, batch path).

Every flat-array primitive the batched request path leans on is held to
bit-equality against its scalar counterpart: the scalar code IS the
oracle, so a vector helper is correct exactly when a run built with it
is indistinguishable from one built one element at a time.
"""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.common.checksum import block_checksum, block_checksums_array
from repro.common.chunks import (OP_READ, ORIGIN_GC, conformant_mask,
                                 make_chunk, requests_from_chunk)
from repro.common.types import IoStats, LatencyStats, Op, Request
from repro.common.units import KIB, PAGE_SIZE
from repro.core.arrays import (B_DIRTY, B_NONE, BlockState, VersionArray,
                               grow_to)
from repro.core import segments as segments_module
from repro.core.buffers import SegmentBuffer
from repro.core.hotness import HotnessBitmap
from repro.core.layout import BlockLocation
from repro.core.mapping import CacheEntry, MappingTable
from repro.obs.recorder import ObsRecorder, attach

from _stacks import TINY_SRC, make_src


# ----------------------------------------------------------------------
# grow_to / BlockState / VersionArray
# ----------------------------------------------------------------------
def test_grow_to_preserves_prefix_and_fills_tail():
    arr = np.arange(10, dtype=np.int64)
    grown = grow_to(arr, 5000, fill=-1)
    assert grown.shape[0] >= 5000
    assert np.array_equal(grown[:10], np.arange(10))
    assert np.all(grown[10:] == -1)


def test_grow_to_zero_fill_and_noop():
    arr = np.ones(8, dtype=np.uint8)
    assert grow_to(arr, 8) is arr          # already covered: no realloc
    grown = grow_to(arr, 9)
    assert np.all(grown[8:] == 0)          # calloc path zero-fills
    # headroom: growing to n leaves slack past n so the next top LBA
    # does not force an immediate second realloc
    big = grow_to(np.zeros(1, dtype=np.int64), 100_000)
    assert big.shape[0] > 100_000


def test_block_state_get_set_clear_past_span():
    state = BlockState(initial=4)
    assert state.get(10_000) == B_NONE     # untouched span reads B_NONE
    state.ensure(10_001)[10_000] = B_DIRTY
    assert state.get(10_000) == B_DIRTY
    state.a[10_000] = B_NONE
    assert state.get(10_000) == B_NONE
    assert state.get(20_000_000) == B_NONE     # past span: no growth
    assert state.a.shape[0] < 20_000_000


def test_version_array_dict_compatible_surface():
    versions = VersionArray(initial=2)
    assert versions[123_456] == 0          # never written
    assert versions.get(123_456, 7) == 7   # version 0 doubles as absent
    assert versions.bump(123_456) == 1
    assert versions.get(123_456, 7) == 1
    versions[99] = 41
    assert versions.bump(99) == 42
    assert versions[99] == 42


# ----------------------------------------------------------------------
# HotnessBitmap: touch_many / evict_many vs scalar touch / evict
# ----------------------------------------------------------------------
def test_hotness_touch_many_matches_scalar_touch():
    rng = np.random.default_rng(5)
    lbas = rng.integers(0, 4000, size=3000)   # heavy duplication
    scalar, batched = HotnessBitmap(), HotnessBitmap()
    for lba in lbas.tolist():
        scalar.touch(lba)
    batched.touch_many(lbas)
    assert batched.references == scalar.references
    assert batched.hot_count == scalar.hot_count   # lazy recount path
    for lba in range(4000):
        assert batched.is_hot(lba) == scalar.is_hot(lba)


def test_hotness_evict_many_matches_scalar_evict():
    rng = np.random.default_rng(6)
    touched = rng.integers(0, 2000, size=1500)
    scalar, batched = HotnessBitmap(), HotnessBitmap()
    scalar.touch_many(touched)
    batched.touch_many(touched)
    # Evict a mix of hot, cold and never-grown LBAs.
    victims = np.concatenate([touched[::3], np.array([50_000, 60_000])])
    for lba in victims.tolist():
        scalar.evict(lba)
    batched.evict_many(victims)
    assert batched.hot_count == scalar.hot_count
    for lba in range(2000):
        assert batched.is_hot(lba) == scalar.is_hot(lba)


def test_hotness_interleaved_scalar_and_vector_ops():
    rng = np.random.default_rng(7)
    a, b = HotnessBitmap(), HotnessBitmap()
    for _ in range(20):
        chunk = rng.integers(0, 1000, size=40)
        for lba in chunk.tolist():
            a.touch(lba)
        b.touch_many(chunk)
        victim = int(chunk[0])
        a.clear(victim)
        b.clear(victim)
    assert a.hot_count == b.hot_count
    assert a.references == b.references


# ----------------------------------------------------------------------
# MappingTable: vector insert / invalidate_many vs scalar loops
# ----------------------------------------------------------------------
def _entry(sg, segment, ssd, offset, dirty, lba, version):
    return CacheEntry(location=BlockLocation(sg, segment, ssd, offset),
                      dirty=dirty,
                      checksum=block_checksum(lba, version),
                      version=version)


def _insert_batch(table, lbas, sg, segment, ssds, offsets, dirty,
                  checksums, versions):
    """One sealed segment's vector insert, as ``SegmentLog.install``
    makes it: membership, then payload."""
    table.insert_members(lbas, sg, dirty)
    table.insert_payload(lbas, segment, ssds, offsets, checksums, versions)


def _segment_columns(rng, n, lbas=None):
    # insert_members' contract: the caller guarantees the LBAs are
    # currently unmapped, so multi-segment tests pass disjoint pools.
    if lbas is None:
        lbas = rng.choice(200_000, size=n, replace=False).astype(np.int64)
    ssds = (np.arange(n) % 4).astype(np.int64)
    offsets = np.arange(n, dtype=np.int64) * PAGE_SIZE
    versions = rng.integers(1, 50, size=n).astype(np.int64)
    checksums = block_checksums_array(lbas, versions)
    return lbas, ssds, offsets, versions, checksums


def test_mapping_insert_batch_matches_scalar_inserts():
    rng = np.random.default_rng(8)
    scalar, batched = MappingTable(4), MappingTable(4)
    pool = rng.choice(200_000, size=3 * 248, replace=False).astype(np.int64)
    segments = [(0, 0, True), (1, 3, False), (0, 1, True)]
    for k, (sg, segment, dirty) in enumerate(segments):
        lbas, ssds, offsets, versions, checksums = _segment_columns(
            rng, 248, lbas=pool[k * 248:(k + 1) * 248])
        for i, lba in enumerate(lbas.tolist()):
            scalar.insert(lba, _entry(sg, segment, int(ssds[i]),
                                      int(offsets[i]), dirty, lba,
                                      int(versions[i])))
        _insert_batch(batched, lbas, sg, segment, ssds, offsets, dirty,
                      checksums, versions)
    assert len(batched) == len(scalar)
    assert batched.dirty_count == scalar.dirty_count
    for sg in range(4):
        assert batched.sg_valid_count(sg) == scalar.sg_valid_count(sg)
        assert batched.sg_blocks(sg) == scalar.sg_blocks(sg)  # order too
    assert (sorted(batched.items(), key=lambda kv: kv[0])
            == sorted(scalar.items(), key=lambda kv: kv[0]))
    scalar.check_invariants()
    batched.check_invariants()


def test_mapping_invalidate_many_matches_scalar_invalidates():
    rng = np.random.default_rng(9)
    scalar, batched = MappingTable(2), MappingTable(2)
    lbas, ssds, offsets, versions, checksums = _segment_columns(rng, 400)
    for table in (scalar, batched):
        _insert_batch(table, lbas, 0, 0, ssds, offsets, True, checksums,
                      versions)
    victims = lbas[::3]
    for lba in victims.tolist():
        scalar.invalidate(lba)
    batched.invalidate_many(victims)
    assert len(batched) == len(scalar)
    assert batched.dirty_count == scalar.dirty_count
    assert batched.sg_valid_count(0) == scalar.sg_valid_count(0)
    assert batched.sg_blocks(0) == scalar.sg_blocks(0)
    scalar.check_invariants()
    batched.check_invariants()


def test_mapping_invalidate_many_with_observer_preserves_order():
    rng = np.random.default_rng(10)

    class Recorder:
        def __init__(self):
            self.events = []

        def block_cached(self, lba):
            self.events.append(("cached", lba))

        def block_evicted(self, lba):
            self.events.append(("evicted", lba))

        def blocks_cached(self, lbas):
            self.events += [("cached", lba) for lba in lbas.tolist()]

        def blocks_evicted(self, lbas):
            self.events += [("evicted", lba) for lba in lbas.tolist()]

    scalar, batched = MappingTable(1), MappingTable(1)
    obs_scalar, obs_batched = Recorder(), Recorder()
    scalar.observer, batched.observer = obs_scalar, obs_batched
    lbas, ssds, offsets, versions, checksums = _segment_columns(rng, 100)
    for table in (scalar, batched):
        _insert_batch(table, lbas, 0, 0, ssds, offsets, False, checksums,
                      versions)
    victims = lbas[10:60]
    for lba in victims.tolist():
        scalar.invalidate(lba)
    batched.invalidate_many(victims)     # one blocks_evicted(victims) call
    assert obs_batched.events == obs_scalar.events


# ----------------------------------------------------------------------
# SegmentLog.install: the per-slot loop vs the vector insert
# ----------------------------------------------------------------------
# 64 KiB units hold 14 data blocks, so partial segments of every shape
# around a unit boundary stay under the loop's 32-block threshold.
SMALL_UNITS = dataclasses.replace(TINY_SRC, segment_unit=64 * KIB)


def _install(config, vector, monkeypatch, sg, segment, lbas, versions,
             dirty, with_parity, stored=None, premapped=None):
    """A fresh cache's install of one segment, per-slot loop or (with
    the threshold at 0) the vector insert; the cache and the checksums."""
    cache = make_src(config)
    if premapped is not None:     # an earlier segment holds these
        cache.segments.install(3, 1, premapped, np.ones_like(premapped),
                               True, with_parity)
    with monkeypatch.context() as m:
        if vector:
            m.setattr(segments_module, "SCALAR_THRESHOLD", 0)
        checksums = cache.segments.install(sg, segment, lbas, versions,
                                           dirty, with_parity, stored)
    return cache, checksums


def _columns(mapping, lbas):
    return ([c.tolist() for c in mapping.locations_arrays(lbas)]
            + [mapping._checksum[lbas].tolist(),
               mapping._version[lbas].tolist(), mapping._dirty[lbas].tolist(),
               [mapping._sg_live_lbas(sg).tolist()
                for sg in range(len(mapping._log))],
               len(mapping), mapping.dirty_count])


@pytest.mark.parametrize("raid_level, dirty", [(5, True), (5, False),
                                               (4, True), (0, True)])
@pytest.mark.parametrize("n", [1, 13, 14, 15, 31])
def test_install_loop_matches_insert_batch(raid_level, dirty, n, monkeypatch):
    """RAID-5 parity rotating with the segment, RAID-4 and RAID-0, NPC
    clean segments (RAID-5, clean: no parity unit)."""
    config = dataclasses.replace(SMALL_UNITS, raid_level=raid_level)
    rng = np.random.default_rng(n)
    for sg, segment in ((1, 0), (2, 1), (2, 2), (5, 3), (1, 7)):
        lbas = rng.choice(50_000, size=n, replace=False).astype(np.int64)
        versions = rng.integers(1, 9, size=n).astype(np.int64)
        with_parity = dirty and raid_level != 0     # NPC: clean has none
        loop, loop_sums = _install(config, False, monkeypatch, sg, segment,
                                   lbas, versions, dirty, with_parity)
        batch, batch_sums = _install(config, True, monkeypatch, sg, segment,
                                     lbas, versions, dirty, with_parity)
        assert loop_sums == batch_sums
        assert _columns(loop.mapping, lbas) == _columns(batch.mapping, lbas)
        loop.mapping.check_invariants()


def test_install_skips_exactly_the_slots_whose_checksum_mismatches(
        monkeypatch):
    """Recovery's ``stored`` column: a mismatching slot stays unmapped
    (or where an earlier segment put it); every other slot moves here."""
    rng = np.random.default_rng(3)
    lbas = rng.choice(50_000, size=20, replace=False).astype(np.int64)
    versions = rng.integers(1, 9, size=20).astype(np.int64)
    stored = block_checksums_array(lbas, versions)
    bad = [0, 6, 13, 14, 19]
    stored[bad] += 1
    premapped = lbas[::4].copy()             # slots 0, 4, 8, 12, 16
    runs = [_install(SMALL_UNITS, vector, monkeypatch, 2, 5, lbas, versions,
                     True, True, stored, premapped) for vector in (False, True)]
    (loop, loop_sums), (batch, batch_sums) = runs
    keep = [i for i in range(20) if i not in bad]
    assert loop_sums == batch_sums == stored[keep].tolist()
    assert _columns(loop.mapping, lbas) == _columns(batch.mapping, lbas)
    sgs = loop.mapping.locations_arrays(lbas)[0].tolist()
    assert [i for i in range(20) if sgs[i] != 2] == bad
    assert sgs[0] == 3 and sgs[6] == -1 and sgs[4] == 2


# ----------------------------------------------------------------------
# SegmentBuffer: add_many / remove_many / drain_array vs scalar
# ----------------------------------------------------------------------
def test_segment_buffer_add_many_matches_scalar_adds():
    scalar = SegmentBuffer(128, dirty=True, name="s")
    batched = SegmentBuffer(128, dirty=True, name="b")
    lbas = np.array([7, 3, 900, 41, 12, 8_000], dtype=np.int64)
    for lba in lbas.tolist():
        scalar.add(lba)
    batched.add_many(lbas)
    assert len(batched) == len(scalar)
    assert batched.peek() == scalar.peek()      # arrival order
    assert 900 in batched and 900 in scalar
    assert 901 not in batched


def test_segment_buffer_remove_many_matches_scalar_removes():
    scalar = SegmentBuffer(64, dirty=False, name="s")
    batched = SegmentBuffer(64, dirty=False, name="b")
    lbas = np.arange(0, 120, 2, dtype=np.int64)   # 60 blocks
    scalar.add_many(lbas)
    batched.add_many(lbas)
    victims = lbas[1::4]
    for lba in victims.tolist():
        assert scalar.remove(lba)
    batched.remove_many(victims)
    assert batched.peek() == scalar.peek()
    for lba in victims.tolist():
        assert lba not in batched


def test_segment_buffer_drain_array_matches_drain():
    scalar = SegmentBuffer(32, dirty=True, name="s")
    batched = SegmentBuffer(32, dirty=True, name="b")
    lbas = np.array([5, 1, 17, 4, 260], dtype=np.int64)
    scalar.add_many(lbas)
    batched.add_many(lbas)
    drained = batched.drain_array()
    assert drained.tolist() == scalar.drain()
    assert batched.empty and scalar.empty
    assert 5 not in batched


def test_segment_buffer_add_many_overfull_rejected():
    buf = SegmentBuffer(4, dirty=True, name="tiny")
    from repro.common.errors import ConfigError
    with pytest.raises(ConfigError):
        buf.add_many(np.arange(5, dtype=np.int64))


# ----------------------------------------------------------------------
# Checksums: vectorized CRC vs zlib scalar
# ----------------------------------------------------------------------
def test_block_checksums_array_matches_scalar_crc():
    rng = np.random.default_rng(11)
    lbas = np.concatenate([
        rng.integers(0, 1 << 40, size=500),
        np.array([0, 1, (1 << 63) - 1]),       # edge identities
    ]).astype(np.int64)
    versions = np.concatenate([
        rng.integers(0, 1 << 20, size=500),
        np.array([0, 1, 2]),
    ]).astype(np.int64)
    vector = block_checksums_array(lbas, versions)
    for i in range(lbas.shape[0]):
        assert int(vector[i]) == block_checksum(int(lbas[i]),
                                                int(versions[i]))
    # Columns straddling 2**32: below it the four low-half tables alone
    # (narrow), one value at or past it takes all eight (wide).
    edge = np.array([0, 1, (1 << 32) - 2, (1 << 32) - 1, 1 << 32,
                     (1 << 32) + 1, 1 << 33], dtype=np.int64)
    narrow = np.concatenate([edge[:4], rng.integers(0, 1 << 32, size=200)])
    for lbas, versions in ((narrow, narrow[::-1]), (edge, edge[::-1]),
                           (narrow, np.full_like(narrow, 1 << 32)),
                           (np.full_like(narrow, 1 << 32), narrow)):
        vector = block_checksums_array(lbas, versions)
        assert vector.tolist() == [
            zlib.crc32(lba.to_bytes(8, "little") + v.to_bytes(8, "little"))
            for lba, v in zip(lbas.tolist(), versions.tolist())]


# ----------------------------------------------------------------------
# Stats reservoirs: record_many / record_chunk vs per-row record
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 100, 5000])
def test_latency_record_many_matches_record(n):
    rng = np.random.default_rng(n)
    lats = rng.random(n) * 1e-3
    scalar, batched = LatencyStats(), LatencyStats()
    for lat in lats.tolist():
        scalar.record(lat)
    batched.record_many(lats)
    assert batched.count == scalar.count
    assert batched.total == scalar.total       # bit-exact accumulate
    assert batched.max == scalar.max
    assert batched._reservoir == scalar._reservoir


def test_latency_record_many_across_reservoir_boundary():
    rng = np.random.default_rng(12)
    seed_lats = (rng.random(4000) * 1e-3).tolist()
    scalar, batched = LatencyStats(), LatencyStats()
    for lat in seed_lats:
        scalar.record(lat)
        batched.record(lat)
    tail = rng.random(300) * 1e-3              # crosses the 4096 cap
    for lat in tail.tolist():
        scalar.record(lat)
    batched.record_many(tail)
    assert batched.count == scalar.count
    assert batched.total == scalar.total
    assert batched._reservoir == scalar._reservoir


@pytest.mark.parametrize("n", [5, 200])
def test_iostats_record_chunk_matches_record(n):
    rng = np.random.default_rng(n)
    offsets = rng.integers(0, 1000, size=n) * PAGE_SIZE
    chunk = make_chunk(offsets, PAGE_SIZE)
    chunk["op"] = rng.integers(0, 4, size=n)          # all four ops
    chunk["origin"] = rng.integers(0, 5, size=n)      # all five origins
    chunk["length"] = rng.integers(1, 65, size=n) * PAGE_SIZE
    chunk["length"][chunk["op"] == 2] = 0             # FLUSH carries no data
    scalar, batched = IoStats(), IoStats()
    for request in requests_from_chunk(chunk):
        scalar.record(request)
    batched.record_chunk(chunk["op"], chunk["length"], chunk["origin"])
    assert batched == scalar
    assert batched.bytes_by_origin == scalar.bytes_by_origin


# ----------------------------------------------------------------------
# SRC core: submit_chunk vs per-request submit, state-deep
# ----------------------------------------------------------------------
def _run_scalar(src, offsets, think):
    t, issues, dones = 0.0, [], []
    for off in offsets.tolist():
        done = src.submit(Request(Op.WRITE, off, PAGE_SIZE), t)
        issues.append(t)
        dones.append(done)
        t = done + think
    return np.array(issues), np.array(dones)


def _run_batched(src, offsets, think):
    rows = make_chunk(offsets, PAGE_SIZE)
    issues, dones = [], []
    t, done_rows, n = 0.0, 0, rows.shape[0]
    while done_rows < n:
        i, d, k = src.submit_chunk(rows[done_rows:], t, think,
                                   float("inf"), 0)
        if k:
            issues.append(i)
            dones.append(d)
            done_rows += k
            t = float(d[-1]) + think
        else:   # declined head row: scalar oracle serves it
            off = int(rows[done_rows]["offset"])
            done = src.submit(Request(Op.WRITE, off, PAGE_SIZE), t)
            issues.append(np.array([t]))
            dones.append(np.array([done]))
            done_rows += 1
            t = done + think
    return np.concatenate(issues), np.concatenate(dones)


def _assert_src_state_equal(a, b):
    assert a.cstats.as_dict() == b.cstats.as_dict()
    assert a.srcstats.as_dict() == b.srcstats.as_dict()
    assert a.stats == b.stats
    for x, y in zip(a.ssds, b.ssds):
        assert x.stats == y.stats
    assert a.origin.stats == b.origin.stats
    assert (sorted(a.mapping.items(), key=lambda kv: kv[0])
            == sorted(b.mapping.items(), key=lambda kv: kv[0]))
    assert a.dirty_buf.peek() == b.dirty_buf.peek()
    assert a.clean_buf.peek() == b.clean_buf.peek()
    assert a.hotness.hot_count == b.hotness.hot_count
    assert a.hotness.references == b.hotness.references


@pytest.mark.parametrize("think,n", [(0.0, 20000), (0.005, 2500)])
def test_src_submit_chunk_bit_identical_to_submit(think, n):
    rng = np.random.default_rng(13)
    scalar_src, batched_src = make_src(), make_src()
    span = min(scalar_src.size, 4 * scalar_src.config.cache_space)
    offsets = rng.integers(0, span // PAGE_SIZE, size=n) * PAGE_SIZE
    i_s, d_s = _run_scalar(scalar_src, offsets, think)
    i_b, d_b = _run_batched(batched_src, offsets, think)
    assert np.array_equal(i_s, i_b)
    assert np.array_equal(d_s, d_b)
    _assert_src_state_equal(scalar_src, batched_src)
    stats = scalar_src.srcstats
    if think == 0.0:     # saturated run must actually exercise GC
        assert stats.s2s_collections + stats.s2d_collections > 0
    else:                # paced run must actually fire TWAIT flushes
        assert stats.timeout_flushes > 0
    assert stats.segment_writes > 0


def test_src_submit_chunk_declines_a_nonvector_head():
    src = make_src()
    rows = make_chunk(np.arange(64) * PAGE_SIZE, PAGE_SIZE)
    rows["op"][0] = 0      # READ head: not vectorizable, still FG
    _, _, n = src.submit_chunk(rows, 0.0, 0.0, float("inf"), 0)
    assert n == 0          # the engine's per-request body serves it
    assert src.stats.read_ops == 0
    assert src.window.paths()["declined.nonconformant_head"] == 1


def test_src_submit_chunk_declines_background_origin_head():
    src = make_src()
    rows = make_chunk(np.array([0]), PAGE_SIZE, origin=1)   # ORIGIN_GC
    _, _, n = src.submit_chunk(rows, 0.0, 0.0, float("inf"), 0)
    assert n == 0          # background rows go through the engine


def test_src_submit_chunk_declines_while_observer_attached():
    src = make_src()
    src.mapping.observer = object()    # tenancy-style hook closes the gate
    rows = make_chunk(np.array([0]), PAGE_SIZE)
    _, _, n = src.submit_chunk(rows, 0.0, 0.0, float("inf"), 0)
    assert n == 0
    assert src.window.paths()["declined.foreign_observer"] == 1
    src.mapping.observer = None
    _, _, n = src.submit_chunk(rows, 0.0, -1.0, float("inf"), 0)
    assert n == 0
    _, _, n = src.submit_chunk(rows, 0.0, 0.0, 1e-9, 0)
    assert n == 0
    assert src.window.paths() == {
        "vector_rows": 0, "boundary_rows": 0,
        "twait_scans": 0, "refusal_scans": 0,
        "declined.foreign_observer": 1, "declined.negative_think": 1,
        "declined.tiny_horizon": 1}


@pytest.mark.parametrize("think,n", [(0.0, 12000), (0.005, 2000)])
def test_src_obs_telemetry_bit_identical_between_modes(think, n):
    """With a live ObsRecorder the chunk gate stays open (the bulk
    telemetry paths reproduce the scalar hooks), so the batched run
    must yield the *identical* telemetry tree: every histogram's
    count/total/extrema/bins, every event with its timestamp, every
    gauge — not just the same I/O times."""
    runs = {}
    for batched in (False, True):
        recorder = ObsRecorder()
        src = attach(make_src(), recorder)
        assert not src.window.closed_clause(think), "obs recorder closed the gate"
        rng = np.random.default_rng(17)
        span = min(src.size, 4 * src.config.cache_space)
        offsets = rng.integers(0, span // PAGE_SIZE, size=n) * PAGE_SIZE
        drive = _run_batched if batched else _run_scalar
        issue_t, done_t = drive(src, offsets, think)
        runs[batched] = (recorder, src, issue_t, done_t)
    rec_s, src_s, i_s, d_s = runs[False]
    rec_b, src_b, i_b, d_b = runs[True]
    assert np.array_equal(i_s, i_b)
    assert np.array_equal(d_s, d_b)
    _assert_src_state_equal(src_s, src_b)
    # Full telemetry tree, events included (timestamps and all).
    assert rec_b.telemetry(include_events=True) == \
        rec_s.telemetry(include_events=True)
    assert rec_b.trace.counts() == rec_s.trace.counts()
    assert len(rec_b.trace) == len(rec_s.trace) > 0
    # Histogram internals, beyond the as_dict round-trip: the bulk
    # record_many path must leave bit-exact accumulator state.
    assert set(rec_b._latency) == set(rec_s._latency)
    for name, hist_s in rec_s._latency.items():
        hist_b = rec_b._latency[name]
        assert hist_b.count == hist_s.count
        assert hist_b.total == hist_s.total      # np.add.accumulate order
        assert hist_b.max == hist_s.max
        assert hist_b.min == hist_s.min
        assert hist_b._bins == hist_s._bins
    src_hist = rec_b.device_latency(src_b.name)
    assert src_hist is not None and src_hist.count == n
    # What differs between the modes is kept out of telemetry(): the
    # recorder's path ledger, summed per device name.
    assert rec_b.paths() == {src_b.name: src_b.window.paths()}
    assert rec_b.paths()[src_b.name]["vector_rows"] > 0.9 * n
    assert rec_s.paths()[src_s.name]["vector_rows"] == 0


def test_src_obs_chunk_gate_closes_for_non_obsrecorder():
    """Only the known-bulk-capable recorder keeps the gate open; any
    other enabled recorder type falls back to the scalar path."""

    class CustomRecorder(ObsRecorder):
        pass

    src = attach(make_src(), CustomRecorder())
    rows = make_chunk(np.array([0]), PAGE_SIZE)
    _, _, n = src.submit_chunk(rows, 0.0, 0.0, float("inf"), 0)
    assert n == 0
    assert src.window.paths()["declined.foreign_recorder"] == 1


def test_src_submit_chunk_respects_limit_and_deadline():
    src_a, src_b = make_src(), make_src()
    offsets = (np.arange(64, dtype=np.int64) * PAGE_SIZE)
    rows = make_chunk(offsets, PAGE_SIZE)
    _, _, n = src_a.submit_chunk(rows, 0.0, 0.0, float("inf"), 10)
    assert 0 < n <= 10
    # A deadline at the start time admits at most the head row (the
    # scalar loop would issue the head request before noticing).
    i_t, d_t, n = src_b.submit_chunk(rows, 5.0, 0.0, 5.0, 0)
    assert n <= 1


# ----------------------------------------------------------------------
# the one conformity predicate
# ----------------------------------------------------------------------
def test_conformant_mask_each_clause():
    size = 64 * PAGE_SIZE
    rows = make_chunk(np.full(8, 8 * PAGE_SIZE), PAGE_SIZE)
    rows["op"][1] = OP_READ
    rows["length"][2] = 2 * PAGE_SIZE
    rows["origin"][3] = ORIGIN_GC
    rows["tenant"][4] = 0
    rows["offset"][5] = -PAGE_SIZE
    rows["offset"][6] = 8 * PAGE_SIZE + 512
    rows["offset"][7] = size            # first byte past the device
    assert conformant_mask(rows, size).tolist() == [True] + [False] * 7
    rows["offset"][7] = size - PAGE_SIZE    # last page: in range
    assert conformant_mask(rows, size)[7]
