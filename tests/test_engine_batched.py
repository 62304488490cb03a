"""Batched engine loop vs the scalar oracle, end to end (PR 8).

Every test runs the *same* chunked workload twice — once through the
batched loop (``issue_chunk`` wired to the target's ``submit_chunk``)
and once through the scalar loop (same ``ChunkStream`` sources, rows
materialized one ``Request`` at a time) — and requires the two runs to
be bit-identical: engine results, cache counters, mapping contents,
buffer order, device stats.  The scalar path is the oracle; the batch
path exists only as a faster spelling of it.

Also hosts the streaming-generator audit (satellite 3): workload
sources must be constant-memory iterators.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import IntegrityOracle
from repro.chaos.rig import LBA_SPAN, build_origin, build_shard
from repro.cluster import ClusterConfig, ShardRouter
from repro.common.chunks import (DECLINED, DEFAULT_CHUNK_REQUESTS, OP_FLUSH,
                                 OP_READ, OP_TRIM, OP_WRITE, SCALAR_THRESHOLD,
                                 make_chunk, request_from_row,
                                 requests_from_chunk)
from repro.common.errors import PowerCutError
from repro.common.types import Op, Request
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.arrays import B_NONE
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.obs import ObsRecorder, attach
from repro.obs.events import AdmissionRejected
from repro.sim.engine import run_chunk_streams
from repro.ssd.device import SSDDevice
from repro.tenancy import QosSpec, TenantRegistry
from repro.workloads.fio import (fio_job_chunk_streams, fio_job_streams,
                                 mixed_chunks, sequential, sequential_chunks,
                                 uniform_random, uniform_random_chunks)
from repro.workloads.msr import (MAX_REQUEST, TRACES, SyntheticTrace,
                                 build_group, build_group_chunks)
from repro.workloads.zipf import ZipfSampler, zipf_chunks, zipf_requests

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD, make_src


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _run(target, sources, batched, **kwargs):
    def issue(req, now):
        return target.submit(req, now)

    issue_chunk = target.submit_chunk if batched else None
    return run_chunk_streams(issue, sources, issue_chunk=issue_chunk,
                             **kwargs)


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


def _differential(make_target, make_sources, check_state, **run_kwargs):
    """Run scalar and batched over fresh targets; demand bit-equality.
    Returns the batched side (whose ``paths()`` say what served it)."""
    results = {}
    targets = {}
    for batched in (False, True):
        target = make_target()
        results[batched] = _run(target, make_sources(), batched,
                                **run_kwargs)
        targets[batched] = target
    assert results[True].as_dict() == results[False].as_dict()
    check_state(targets[False], targets[True])
    return results[True], targets[True]


# ----------------------------------------------------------------------
# SRC stack differentials
# ----------------------------------------------------------------------
def test_randwrite_gc_heavy_bit_identical():
    span = min(make_src().size, 4 * TINY_SRC.cache_space)
    result, src = _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=21)],
        _assert_src_state_equal,
        max_requests=20000)
    stats = src.srcstats
    assert stats.s2s_collections + stats.s2d_collections > 0
    assert stats.segment_writes > 0
    assert result.completed_ops == 20000


def test_think_time_twait_flushes_bit_identical():
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    _, src = _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=22)],
        _assert_src_state_equal,
        think_time=0.005, max_requests=2500)
    assert src.srcstats.timeout_flushes > 0


def test_multi_stream_interleaving_bit_identical():
    span = min(make_src().size, 4 * TINY_SRC.cache_space)

    def sources():
        return [uniform_random_chunks(span, 4 * KIB, seed=100 + i)
                for i in range(4)]

    _differential(make_src, sources, _assert_src_state_equal,
                  think_time=0.0005, max_requests=8000)


def test_mixed_reads_writes_bit_identical():
    """Read rows decline the write window: fallback paths must agree."""
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    result, src = _differential(
        make_src,
        lambda: [mixed_chunks(span, 0.5, seed=23)],
        _assert_src_state_equal,
        max_requests=8000)
    assert src.stats.read_ops > 0 and src.stats.write_ops > 0
    assert src.cstats.read_hits + src.cstats.read_misses > 0


def test_trim_rows_bit_identical():
    span = min(make_src().size, 2 * TINY_SRC.cache_space)

    def trim_mix(seed):
        rng = np.random.default_rng(seed)
        slots = span // PAGE_SIZE
        while True:
            offsets = rng.integers(0, slots, size=512) * PAGE_SIZE
            chunk = make_chunk(offsets, PAGE_SIZE)
            chunk["op"][rng.random(512) < 0.05] = OP_TRIM
            yield chunk

    _, src = _differential(
        make_src,
        lambda: [trim_mix(seed=24)],
        _assert_src_state_equal,
        max_requests=6000)
    assert src.stats.trim_ops > 0


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "chunk"])
def test_partial_trim_keeps_the_dirty_block(batched):
    """A TRIM drops the blocks it covers whole and no others: the rest
    of a partly covered block is live (here: dirty, unpersisted) data."""
    src = make_src()
    chunk = make_chunk(
        [0, PAGE_SIZE, 2 * PAGE_SIZE, 512, PAGE_SIZE // 2],
        [PAGE_SIZE, PAGE_SIZE, PAGE_SIZE, 512, 2 * PAGE_SIZE])
    chunk["op"][3:] = OP_TRIM     # inside block 0; then [2 KiB, 10 KiB)
    result = _run(src, [iter([chunk])], batched)
    assert result.completed_ops == 5 and src.stats.trim_ops == 2
    assert src.dirty_buf.peek() == [0, 2]       # only block 1 was whole
    assert src.srcstats.segment_writes == 0


def test_flush_rows_bit_identical():
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    _, src = _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=25,
                                       flush_every=64)],
        _assert_src_state_equal,
        max_requests=6000)
    assert src.stats.flush_ops > 0


def test_large_requests_bit_identical():
    """Multi-page writes are non-conformant: every offer is declined
    and the backed-off stream is paced per request."""
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 32 * KIB, seed=26)],
        _assert_src_state_equal,
        max_requests=3000)


# ----------------------------------------------------------------------
# tenant-aware windows: admission and occupancy proved per window
# ----------------------------------------------------------------------
_CAPACITY = make_src().layout.cache_data_capacity_blocks()


def _share(blocks):
    """The share that ``TenantRegistry`` turns into exactly ``blocks``."""
    return (blocks + 0.5) / _CAPACITY


def _declines(cache):
    """``{reason: count}`` of ``cache.window.paths()``."""
    return {key.split(".", 1)[1]: n
            for key, n in cache.window.paths().items() if "." in key}


def _vector_share(cache, result):
    return cache.window.paths()["vector_rows"] / result.completed_ops


def _tenant_differential(build, make_sources, names, **run_kwargs):
    """Chunked vs forced-scalar over fresh ``build()`` = (cache,
    registry) pairs; ``make_sources(cache, registry)`` feeds each.
    Returns the chunked pair and the share of the run's rows the
    vector window served, for path and scenario assertions."""
    runs = {}
    for batched in (False, True):
        cache, registry = build()
        result = _run(cache, make_sources(cache, registry), batched,
                      tenant_names=names, **run_kwargs)
        registry.check_invariants()
        runs[batched] = (result, cache, registry)
    (want, cache_s, registry_s), (got, cache_b, registry_b) = (
        runs[False], runs[True])
    assert got.as_dict() == want.as_dict()
    _assert_src_state_equal(cache_s, cache_b)
    assert registry_b.stats() == registry_s.stats()
    assert registry_b.as_dict() == registry_s.as_dict()
    assert (registry_b._total_unmet_reserve
            == registry_s._total_unmet_reserve)
    assert cache_b._active_tenant == cache_s._active_tenant
    if cache_s.obs.enabled:        # AdmissionRejected events included
        assert (cache_b.obs.telemetry(include_events=True)
                == cache_s.obs.telemetry(include_events=True))
    assert _vector_share(cache_s, want) == 0.0  # nobody offered it chunks
    return cache_b, registry_b, _vector_share(cache_b, got)


def _tenant_stack(specs, observed=False, **registry_kwargs):
    """``build`` for a TINY_SRC cache with one volume per
    ``(name, MiB, QosSpec-or-None)``, in that registration order."""
    def build():
        cache = make_src()
        if observed:
            attach(cache, ObsRecorder())
        registry = TenantRegistry(cache, **registry_kwargs)
        for name, mib, qos in specs:
            registry.create_volume(name, mib * MIB, qos)
        return cache, registry
    return build


def _tagged_chunks(registry, weights, spans, seed, theta=None, rows=512):
    """One stream of tagged single-page writes: tenant ``i`` (volume
    ``i``) with probability ``weights[i]``, uniform or Zipf(``theta``)
    over the first ``spans[i]`` blocks of its volume."""
    rng = np.random.default_rng(seed)
    bases = registry._bases
    samplers = [ZipfSampler(span, theta, seed=seed + i) if theta else None
                for i, span in enumerate(spans)]
    while True:
        tenant = rng.choice(len(weights), size=rows, p=weights)
        block = np.empty(rows, dtype=np.int64)
        for i, span in enumerate(spans):
            mine = tenant == i
            k = int(np.count_nonzero(mine))
            block[mine] = bases[i] + (samplers[i].sample_many(k) if theta
                                      else rng.integers(0, span, size=k))
        yield make_chunk(block * PAGE_SIZE, PAGE_SIZE, OP_WRITE,
                         tenant=tenant)


def test_tenant_rows_bit_identical():
    """(a) The bench shape: four tenants under their caps, one stream,
    Zipf-hot rows tagged at random — and the window serves them."""
    names = [f"tenant{i}" for i in range(4)]
    qos = QosSpec(min_share=0.1, max_share=0.6)
    vol_blocks = 4 * MIB // PAGE_SIZE
    cache, registry, share = _tenant_differential(
        _tenant_stack([(name, 4, qos) for name in names]),
        lambda c, r: [_tagged_chunks(r, [0.25] * 4, [vol_blocks] * 4,
                                     seed=30, theta=0.99)],
        names, max_requests=20000)
    doc = registry.stats()
    assert all(doc[name]["cached_blocks"] > 0 for name in names)
    assert sum(doc[name]["rejected_blocks"] for name in names) == 0
    assert cache.srcstats.segment_writes > 0
    assert share > 0.9
    assert _declines(cache) == {}


# Strict partitioning gives a tenant its reservation and nothing more,
# so the bulk tenant reserves what the whale does not.
_BULK_QOS = QosSpec(min_share=0.94)


@pytest.mark.parametrize("registry_kwargs,whale_qos,whale_rows,rejects", [
    ({}, QosSpec(max_share=0.01), 0.02, True),
    ({"work_conserving": False}, QosSpec(min_share=0.01), 0.02, True),
    ({"enforce": False}, QosSpec(max_share=0.01), 0.02, False),
    ({}, QosSpec(max_share=0.05), 0.3, True),
], ids=["max-share", "no-borrow", "unenforced", "dense"])
def test_tenant_whale_rejections_bit_identical(registry_kwargs, whale_qos,
                                               whale_rows, rejects):
    """(b, c) A whale crosses its share mid-window while a bulk tenant
    churns the log: rejections, write-arounds and — once reclaim has
    evicted some of its blocks — re-admission, all in the window.
    Unless the whale's misses come so densely (``dense``) that the
    sub-runs between them would not pay for their classification: then
    the window ends the call and the engine backs the stream off."""
    names = ["bulk", "whale"]
    cache, registry, share = _tenant_differential(
        _tenant_stack([("bulk", 512, _BULK_QOS), ("whale", 64, whale_qos)],
                      observed="work_conserving" in registry_kwargs,
                      **registry_kwargs),
        lambda c, r: [_tagged_chunks(
            r, [1 - whale_rows, whale_rows],
            [4 * TINY_SRC.cache_space // PAGE_SIZE, 4096], seed=32)],
        names, max_requests=40000)
    whale = registry.stats()["whale"]
    stats = cache.srcstats
    assert stats.s2s_collections + stats.s2d_collections > 0
    if whale_rows > 0.1:
        paths = cache.window.paths()
        assert paths["declined.dense_refusals"] > 0
        assert 0 < share < 0.5
        # Short sub-runs were the exception, not the rule.
        assert paths["declined.admission_bound"] < 10
    else:
        assert share > 0.9
    if rejects:
        limit = max(whale["min_blocks"], 1) if registry_kwargs \
            else whale["max_blocks"]
        assert whale["rejected_blocks"] > 0
        assert whale["write_arounds"] == whale["rejected_blocks"]
        assert whale["admitted_blocks"] > limit        # re-admitted
        assert _declines(cache)["admission_bound"] > 0
        if cache.obs.enabled:
            events = cache.obs.trace.of_type(AdmissionRejected)
            assert len(events) == whale["rejected_blocks"]
            assert {e.reason for e in events} == {"no_borrow"}
    else:
        assert whale["rejected_blocks"] == 0
        assert whale["admitted_blocks"] > whale["max_blocks"]
        assert "admission_bound" not in _declines(cache)


def _edge_rows(vol, occupied, staged, fresh, hot):
    """The main window of the residency-edge scenarios: one write each
    onto a mapped, a clean-buffered and (``staged`` of them) staged
    block, then ``fresh`` never-seen blocks, every row followed by
    ``hot`` rewrites of the first block (dirty by then: absorbed)."""
    base = vol.base_block
    blocks = [base + 5, base + occupied - 3]           # mapped, clean
    blocks += [base + 2000 + i for i in range(staged)]
    blocks += [base + 3000 + i for i in range(fresh)]
    rows = np.full((len(blocks), 1 + hot), base + 5, dtype=np.int64)
    rows[:, 0] = blocks
    return rows.ravel()


@pytest.mark.parametrize("occupied,qos,idle_free,staged,admitted", [
    # Exactly at min_blocks: borrowing until the unreserved capacity
    # (40 blocks, one of them taken by the staged block) runs out.
    (96, QosSpec(min_share=_share(96), max_share=1.0), 40, 1, 39),
    # At max_blocks - 1: one more miss fits ...
    (96, QosSpec(min_share=_share(16), max_share=_share(97)), 4000, 0, 1),
    # ... unless a staged block, which never asks, takes the slot.
    (96, QosSpec(min_share=_share(16), max_share=_share(97)), 4000, 1, 0),
    # Already over the cap through staged blocks: every miss bounces.
    (96, QosSpec(min_share=_share(16), max_share=_share(97)), 4000, 3, 0),
], ids=["at-min", "at-max-1", "at-max-1-staged", "past-max-staged"])
def test_tenant_residency_edges_bit_identical(occupied, qos, idle_free,
                                              staged, admitted):
    """(d) Writes onto B_MAPPED / B_CLEAN / B_STAGING blocks of a tenant
    sitting exactly on an admission threshold: displacements net zero,
    a staged block grows the occupancy unasked, and the first miss past
    the threshold is refused at the same row in both modes."""
    names = ["idle", "edge"]
    fresh, hot = 60, 24
    idle_qos = QosSpec(min_share=_share(_CAPACITY - occupied - idle_free))
    seen = {}

    def source(cache, registry):
        vol = registry._tenants["edge"].volumes[0]
        base = vol.base_block * PAGE_SIZE
        # Prologue: 80 blocks written and sealed (mapped), 16 read in
        # (clean buffer) -> ``occupied`` blocks resident, none dirty.
        rows = make_chunk(base + np.arange(80) * PAGE_SIZE, PAGE_SIZE,
                          tenant=1)
        flush = make_chunk([0], 0, op=OP_FLUSH, tenant=1)
        reads = make_chunk(base + np.arange(80, occupied) * PAGE_SIZE,
                           PAGE_SIZE, op=OP_READ, tenant=1)
        yield np.concatenate((rows, flush, reads))
        seen["before"] = registry.stats()["edge"]
        for i in range(staged):        # fetched, not yet in a buffer
            cache.staging.put(vol.base_block + 2000 + i, 0.0)
        yield make_chunk(
            _edge_rows(vol, occupied, staged, fresh, hot) * PAGE_SIZE,
            PAGE_SIZE, tenant=1)

    cache, registry, share = _tenant_differential(
        _tenant_stack([("idle", 4, idle_qos), ("edge", 32, qos)]),
        lambda c, r: [source(c, r)], names)
    before, edge = seen["before"], registry.stats()["edge"]
    assert before["cached_blocks"] == occupied
    assert edge["admitted_blocks"] - before["admitted_blocks"] == admitted
    assert edge["rejected_blocks"] == fresh - admitted
    assert edge["cached_blocks"] == occupied + staged + admitted
    assert share > 0.9


@pytest.mark.parametrize("think,t_wait", [(0.0, 10.0), (0.002, 5e-3)],
                         ids=["backpressure", "twait"])
def test_tenant_stalls_and_twait_billed_identically(think, t_wait):
    """(e) A backpressure stall (the roll takes a group whose reclaim
    I/O is still in flight) and TWAIT flushes inside tenanted windows:
    the stall is billed to the head / boundary row's tenant, exactly
    as the per-request path bills ``req.tenant``."""
    from repro.chaos.rig import TORTURE_CONFIG, TORTURE_SSD

    def build():
        config = replace(TORTURE_CONFIG, t_wait=t_wait)
        ssds = [SSDDevice(TORTURE_SSD, name=f"s{i}")
                for i in range(config.n_ssds)]
        cache = SrcCache(ssds, PrimaryStorage(n_disks=2,
                                              disk_spec=TINY_DISK), config)
        registry = TenantRegistry(cache)
        for name in ("alice", "bob"):
            registry.create_volume(name, 16 * MIB)
        return cache, registry

    cache, registry, share = _tenant_differential(
        build,
        lambda c, r: [_tagged_chunks(r, [0.5, 0.5], [1500, 1500], seed=5,
                                     theta=0.99)],
        ["alice", "bob"], think_time=think, max_requests=20000)
    doc = registry.stats()
    stalls = sum(t["stalls"] for t in doc.values())
    assert stalls == cache.srcstats.throttle_stalls
    if think:
        assert cache.srcstats.timeout_flushes > 0
    else:
        assert stalls > 0 and all(t["stalls"] for t in doc.values())
        assert sum(t["stall_s"] for t in doc.values()) == pytest.approx(
            cache.srcstats.throttle_wait_s)
    assert share > 0.9


def test_head_row_twait_flush_bills_the_head_rows_tenant():
    """A window's first ``_check_timeout`` can flush a partial segment,
    roll the group and stall on its unfinished reclaim: that stall is
    the head row's tenant's, whoever was served last."""
    runs = {}
    for batched in (False, True):
        cache, registry = _tenant_stack([("alice", 8, None),
                                         ("bob", 8, None)])()
        bob = registry._tenants["bob"].volumes[0].base_block * PAGE_SIZE
        cache.submit(Request(Op.WRITE, bob, PAGE_SIZE, tenant="bob"), 0.0)
        # The active group is full and the next one still has reclaim
        # I/O in flight until t = 1.0.
        log = cache.segments
        log.active.next_segment = cache.layout.segments_per_group
        log._group_ready[log._free[-1]] = 1.0
        rows = make_chunk(np.arange(64) * PAGE_SIZE, PAGE_SIZE, tenant=0)
        if batched:
            issue_t, done_t, n = cache.submit_chunk(rows, 0.5, 0.0,
                                                    float("inf"), 0)
            assert n == 64
        else:
            issue_t, done_t, t = [], [], 0.5
            for req in requests_from_chunk(rows, ["alice", "bob"]):
                issue_t.append(t)
                t = cache.submit(req, t)
                done_t.append(t)
        runs[batched] = (list(issue_t), list(done_t), registry.stats())
        assert cache.srcstats.timeout_flushes == 1
    assert runs[True] == runs[False]
    doc = runs[True][2]
    assert (doc["alice"]["stalls"], doc["bob"]["stalls"]) == (1, 0)
    assert doc["alice"]["stall_s"] == pytest.approx(0.5)


def test_unnameable_and_misowned_tags_take_the_per_request_path():
    """(f) A tag the registry cannot name, a tag that is not the
    address's owner, and any tag on an untenanted cache: all served,
    none by the vector window — and billed as the engine bills them."""
    names = ["alice", "bob", "ghost"]      # the stream knows one more

    def sources(cache, registry):
        rng = np.random.default_rng(33)
        blocks = rng.integers(0, 2048, size=(6, 256))   # alice's volume
        return [iter([make_chunk(b * PAGE_SIZE, PAGE_SIZE, tenant=tag)
                      for b in blocks for tag in (2, 1)])]

    cache, registry, _ = _tenant_differential(
        _tenant_stack([("alice", 8, None), ("bob", 8, None)]), sources,
        names)
    paths = cache.window.paths()
    assert paths["vector_rows"] == paths["boundary_rows"] == 0
    assert cache.stats.write_ops == 12 * 256
    assert set(_declines(cache)) == {"nonconformant_head"}
    assert registry.stats()["alice"]["cached_blocks"] > 0    # by address

    plain = {}
    for batched in (False, True):
        plain[batched] = make_src()
        _run(plain[batched], sources(None, None), batched,
             tenant_names=names)
    _assert_src_state_equal(plain[False], plain[True])
    assert plain[True].window.paths()["vector_rows"] == 0
    assert plain[True].stats.write_ops == 12 * 256


def test_reordered_tenant_table_is_refused():
    """The window names a tag by the registry's registration order, the
    per-request path by the stream's table: the two must agree."""
    cache, registry = _tenant_stack([("alice", 8, None),
                                     ("bob", 8, None)])()
    rows = make_chunk(np.arange(64) * PAGE_SIZE, PAGE_SIZE, tenant=0)
    for names in (["bob", "alice"], ["alice"]):
        with pytest.raises(ValueError, match="registry"):
            _run(cache, [iter([rows])], True, tenant_names=names)
    assert cache.stats.write_ops == 0
    _run(cache, [iter([rows])], True, tenant_names=["alice", "bob", "x"])
    assert cache.stats.write_ops == 64


def test_registry_on_recovered_cache_driven_chunked():
    """(g) Post power-cut adopt path: a registry attached to a
    recovered cache seeds occupancy from the survivors, and the window
    proves admission against that baseline."""
    from repro.core.recovery import recover

    qos = QosSpec(min_share=0.05, max_share=0.135)
    specs = [("alice", 16, qos), ("bob", 16, qos)]

    def build():
        cache, registry = _tenant_stack(specs)()
        now = 0.0
        for vol in (registry._tenants[n].volumes[0] for n in ("alice",
                                                              "bob")):
            for offset in range(0, 6 * MIB, PAGE_SIZE):
                now = vol.submit(Request(Op.WRITE, offset, PAGE_SIZE), now)
        recovered, _ = recover(cache.ssds, cache.origin, cache.config,
                               cache.metadata)
        adopted = TenantRegistry(recovered)
        for name, mib, spec in specs:
            adopted.create_volume(name, mib * MIB, spec)
        assert adopted.occupancy("alice") > 0
        return recovered, adopted

    cache, registry, share = _tenant_differential(
        build,
        lambda c, r: [_tagged_chunks(r, [0.5, 0.5], [4096, 4096], seed=34,
                                     theta=0.99)],
        ["alice", "bob"], max_requests=20000)
    doc = registry.stats()
    assert all(doc[n]["rejected_blocks"] > 0 for n in ("alice", "bob"))
    assert share > 0.9


# ----------------------------------------------------------------------
# cluster: one window, a lane per shard
# ----------------------------------------------------------------------
def _make_cluster(n_shards=2):
    # The foreground guard is on, so its samples are compared too.
    config = ClusterConfig(n_shards=n_shards, vnodes=8, slab_blocks=16,
                           migration_rate=0, migration_fg_p99=1.0)
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    shards = []
    for i in range(n_shards):
        ssds = [SSDDevice(TINY_SSD, name=f"s{i}t{j}")
                for j in range(TINY_SRC.n_ssds)]
        shards.append(SrcCache(ssds, origin, TINY_SRC))
    return ShardRouter(shards, origin, config)


def _assert_cluster_equal(a, b):
    assert a.stats == b.stats
    assert a.clusterstats.as_dict() == b.clusterstats.as_dict()
    assert list(a._guard._samples) == list(b._guard._samples)
    for slot in a.shards:
        _assert_src_state_equal(a.shards[slot], b.shards[slot])
        for attr in ("_active_tenant", "_last_dirty_write"):
            assert (getattr(a.shards[slot], attr)
                    == getattr(b.shards[slot], attr))


def _cluster_differential(make_sources, make=_make_cluster, **run_kwargs):
    """Chunked == forced scalar on results, ``clusterstats``, guard
    samples and every shard's state.  Returns the chunked run's result
    and router, and the share of its rows the lanes served as vector
    rows (the forced-scalar side's is 0: nobody offered it chunks)."""
    result, router = _differential(make, make_sources,
                                   _assert_cluster_equal, **run_kwargs)
    served = sum(shard.window.paths()["vector_rows"]
                 for shard in router.shards.values())
    return result, router, served / result.completed_ops


def _cluster_span(n_shards=2, caches=4):
    return min(_make_cluster(n_shards).size,
               caches * TINY_SRC.cache_space * n_shards)


def test_cluster_passthrough_bit_identical():
    result, router, share = _cluster_differential(
        lambda: [uniform_random_chunks(_cluster_span(), 4 * KIB, seed=27)],
        max_requests=8000)
    assert result.completed_ops == 8000
    # Both shards must have seen traffic or the lanes were moot, and
    # the window, not the engine's per-request fallback, served it.
    assert all(shard.srcstats.segment_writes > 0
               for shard in router.shards.values())
    assert share > 0.9
    assert router.paths() == {}


@pytest.mark.parametrize("n_shards,max_requests", [(3, 8000), (4, 7777),
                                                   (2, 777)])
def test_cluster_lanes_bit_identical(n_shards, max_requests):
    """More lanes; and ``max_requests`` ending inside a sub-run."""
    result, router, share = _cluster_differential(
        lambda: [uniform_random_chunks(_cluster_span(n_shards), 4 * KIB,
                                       seed=40 + n_shards)],
        make=lambda: _make_cluster(n_shards), max_requests=max_requests)
    assert result.completed_ops == max_requests
    assert all(len(shard.dirty_buf) + len(shard.mapping) > 0
               for shard in router.shards.values())
    assert share > 0.9


def test_cluster_twait_fires_on_a_lane_that_is_not_the_head():
    """With think time, a lane's buffer ages past TWAIT while the rows
    go to the other lanes: its next row, mid-slice, is the bound."""
    _, router, share = _cluster_differential(
        lambda: [uniform_random_chunks(_cluster_span(3), 4 * KIB, seed=28)],
        make=lambda: _make_cluster(3), think_time=0.001, max_requests=4000)
    assert all(shard.srcstats.timeout_flushes > 0
               for shard in router.shards.values())
    assert share > 0.9


def test_cluster_deadline_cuts_land_mid_lane():
    """Three interleaved streams: a window runs while the other two
    wait on a seal and ends at the first one's return, wherever that
    falls in each lane (between stalls the horizons are tiny)."""
    result, router, share = _cluster_differential(
        lambda: [uniform_random_chunks(_cluster_span(), 4 * KIB,
                                       seed=50 + i) for i in range(3)],
        max_requests=12000)
    assert result.completed_ops == 12000
    assert share > 0
    assert router.paths()["declined.tiny_horizon"] > 0


def test_cluster_zipf_over_a_warm_cluster_bit_identical():
    """Hot rewrites: absorbed in RAM, or displacing a mapped block."""
    _, router, share = _cluster_differential(
        lambda: [zipf_chunks(_cluster_span(caches=1) // 2, 4 * KIB,
                             seed=29)],
        max_requests=30000)
    for shard in router.shards.values():
        assert shard.cstats.write_hits > shard.cstats.write_misses > 0
        assert shard.srcstats.segment_writes > 0
    assert share > 0.9


def test_cluster_refusal_on_one_lane_bounds_the_others():
    """One shard carries a registry; the router's rows are untagged, so
    admission goes by address alone and a refused miss on that lane is
    the boundary row of every lane's sub-run."""
    registries = {}

    def make():
        router = _make_cluster()
        registry = registries[len(registries)] = TenantRegistry(
            router.shards[0])
        registry.create_volume("capped", 2 * MIB, QosSpec(max_share=_share(48)))
        return router

    _, router, share = _cluster_differential(
        lambda: [uniform_random_chunks(64 * MIB, 4 * KIB, seed=31)],
        make=make, max_requests=12000)
    scalar, chunked = registries[0], registries[1]
    chunked.check_invariants()
    assert chunked.stats() == scalar.stats()
    capped = chunked.stats()["capped"]
    assert capped["rejected_blocks"] == capped["write_arounds"] > 0
    assert _declines(router.shards[0])["admission_bound"] > 0
    assert "admission_bound" not in _declines(router.shards[1])
    assert share > 0.9


def test_cluster_with_a_failed_slot_declines():
    """A degraded slot's rows write around; the router declines and
    says why, the engine's per-request body serves every row."""
    def make():
        router = _make_cluster()
        router.fail_shard(1, 0.0)
        return router

    _, router, share = _cluster_differential(
        lambda: [uniform_random_chunks(_cluster_span(), 4 * KIB, seed=33)],
        make=make, max_requests=3000)
    assert router.clusterstats.write_arounds > 0
    assert router.paths()["declined.degraded_slot"] > 0
    assert share == 0.0


def _src_caches(target):
    return list(target.shards.values()) if hasattr(target, "shards") \
        else [target]


@pytest.mark.parametrize("make_target", [make_src, _make_cluster],
                         ids=["src", "cluster"])
def test_negative_offset_row_fails_identically(make_target):
    """Bad input fails loudly, the same way in both modes: a row with a
    negative offset is non-conformant, so it reaches ``Request`` and
    raises instead of wrapping to the residency array's last block."""
    offsets = np.arange(96, dtype=np.int64) * PAGE_SIZE
    offsets[5] = -PAGE_SIZE
    targets = {}
    for batched in (False, True):
        target = targets[batched] = make_target()
        with pytest.raises(ValueError, match="negative offset"):
            _run(target, [iter([make_chunk(offsets, PAGE_SIZE)])], batched)
        assert target.stats.write_ops == 5
        for cache in _src_caches(target):
            cache.mapping.check_invariants()
            assert cache._state.a[-1] == B_NONE
    assert targets[True].stats == targets[False].stats
    for a, b in zip(_src_caches(targets[False]), _src_caches(targets[True])):
        _assert_src_state_equal(a, b)


# ----------------------------------------------------------------------
# trace replay: the window's only multi-page / read-row trace-shaped
# differential (warm-up here is a span the chunk path may not serve)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("group,warmup,think", [
    ("write", 0.0, 0.0),
    ("mixed", 0.05, 0.0),
    ("read", 0.0, 0.002),
])
def test_replay_group_batched_bit_identical(group, warmup, think):
    """MSR trace-group chunk streams with and without the window.
    ``warmup`` keeps the chunk path closed for the first simulated
    seconds, as a measurement wrapper pacing through warm-up does, so
    the run hands over from scalar rows to windows mid-stream."""
    results = {}
    targets = {}
    for batched in (False, True):
        src = make_src()

        def issue_chunk(rows, start, *window, _src=src):
            if start < warmup:
                return DECLINED
            return _src.submit_chunk(rows, start, *window)

        streams, _ = build_group_chunks(group, scale=0.002, seed=5,
                                        threads_per_trace=1)
        results[batched] = run_chunk_streams(
            src.submit, streams, think_time=think, max_requests=5000,
            issue_chunk=issue_chunk if batched else None)
        targets[batched] = src
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(targets[False], targets[True])
    assert results[False].completed_ops > 0


# ----------------------------------------------------------------------
# engine fallback: a decline backs the stream off to the scalar loop
# ----------------------------------------------------------------------
def test_always_declining_chunk_fn_matches_scalar_loop():
    span = 32 * MIB
    results = {}
    devices = {}
    offers = []
    for mode in ("scalar", "declining"):
        ssd = SSDDevice(TINY_SSD)

        def issue(req, now, _ssd=ssd):
            return _ssd.submit(req, now)

        issue_chunk = None
        if mode == "declining":
            def issue_chunk(rows, start, think, deadline, limit):
                offers.append(start)
                return DECLINED

        results[mode] = run_chunk_streams(
            issue, [uniform_random_chunks(span, 4 * KIB, seed=28)],
            issue_chunk=issue_chunk, max_requests=20000)
        devices[mode] = ssd
    assert (results["declining"].as_dict()
            == results["scalar"].as_dict())
    assert devices["declining"].stats == devices["scalar"].stats
    # Holds of 32, 64, ... 4096 rows, then 4096 each: not one per row.
    assert 0 < len(offers) <= 16


_STRIDE = 1 << 20      # row i of stream s writes block s * _STRIDE + i


def _paced_run(latencies, declines, n_rows):
    """One ``n_rows`` stream per latency against a target that completes
    a row of stream ``s`` ``latencies[s]`` after its issue and whose
    ``issue_chunk`` serves the offered rows up to the first for which
    ``declines(stream, row)`` holds.  Chunked must equal forced scalar;
    returns the ``(stream, row)`` heading every offer and the number of
    rows each stream was served per request in the chunked run."""
    offers, per_request = [], [0] * len(latencies)

    def issue(req, now):
        stream = req.offset // PAGE_SIZE // _STRIDE
        per_request[stream] += 1
        return now + latencies[stream]

    def issue_chunk(rows, start, think, deadline, limit):
        stream, head = divmod(int(rows["offset"][0]) // PAGE_SIZE, _STRIDE)
        offers.append((stream, head))
        issue_t, done_t, t = [], [], start
        for row in range(head, head + min(len(rows), limit or len(rows))):
            if t >= deadline or declines(stream, row):
                break
            issue_t.append(t)
            done_t.append(t + latencies[stream])
            t = done_t[-1] + think
        return np.array(issue_t), np.array(done_t), len(issue_t)

    def sources():
        return [iter([make_chunk((s * _STRIDE + np.arange(n_rows))
                                 * PAGE_SIZE, PAGE_SIZE)])
                for s in range(len(latencies))]

    want = run_chunk_streams(issue, sources())
    per_request[:] = [0] * len(latencies)
    got = run_chunk_streams(issue, sources(), issue_chunk=issue_chunk)
    assert got.as_dict() == want.as_dict()
    assert got.completed_ops == n_rows * len(latencies)
    return offers, per_request


def test_declined_stream_is_offered_again_and_backoff_resets():
    """Declined for its first 1,000 rows, a stream is back on the chunk
    path within one maximal hold; once an offer has served a row, the
    next decline starts over at the shortest hold."""
    offers, _ = _paced_run(
        [0.5], lambda s, row: row < 1000 or 3000 <= row < 3010, 4096)
    rows = [row for _, row in offers]
    assert rows == [0, 32, 96, 224, 480, 992,      # holds double ...
                    2016,                          # ... served to row 3000
                    3000, 3000 + SCALAR_THRESHOLD]
    assert rows[6] < 1000 + DEFAULT_CHUNK_REQUESTS


def test_backoff_is_per_stream():
    """One stream always declined, the other never: the first backs
    off alone, the second is offered every one of its turns and served
    by windows only."""
    # Stream 0 is the slow one: between two of its turns stream 1 has
    # a 128-row horizon (and loses every tie, so no empty one).
    offers, per_request = _paced_run([64.0, 0.5], lambda s, row: s == 0,
                                     1024)
    assert [row for s, row in offers if s == 0] == [0, 32, 96, 224, 480, 992]
    assert [row for s, row in offers if s == 1] == list(range(0, 1024, 128))
    assert per_request == [1024, 0]


# ----------------------------------------------------------------------
# generator equivalence: chunked builders vs their scalar oracles
# ----------------------------------------------------------------------
def test_zipf_sample_many_matches_repeated_sample():
    a = ZipfSampler(5000, theta=1.1, seed=42)
    b = ZipfSampler(5000, theta=1.1, seed=42)
    scalar = np.array([a.sample() for _ in range(4096)])
    assert np.array_equal(scalar, b.sample_many(4096))


def test_zipf_chunks_rows_match_zipf_requests():
    span = 16 * MIB
    chunks = zipf_chunks(span, seed=7)
    requests = zipf_requests(span, seed=7)
    rows = next(chunks)
    for i in range(len(rows)):
        req = next(requests)
        assert req.offset == int(rows["offset"][i])
        assert req.length == int(rows["length"][i])


def test_uniform_vector_rng_matches_scalar_draws():
    # The chunked generators' correctness rests on vector integer draws
    # consuming the PCG64 bitstream exactly like repeated scalar draws.
    a = np.random.default_rng(3)
    b = np.random.default_rng(3)
    vector = a.integers(0, 1000, size=256)
    scalar = np.array([b.integers(0, 1000) for _ in range(256)])
    assert np.array_equal(vector, scalar)


@pytest.mark.parametrize("name", ["prxy0", "src21"])
def test_msr_chunks_replay_the_scalar_state_machine(name):
    """Pin ``SyntheticTrace.chunks`` to an independent reimplementation
    of the columnar generator: per chunk, the draw order is (1) size
    exponentials, (2) sequential-continuation uniforms, (3) Zipf start
    candidates, (4) op uniforms; the sequential-run state machine then
    resolves each row from the precomputed draws (a continuation row's
    Zipf candidate is drawn but unused)."""
    spec = TRACES[name]
    scale, seed, n, per_chunk = 0.002, 9, 6000, 1024
    trace = SyntheticTrace(spec, region_start=128 * PAGE_SIZE,
                           scale=scale, seed=seed)
    n_blocks = trace.n_blocks
    rng = np.random.default_rng(seed)
    zipf = ZipfSampler(n_blocks, spec.skew_theta, seed=seed + 1)
    mean_pages = spec.mean_request_bytes / PAGE_SIZE
    theta = 1.0 / np.log(1.0 + 1.0 / (mean_pages - 1.0))
    next_seq = -1
    expected = []
    while len(expected) < n:
        sizes = np.minimum(
            MAX_REQUEST,
            (1 + rng.exponential(theta, per_chunk).astype(np.int64))
            * PAGE_SIZE)
        seq_hits = rng.random(per_chunk) < spec.seq_prob
        candidates = zipf.sample_many(per_chunk)
        op_draws = rng.random(per_chunk)
        for i in range(per_chunk):
            size = int(sizes[i])
            nblocks = size // PAGE_SIZE
            if next_seq >= 0 and seq_hits[i]:
                start_block = next_seq
            else:
                start_block = int(candidates[i])
            start_block = max(0, min(start_block, n_blocks - nblocks))
            next_seq = start_block + nblocks
            if next_seq + nblocks > n_blocks:
                next_seq = -1
            op = OP_READ if op_draws[i] < spec.read_ratio else OP_WRITE
            expected.append((128 * PAGE_SIZE + start_block * PAGE_SIZE,
                             size, op))
    expected = expected[:n]
    got = []
    for chunk in trace.chunks(chunk_requests=per_chunk):
        for i in range(len(chunk)):
            got.append((int(chunk["offset"][i]), int(chunk["length"][i]),
                        int(chunk["op"][i])))
            if len(got) == n:
                break
        if len(got) == n:
            break
    assert got == expected


def test_build_group_chunks_matches_build_group():
    streams, span_s = build_group("mixed", scale=0.002, seed=4,
                                  threads_per_trace=1)
    chunk_streams, span_c = build_group_chunks("mixed", scale=0.002,
                                               seed=4,
                                               threads_per_trace=1)
    assert span_s == span_c
    assert len(streams) == len(chunk_streams)
    for stream, chunk_stream in list(zip(streams, chunk_streams))[:3]:
        rows = next(chunk_stream)
        for i in range(300):
            req = next(stream)
            assert req.offset == int(rows["offset"][i])
            assert req.length == int(rows["length"][i])
            assert (req.op is Op.READ) == (int(rows["op"][i]) == OP_READ)


def test_fio_job_chunk_streams_same_seeds():
    span = 16 * MIB
    scalar = fio_job_streams(span, iodepth=2, threads=2, seed=3)
    chunked = fio_job_chunk_streams(span, iodepth=2, threads=2, seed=3)
    assert len(scalar) == len(chunked)
    for stream, chunk_stream in zip(scalar, chunked):
        rows = next(chunk_stream)
        for i in range(64):
            assert next(stream).offset == int(rows["offset"][i])


# ----------------------------------------------------------------------
# streaming audit (satellite 3): constant-memory iterators everywhere
# ----------------------------------------------------------------------
def _assert_lazy(source):
    assert iter(source) is source, f"{source!r} is not an iterator"
    assert not isinstance(source, (list, tuple))
    assert not hasattr(source, "__len__"), \
        f"{source!r} looks like a materialized sequence"


def test_workload_sources_are_lazy_iterators():
    span = 16 * MIB
    trace = SyntheticTrace(TRACES["prxy0"], scale=0.001, seed=1)
    singles = [
        uniform_random(span), uniform_random_chunks(span),
        sequential(span), sequential_chunks(span),
        mixed_chunks(span, 0.5),
        zipf_requests(span), zipf_chunks(span),
        trace.requests(), trace.chunks(),
    ]
    for source in singles:
        _assert_lazy(source)
    streams, _ = build_group("read", scale=0.001, threads_per_trace=1)
    chunk_streams, _ = build_group_chunks("read", scale=0.001,
                                          threads_per_trace=1)
    for source in streams + chunk_streams + fio_job_streams(span):
        _assert_lazy(source)


def test_chunk_generators_run_in_constant_memory():
    span = 64 * MIB
    sources = [
        uniform_random_chunks(span, seed=1),
        sequential_chunks(span),
        zipf_chunks(span, seed=2),
        mixed_chunks(span, 0.5, seed=3),
        SyntheticTrace(TRACES["prxy0"], scale=0.002, seed=4).chunks(),
    ]
    for source in sources:     # setup allocations (CDF tables, perms)
        next(source)
    tracemalloc.start()
    for _ in range(12):
        for source in sources:
            next(source)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # 60 chunks of 4096 rows streamed through ~5 sources must not
    # accumulate: peak is a few transient chunks, not 60 x 132 KiB.
    assert peak < 8 * MIB


# ----------------------------------------------------------------------
# fault differentials (armed plans close the chunk gate; the engine's
# scalar fallback must remain bit-identical to the scalar loop)
# ----------------------------------------------------------------------
def _make_injected_src(plans=None):
    """A TINY_SRC cache whose members are FaultInjector-wrapped SSDs."""
    plans = plans or {}
    ssds = [FaultInjector(SSDDevice(TINY_SSD, name=f"tiny{i}"),
                          plans.get(i))
            for i in range(TINY_SRC.n_ssds)]
    backend = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    return SrcCache(ssds, backend, TINY_SRC)


def test_fault_plan_activation_flips_chunk_gate_mid_run():
    """Arming a member's plan by assignment closes the window at once —
    no request traffic in between."""
    src = _make_injected_src()
    assert not src.window.closed_clause(0.0)
    rows = make_chunk(np.arange(SCALAR_THRESHOLD) * PAGE_SIZE, PAGE_SIZE)

    _, _, n = src.submit_chunk(rows, 0.0, 0.0, float("inf"), 0)
    assert n == SCALAR_THRESHOLD

    src.ssds[0].plan = FaultPlan(seed=7).limp_window(0.0, 1e9, 4.0)
    assert src.window.closed_clause(0.0)
    _, _, n = src.submit_chunk(rows, 1.0, 0.0, float("inf"), 0)
    assert n == 0                      # declined -> engine goes scalar
    assert _declines(src)["armed_fault"] == 1

    src.ssds[0].disarm()
    assert not src.window.closed_clause(0.0)
    _, _, n = src.submit_chunk(rows, 2.0, 0.0, float("inf"), 0)
    assert n == SCALAR_THRESHOLD


def _closed_loop(shard, rows, t, chunked, oracle):
    """Serve ``rows`` back to back from ``t``: through ``submit_chunk``
    where it takes rows (``chunked``), else one ``submit`` a row; every
    acknowledged row is reported to ``oracle``.  Returns the last ack."""
    i = 0
    while i < rows.shape[0]:
        n = 0
        if chunked:
            _, done, n = shard.submit_chunk(rows[i:], t, 0.0, float("inf"), 0)
            if n:
                t = float(done[-1])
        if not n:
            n = 1
            t = shard.submit(request_from_row(rows[i]), t)
        oracle.note_chunk(rows[i:], n)
        i += n
    return t


def test_plan_armed_in_place_closes_the_window_and_cuts_both_modes_alike():
    """``FaultPlan``'s chainable builders arm the *attached* plan; the
    window must decline from the next call on, so the cut lands on the
    per-request path and both modes acknowledge the same rows."""
    rows = make_chunk(np.random.default_rng(5).integers(0, LBA_SPAN, 900)
                      * PAGE_SIZE, PAGE_SIZE)
    acked = {}
    for chunked in (True, False):
        shard, _ = build_shard(build_origin())
        oracle = IntegrityOracle()
        t = _closed_loop(shard, rows[:300], 0.0, chunked, oracle)
        member = shard.ssds[0]
        member.plan.power_cut_on_write(member.writes_seen + 5)
        if chunked:
            assert shard.window.paths()["vector_rows"] > 0
            assert shard.submit_chunk(rows[300:], t, 0.0, float("inf"),
                                      0)[2] == 0
            assert _declines(shard)["armed_fault"] == 1
        with pytest.raises(PowerCutError):
            _closed_loop(shard, rows[300:], t, chunked, oracle)
        assert member.injected["power-cut"] == 1
        acked[chunked] = (oracle.writes_seen, oracle.expected)
    assert 300 < acked[True][0] < 900
    assert acked[True] == acked[False]


def _fault_differential(plan_factories, seed, max_requests=6000):
    """Scalar vs batched over identically-faulted fresh stacks."""
    span = 2 * TINY_SRC.cache_space
    results = {}
    targets = {}
    for batched in (False, True):
        target = _make_injected_src(
            {i: make() for i, make in plan_factories.items()})
        sources = [mixed_chunks(span, 0.5, seed=seed)]
        results[batched] = _run(target, sources, batched,
                                max_requests=max_requests)
        targets[batched] = target
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(targets[False], targets[True])
    for x, y in zip(targets[False].ssds, targets[True].ssds):
        assert x.injected == y.injected
    return results[False], targets[False]


def test_fail_stop_plan_bit_identical():
    """A member dying mid-run degrades the array identically in both
    paths (reads reconstruct, RAID-5, no spare to attach)."""
    _, src = _fault_differential(
        {1: lambda: FaultPlan(seed=3).fail_stop(2e-3)}, seed=41)
    assert src.ssds[1].injected["fail-stop"] > 0
    assert src.repair.missing_members() == 1
    assert not src.bypass


def test_fail_slow_plan_bit_identical():
    """A limping member stretches completions identically."""
    _, src = _fault_differential(
        {0: lambda: FaultPlan(seed=3).limp_window(0.0, 1e9, 6.0)},
        seed=42)
    assert src.ssds[0].injected["limp"] > 0


def test_transient_window_plan_bit_identical():
    """Seeded transient errors draw from the same RNG sequence in both
    paths (the gate declines, so the same requests hit the injector in
    the same order) — retries and give-ups must match exactly."""
    _, src = _fault_differential(
        {2: lambda: FaultPlan(seed=9).transient_window(0.0, 1e9, 0.2)},
        seed=43)
    assert src.ssds[2].injected["transient"] > 0
    assert src.srcstats.retries > 0


def test_mid_run_arming_switches_batched_to_scalar_fallback():
    """A plan armed partway through the stream flips the gate between
    chunks: the vectorized prefix and the scalar-fallback suffix must
    still compose to a bit-identical run."""
    span = 2 * TINY_SRC.cache_space

    def arming_chunks(cache, seed, arm_after):
        rng = np.random.default_rng(seed)
        slots = span // PAGE_SIZE
        n = 0
        while True:
            offsets = rng.integers(0, slots, size=512) * PAGE_SIZE
            yield make_chunk(offsets, PAGE_SIZE)
            n += 1
            if n == arm_after:
                cache.ssds[0].plan = (
                    FaultPlan(seed=5).limp_window(0.0, 1e9, 3.0))

    results = {}
    targets = {}
    for batched in (False, True):
        target = _make_injected_src()
        sources = [arming_chunks(target, seed=44, arm_after=4)]
        results[batched] = _run(target, sources, batched,
                                max_requests=6000)
        targets[batched] = target
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(targets[False], targets[True])
    assert targets[True].ssds[0].injected["limp"] > 0
    assert targets[True].window.closed_clause(0.0)
