"""Batched engine loop vs the scalar oracle, end to end (PR 8).

Every test runs the *same* chunked workload twice — once through the
batched loop (``issue_chunk`` wired to the target's ``submit_chunk``)
and once through the scalar loop (same ``ChunkStream`` sources, rows
materialized one ``Request`` at a time) — and requires the two runs to
be bit-identical: engine results, cache counters, mapping contents,
buffer order, device stats.  The scalar path is the oracle; the batch
path exists only as a faster spelling of it.

Also hosts the streaming-generator audit (satellite 3): workload
sources must be constant-memory iterators, and the bench scenarios must
never materialize full request lists.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ShardRouter
from repro.common.chunks import OP_READ, OP_TRIM, OP_WRITE, make_chunk
from repro.common.types import Op, Request
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.arrays import B_NONE
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.sim.engine import run_chunk_streams
from repro.ssd.device import SSDDevice
from repro.tenancy import TenantRegistry
from repro.workloads.fio import (fio_job_chunk_streams, fio_job_streams,
                                 mixed_chunks, sequential, sequential_chunks,
                                 uniform_random, uniform_random_chunks)
from repro.workloads.msr import (MAX_REQUEST, TRACES, SyntheticTrace,
                                 build_group, build_group_chunks)
from repro.workloads.replay import replay_group
from repro.workloads.zipf import ZipfSampler, zipf_chunks, zipf_requests

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD, make_src

REPO_ROOT = Path(__file__).resolve().parent.parent


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
    """Run scalar and batched over fresh targets; demand bit-equality."""
    results = {}
    targets = {}
    for batched in (False, True):
        target = make_target()
        results[batched] = _run(target, make_sources(), batched,
                                **run_kwargs)
        targets[batched] = target
    assert results[True].as_dict() == results[False].as_dict()
    check_state(targets[False], targets[True])
    return results[False], targets[False]


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
    """Multi-page writes are non-conformant; the in-target scalar run
    must pace them exactly like per-request submission."""
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 32 * KIB, seed=26)],
        _assert_src_state_equal,
        max_requests=3000)


# ----------------------------------------------------------------------
# tenant admission (registry observers close the fast-path gates)
# ----------------------------------------------------------------------
def test_tenant_rows_bit_identical():
    vol_bytes = 8 * MIB
    vol_blocks = vol_bytes // PAGE_SIZE

    def build():
        cache = make_src()
        registry = TenantRegistry(cache)
        vols = [registry.create_volume(name, vol_bytes)
                for name in ("alice", "bob")]
        return cache, registry, vols

    def tenant_chunks(base_block, tenant_idx, seed):
        rng = np.random.default_rng(seed)
        while True:
            offsets = ((base_block
                        + rng.integers(0, vol_blocks, size=512))
                       * PAGE_SIZE)
            yield make_chunk(offsets, PAGE_SIZE, OP_WRITE,
                             tenant=tenant_idx)

    states = {}
    results = {}
    for batched in (False, True):
        cache, registry, vols = build()
        sources = [tenant_chunks(vols[0].base_block, 0, seed=30),
                   tenant_chunks(vols[1].base_block, 1, seed=31)]
        results[batched] = _run(cache, sources, batched,
                                max_requests=5000,
                                tenant_names=["alice", "bob"])
        states[batched] = (cache, registry)
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(states[False][0], states[True][0])
    assert states[True][1].stats() == states[False][1].stats()
    doc = states[False][1].stats()
    assert doc["alice"]["cached_blocks"] > 0
    assert doc["bob"]["cached_blocks"] > 0


# ----------------------------------------------------------------------
# cluster passthrough
# ----------------------------------------------------------------------
_CLUSTER = ClusterConfig(n_shards=2, vnodes=8, slab_blocks=16,
                         migration_rate=0)


def _make_cluster():
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    shards = []
    for i in range(_CLUSTER.n_shards):
        ssds = [SSDDevice(TINY_SSD, name=f"s{i}t{j}")
                for j in range(TINY_SRC.n_ssds)]
        shards.append(SrcCache(ssds, origin, TINY_SRC))
    return ShardRouter(shards, origin, _CLUSTER)


def test_cluster_passthrough_bit_identical():
    span = min(_make_cluster().size,
               4 * TINY_SRC.cache_space * _CLUSTER.n_shards)

    def check(a, b):
        assert a.stats == b.stats
        assert a.clusterstats.as_dict() == b.clusterstats.as_dict()
        for slot in a.shards:
            _assert_src_state_equal(a.shards[slot], b.shards[slot])

    result, router = _differential(
        _make_cluster,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=27)],
        check,
        max_requests=8000)
    assert result.completed_ops == 8000
    # Both shards must have seen traffic or the run-splitting was moot.
    assert all(len(shard.mapping) > 0
               for shard in router.shards.values())


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
# trace replay (warm-up snapshot + measurement window)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("group,warmup,think", [
    ("write", 0.0, 0.0),
    ("mixed", 0.05, 0.0),
    ("read", 0.0, 0.002),
])
def test_replay_group_batched_bit_identical(group, warmup, think):
    results = {}
    targets = {}
    for batched in (False, True):
        src = make_src()
        results[batched] = replay_group(
            src, group, scale=0.002, duration=float("inf"),
            warmup=warmup, seed=5, threads_per_trace=1,
            max_requests=5000, think_time=think, batched=batched)
        targets[batched] = src
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(targets[False], targets[True])
    assert results[False].completed_ops > 0


# ----------------------------------------------------------------------
# engine fallback: a declining chunk fn degenerates to the scalar loop
# ----------------------------------------------------------------------
def test_always_declining_chunk_fn_matches_scalar_loop():
    span = 32 * MIB
    results = {}
    devices = {}
    for mode in ("scalar", "declining"):
        ssd = SSDDevice(TINY_SSD)

        def issue(req, now, _ssd=ssd):
            return _ssd.submit(req, now)

        issue_chunk = None
        if mode == "declining":
            def issue_chunk(rows, start, think, deadline, limit):
                return None, None, 0

        results[mode] = run_chunk_streams(
            issue, [uniform_random_chunks(span, 4 * KIB, seed=28)],
            issue_chunk=issue_chunk, max_requests=3000)
        devices[mode] = ssd
    assert (results["declining"].as_dict()
            == results["scalar"].as_dict())
    assert devices["declining"].stats == devices["scalar"].stats


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


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_engine_audit", REPO_ROOT / "scripts" / "bench_engine.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_scenarios_never_materialize_request_lists():
    from repro.common.types import IoStats, LatencyStats
    from repro.sim.engine import RunResult
    from repro.workloads.replay import ReplayResult

    bench = _load_bench_module()
    bench.precondition = lambda ssd, fill_fraction: None
    seen = []

    def fake_run_streams(issue, sources, **kwargs):
        for source in sources:
            _assert_lazy(source)
        seen.append(len(sources))
        return RunResult(elapsed=1.0, stats=IoStats(),
                         latency=LatencyStats(), completed_ops=1)

    def fake_run_chunk_streams(issue, sources, **kwargs):
        for source in sources:
            _assert_lazy(source)
        seen.append(("chunks", len(sources)))
        return RunResult(elapsed=1.0, stats=IoStats(),
                         latency=LatencyStats(), completed_ops=1)

    def fake_replay_group(target, group, **kwargs):
        seen.append("replay")
        return ReplayResult(group=group, elapsed=1.0, app_bytes=0,
                            read_bytes=0, write_bytes=0, completed_ops=1,
                            io_amplification=0.0, hit_ratio=0.0,
                            ssd_bytes=0, origin_bytes=0)

    bench.run_streams = fake_run_streams
    bench.run_chunk_streams = fake_run_chunk_streams
    bench.replay_group = fake_replay_group
    rows = [
        bench._scenario_engine("float/depth1", 10, 1, False, 1),
        bench._scenario_engine("submission/depth32", 10, 32, True, 1),
        bench._scenario_src("src/randwrite4k", 10, 1, batched=True),
        bench._scenario_src("src/randwrite4k-scalar", 10, 1),
        bench._scenario_src_obs("src/randwrite4k-obs", 10, 1,
                                batched=True),
        bench._scenario_cluster("cluster/passthrough", 10, 1,
                                batched=True),
        bench._scenario_replay("replay/msr-write", 10, 1, batched=True),
    ]
    assert len(seen) == 7
    assert all(row["scenario"] for row in rows)


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
    """Arming a member's plan by assignment must invalidate the cached
    fast-path verdict immediately — no request traffic in between."""
    src = _make_injected_src()
    assert src.window.chunk_fast_ok(0.0)
    rows = make_chunk([0, PAGE_SIZE], PAGE_SIZE)

    _, _, n = src.submit_chunk(rows, 0.0, 0.0, float("inf"), 0)
    assert n == 2

    src.ssds[0].plan = FaultPlan(seed=7).limp_window(0.0, 1e9, 4.0)
    assert not src.window.chunk_fast_ok(0.0)
    _, _, n = src.submit_chunk(rows, 1.0, 0.0, float("inf"), 0)
    assert n == 0                      # declined -> engine goes scalar

    src.ssds[0].disarm()
    assert src.window.chunk_fast_ok(0.0)
    _, _, n = src.submit_chunk(rows, 2.0, 0.0, float("inf"), 0)
    assert n == 2


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
    assert not targets[True].window.chunk_fast_ok(0.0)
