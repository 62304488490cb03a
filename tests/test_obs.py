"""The observability subsystem: metrics, events, sampler, collect."""

import io
import json
import random
from dataclasses import replace

import numpy as np
import pytest

import repro.obs as obs
from _stacks import TINY_DISK, TINY_SRC, TINY_SSD
from repro.baselines.common import CacheStats
from repro.block.device import NullDevice, StatsDevice
from repro.common.chunks import make_chunk
from repro.common.types import IoStats, LatencyStats
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.config import RepairConfig
from repro.core.src import SrcCache, SrcStats
from repro.hdd.backend import PrimaryStorage
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.recorder import NULL_RECORDER
from repro.ssd.device import SSDDevice


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_histogram_quantiles_log_bins():
    h = Histogram("lat")
    for us in range(1, 1001):          # 1us .. 1ms uniformly
        h.record(us * 1e-6)
    # Log-scale bins with 8 sub-bins per octave: relative error is
    # bounded by one bin width (factor 2**(1/8) ~= 9%).
    assert h.count == 1000
    assert h.p50 == pytest.approx(500e-6, rel=0.10)
    assert h.quantile(0.95) == pytest.approx(950e-6, rel=0.10)
    assert h.p99 == pytest.approx(990e-6, rel=0.10)
    assert h.max == pytest.approx(1000e-6)
    assert h.quantile(0.0) == pytest.approx(1e-6, rel=0.10)


def test_histogram_single_value_and_empty():
    h = Histogram("x")
    assert h.count == 0 and h.p50 == 0.0 and h.max == 0.0
    h.record(3e-3)
    assert h.p50 == pytest.approx(3e-3)   # clamped to [min, max]
    assert h.p99 == pytest.approx(3e-3)
    assert h.mean == pytest.approx(3e-3)


def test_histogram_as_dict():
    h = Histogram("x")
    h.record(1e-3)
    d = h.as_dict()
    assert d["type"] == "histogram"
    assert d["count"] == 1
    assert set(d) >= {"mean", "p50", "p95", "p99", "max"}


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricRegistry()
    c = reg.counter("gc.count")
    c.inc()
    assert reg.counter("gc.count") is c
    reg.gauge("free").set(7)
    reg.histogram("lat").record(1e-3)
    with pytest.raises(TypeError):
        reg.gauge("gc.count")
    d = reg.as_dict()
    assert d["gc.count"]["value"] == 1
    assert d["free"]["value"] == 7
    assert d["lat"]["count"] == 1


def test_counter_gauge_as_dict():
    c = Counter("n")
    c.inc(3)
    c.inc()
    assert c.as_dict() == {"type": "counter", "value": 4}
    g = Gauge("g")
    g.set(1.5)
    assert g.as_dict() == {"type": "gauge", "value": 1.5}


# ----------------------------------------------------------------------
# unified stats protocol round-trips
# ----------------------------------------------------------------------
def test_iostats_round_trip_and_delta():
    s = IoStats()
    s.read_bytes, s.read_ops = 4096, 1
    s.write_bytes, s.write_ops = 8192, 2
    d = s.as_dict()
    assert d["total_bytes"] == 12288 and d["total_ops"] == 3
    back = IoStats.from_dict(d)          # derived keys are ignored
    assert back == s
    later = s.snapshot()
    later.write_bytes += 100
    delta = later.delta(s)
    assert delta.write_bytes == 100 and delta.read_bytes == 0


def test_cachestats_round_trip():
    s = CacheStats(read_hits=3, read_misses=1, write_hits=2,
                   write_misses=2)
    d = s.as_dict()
    assert d["hit_ratio"] == pytest.approx(5 / 8)
    assert d["read_hit_ratio"] == pytest.approx(3 / 4)
    assert CacheStats.from_dict(d) == s
    assert s.snapshot() == s and s.snapshot() is not s
    later = s.snapshot()
    later.read_hits += 5
    assert later.delta(s).read_hits == 5


def test_srcstats_round_trip():
    s = SrcStats(segment_writes=10, s2s_collections=2)
    assert SrcStats.from_dict(s.as_dict()) == s
    later = s.snapshot()
    later.segment_writes += 1
    assert later.delta(s).segment_writes == 1


def test_latencystats_as_dict():
    s = LatencyStats()
    for v in (1e-3, 2e-3, 3e-3):
        s.record(v)
    d = s.as_dict()
    assert d["count"] == 3
    assert d["mean"] == pytest.approx(2e-3)
    assert d["max"] == pytest.approx(3e-3)
    assert set(d) >= {"p50", "p95", "p99"}


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
def test_event_as_dict_has_type_tag():
    e = obs.GcStart(t=1.5, device="ssd0", victim=3, valid_pages=7)
    assert e.as_dict() == {"type": "GcStart", "t": 1.5, "device": "ssd0",
                           "victim": 3, "valid_pages": 7}
    assert e.kind == "GcStart"


def test_event_trace_bounded_but_counts_exact():
    trace = obs.EventTrace(max_events=5)
    for i in range(12):
        trace.append(obs.Erase(t=float(i), device="d", superblock=i,
                               erase_count=1))
    assert len(trace) == 5
    assert trace.dropped == 7
    assert trace.counts() == {"Erase": 12}
    assert len(trace.of_type(obs.Erase)) == 5


def test_null_recorder_is_default_and_inert():
    dev = NullDevice(1 * MIB)
    assert dev.obs is NULL_RECORDER
    assert not dev.obs.enabled
    dev.obs.emit(obs.FlushBarrier(t=0.0, device="x"))   # no-op
    dev.write(0, 4 * KIB, 0.0)


# ----------------------------------------------------------------------
# recorder + attach + FTL/SRC emission
# ----------------------------------------------------------------------
def _tiny_src(recorder):
    ssds = [SSDDevice(TINY_SSD, name=f"tiny{i}") for i in range(4)]
    backend = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    return obs.attach(SrcCache(ssds, backend, TINY_SRC), recorder)


def _drive(cache, seed=1, n=4000, io_size=64 * KIB):
    """Seeded mixed workload over a small hot span (forces GC)."""
    rng = random.Random(seed)
    span = 32 * MIB
    now = 0.0
    for _ in range(n):
        offset = rng.randrange(span // io_size) * io_size
        if rng.random() < 0.7:
            now = cache.write(offset, io_size, now)
        else:
            now = cache.read(offset, io_size, now)
    return now


def test_attach_wires_whole_tree():
    rec = obs.ObsRecorder()
    cache = _tiny_src(rec)
    for dev in obs.iter_devices(cache):
        assert dev.obs is rec
    assert cache.ssds[0].ftl.obs is rec


def test_attach_reaches_every_shard_of_a_cluster():
    from repro.cluster import ClusterConfig, ShardRouter
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    shards = [SrcCache([SSDDevice(TINY_SSD, name=f"s{i}t{j}")
                        for j in range(4)], origin, TINY_SRC)
              for i in range(2)]
    rec = obs.ObsRecorder()
    router = obs.attach(ShardRouter(shards, origin, ClusterConfig(n_shards=2)),
                        rec)
    for shard in shards:
        assert shard.obs is rec
        assert all(ssd.obs is rec and ssd.ftl.obs is rec
                   for ssd in shard.ssds)
    # A tree walked twice registers each path ledger once: the caches'
    # (summed under their shared name) and the router's own.
    rows = make_chunk(np.arange(64) * PAGE_SIZE, PAGE_SIZE)
    assert shards[0].submit_chunk(rows, 0.0, 0.0, float("inf"), 0)[2] == 64
    obs.attach(router, rec)
    assert rec.paths() == {"src": {"vector_rows": 64, "boundary_rows": 0,
                                   "twait_scans": 0, "refusal_scans": 0},
                           "cluster": {}}


def test_observed_cluster_keeps_its_chunk_path_and_its_histograms():
    """An ``ObsRecorder`` on every device — what ``repro run --format
    json`` and ``repro trace`` install — leaves the router's chunk path
    open: rows take the lanes, ``paths()`` says so under each device's
    name, and the router's and every shard's latency histograms are
    bit-identical to the per-request run's."""
    from repro.cluster import ClusterConfig, ShardRouter
    from repro.sim.engine import run_chunk_streams
    from repro.workloads.fio import uniform_random_chunks
    n, runs = 6000, {}
    for batched in (False, True):
        origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
        shards = [SrcCache([SSDDevice(TINY_SSD, name=f"s{i}t{j}")
                            for j in range(4)], origin, TINY_SRC)
                  for i in range(2)]
        rec = obs.ObsRecorder()
        router = obs.attach(ShardRouter(
            shards, origin, ClusterConfig(n_shards=2, slab_blocks=16)), rec)
        for i, shard in enumerate(shards):
            # As build_cluster labels them: after a recorder is attached.
            shard.name = f"shard{i}"
        run_chunk_streams(
            router.submit, [uniform_random_chunks(512 * MIB, 4 * KIB, seed=5)],
            max_requests=n,
            issue_chunk=router.submit_chunk if batched else None)
        runs[batched] = rec
    rec_s, rec_b = runs[False], runs[True]
    assert (rec_b.telemetry(include_events=True)
            == rec_s.telemetry(include_events=True))
    for name in ("cluster", "shard0", "shard1"):
        hist_s, hist_b = rec_s.device_latency(name), rec_b.device_latency(name)
        assert hist_b.count == hist_s.count > 0
        assert hist_b.total == hist_s.total      # np.add.accumulate order
        assert (hist_b.min, hist_b.max) == (hist_s.min, hist_s.max)
        assert hist_b._bins == hist_s._bins
    assert rec_b.device_latency("cluster").count == n
    paths = rec_b.paths()
    assert paths["cluster"] == {}                # the router declined nothing
    assert sum(paths[f"shard{i}"]["vector_rows"] for i in range(2)) > 0.9 * n
    assert all(rec_s.paths()[f"shard{i}"]["vector_rows"] == 0
               for i in range(2))


def test_collect_and_attach_walk_the_same_tree():
    """A hot spare, which ``attach`` has always reached, has a node in
    ``collect()`` — under the role the shared child walk gives it."""
    config = replace(TINY_SRC, repair=RepairConfig(hot_spares=1))
    spare = SSDDevice(TINY_SSD, name="spare0")
    ssds = [SSDDevice(TINY_SSD, name=f"tiny{i}") for i in range(4)]
    cache = SrcCache(ssds, PrimaryStorage(n_disks=4, disk_spec=TINY_DISK),
                     config, spares=[spare])
    kids = obs.collect(cache)["children"]
    assert kids["spares[0]"]["name"] == "spare0"
    assert "ftl" in kids["spares[0]"]

    def names(node):
        yield node.get("name")
        for child in node.get("children", {}).values():
            yield from names(child)

    walked = [dev.name for dev in obs.iter_devices(cache)]
    assert sorted(walked) == sorted(names(obs.collect(cache)))
    assert "spare0" in walked


def test_attach_null_recorder_is_free():
    cache = _tiny_src(NULL_RECORDER)
    assert cache.obs is NULL_RECORDER
    assert cache.ssds[0].obs is NULL_RECORDER


def test_member_recorder_attached_after_a_seal_sees_every_request():
    """A recorder put on one member mid-run — a plain attribute nobody
    is told about — takes that member's unit writes off the lean path:
    it records as many latencies as the member's ``IoStats`` counts."""
    cache = _tiny_src(NULL_RECORDER)
    _drive(cache, n=400)
    assert cache.srcstats.segment_writes > 0
    ssd = cache.ssds[0]
    rec = obs.ObsRecorder()
    obs.attach(ssd, rec)
    before = ssd.stats.snapshot()
    _drive(cache, seed=2, n=400)
    served = ssd.stats.delta(before)
    assert served.write_ops > 0
    assert rec.device_latency(ssd.name).count == served.total_ops


def test_src_emits_seals_and_gc_events():
    rec = obs.ObsRecorder()
    cache = _tiny_src(rec)
    _drive(cache, n=6000)
    counts = rec.trace.counts()
    assert counts.get("SegmentSealed", 0) > 0
    # enough rewrites to force group reclamation on the tiny window
    assert counts.get("GcStart", 0) > 0
    assert counts.get("GcStart") == counts.get("GcEnd")
    # per-device latency histograms were fed by BlockDevice.submit
    hist = rec.device_latency(cache.name)
    assert hist is not None and hist.count > 0
    # events carry sane simulated timestamps
    assert all(e.t >= 0.0 for e in rec.trace)


def test_ftl_emits_gc_and_erase_with_owner_name():
    rec = obs.ObsRecorder()
    ssd = obs.attach(SSDDevice(TINY_SSD, name="lone"), rec)
    now = 0.0
    for _ in range(4):                    # overwrite to trigger FTL GC
        for off in range(0, ssd.size // 2, 64 * KIB):
            now = ssd.write(off, 64 * KIB, now)
    erases = rec.trace.of_type(obs.Erase)
    assert erases and all(e.device == "lone" for e in erases)
    assert all(e.erase_count >= 1 for e in erases)


def test_event_trace_deterministic_under_fixed_seed():
    rec_a, rec_b = obs.ObsRecorder(), obs.ObsRecorder()
    _drive(_tiny_src(rec_a), seed=42)
    _drive(_tiny_src(rec_b), seed=42)
    assert len(rec_a.trace) > 0
    assert rec_a.trace.as_dicts() == rec_b.trace.as_dicts()


def test_ambient_use_scopes_recorder():
    rec = obs.ObsRecorder()
    assert obs.get_recorder() is NULL_RECORDER
    with obs.use(rec):
        assert obs.get_recorder() is rec
        cache = _tiny_src(None)           # attach picks up the ambient
        assert cache.obs is rec
    assert obs.get_recorder() is NULL_RECORDER


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------
def test_sampler_interval_gating():
    s = obs.Sampler(interval=1.0)
    stats = IoStats()
    for t in (0.0, 0.2, 0.9, 1.0, 1.5, 2.3):
        stats.write_bytes += 100
        s.observe(t, stats)
    assert [row["t"] for row in s.rows] == [0.0, 1.0, 2.3]
    assert s.rows[-1]["write_bytes"] == 600


def test_sampler_probes_tolerate_failure():
    s = obs.Sampler(interval=0.5)
    s.add_probe("boom", lambda: 1 / 0)
    s.add_probe("ok", lambda: 7)
    s.observe(0.0, IoStats())
    assert s.rows[0]["boom"] is None
    assert s.rows[0]["ok"] == 7


def test_sampler_bind_target_probes_src():
    rec = obs.ObsRecorder(sample_interval=0.5)
    cache = _tiny_src(rec)
    rec.sampler.bind_target(cache)
    _drive(cache, n=1500)
    rec.sampler.observe(0.0, IoStats())   # as the engine would
    row = rec.sampler.rows[-1]
    assert 0.0 <= row["utilization"] <= 1.0
    assert row["free_groups"] is not None
    assert row["dirty_blocks"] >= 0
    assert row["mean_erase_count"] >= 0.0


def test_engine_drives_sampler():
    from repro.common.types import Op, Request
    from repro.sim.engine import run_streams

    dev = NullDevice(64 * MIB, latency=1e-3)
    sampler = obs.Sampler(interval=0.01)

    def source():
        offset = 0
        while True:
            yield Request(Op.WRITE, offset % (32 * MIB), 4 * KIB)
            offset += 4 * KIB

    run = run_streams(lambda r, t: dev.submit(r, t), [source()],
                      duration=0.1, sampler=sampler)
    assert run.completed_ops > 0
    assert len(sampler.rows) >= 5
    assert sampler.rows[-1]["write_bytes"] > 0


# ----------------------------------------------------------------------
# collect + exporters
# ----------------------------------------------------------------------
def test_collect_walks_src_stack():
    cache = _tiny_src(NULL_RECORDER)
    _drive(cache, n=800)
    tree = obs.collect(cache)
    assert tree["type"] == "SrcCache"
    assert tree["io"]["total_ops"] > 0
    assert "hit_ratio" in tree["cache"]
    assert "segment_writes" in tree["src"]
    kids = tree["children"]
    assert {f"ssds[{i}]" for i in range(4)} <= set(kids)
    assert "origin" in kids
    assert kids["ssds[0]"]["ftl"]["write_amplification"] >= 1.0
    json.dumps(tree)                      # JSON-ready throughout


def test_collect_sees_stats_tap_latency():
    tap = StatsDevice(NullDevice(4 * MIB, latency=1e-3))
    tap.write(0, 4 * KIB, 0.0)
    node = obs.collect(tap)
    assert node["latency"]["count"] == 1
    assert node["latency"]["p50"] == pytest.approx(1e-3, rel=0.10)
    assert node["children"]["lower"]["type"] == "NullDevice"


def test_stats_device_amplification_accessor():
    tap = StatsDevice(NullDevice(4 * MIB))
    tap.write(0, 8 * KIB, 0.0)
    tap.read(0, 8 * KIB, 0.0)
    assert tap.amplification(8 * KIB) == pytest.approx(2.0)
    assert tap.amplification(0) == 0.0
    assert tap.snapshot_bytes() == 16 * KIB


def test_to_json_serializes_events_and_metrics():
    rec = obs.ObsRecorder()
    rec.registry.counter("n").inc()
    rec.emit(obs.Destage(t=1.0, device="d", blocks=8))
    text = obs.to_json(rec.telemetry(include_events=True))
    data = json.loads(text)
    assert data["metrics"]["n"]["value"] == 1
    assert data["events"]["log"][0]["type"] == "Destage"


def test_events_to_csv():
    sink = io.StringIO()
    obs.events_to_csv([
        obs.Erase(t=0.5, device="s0", superblock=1, erase_count=2),
        obs.Destage(t=1.0, device="wb", blocks=64),
    ], sink)
    lines = sink.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["type", "t", "device"]
    assert len(lines) == 3


def test_samples_to_csv():
    sink = io.StringIO()
    obs.samples_to_csv([{"t": 0.0, "ops": 1}, {"t": 1.0, "ops": 2}], sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 3


def test_telemetry_shape():
    rec = obs.ObsRecorder(sample_interval=1.0)
    tel = rec.telemetry()
    assert set(tel) == {"metrics", "events", "samples"}
    assert tel["events"] == {"counts": {}, "recorded": 0, "dropped": 0}
