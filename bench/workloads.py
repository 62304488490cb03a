"""The seven workloads: the stack each one builds and the input it is fed.

Every builder returns a :class:`Stack`: the device tree under test plus
the generated request sources.  The program under test receives only
those generated inputs; counting, windowing and timing live in
:mod:`measure`, span recording in :mod:`spans`.

Sizing rule: ``warm`` and ``timed`` are the request counts of the
warm-up and of the timed window at size factor 1.0.  A run scales *all*
of them by one common factor (``--seconds`` over the 16 s of a full-size
run, or 1/20 for smoke and twin runs) — never one workload alone, so
the workloads keep their relative weights.  ``BENCHMARK.json`` holds the
one-line reason for each workload, ``bench/README.md`` the long one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.common.chunks import OP_READ, OP_WRITE, make_chunk
from repro.common.units import KIB, PAGE_SIZE
from repro.harness.context import build_cluster, build_src
from repro.ssd.device import SSDDevice, precondition
from repro.ssd.spec import SATA_MLC_128
from repro.tenancy.qos import QosSpec
from repro.tenancy.registry import TenantRegistry
from repro.workloads.fio import uniform_random, uniform_random_chunks
from repro.workloads.msr import build_group_chunks
from repro.workloads.zipf import ZipfSampler, zipf_chunks

SCALE = 1 / 32
SSD_FILL = 0.90        # bare-SSD precondition: GC headroom stays typical
# Random page overwrites after the sequential fill.  The sequential
# fill leaves ~180k free pages, so without ageing the drive would not
# collect garbage until that many requests in; after 300k overwrites
# FTL write amplification has levelled at ~3.4.
SSD_AGEING_PAGES = 400_000
CHUNK_ROWS = 4096
N_TENANTS = 4
TENANT_QOS = QosSpec(min_share=0.1, max_share=0.6)


@dataclass
class Stack:
    """One built system under test and its generated input."""

    root: object                       # collect() walks from here
    sources: List[Iterator]            # request or chunk generators
    chunked: bool                      # run_chunk_streams vs run_streams
    caches: List = field(default_factory=list)   # every SrcCache
    ssds: List = field(default_factory=list)     # every SSDDevice
    origin: Optional[object] = None
    router: Optional[object] = None
    registry: Optional[object] = None
    tenant_names: Optional[List[str]] = None
    iodepth: int = 1
    split_phase: bool = False          # issue through submit_request


@dataclass(frozen=True)
class Workload:
    name: str
    warm: int
    timed: int
    build: Callable[[int], Stack]
    # Smallest warm-up that reaches the state the workload exists to
    # measure; the size factor never cuts the warm-up below it.
    warm_floor: int = 0


def _src_stack(sources_for: Callable[[object], List[Iterator]]) -> Stack:
    cache = build_src(SCALE)
    return Stack(root=cache, sources=sources_for(cache), chunked=True,
                 caches=[cache], ssds=list(cache.ssds), origin=cache.origin)


def _ssd_randwrite(seed: int) -> Stack:
    ssd = SSDDevice(SATA_MLC_128.scaled(SCALE))
    precondition(ssd, fill_fraction=SSD_FILL)
    span = int(ssd.size * SSD_FILL)
    ssd.ftl.write_batch(np.random.default_rng([seed, 0x616765]).integers(
        0, span // ssd.spec.page_size, size=SSD_AGEING_PAGES))
    return Stack(root=ssd, sources=[uniform_random(span, 4 * KIB, seed=seed)],
                 chunked=False, ssds=[ssd], iodepth=32, split_phase=True)


def _src_write_hot(seed: int) -> Stack:
    return _src_stack(lambda c: [zipf_chunks(c.config.cache_space // 2,
                                             4 * KIB, seed=seed)])


def _src_write_steady(seed: int) -> Stack:
    return _src_stack(lambda c: [uniform_random_chunks(
        4 * c.config.cache_space, 4 * KIB, seed=seed)])


def _with_reads(chunks: Iterator[np.ndarray], read_fraction: float,
                seed: int) -> Iterator[np.ndarray]:
    """Turn a share of a write stream's rows into reads (mask from seed)."""
    rng = np.random.default_rng([seed, 0x6d6978])
    for chunk in chunks:
        chunk["op"][rng.random(len(chunk)) < read_fraction] = OP_READ
        yield chunk


def _src_mix_zipf(seed: int) -> Stack:
    return _src_stack(lambda c: [_with_reads(
        zipf_chunks(2 * c.config.cache_space, 4 * KIB, seed=seed),
        0.7, seed)])


def _replay_msr_write(seed: int) -> Stack:
    def sources(cache):
        streams, span = build_group_chunks("write", scale=SCALE, seed=seed)
        if span > cache.size:
            raise ValueError("trace group does not fit the origin volume")
        return streams
    return _src_stack(sources)


def _cluster_write_hot(seed: int) -> Stack:
    router = build_cluster(SCALE, n_shards=2)
    shards = [router.shards[slot] for slot in sorted(router.shards)]
    cache_total = sum(s.config.cache_space for s in shards)
    return Stack(root=router,
                 sources=[zipf_chunks(cache_total // 2, 4 * KIB, seed=seed)],
                 chunked=True, caches=shards,
                 ssds=[ssd for s in shards for ssd in s.ssds],
                 origin=router.origin, router=router)


def _tenant_chunks(bases: List[int], blocks: int,
                   seed: int) -> Iterator[np.ndarray]:
    """One stream of tagged rows: uniform tenant pick, Zipf inside it."""
    rng = np.random.default_rng([seed, 0x74656e])
    samplers = [ZipfSampler(blocks, seed=seed * 1000 + i)
                for i in range(len(bases))]
    while True:
        tenant = rng.integers(0, len(bases), size=CHUNK_ROWS)
        block = np.empty(CHUNK_ROWS, dtype=np.int64)
        for i, base in enumerate(bases):
            mine = tenant == i
            block[mine] = base + samplers[i].sample_many(
                int(np.count_nonzero(mine)))
        yield make_chunk(block * PAGE_SIZE, PAGE_SIZE, OP_WRITE,
                         tenant=tenant)


def _tenants_write_hot(seed: int) -> Stack:
    cache = build_src(SCALE)
    registry = TenantRegistry(cache)
    names = [f"tenant{i}" for i in range(N_TENANTS)]
    vol_blocks = cache.config.cache_space // 2 // N_TENANTS // PAGE_SIZE
    volumes = [registry.create_volume(name, vol_blocks * PAGE_SIZE,
                                      qos=TENANT_QOS) for name in names]
    return Stack(root=cache,
                 sources=[_tenant_chunks([v.base_block for v in volumes],
                                         vol_blocks, seed)],
                 chunked=True, caches=[cache], ssds=list(cache.ssds),
                 origin=cache.origin, registry=registry, tenant_names=names)


# name, warm-up requests, timed requests, builder.
_ALL = [
    Workload("ssd-randwrite", 50_000, 300_000, _ssd_randwrite),
    # The fastest workload by far, so the most rows: fewer would leave
    # its window under 2 s and only a handful of destage stalls in it.
    Workload("src-write-hot", 150_000, 1_600_000, _src_write_hot),
    # The 147,456-block cache wraps, and amplification levels at ~7.6,
    # after ~100k uniform writes.
    Workload("src-write-steady", 150_000, 250_000, _src_write_steady,
             warm_floor=100_000),
    Workload("src-mix-zipf", 100_000, 120_000, _src_mix_zipf),
    Workload("replay-msr-write", 20_000, 100_000, _replay_msr_write),
    Workload("cluster-write-hot", 50_000, 300_000, _cluster_write_hot),
    Workload("tenants-write-hot", 50_000, 200_000, _tenants_write_hot),
]
WORKLOADS: Dict[str, Workload] = {w.name: w for w in _ALL}
