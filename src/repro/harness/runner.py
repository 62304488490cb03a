"""Run helpers and the sweep cells the experiment registry uses.

A cell is ``cell(row, build, es) -> (value, side)``: it builds a fresh,
seeded stack, runs one workload on it, and returns the table value plus
whatever side data the experiment's notes need (None when they need
none).  Cells are module-level so that ``--jobs`` can pickle them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.baselines.common import CacheTarget, WritePolicy
from repro.block.device import BlockDevice
from repro.common.types import Op
from repro.common.units import KIB, MIB, PAGE_SIZE, mb_per_sec
from repro.core.config import SrcConfig
from repro.cost.lifetime import (CostEffectiveness, PAPER_DAILY_WRITES,
                                 flash_waf, lifetime_days)
from repro.cost.products import PRODUCTS, Product
from repro.harness.context import (CACHE_SPACE, ExperimentScale,
                                   build_bcache, build_flashcache,
                                   build_origin, build_src, build_ssds)
from repro.obs.recorder import get_recorder
from repro.sim.engine import run_streams
from repro.ssd.device import SSDDevice, precondition
from repro.ssd.spec import SATA_MLC_128
from repro.workloads import fio
from repro.workloads.replay import ReplayResult, replay_group

TRACE_GROUPS = ("write", "mixed", "read")

Cell = Tuple[Any, Any]


def run_trace_group(target: CacheTarget, group: str,
                    es: ExperimentScale,
                    think_time: float = 0.0) -> ReplayResult:
    """Replay one Table 6 trace group with the preset's windows.

    ``think_time`` paces each replay thread below saturation (zero, the
    default, is the paper's saturated replay).
    """
    return replay_group(target, group, scale=es.scale,
                        duration=es.duration, warmup=es.warmup,
                        seed=es.seed, think_time=think_time)


def run_fio_random_write(device: BlockDevice, es: ExperimentScale,
                         span: Optional[int] = None,
                         flush_every: int = 0) -> float:
    """The paper's FIO setting; returns write MB/s.

    4 KiB uniform-random writes from ``es.fio_iodepth`` x
    ``es.fio_threads`` streams: iodepth 32, 4 threads (§3.1) at the
    default preset, fewer at the quick one.
    """
    span = span or device.size
    streams = [fio.uniform_random(span, 4 * KIB, Op.WRITE,
                                  seed=es.seed * 1000 + i,
                                  flush_every=flush_every)
               for i in range(es.fio_iodepth * es.fio_threads)]
    run = run_streams(device.submit, streams,
                      duration=es.warmup + es.duration,
                      sampler=_sampler_for(device))
    return mb_per_sec(run.stats.write_bytes, run.elapsed)


def run_fio_sequential_write(device: BlockDevice, es: ExperimentScale,
                             request_size: int = 128 * KIB,
                             flush_every_bytes: int = 0) -> float:
    """Single sequential writer over the whole device; returns write
    MB/s."""
    stream = fio.sequential(device.size, request_size, Op.WRITE,
                            flush_every_bytes=flush_every_bytes)
    run = run_streams(device.submit, [stream],
                      duration=es.duration + es.warmup,
                      sampler=_sampler_for(device))
    return mb_per_sec(run.stats.write_bytes, run.elapsed)


def _sampler_for(device: BlockDevice):
    """The ambient recorder's sampler, bound to ``device`` (or None)."""
    recorder = get_recorder()
    if not recorder.enabled or recorder.sampler is None:
        return None
    recorder.sampler.bind_target(device)
    return recorder.sampler


# ----------------------------------------------------------------------
# sweep cells
# ----------------------------------------------------------------------
def replay(group: str, build: Callable[[ExperimentScale], CacheTarget],
           es: ExperimentScale,
           fmt: Callable[[ReplayResult, CacheTarget], Cell]) -> Cell:
    """Replay ``group`` on a fresh ``build(es)``; ``fmt`` reads the run.

    ``fmt`` sees the target after the run as well as the replay result,
    so a cell can carry the stack's whole-run counters to its notes.
    """
    target = build(es)
    return fmt(run_trace_group(target, group, es), target)


BASELINES = {"Bcache": build_bcache, "Flashcache": build_flashcache}


def fio_on_baseline(cache: str, setup: Tuple[int, WritePolicy],
                    es: ExperimentScale) -> Cell:
    """FIO random-write MB/s on one baseline at ``(raid_level, policy)``."""
    raid_level, policy = setup
    target = BASELINES[cache](es.scale, raid_level=raid_level, policy=policy)
    return run_fio_random_write(target, es,
                                span=int(CACHE_SPACE * es.scale)), None


def fio_on_ssd(pattern: str, flush: bool, es: ExperimentScale) -> Cell:
    """MB/s of one raw preconditioned SSD, with or without flushes."""
    ssd = build_ssds(es.scale, n=1)[0]
    if pattern == "Sequential":
        return run_fio_sequential_write(
            ssd, es, request_size=512 * KIB,
            flush_every_bytes=512 * KIB if flush else 0), None
    # Random writes target the cache-sized window of the preconditioned
    # device (the paper's §3 setting): confining invalidations keeps the
    # FTL's garbage collection off the critical path, so the flush cost
    # shows as the paper measured it rather than drowning in GC.
    return run_fio_random_write(ssd, es, span=int(CACHE_SPACE * es.scale),
                                flush_every=32 if flush else 0), None


def chunk_overwrites(ops: float, chunk_nominal_mb: int,
                     es: ExperimentScale, passes: float = 2.0) -> Cell:
    """Throughput of random chunk-sized overwrites at one (OPS, size)."""
    spec = SATA_MLC_128.scaled(es.scale)
    ssd = SSDDevice(spec)
    usable_fraction = 1.0 - ops
    chunk = int(chunk_nominal_mb * MIB * es.scale)
    chunk = max(PAGE_SIZE, chunk - chunk % PAGE_SIZE)
    precondition(ssd, fill_fraction=usable_fraction)
    usable = int(spec.capacity * usable_fraction)
    n_chunks = max(1, usable // chunk)
    rng = np.random.default_rng(es.seed)
    now, total = 0.0, 0
    target = int(passes * usable)
    while total < target:
        offset = int(rng.integers(0, n_chunks)) * chunk
        now = ssd.write(offset, chunk, now)
        total += chunk
    return mb_per_sec(total, now), None


def measure_cost(product: Product, group: str,
                 es: ExperimentScale) -> CostEffectiveness:
    """One Figure 6 bar group: SRC over ``product`` replaying ``group``.

    The four-drive SATA sets run as RAID-5, the single NVMe without
    parity; lifetime comes from the measured flash write amplification.
    """
    config = SrcConfig(n_ssds=product.n_units,
                       raid_level=0 if product.n_units == 1 else 5,
                       cache_space=CACHE_SPACE)
    ssds = build_ssds(es.scale, n=product.n_units, spec=product.spec)
    cache = build_src(es.scale, config=config, ssds=ssds,
                      origin=build_origin(), spec=product.spec)
    res = run_trace_group(cache, group, es)
    programmed = sum(s.bytes_programmed for s in ssds)
    app_writes = max(1, cache.stats.write_bytes)
    waf = flash_waf(app_writes, programmed)
    life = lifetime_days(product.total_capacity, product.endurance, waf,
                         PAPER_DAILY_WRITES)
    return CostEffectiveness(
        product=product.key, workload=group,
        throughput_mb_s=res.throughput_mb_s,
        set_cost_usd=product.set_cost_usd,
        lifetime_days=life,
    )


def cost(group: str, key: str, es: ExperimentScale) -> Cell:
    """Figure 6's four panels for one product, and its cost record."""
    ce = measure_cost(PRODUCTS[key], group, es)
    return (f"{ce.throughput_mb_s:.0f} | {ce.lifetime_days:.0f} | "
            f"{ce.perf_per_dollar:.3f} | {ce.lifetime_per_dollar:.2f}"), ce
