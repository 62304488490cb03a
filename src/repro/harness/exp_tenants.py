"""Tenant isolation experiment: whale storm vs small-tenant p99.

A consolidated SRC array hosts a heavy-tailed tenant population
(:func:`repro.workloads.tenants.zipf_population`): several small
tenants whose working sets fit their reservations, and one write-heavy
*whale* whose footprint exceeds the whole cache.  Three runs:

* **alone** — the small tenants run without the whale: the baseline
  p99 each tenant would see on an unshared array;
* **shared (unenforced)** — the whale joins with QoS share enforcement
  off.  Its flood thrashes the log-structured cache (admissions,
  evictions, reclaim backpressure) and small-tenant p99 inflates —
  the interference the paper's single-tenant design ignores;
* **shared (enforced)** — same population with shares enforced: the
  whale is capped at its ``max_share`` occupancy (overflow writes go
  around the cache to the origin) and its submission rate is bounded
  by its token bucket.

Acceptance (checked here, reduced scale in CI): with enforcement the
worst small-tenant p99 stays within ``ISOLATION_BOUND`` of the alone
baseline, while the unenforced run must exceed it — otherwise the
storm was not violent enough to prove anything.  Shortfalls land in
the result notes as ``violation:`` lines; ``repro run tenants`` exits
nonzero on them.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Tuple

from repro.common.units import PAGE_SIZE
from repro.core.config import QosConfig, SrcConfig
from repro.harness.context import (CACHE_SPACE, DEFAULT_SCALE,
                                   ExperimentScale, build_src)
from repro.harness.parallel import parallel_map
from repro.harness.results import ExperimentResult, ratio
from repro.sim.engine import Engine, JobStream
from repro.tenancy import QosSpec, TenantRegistry
from repro.workloads.tenants import (TenantSpec, tenant_stream,
                                     volume_router, zipf_population)

# Small tenants keep a guaranteed slice; the whale gets a hard cap and
# a write-rate bucket.  Shares are fractions of cache data capacity.
# The reservation is sized to cover the largest small tenant's hot
# set: reclaim only protects blocks up to min_share, so a reservation
# well below the hot set leaves the rest churning between eviction and
# origin re-read (5 x 0.15 + whale 0.05 = 0.80 of capacity reserved).
SMALL_QOS = QosSpec(min_share=0.15, max_share=0.50, name="small")
# The whale's write cap bounds how fast it can churn the shared log
# (segment fills, reclaim work); residency isolation itself comes from
# admission control plus reservation-aware reclaim, which keep the
# small tenants miss-free no matter what the whale does.  Note the
# scale when sizing it: whale writes that spill to the origin
# (write-around over its max_share, destage otherwise) land as random
# 4 KiB writes on a RAID-10 of 7.2k disks that sustains only ~300 of
# those per second (~1.2 MiB/s), so a cap far above that would bury
# the backend under its own spill.
WHALE_QOS = QosSpec(min_share=0.05, max_share=0.25, max_write_mb_s=1.0,
                    name="whale")
N_TENANTS = 6          # 1 whale + 5 small
WHALE_STREAMS = 4      # the storm: 4 closed-loop jobs vs 1 per small
# Enforced-mode bound: worst small-tenant p99 may not exceed this
# factor of its alone baseline (and unenforced must exceed it).
ISOLATION_BOUND = 1.25


class _WarmupCut:
    """Engine sampler that ends the warmup window mid-run.

    At the first completion past ``warmup`` it resets the registry's
    per-tenant latency reservoirs and snapshots the cumulative byte
    count, so percentiles and throughput cover only the measured
    window without restarting the engine clock (which would confuse
    the tenants' token buckets)."""

    def __init__(self, registry: TenantRegistry, warmup: float):
        self.registry = registry
        self.warmup = warmup
        self.cut_bytes = 0
        self.done = warmup <= 0

    def observe(self, now: float, totals) -> None:
        if not self.done and now >= self.warmup:
            self.registry.reset_latency()
            self.cut_bytes = totals.total_bytes
            self.done = True


def _population(es: ExperimentScale, capacity_bytes: int,
                with_whale: bool) -> List[TenantSpec]:
    """The tenant mix: demand ~2x capacity, nearly all of it whale.

    ``alpha=4.0`` keeps the tail small on purpose: every small
    tenant's working set must fit its reservation (largest small
    ~0.06 of demand ~= 0.12 of capacity < min_share), because a
    tenant whose hot set exceeds its guaranteed slice churns against
    reclaim no matter how good the isolation is — each re-read costs
    a ~13 ms disk access, which no QoS knob can hide from p99.
    """
    specs = zipf_population(
        n_tenants=N_TENANTS, total_bytes=2 * capacity_bytes,
        n_whales=1, alpha=4.0,
        whale_qos=WHALE_QOS, small_qos=SMALL_QOS,
        read_fraction=0.5, whale_read_fraction=0.05, seed=es.seed)
    whale = replace(specs[0], streams=WHALE_STREAMS)
    smalls = specs[1:]
    return ([whale] + smalls) if with_whale else smalls


def _run_mode(es: ExperimentScale, mode: Tuple[str, bool, bool]) -> dict:
    """One run: build a fresh array, populate it, storm it, measure."""
    _, with_whale, enforce = mode
    config = SrcConfig(cache_space=CACHE_SPACE,
                       qos=QosConfig(enforce_shares=enforce))
    cache = build_src(es.scale, config)
    registry = TenantRegistry(cache)
    capacity_bytes = registry.capacity_blocks * PAGE_SIZE
    specs = _population(es, capacity_bytes, with_whale)

    volumes: Dict[str, object] = {
        spec.name: registry.create_volume(spec.name, spec.volume_bytes,
                                          spec.qos)
        for spec in specs}
    cut = _WarmupCut(registry, es.warmup)
    engine = Engine(volume_router(volumes), sampler=cut)
    for spec in specs:
        for i in range(spec.streams):
            engine.add_stream(JobStream(tenant_stream(spec, i),
                                        name=f"{spec.name}/{i}",
                                        iodepth=es.fio_iodepth))
    run = engine.run(duration=es.warmup + es.duration)
    registry.check_invariants()

    stats = registry.stats()
    small = {n: s for n, s in stats.items() if not n.startswith("whale")}
    whale = stats.get("whale0")
    worst_name, worst = max(small.items(),
                            key=lambda kv: kv[1]["latency"]["p99"])
    measured_bytes = run.stats.total_bytes - cut.cut_bytes
    return {
        "throughput": measured_bytes / 2**20 / es.duration,
        "small_p99": worst["latency"]["p99"],
        "small_name": worst_name,
        "small_hit_occ": sum(s["cached_blocks"] for s in small.values()),
        "whale_p99": whale["latency"]["p99"] if whale else 0.0,
        "whale_share": whale["share"] if whale else 0.0,
        "whale_max_share": (whale["qos"]["max_share"] if whale else 0.0),
        "rejected": whale["rejected_blocks"] if whale else 0,
        "write_arounds": whale["write_arounds"] if whale else 0,
        "throttle_waits": whale["throttle_waits"] if whale else 0,
        "stall_s": sum(s["stall_s"] for s in small.values()),
    }


MODES = (
    ("alone", False, True),
    ("shared (unenforced)", True, False),
    ("shared (enforced)", True, True),
)


def run(es: ExperimentScale = DEFAULT_SCALE,
        jobs: int = 1) -> ExperimentResult:
    """The three-mode isolation comparison (modes fan over ``jobs``)."""
    result = ExperimentResult(
        experiment="Tenants",
        title="Tenant isolation: 5 small tenants vs 1 write whale, "
              "per-tenant shares on the shared SRC array",
        columns=["Mode", "MB/s", "small p99 (ms)", "x alone",
                 "whale p99 (ms)", "whale share", "rejected",
                 "write-around"],
    )
    alone_p99 = 0.0
    rows: Dict[str, dict] = {}
    runs = parallel_map(partial(_run_mode, es), MODES, jobs=jobs)
    for (label, _, _), row in zip(MODES, runs):
        rows[label] = row
        if label == "alone":
            alone_p99 = row["small_p99"]
        result.add_row(label, row["throughput"], row["small_p99"] * 1e3,
                       ratio(row["small_p99"], alone_p99),
                       row["whale_p99"] * 1e3, row["whale_share"],
                       row["rejected"], row["write_arounds"])

    enforced = rows["shared (enforced)"]
    unenforced = rows["shared (unenforced)"]
    if alone_p99 > 0 and enforced["small_p99"] > ISOLATION_BOUND * alone_p99:
        result.notes.append(
            f"violation: enforced shares let small-tenant p99 reach "
            f"{enforced['small_p99'] * 1e3:.2f} ms, over "
            f"{ISOLATION_BOUND:.2f}x the alone baseline "
            f"({alone_p99 * 1e3:.2f} ms)")
    if alone_p99 > 0 and \
            unenforced["small_p99"] <= ISOLATION_BOUND * alone_p99:
        result.notes.append(
            f"violation: unenforced whale storm failed to degrade "
            f"small-tenant p99 past {ISOLATION_BOUND:.2f}x the alone "
            f"baseline -- the interference being defended against did "
            f"not materialise")
    if enforced["whale_share"] > enforced["whale_max_share"] + 0.01:
        result.notes.append(
            f"violation: whale occupancy share "
            f"{enforced['whale_share']:.3f} exceeds its max_share "
            f"{enforced['whale_max_share']:.2f}")
    if not (enforced["rejected"] or enforced["throttle_waits"]):
        result.notes.append(
            "violation: enforced run neither rejected nor throttled "
            "any whale write; the caps never engaged")
    result.notes.append(
        f"enforced whale: {enforced['write_arounds']} write-arounds, "
        f"{enforced['throttle_waits']} rate-throttled writes, "
        f"occupancy share {enforced['whale_share']:.3f} "
        f"(cap {enforced['whale_max_share']:.2f})")
    result.notes.append(
        f"small-tenant stall attribution (enforced): "
        f"{enforced['stall_s'] * 1e3:.1f} ms total backpressure")
    result.notes.append(
        f"small-tenant cached blocks: alone "
        f"{rows['alone']['small_hit_occ']}, enforced "
        f"{enforced['small_hit_occ']}, unenforced "
        f"{unenforced['small_hit_occ']}")
    return result
