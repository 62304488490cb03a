"""Hot-spare rebuild experiment: MTTR vs foreground impact (§4.3).

A single member of the SRC array fail-stops a third of the way into
the measured window while the write trace group replays.  With a hot
spare configured the repair controller attaches it and reconstructs
the lost units in the background, competing with foreground I/O on the
same device timelines.  The sweep varies ``rebuild_rate`` — the token
bucket bounding reconstruction bandwidth — and reports the two numbers
the throttle trades against each other:

* **MTTR** — fail-stop to rebuild-complete (the degraded window in
  which a second failure would cost data), and
* **foreground p99** — inflation relative to a no-failure baseline.

The run doubles as the repair subsystem's acceptance demo: every
failure row must complete exactly one rebuild with zero lost dirty
pages and no origin bypass, and a seeded latent-corruption plan must
be fully repaired by :meth:`~repro.repair.controller.RepairController.
scrub_now` before any foreground read touches the corrupt blocks.
Shortfalls are appended to the result notes as ``violation:`` lines,
which ``python -m repro run rebuild`` turns into a nonzero exit status.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import RepairConfig, SrcConfig
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.harness.context import (CACHE_SPACE, DEFAULT_SCALE,
                                   ExperimentScale, build_src, build_ssds)
from repro.harness.parallel import call, parallel_map
from repro.harness.results import ExperimentResult, ratio
from repro.harness.runner import run_trace_group

# The sweep: paper-style sensitivity from gentle to unbounded, plus a
# no-failure baseline every other row is normalised against.
SWEEP = (
    ("no-failure", None),
    ("8 MiB/s", 8 * MIB),
    ("32 MiB/s", 32 * MIB),
    ("64 MiB/s (default)", 64 * MIB),
    ("unthrottled", 0.0),
)
SCRUB_SEED_BLOCKS = 8
# Acceptance bound: at the default throttle, foreground p99 during the
# failure window may not inflate past this factor of the baseline.
# Degraded reads reconstruct from parity, so ~2-3x is inherent; 10x
# would mean rebuild I/O is starving the foreground.
P99_INFLATION_BOUND = 10.0
MAX_DRAIN_STEPS = 200_000       # bucket-paced pumps before giving up


def _drain_rebuild(cache: SrcCache, now: float) -> None:
    """Pump the repair controller until the rebuild job is done.

    The replay window may end mid-rebuild; repair work is caller-driven
    so simulated time must keep advancing for it to finish.  Each step
    jumps to the token bucket's next ready time, mimicking an idle
    array whose only traffic is reconstruction.
    """
    repair = cache.repair
    for _ in range(MAX_DRAIN_STEPS):
        if not repair.jobs:
            return
        ready = repair.rebuild_bucket.ready_time(repair.unit_bytes, now)
        now = max(now + 1e-6, ready)
        repair.pump(now)


def _run_row(es: ExperimentScale, rate: Optional[float]) -> dict:
    """One sweep point: replay the write group, optionally kill ssd0."""
    fail = rate is not None
    config = SrcConfig(cache_space=CACHE_SPACE, repair=RepairConfig(
        hot_spares=1 if fail else 0,
        rebuild_rate=rate if fail else 64 * MIB))
    ssds = build_ssds(es.scale, n=config.n_ssds)
    if fail:
        fail_at = es.warmup + 0.3 * es.duration
        ssds[0] = FaultInjector(ssds[0], FaultPlan().fail_stop(at=fail_at),
                                name="fault0")
    cache = build_src(es.scale, config, ssds=ssds)
    result = run_trace_group(cache, "write", es)
    _drain_rebuild(cache, es.warmup + es.duration)
    stats = cache.srcstats
    return {
        "throughput": result.throughput_mb_s,
        "p99": result.latency.p99,
        "mttr": stats.mttr_s,
        "degraded": cache.repair.health.degraded_window_s,
        "units": stats.rebuild_units,
        "dropped": stats.rebuild_dropped_blocks,
        "lost_dirty": stats.bypass_lost_dirty + stats.unrecoverable_errors,
        "completed": stats.rebuilds_completed,
        "bypass": cache.bypass,
    }


def _scrub_run(es: ExperimentScale) -> dict:
    """Seed latent corruption, scrub, then read every seeded block."""
    cache = build_src(es.scale, SrcConfig(cache_space=CACHE_SPACE))
    run_trace_group(cache, "write", es)
    now = es.warmup + es.duration

    # Corrupt a seeded sample of live, sealed blocks on their devices.
    live = {}
    for summary in cache.metadata.all_summaries():
        for lba in summary.lbas:
            entry = cache.mapping.lookup(lba)
            if (entry is not None and entry.location.sg == summary.sg
                    and entry.location.segment == summary.segment):
                live[lba] = entry
    rng = random.Random(es.seed)
    lbas = rng.sample(sorted(live), min(SCRUB_SEED_BLOCKS, len(live)))
    for lba in lbas:
        loc = live[lba].location
        cache.ssds[loc.ssd].inject_corruption(loc.offset, PAGE_SIZE)

    report = cache.repair.scrub_now(now)
    now += max(report.duration_s, 0.0) + 1e-3

    # Foreground reads over every seeded block: the scrubber must have
    # repaired them all, so the read path's own corruption repair (the
    # slow, latency-visible one) never fires.
    for lba in lbas:
        end = cache.submit(
            Request(Op.READ, lba * PAGE_SIZE, PAGE_SIZE), now)
        now = max(now, end) + 1e-6
    return {
        "seeded": len(lbas), "repaired": report.repaired,
        "unrepairable": report.unrepairable,
        "fg_repairs": cache.srcstats.corruption_repairs,
        "leftover": sum(1 for lba in lbas
                        if cache.ssds[live[lba].location.ssd].corrupted_in(
                            live[lba].location.offset, PAGE_SIZE)),
    }


def run(es: ExperimentScale = DEFAULT_SCALE,
        jobs: int = 1) -> ExperimentResult:
    """The rebuild-rate sweep and the scrub demo, fanned over ``jobs``."""
    result = ExperimentResult(
        experiment="Rebuild",
        title="Hot-spare rebuild: write-group replay, ssd0 fail-stop at "
              "30% of the measured window (1 spare)",
        columns=["Rebuild rate", "MB/s", "p99 (ms)", "p99 x base",
                 "MTTR (s)", "Degraded (s)", "Units", "Lost dirty"],
    )
    runs = [partial(_run_row, es, rate) for _, rate in SWEEP]
    *rows, scrub = parallel_map(call, runs + [partial(_scrub_run, es)],
                                jobs=jobs)
    base_p99 = rows[0]["p99"]           # SWEEP opens with the baseline
    for (label, rate), row in zip(SWEEP, rows):
        result.add_row(label, row["throughput"], row["p99"] * 1e3,
                       ratio(row["p99"], base_p99), row["mttr"],
                       row["degraded"], row["units"], row["lost_dirty"])
        if rate is None:
            continue
        if row["completed"] != 1:
            result.notes.append(
                f"violation: {label}: {row['completed']} rebuilds "
                "completed, expected 1")
        if row["lost_dirty"]:
            result.notes.append(
                f"violation: {label}: {row['lost_dirty']} dirty pages lost")
        if row["bypass"]:
            result.notes.append(
                f"violation: {label}: array entered origin bypass with a "
                "spare available")
        if "default" in label and base_p99 > 0 and \
                row["p99"] > P99_INFLATION_BOUND * base_p99:
            result.notes.append(
                f"violation: {label}: p99 {row['p99'] * 1e3:.1f} ms is "
                f"over {P99_INFLATION_BOUND:.0f}x the no-failure baseline")
        if row["dropped"]:
            result.notes.append(
                f"{label}: {row['dropped']} clean blocks dropped "
                "(unreconstructable NPC segments refetch on demand)")
    seeded, repaired = scrub["seeded"], scrub["repaired"]
    result.notes.append(
        f"scrub demo: seeded {seeded} corrupt blocks, scrub repaired "
        f"{repaired} ({scrub['unrepairable']} unrepairable), "
        f"foreground corruption repairs {scrub['fg_repairs']}")
    if repaired < seeded or scrub["unrepairable"]:
        result.notes.append(
            f"violation: scrub repaired {repaired}/{seeded} "
            f"seeded blocks ({scrub['unrepairable']} unrepairable)")
    if scrub["fg_repairs"]:
        result.notes.append(
            "violation: foreground read hit corruption scrub should "
            "have repaired first")
    if scrub["leftover"]:
        result.notes.append(
            f"violation: {scrub['leftover']} seeded blocks still corrupt "
            "on media")
    return result
