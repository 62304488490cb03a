"""Sharded-cluster experiments: scaling, rebalance MTTR, blast radius.

Three parts, all driving :class:`~repro.cluster.router.ShardRouter`
stacks built by :func:`~repro.harness.context.build_cluster`:

* **Scaling curve** — aggregate throughput and p99 of 1..16-shard
  clusters under the same mixed workload, each cell an independent
  stack fanned out over the PR-5 process pool.  The total cache window
  is held constant (each shard gets 1/N of it), so the curve isolates
  the router's multiplexing cost and hash balance rather than added
  capacity.
* **Rebalance under load** — a shard is added mid-run while a mixed
  workload hammers the cluster; the resumable migration drains hash
  ranges to the new shard behind the token bucket and foreground-p99
  guard.  Acceptance: the rebalance finishes with **zero lost dirty
  blocks**, every block on exactly one owner, and the worst windowed
  foreground p99 during migration at most ``REBALANCE_P99_BOUND``
  times the steady-state baseline.
* **Blast radius** — two shards of a cluster fail-stop simultaneously
  under per-shard-confined streams.  Acceptance: the failed ranges
  degrade to origin service (counted, not hidden), while **every
  surviving shard's p99 stays within** ``BLAST_P99_BOUND`` of its own
  pre-failure baseline — re-homing stampedes are designed out.

Shortfalls are appended to the result notes as ``violation:`` lines,
which ``python -m repro run cluster`` turns into a nonzero exit
status.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterConfig
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.harness.context import (DEFAULT_SCALE, ExperimentScale,
                                   build_cluster, build_shard)
from repro.harness.parallel import parallel_map
from repro.harness.results import ExperimentResult, ratio
from repro.sim.engine import Engine, JobStream
from repro.workloads.fio import mixed

# Part A sweep: quick presets stop at 4 shards, the full profile walks
# the 1 -> 16 doubling curve.
SCALE_SHARDS_QUICK = (1, 2, 4)
SCALE_SHARDS_FULL = (1, 2, 4, 8, 16)
# Working set relative to total cache data capacity.
SCALE_SPAN_FACTOR = 1.2
REBALANCE_SPAN_FACTOR = 0.8
BLAST_SPAN_FACTOR = 0.6
READ_FRACTION = 0.7
BLAST_READ_FRACTION = 0.8
# Acceptance bounds (ISSUE acceptance criteria).
REBALANCE_P99_BOUND = 2.0     # worst migration-window p99 vs baseline
BLAST_P99_BOUND = 1.2         # surviving-shard p99 vs own baseline
P99_WINDOW_S = 0.5            # rolling window for the rebalance bound
# Hash balance: max per-shard routed share vs the fair share.
BALANCE_BOUND = 2.5

REBALANCE_SHARDS = 3          # cluster size before the online add
BLAST_SHARDS = 4
BLAST_FAILURES = (0, 1)       # the correlated double failure


def _capacity_blocks(router) -> int:
    return sum(shard.layout.cache_data_capacity_blocks()
               for shard in router.shards.values())


def _windowed_p99(samples: List[Tuple[float, float]], lo: float,
                  hi: float, window: float) -> float:
    """Worst p99 over sliding windows of ``window`` seconds in [lo, hi]."""
    inside = [(t, lat) for t, lat in samples if lo <= t <= hi]
    if not inside:
        return 0.0
    worst = 0.0
    start = lo
    while start < hi:
        bucket = [lat for t, lat in inside if start <= t < start + window]
        if len(bucket) >= 8:
            ordered = sorted(bucket)
            index = min(len(ordered) - 1, int(0.99 * len(ordered)))
            worst = max(worst, ordered[index])
        start += window / 2          # half-overlapping windows
    return worst


def _p99(latencies: List[float]) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


# ======================================================================
# Part A: scaling curve (parallel sweep cells)
# ======================================================================
def _scale_cell(args: Tuple[int, float, float, float, int, int, int]) -> dict:
    """One scaling-curve cell: a fresh N-shard cluster, mixed load.

    Module-level and pure (all randomness from the seed) so the cells
    fan out over :func:`parallel_map` exactly like the other sweeps.
    """
    n_shards, scale, warmup, duration, seed, iodepth, threads = args
    router = build_cluster(scale, n_shards=n_shards)
    span = int(_capacity_blocks(router) * SCALE_SPAN_FACTOR) * PAGE_SIZE
    engine = Engine(router.submit)
    for i in range(threads):
        engine.add_stream(JobStream(
            mixed(span, READ_FRACTION, seed=seed * 1000 + i),
            name=f"mix{i}", iodepth=iodepth))
    run = engine.run(duration=warmup + duration)
    per_shard = [shard.stats.total_bytes
                 for shard in router.shards.values()]
    fair = sum(per_shard) / len(per_shard) if per_shard else 0.0
    return {
        "n_shards": n_shards,
        "throughput": run.throughput_mb_s,
        "p99": run.latency.p99,
        "straddled": router.clusterstats.straddled_requests,
        "balance": ratio(max(per_shard), fair) if fair else 0.0,
        "cold_shards": sum(1 for b in per_shard if b == 0),
    }


# ======================================================================
# Part B: rebalance under load
# ======================================================================
class _RebalanceDriver:
    """Issue wrapper: records timestamped latencies, fires the add."""

    def __init__(self, router, add_shard=None, add_at: float = 0.0):
        self.router = router
        self.add_shard = add_shard
        self.add_at = add_at
        self.samples: List[Tuple[float, float]] = []
        self.added_t: Optional[float] = None
        self.done_t: Optional[float] = None

    def issue(self, req: Request, now: float) -> float:
        if (self.add_shard is not None and self.added_t is None
                and now >= self.add_at):
            self.router.add_shard(self.add_shard, now)
            self.added_t = now
        end = self.router.submit(req, now)
        if (self.added_t is not None and self.done_t is None
                and self.router._migration is None):
            self.done_t = now
        if req.origin is IoOrigin.FOREGROUND:
            self.samples.append((now, end - now))
        return end


def _drain_migration(router, now: float, max_steps: int = 500_000) -> float:
    """Advance idle simulated time until the migration finishes."""
    while router._migration is not None and max_steps > 0:
        max_steps -= 1
        now += 1e-3
        router.pump(now)
    return now


def _rebalance_run(es: ExperimentScale, migration_rate: float,
                   guard_p99: float, do_add: bool) -> dict:
    cluster_config = ClusterConfig(n_shards=REBALANCE_SHARDS,
                                   migration_rate=migration_rate,
                                   migration_fg_p99=guard_p99)
    router = build_cluster(es.scale, n_shards=REBALANCE_SHARDS,
                           cluster_config=cluster_config)
    span = int(_capacity_blocks(router)
               * REBALANCE_SPAN_FACTOR) * PAGE_SIZE
    add_at = es.warmup + 0.3 * es.duration
    new_shard = (build_shard(es.scale, origin=router.origin,
                             label=f"shard{REBALANCE_SHARDS}")
                 if do_add else None)
    driver = _RebalanceDriver(router, new_shard, add_at)
    engine = Engine(driver.issue)
    for i in range(es.fio_threads):
        engine.add_stream(JobStream(
            mixed(span, READ_FRACTION, seed=es.seed * 1000 + i),
            name=f"mix{i}", iodepth=es.fio_iodepth))
    engine.run(duration=es.warmup + es.duration)

    end = es.warmup + es.duration
    if do_add and driver.done_t is None:
        drained = _drain_migration(router, end)
        if router._migration is None:
            driver.done_t = drained
    steady = [lat for t, lat in driver.samples if es.warmup <= t <= end]
    worst_window = _windowed_p99(
        driver.samples, driver.added_t or es.warmup,
        driver.done_t or end, P99_WINDOW_S)
    leftovers = router.reconcile(end) if do_add else 0
    cs = router.clusterstats
    return {
        "p99": _p99(steady),
        "worst_window_p99": worst_window,
        "mttr": ((driver.done_t - driver.added_t)
                 if driver.done_t and driver.added_t else float("inf")),
        "lost_dirty": cs.lost_dirty,
        "moved_blocks": cs.migration_blocks,
        "moved_dirty": cs.migration_dirty_blocks,
        "completed": cs.migrations_completed,
        "guard_defers": cs.migration_guard_defers,
        "throttle_defers": cs.migration_throttle_defers,
        "misowned": leftovers,
    }


# ======================================================================
# Part C: correlated two-shard failure (blast radius)
# ======================================================================
def _shard_stream(router, slot: int, span_blocks: int,
                  read_fraction: float, seed: int) -> Iterator[Request]:
    """A stream confined to ``slot``'s hash ranges (tenant-tagged).

    Samples only blocks whose slab routes to ``slot`` at build time,
    so each stream's fate is tied to exactly one shard and per-stream
    latency cleanly attributes the blast radius.
    """
    slab_blocks = router.config.slab_blocks
    owned = [slab for slab in range(span_blocks // slab_blocks)
             if router.owner_slot(slab * slab_blocks) == slot]
    if not owned:
        owned = [0]
    rng = np.random.default_rng(seed)
    tag = f"s{slot}"
    while True:
        slab = owned[int(rng.integers(0, len(owned)))]
        block = slab * slab_blocks + int(rng.integers(0, slab_blocks))
        op = Op.READ if rng.random() < read_fraction else Op.WRITE
        yield Request(op, block * PAGE_SIZE, PAGE_SIZE, tenant=tag)


class _BlastDriver:
    """Issue wrapper: per-tenant timestamped latencies + failure shot."""

    def __init__(self, router, fail_slots: Tuple[int, ...], fail_at: float):
        self.router = router
        self.fail_slots = fail_slots
        self.fail_at = fail_at
        self.fired = False
        self.samples: Dict[str, List[Tuple[float, float]]] = {}

    def issue(self, req: Request, now: float) -> float:
        if not self.fired and now >= self.fail_at:
            self.fired = True
            for slot in self.fail_slots:
                self.router.fail_shard(slot, now, reason="correlated")
        end = self.router.submit(req, now)
        if req.origin is IoOrigin.FOREGROUND and req.tenant:
            self.samples.setdefault(req.tenant, []).append((now, end - now))
        return end


def _blast_run(es: ExperimentScale, n_shards: int) -> dict:
    router = build_cluster(es.scale, n_shards=n_shards)
    span_blocks = int(_capacity_blocks(router) * BLAST_SPAN_FACTOR)
    fail_at = es.warmup + 0.5 * es.duration
    driver = _BlastDriver(router, BLAST_FAILURES, fail_at)
    engine = Engine(driver.issue)
    for slot in range(n_shards):
        engine.add_stream(JobStream(
            _shard_stream(router, slot, span_blocks, BLAST_READ_FRACTION,
                          seed=es.seed * 1000 + slot),
            name=f"s{slot}", iodepth=max(1, es.fio_iodepth // n_shards)))
    engine.run(duration=es.warmup + es.duration)
    end = es.warmup + es.duration

    per_slot = {}
    for slot in range(n_shards):
        samples = driver.samples.get(f"s{slot}", [])
        pre = [lat for t, lat in samples if es.warmup <= t < fail_at]
        post = [lat for t, lat in samples if fail_at <= t <= end]
        per_slot[slot] = {"pre_p99": _p99(pre), "post_p99": _p99(post),
                          "n_post": len(post)}
    cs = router.clusterstats
    return {
        "per_slot": per_slot,
        "lost_dirty": cs.lost_dirty,
        "fallthrough_reads": cs.fallthrough_reads,
        "write_arounds": cs.write_arounds,
        "failures": cs.shard_failures,
    }


# ======================================================================
# the experiment
# ======================================================================
def run(es: ExperimentScale = DEFAULT_SCALE, jobs: int = 1
        ) -> ExperimentResult:
    """Scaling curve, rebalance-under-load, and blast-radius demo."""
    quick = es.scale <= 1 / 48
    shard_counts = SCALE_SHARDS_QUICK if quick else SCALE_SHARDS_FULL
    result = ExperimentResult(
        experiment="Cluster",
        title=f"Sharded SRC cluster (slab-hashed router, "
              f"{'quick' if quick else 'full'} profile)",
        columns=["Row", "Shards", "MB/s", "p99 (ms)", "x bound",
                 "Moved", "Lost dirty"],
    )

    # Part A: scaling curve (process-parallel cells).
    cells = [(n, es.scale, es.warmup, es.duration, es.seed,
              es.fio_iodepth, es.fio_threads) for n in shard_counts]
    for cell in parallel_map(_scale_cell, cells, jobs=jobs):
        result.add_row(f"scale/{cell['n_shards']}", cell["n_shards"],
                       cell["throughput"], cell["p99"] * 1e3,
                       cell["balance"], 0, 0)
        if cell["cold_shards"]:
            result.notes.append(
                f"violation: scale/{cell['n_shards']}: "
                f"{cell['cold_shards']} shards received no I/O")
        if cell["balance"] > BALANCE_BOUND:
            result.notes.append(
                f"violation: scale/{cell['n_shards']}: busiest shard at "
                f"{cell['balance']:.2f}x fair share "
                f"(bound {BALANCE_BOUND})")

    # Part B: rebalance under load.
    baseline = _rebalance_run(es, migration_rate=64 * MIB, guard_p99=0.0,
                              do_add=False)
    base_p99 = baseline["p99"]
    result.add_row("rebalance/baseline", REBALANCE_SHARDS, 0.0,
                   base_p99 * 1e3, 1.0, 0, 0)
    guarded = _rebalance_run(es, migration_rate=64 * MIB,
                             guard_p99=REBALANCE_P99_BOUND * base_p99,
                             do_add=True)
    infl = ratio(guarded["worst_window_p99"], base_p99)
    result.add_row("rebalance/throttled", REBALANCE_SHARDS + 1, 0.0,
                   guarded["worst_window_p99"] * 1e3, infl,
                   guarded["moved_blocks"], guarded["lost_dirty"])
    result.notes.append(
        f"rebalance: moved {guarded['moved_blocks']} blocks "
        f"({guarded['moved_dirty']} dirty) in {guarded['mttr']:.2f} s; "
        f"defers throttle={guarded['throttle_defers']} "
        f"guard={guarded['guard_defers']}")
    if guarded["completed"] != 1:
        result.notes.append(
            f"violation: rebalance: {guarded['completed']} migrations "
            "completed, expected 1")
    if guarded["lost_dirty"]:
        result.notes.append(
            f"violation: rebalance: {guarded['lost_dirty']} dirty blocks "
            "lost during shard add")
    if guarded["misowned"]:
        result.notes.append(
            f"violation: rebalance: {guarded['misowned']} blocks cached "
            "off their owner shard after migration")
    if base_p99 > 0 and guarded["worst_window_p99"] > \
            REBALANCE_P99_BOUND * base_p99:
        result.notes.append(
            f"violation: rebalance: worst {P99_WINDOW_S:.1f}s-window p99 "
            f"{guarded['worst_window_p99'] * 1e3:.2f} ms is "
            f"{infl:.2f}x the steady baseline "
            f"(bound {REBALANCE_P99_BOUND:.1f}x)")
    unthrottled = _rebalance_run(es, migration_rate=0.0, guard_p99=0.0,
                                 do_add=True)
    result.add_row("rebalance/unthrottled", REBALANCE_SHARDS + 1, 0.0,
                   unthrottled["worst_window_p99"] * 1e3,
                   ratio(unthrottled["worst_window_p99"], base_p99),
                   unthrottled["moved_blocks"], unthrottled["lost_dirty"])
    result.notes.append(
        f"rebalance contrast: unthrottled migration finished in "
        f"{unthrottled['mttr']:.2f} s (throttled: {guarded['mttr']:.2f} s)")

    # Part C: correlated two-shard failure.
    n_blast = BLAST_SHARDS if quick else BLAST_SHARDS + 2
    blast = _blast_run(es, n_blast)
    failed = set(BLAST_FAILURES)
    for slot, row in sorted(blast["per_slot"].items()):
        label = "failed" if slot in failed else "survivor"
        infl = ratio(row["post_p99"], row["pre_p99"])
        result.add_row(f"blast/s{slot} ({label})", n_blast, 0.0,
                       row["post_p99"] * 1e3, infl, 0,
                       blast["lost_dirty"] if slot in failed else 0)
        if slot not in failed and row["pre_p99"] > 0 and \
                row["post_p99"] > BLAST_P99_BOUND * row["pre_p99"]:
            result.notes.append(
                f"violation: blast: surviving shard {slot} p99 inflated "
                f"{infl:.2f}x after the correlated failure "
                f"(bound {BLAST_P99_BOUND:.1f}x)")
    if blast["failures"] != len(failed):
        result.notes.append(
            f"violation: blast: {blast['failures']} shard failures "
            f"recorded, expected {len(failed)}")
    degraded = [blast["per_slot"][s] for s in failed]
    if not any(d["n_post"] for d in degraded):
        result.notes.append(
            "violation: blast: failed-shard streams stopped completing "
            "(origin fall-through is not serving)")
    result.notes.append(
        f"blast: lost_dirty={blast['lost_dirty']} "
        f"fallthrough_reads={blast['fallthrough_reads']} "
        f"write_arounds={blast['write_arounds']} (failed ranges served "
        "from origin, not re-homed)")
    return result


def violations(result: ExperimentResult) -> List[str]:
    """The acceptance failures recorded in a result's notes."""
    return [n for n in result.notes if n.startswith("violation:")]


if __name__ == "__main__":
    from repro.harness.context import QUICK_SCALE
    out = run(QUICK_SCALE)
    print(out.render())
