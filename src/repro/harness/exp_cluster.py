"""Sharded-cluster experiments: scaling, rebalance MTTR, blast radius.

Three parts, all driving :class:`~repro.cluster.router.ShardRouter`
stacks built by :func:`~repro.harness.context.build_cluster`:

* **Scaling curve** — aggregate throughput and p99 of 1..16-shard
  clusters under the same mixed workload, each cell an independent
  stack.  The total cache window is held constant (each shard gets 1/N
  of it), so the curve isolates the router's multiplexing cost and
  hash balance rather than added capacity.
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

Every run of the three parts builds its own stacks from the seed, so
:func:`run` fans them all out over one :func:`parallel_map`; the rows
and checks are laid out afterwards.  Shortfalls are appended to the
result notes as ``violation:`` lines, which ``python -m repro run
cluster`` turns into a nonzero exit status.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterConfig
from repro.common.types import IoOrigin, Op, Request, quantile
from repro.common.units import MIB, PAGE_SIZE
from repro.harness.context import (DEFAULT_SCALE, ExperimentScale,
                                   build_cluster, build_shard)
from repro.harness.parallel import call, parallel_map
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
MAX_DRAIN_STEPS = 500_000     # idle milliseconds a migration may drain
BLAST_FAILURES = (0, 1)       # the correlated double failure


def _capacity_blocks(router) -> int:
    return sum(shard.layout.cache_data_capacity_blocks()
               for shard in router.shards.values())


def _windowed_p99(samples: List[Tuple[float, float]], lo: float,
                  hi: float, window: float) -> float:
    """Worst p99 over sliding windows of ``window`` seconds in [lo, hi]."""
    inside = [(t, lat) for t, lat in samples if lo <= t <= hi]
    worst = 0.0
    start = lo
    while start < hi:
        bucket = [lat for t, lat in inside if start <= t < start + window]
        if len(bucket) >= 8:
            worst = max(worst, quantile(bucket, 0.99))
        start += window / 2          # half-overlapping windows
    return worst


def _mixed_run(issue, router, span_factor: float, es: ExperimentScale):
    """``es.fio_threads`` mixed streams over ``span_factor`` x the
    cluster's cache capacity, issued through ``issue``."""
    span = int(_capacity_blocks(router) * span_factor) * PAGE_SIZE
    engine = Engine(issue)
    for i in range(es.fio_threads):
        engine.add_stream(JobStream(
            mixed(span, READ_FRACTION, seed=es.seed * 1000 + i),
            name=f"mix{i}", iodepth=es.fio_iodepth))
    return engine.run(duration=es.warmup + es.duration)


class _Issuer:
    """Issue wrapper: fires ``action(now)`` at the first request issued
    at or after ``at``, notes when the migration that may start is over,
    and records every foreground completion as a ``(t, latency)``
    sample under its request's tenant tag (``None``: untagged)."""

    def __init__(self, router, action: Optional[Callable[[float], None]],
                 at: float):
        self.router = router
        self.action = action
        self.at = at
        self.fired_t: Optional[float] = None
        self.done_t: Optional[float] = None
        self.samples: Dict[Optional[str], List[Tuple[float, float]]] = {}

    def issue(self, req: Request, now: float) -> float:
        if (self.action is not None and self.fired_t is None
                and now >= self.at):
            self.action(now)
            self.fired_t = now
        end = self.router.submit(req, now)
        if (self.fired_t is not None and self.done_t is None
                and self.router._migration is None):
            self.done_t = now
        if req.origin is IoOrigin.FOREGROUND:
            self.samples.setdefault(req.tenant, []).append((now, end - now))
        return end


# ======================================================================
# Part A: scaling curve
# ======================================================================
def _scale_cell(es: ExperimentScale, n_shards: int) -> dict:
    """One scaling-curve cell: a fresh N-shard cluster, mixed load."""
    router = build_cluster(es.scale, n_shards=n_shards)
    run = _mixed_run(router.submit, router, SCALE_SPAN_FACTOR, es)
    per_shard = [shard.stats.total_bytes
                 for shard in router.shards.values()]
    fair = sum(per_shard) / len(per_shard) if per_shard else 0.0
    return {
        "throughput": run.throughput_mb_s,
        "p99": run.latency.p99,
        "balance": ratio(max(per_shard), fair) if fair else 0.0,
        "cold_shards": sum(1 for b in per_shard if b == 0),
    }


# ======================================================================
# Part B: rebalance under load
# ======================================================================
def _drain_migration(router, now: float) -> float:
    """Advance idle simulated time until the migration finishes (or
    ``MAX_DRAIN_STEPS`` milliseconds pass)."""
    for _ in range(MAX_DRAIN_STEPS):
        if router._migration is None:
            break
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
    add = (partial(router.add_shard,
                   build_shard(es.scale, origin=router.origin,
                               label=f"shard{REBALANCE_SHARDS}"))
           if do_add else None)
    issuer = _Issuer(router, add, es.warmup + 0.3 * es.duration)
    _mixed_run(issuer.issue, router, REBALANCE_SPAN_FACTOR, es)

    end = es.warmup + es.duration
    if do_add and issuer.done_t is None:
        drained = _drain_migration(router, end)
        if router._migration is None:
            issuer.done_t = drained
    samples = issuer.samples.get(None, [])
    steady = [lat for t, lat in samples if es.warmup <= t <= end]
    worst_window = _windowed_p99(
        samples, issuer.fired_t or es.warmup,
        issuer.done_t or end, P99_WINDOW_S)
    leftovers = router.reconcile(end) if do_add else 0
    cs = router.clusterstats
    return {
        "p99": quantile(steady, 0.99),
        "worst_window_p99": worst_window,
        "mttr": ((issuer.done_t - issuer.fired_t)
                 if issuer.done_t and issuer.fired_t else float("inf")),
        "lost_dirty": cs.lost_dirty,
        "moved_blocks": cs.migration_blocks,
        "moved_dirty": cs.migration_dirty_blocks,
        "completed": cs.migrations_completed,
        "guard_defers": cs.migration_guard_defers,
        "throttle_defers": cs.migration_throttle_defers,
        "misowned": leftovers,
    }


def _rebalance_cell(es: ExperimentScale) -> Tuple[dict, dict]:
    """The steady baseline, then the guarded add: one cell, because the
    guard's p99 limit is ``REBALANCE_P99_BOUND`` x the baseline's."""
    baseline = _rebalance_run(es, migration_rate=64 * MIB, guard_p99=0.0,
                              do_add=False)
    guarded = _rebalance_run(es, migration_rate=64 * MIB,
                             guard_p99=REBALANCE_P99_BOUND * baseline["p99"],
                             do_add=True)
    return baseline, guarded


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
             if router.owner_slot(slab * slab_blocks) == slot] or [0]
    rng = np.random.default_rng(seed)
    tag = f"s{slot}"
    while True:
        slab = owned[int(rng.integers(0, len(owned)))]
        block = slab * slab_blocks + int(rng.integers(0, slab_blocks))
        op = Op.READ if rng.random() < read_fraction else Op.WRITE
        yield Request(op, block * PAGE_SIZE, PAGE_SIZE, tenant=tag)


def _blast_run(es: ExperimentScale, n_shards: int) -> dict:
    router = build_cluster(es.scale, n_shards=n_shards)
    span_blocks = int(_capacity_blocks(router) * BLAST_SPAN_FACTOR)
    fail_at = es.warmup + 0.5 * es.duration

    def fail(now: float) -> None:
        for slot in BLAST_FAILURES:
            router.fail_shard(slot, now, reason="correlated")

    issuer = _Issuer(router, fail, fail_at)
    engine = Engine(issuer.issue)
    for slot in range(n_shards):
        engine.add_stream(JobStream(
            _shard_stream(router, slot, span_blocks, BLAST_READ_FRACTION,
                          seed=es.seed * 1000 + slot),
            name=f"s{slot}", iodepth=max(1, es.fio_iodepth // n_shards)))
    engine.run(duration=es.warmup + es.duration)
    end = es.warmup + es.duration

    per_slot = {}
    for slot in range(n_shards):
        samples = issuer.samples.get(f"s{slot}", [])
        pre = [lat for t, lat in samples if es.warmup <= t < fail_at]
        post = [lat for t, lat in samples if fail_at <= t <= end]
        per_slot[slot] = {"pre_p99": quantile(pre, 0.99),
                          "post_p99": quantile(post, 0.99),
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

    n_blast = BLAST_SHARDS if quick else BLAST_SHARDS + 2
    runs = [partial(_scale_cell, es, n) for n in shard_counts] + [
        partial(_rebalance_cell, es),
        partial(_rebalance_run, es, migration_rate=0.0, guard_p99=0.0,
                do_add=True),
        partial(_blast_run, es, n_blast)]
    *cells, (baseline, guarded), unthrottled, blast = parallel_map(
        call, runs, jobs=jobs)

    note = result.notes.append

    # Part A: scaling curve.
    for n, cell in zip(shard_counts, cells):
        result.add_row(f"scale/{n}", n, cell["throughput"],
                       cell["p99"] * 1e3, cell["balance"], 0, 0)
        if cell["cold_shards"]:
            note(f"violation: scale/{n}: {cell['cold_shards']} shards "
                 "received no I/O")
        if cell["balance"] > BALANCE_BOUND:
            note(f"violation: scale/{n}: busiest shard at "
                 f"{cell['balance']:.2f}x fair share "
                 f"(bound {BALANCE_BOUND})")

    # Part B: rebalance under load.
    base_p99 = baseline["p99"]
    result.add_row("rebalance/baseline", REBALANCE_SHARDS, 0.0,
                   base_p99 * 1e3, 1.0, 0, 0)
    infl = ratio(guarded["worst_window_p99"], base_p99)
    result.add_row("rebalance/throttled", REBALANCE_SHARDS + 1, 0.0,
                   guarded["worst_window_p99"] * 1e3, infl,
                   guarded["moved_blocks"], guarded["lost_dirty"])
    note(f"rebalance: moved {guarded['moved_blocks']} blocks "
         f"({guarded['moved_dirty']} dirty) in {guarded['mttr']:.2f} s; "
         f"defers throttle={guarded['throttle_defers']} "
         f"guard={guarded['guard_defers']}")
    if guarded["completed"] != 1:
        note(f"violation: rebalance: {guarded['completed']} migrations "
             "completed, expected 1")
    if guarded["lost_dirty"]:
        note(f"violation: rebalance: {guarded['lost_dirty']} dirty blocks "
             "lost during shard add")
    if guarded["misowned"]:
        note(f"violation: rebalance: {guarded['misowned']} blocks cached "
             "off their owner shard after migration")
    if base_p99 > 0 and guarded["worst_window_p99"] > \
            REBALANCE_P99_BOUND * base_p99:
        note(f"violation: rebalance: worst {P99_WINDOW_S:.1f}s-window p99 "
             f"{guarded['worst_window_p99'] * 1e3:.2f} ms is "
             f"{infl:.2f}x the steady baseline "
             f"(bound {REBALANCE_P99_BOUND:.1f}x)")
    result.add_row("rebalance/unthrottled", REBALANCE_SHARDS + 1, 0.0,
                   unthrottled["worst_window_p99"] * 1e3,
                   ratio(unthrottled["worst_window_p99"], base_p99),
                   unthrottled["moved_blocks"], unthrottled["lost_dirty"])
    note(f"rebalance contrast: unthrottled migration finished in "
         f"{unthrottled['mttr']:.2f} s (throttled: {guarded['mttr']:.2f} s)")

    # Part C: correlated two-shard failure.
    failed = set(BLAST_FAILURES)
    for slot, row in sorted(blast["per_slot"].items()):
        label = "failed" if slot in failed else "survivor"
        infl = ratio(row["post_p99"], row["pre_p99"])
        result.add_row(f"blast/s{slot} ({label})", n_blast, 0.0,
                       row["post_p99"] * 1e3, infl, 0,
                       blast["lost_dirty"] if slot in failed else 0)
        if slot not in failed and row["pre_p99"] > 0 and \
                row["post_p99"] > BLAST_P99_BOUND * row["pre_p99"]:
            note(f"violation: blast: surviving shard {slot} p99 inflated "
                 f"{infl:.2f}x after the correlated failure "
                 f"(bound {BLAST_P99_BOUND:.1f}x)")
    if blast["failures"] != len(failed):
        note(f"violation: blast: {blast['failures']} shard failures "
             f"recorded, expected {len(failed)}")
    if not any(blast["per_slot"][s]["n_post"] for s in failed):
        note("violation: blast: failed-shard streams stopped completing "
             "(origin fall-through is not serving)")
    note(f"blast: lost_dirty={blast['lost_dirty']} "
         f"fallthrough_reads={blast['fallthrough_reads']} "
         f"write_arounds={blast['write_arounds']} (failed ranges served "
         "from origin, not re-homed)")
    return result
