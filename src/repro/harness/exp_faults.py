"""Seeded crash-point torture harness for SRC recovery (§4.1).

Each case builds a tiny SRC stack with every device behind a
:class:`~repro.faults.injector.FaultInjector`, replays a seeded mixed
workload, and cuts power at a chosen crash point — on an SSD's Nth
segment write (mid-segment-write / mid-GC), on the origin's Mth write
(mid-destage), at an absolute simulated time, on a hot spare's Nth
write (mid-rebuild, after a member fail-stop), or shortly after latent
corruption is seeded (mid-scrub-repair).  The injectors are
then disarmed and :func:`repro.core.recovery.recover` rebuilds the
cache from the surviving metadata, after which three invariants are
asserted:

1. **No acknowledged dirty write lost.**  A write is *durably
   acknowledged* once its segment seals (it left the RAM dirty buffer
   with the op completing normally); every such block must either be
   mapped dirty in the recovered cache or have reached the origin (the
   origin injector's ``written_pages`` proves destage).  A sealed
   version superseded by a newer, still-buffered rewrite is exempt:
   the newer version was only RAM-acknowledged, which write-back
   caching is allowed to lose.
2. **No torn segment replayed.**  Every summary whose MS/ME
   generations disagreed at crash time must be discarded by recovery
   and no recovered mapping entry may point into it.
3. **Mapping / group-state consistency.**  The recovered mapping's
   internal invariants hold, every mapped SG is CLOSED and accounted
   in the report, and nothing maps into the superblock SG.

The harness also demonstrates its own sensitivity: with the ME seal
deliberately skipped (``break_seal``) every crash must surface
invariant violations — a torture harness that cannot catch a broken
crash protocol proves nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.cluster import ClusterConfig, ShardRouter
from repro.common.errors import PowerCutError
from repro.common.types import Op, Request
from repro.common.units import GIB, KIB, MIB, PAGE_SIZE
from repro.core.config import RepairConfig, SrcConfig
from repro.core.metadata import MetadataStore
from repro.core.recovery import recover
from repro.core.segments import GroupState
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.harness.context import DEFAULT_SCALE, ExperimentScale
from repro.harness.results import ExperimentResult
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskSpec
from repro.obs.recorder import attach as obs_attach
from repro.ssd.device import SSDDevice
from repro.ssd.spec import SsdSpec

# Deliberately minute geometry so GC and destage fire within ~1500 ops:
# 64 KiB units (16 blocks, 14 data), 256 KiB erase groups (4 segments),
# 2 MiB of cache per SSD (8 SGs).
TORTURE_SSD = SsdSpec(
    name="torture",
    capacity=16 * MIB,
    spare_factor=0.40,
    superblock_size=1 * MIB,
    interface_read_bw=530e6,
    interface_write_bw=390e6,
    interface_latency=20e-6,
    nand_read_bw=1600e6,
    nand_prog_bw=420e6,
    erase_latency=0.1e-3,
    flush_latency=3.5e-3,
    buffer_size=1 * MIB,
)

TORTURE_CONFIG = SrcConfig(
    erase_group_size=256 * KIB,
    segment_unit=64 * KIB,
    cache_space=8 * MIB,
    t_wait=5e-3,
)

MODES = ("ssd-write", "origin-write", "time", "rebuild-cut", "scrub-cut",
         "migrate-cut")
# Modes exercising the repro.repair subsystem run with a hot spare, a
# deliberately slow rebuild (so the crash window is wide) and a short
# scrub period (so idle pumps reach a scrub pass within the run).
REPAIR_MODES = ("rebuild-cut", "scrub-cut")
TORTURE_REPAIR_CONFIG = replace(TORTURE_CONFIG, repair=RepairConfig(
    hot_spares=1, rebuild_rate=2 * MIB, scrub_interval=0.02))
OPS_PER_CASE = 1600
LBA_SPAN = 1024          # pages of origin address space the workload hits

# The migrate-cut mode runs a 2-shard cluster and adds a third shard
# mid-run; fine-grained slabs and few vnodes keep the ring small enough
# that every arc sees traffic within the case's 1600 ops.
TORTURE_CLUSTER = ClusterConfig(
    n_shards=2, vnodes=8, slab_blocks=16, hash_seed=1,
    migration_rate=8 * MIB, migration_unit_blocks=16)


@dataclass
class CaseResult:
    """One crash point's outcome."""

    seed: int
    point: int
    mode: str
    crashed: bool
    ops_before_crash: int
    torn_at_crash: int
    segments_recovered: int = 0
    blocks_recovered: int = 0
    violations: List[str] = field(default_factory=list)


def _build_stack(break_seal: bool = False,
                 config: SrcConfig = TORTURE_CONFIG) -> Tuple[
        SrcCache, List[FaultInjector], List[FaultInjector],
        FaultInjector, MetadataStore]:
    ssds = [FaultInjector(SSDDevice(TORTURE_SSD, name=f"t{i}"),
                          name=f"fault{i}")
            for i in range(config.n_ssds)]
    spares = [FaultInjector(SSDDevice(TORTURE_SSD, name=f"spare{i}"),
                            name=f"fault-spare{i}")
              for i in range(config.repair.hot_spares)]
    origin = FaultInjector(
        PrimaryStorage(n_disks=2, disk_spec=DiskSpec(capacity=2 * GIB)),
        name="fault-origin", record_writes=True)
    metadata = MetadataStore()
    if break_seal:
        # The deliberate protocol break: the trailing ME block is never
        # written, so every segment stays torn and recovery must throw
        # away data the harness knows was acknowledged.
        metadata.seal_summary = lambda sg, segment: None
    cache = SrcCache(ssds, origin, config, metadata=metadata,
                     spares=spares or None)
    return obs_attach(cache), ssds, spares, origin, metadata


def _arm(case: CaseResult, ssds: List[FaultInjector],
         spares: List[FaultInjector], origin: FaultInjector,
         rng: random.Random) -> None:
    """Install the crash point for this case."""
    step = case.point // len(MODES) + 1
    if case.mode == "ssd-write":
        # Segment writes reach every SSD, so cutting one SSD's Nth
        # write lands mid-segment-write (or mid-GC once N is large).
        victim = rng.randrange(len(ssds))
        ssds[victim].plan = FaultPlan(seed=case.seed,
                                      power_cut_after_writes=step)
    elif case.mode == "origin-write":
        # Origin writes only happen on destage.
        origin.plan = FaultPlan(seed=case.seed,
                                power_cut_after_writes=step)
    elif case.mode == "rebuild-cut":
        # Fail one member early so the hot spare is attached, then cut
        # power on the spare's Nth write — mid-rebuild, since every
        # write the spare sees is either reconstruction or a segment
        # share landing on a still-rebuilding slot.
        victim = rng.randrange(len(ssds))
        ssds[victim].plan = FaultPlan(seed=case.seed).fail_stop(
            at=0.002 + 0.010 * rng.random())
        spares[0].plan = FaultPlan(seed=case.seed,
                                   power_cut_after_writes=step)
    elif case.mode == "scrub-cut":
        # Armed mid-run by _seed_scrub_corruption: corruption first,
        # then a write-count cut close behind the scrubber's repair.
        pass
    else:
        at = rng.uniform(0.0, 0.15) * step / max(1, case.point + 1) + \
            rng.uniform(0.0, 0.05)
        ssds[0].plan = FaultPlan(seed=case.seed, power_cut_at=at)


def _seed_scrub_corruption(cache: SrcCache, rng: random.Random,
                           seed: int, step: int) -> None:
    """Corrupt a few sealed mapped blocks, then arm a near-term cut.

    The corruption sits latent until the periodic scrub reaches it;
    the write-count cut on the corrupted member lands at or shortly
    after the scrubber's repair write.
    """
    live = []
    for summary in cache.metadata.all_summaries():
        for lba in summary.lbas:
            entry = cache.mapping.lookup(lba)
            if (entry is not None and entry.location.sg == summary.sg
                    and entry.location.segment == summary.segment):
                live.append(entry)
    victim_idx = rng.randrange(len(cache.ssds))
    for entry in rng.sample(live, min(4, len(live))):
        device = cache.ssds[entry.location.ssd]
        device.inject_corruption(entry.location.offset, PAGE_SIZE)
        victim_idx = entry.location.ssd
    victim = cache.ssds[victim_idx]
    victim.plan = FaultPlan(
        seed=seed,
        power_cut_after_writes=victim.writes_seen + step)


def _build_cluster_shard(label: str, origin: FaultInjector,
                         break_seal: bool = False) -> Tuple[
        SrcCache, List[FaultInjector], MetadataStore]:
    """One tiny SRC shard behind injectors, sharing the cluster origin."""
    ssds = [FaultInjector(SSDDevice(TORTURE_SSD, name=f"{label}t{i}"),
                          name=f"fault-{label}{i}")
            for i in range(TORTURE_CONFIG.n_ssds)]
    metadata = MetadataStore()
    if break_seal:
        metadata.seal_summary = lambda sg, segment: None
    shard = SrcCache(ssds, origin, TORTURE_CONFIG, metadata=metadata)
    shard.name = label
    return shard, ssds, metadata


def _run_migrate_cut(case: CaseResult, rng: random.Random,
                     break_seal: bool = False) -> CaseResult:
    """Power cut during an online shard add; recovery must leave every
    block with exactly one owner and zero lost acknowledged dirty.

    Two tiny shards take a seeded workload through a
    :class:`~repro.cluster.router.ShardRouter`; a third shard is added
    a third of the way in, so the cut (armed on the new shard's SSD
    writes for odd steps — every write it sees is a migration copy — or
    on a source shard's SSD counted from the add for even steps) lands
    mid-rebalance.  The shards then recover independently from their
    metadata, the router is rebuilt over the surviving
    :class:`MigrationLedger`, ``recover_interrupted`` resumes the
    hand-off, and the resumed migration is drained to completion.
    """
    step = case.point // len(MODES) + 1
    origin = FaultInjector(
        PrimaryStorage(n_disks=2, disk_spec=DiskSpec(capacity=2 * GIB)),
        name="fault-origin", record_writes=True)
    shards, ssd_groups, metadatas = [], [], []
    for index in range(TORTURE_CLUSTER.n_shards):
        shard, ssds, metadata = _build_cluster_shard(
            f"shard{index}", origin, break_seal=break_seal and index == 0)
        shards.append(shard)
        ssd_groups.append(ssds)
        metadatas.append(metadata)
    new_shard, new_ssds, new_metadata = _build_cluster_shard(
        "shard-new", origin)
    router = obs_attach(ShardRouter(shards, origin, TORTURE_CLUSTER,
                                    name="torture-cluster"))
    if step % 2 == 1:
        # Every write the new shard's SSDs see is a migration copy
        # landing, so its Nth write is mid-rebalance by construction.
        new_ssds[rng.randrange(len(new_ssds))].plan = FaultPlan(
            seed=case.seed, power_cut_after_writes=step)

    add_at = OPS_PER_CASE // 3
    buffered: set = set()
    sealed: set = set()
    now = 0.0
    try:
        for op_index in range(OPS_PER_CASE):
            case.ops_before_crash = op_index
            if op_index == add_at:
                router.add_shard(new_shard, now)
                if step % 2 == 0:
                    # Source-side cut: land on one of the shards the
                    # migration is reading from, shortly after the add.
                    victim = ssd_groups[rng.randrange(len(ssd_groups))]
                    injector = victim[rng.randrange(len(victim))]
                    injector.plan = FaultPlan(
                        seed=case.seed,
                        power_cut_after_writes=(injector.writes_seen
                                                + step))
            lba = rng.randrange(LBA_SPAN)
            draw = rng.random()
            if draw < 0.70:
                req = Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE)
            elif draw < 0.95:
                req = Request(Op.READ, lba * PAGE_SIZE, PAGE_SIZE)
            else:
                req = Request(Op.FLUSH)
            end = router.submit(req, now)
            if req.op is Op.WRITE:
                buffered.add(lba)
                sealed.discard(lba)   # newest version is RAM-only again
            for done in [b for b in buffered
                         if all(b not in s.dirty_buf
                                for s in router.shards.values())]:
                buffered.discard(done)
                sealed.add(done)
            now = max(now, end) + 10e-6
    except PowerCutError:
        case.crashed = True

    # ------------------------------------------------------------------
    # the machine is dead; the shard metadata and the migration ledger
    # are what survives.
    # ------------------------------------------------------------------
    all_metadata = metadatas + [new_metadata]
    torn = [(m, s.sg, s.segment) for m in all_metadata
            for s in m.all_summaries() if not s.consistent]
    case.torn_at_crash = len(torn)
    for injectors in ssd_groups + [new_ssds]:
        for injector in injectors:
            injector.disarm()
    origin.disarm()

    ledger = router.ledger
    add_completed = not ledger.active and 2 in router.shards
    recovered = []
    discarded = 0
    for shard, metadata in zip(shards + [new_shard], all_metadata):
        cache, report = recover(list(shard.ssds), origin, TORTURE_CONFIG,
                                metadata)
        cache.name = shard.name
        recovered.append(cache)
        case.segments_recovered += report.segments_recovered
        case.blocks_recovered += report.blocks_recovered
        discarded += report.segments_discarded
    if discarded != len(torn):
        case.violations.append(
            f"discarded {discarded} segments, expected {len(torn)} torn")

    resume_at = now + 1.0
    if add_completed:
        config3 = replace(TORTURE_CLUSTER, n_shards=3)
        rebuilt = ShardRouter(recovered, origin, config3, ledger=ledger,
                              name="torture-cluster")
        rebuilt.recover_interrupted(resume_at)
    else:
        rebuilt = ShardRouter(recovered[:2], origin, TORTURE_CLUSTER,
                              ledger=ledger, name="torture-cluster")
        rebuilt.recover_interrupted(
            resume_at, new_shard=recovered[2] if ledger.active else None)
        # Drain the resumed migration to completion.
        t = resume_at
        for _ in range(200_000):
            if rebuilt._migration is None:
                break
            rebuilt.pump(t)
            t += 1e-3
        else:
            case.violations.append("resumed migration did not complete")
        rebuilt.reconcile(t)

    # Invariant 1: every durably-acknowledged dirty block survived on
    # some shard or reached the origin before the cut.
    assert origin.written_pages is not None
    for lba in sorted(sealed):
        if lba in origin.written_pages:
            continue
        holders = [slot for slot, shard in rebuilt.shards.items()
                   if (entry := shard.mapping.lookup(lba)) is not None
                   and entry.dirty]
        if not holders:
            case.violations.append(
                f"acked dirty lba {lba} lost (not mapped, not destaged)")

    # Invariant 2: exactly one owner per cached block.
    dirty_holders: Dict[int, int] = {}
    for slot, shard in rebuilt.shards.items():
        for lba, dirty in shard.cached_blocks():
            if rebuilt.owner_slot(lba) != slot:
                case.violations.append(
                    f"lba {lba} cached on slot {slot}, owned by "
                    f"{rebuilt.owner_slot(lba)}")
            if dirty:
                if lba in dirty_holders:
                    case.violations.append(
                        f"lba {lba} dirty on slots {dirty_holders[lba]} "
                        f"and {slot}")
                dirty_holders[lba] = slot

    # Invariant 3: per-shard mapping consistency.
    for shard in rebuilt.shards.values():
        try:
            shard.mapping.check_invariants()
        except AssertionError as exc:
            case.violations.append(
                f"{shard.name} mapping invariant: {exc}")
    return case


def run_case(seed: int, point: int, break_seal: bool = False) -> CaseResult:
    """Run one seeded workload to one crash point and check recovery."""
    case = CaseResult(seed=seed, point=point, mode=MODES[point % len(MODES)],
                      crashed=False, ops_before_crash=0, torn_at_crash=0)
    if case.mode == "migrate-cut":
        rng = random.Random((seed << 20) ^ point)
        return _run_migrate_cut(case, rng, break_seal=break_seal)
    # The repair crash modes need a spare to cut and a scrubber to
    # interrupt.
    config = (TORTURE_REPAIR_CONFIG if case.mode in REPAIR_MODES
              else TORTURE_CONFIG)
    rng = random.Random((seed << 20) ^ point)
    cache, ssds, spares, origin, metadata = _build_stack(
        break_seal=break_seal, config=config)
    _arm(case, ssds, spares, origin, rng)

    buffered: set = set()     # acked into RAM only — may be lost
    sealed: set = set()       # left the dirty buffer under a completed op
    now = 0.0
    try:
        for op_index in range(OPS_PER_CASE):
            case.ops_before_crash = op_index
            if case.mode == "scrub-cut" and op_index == OPS_PER_CASE // 3:
                _seed_scrub_corruption(cache, rng, seed,
                                       case.point // len(MODES) + 1)
            lba = rng.randrange(LBA_SPAN)
            draw = rng.random()
            if draw < 0.70:
                req = Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE)
            elif draw < 0.95:
                req = Request(Op.READ, lba * PAGE_SIZE, PAGE_SIZE)
            else:
                req = Request(Op.FLUSH)
            end = cache.submit(req, now)
            if req.op is Op.WRITE:
                buffered.add(lba)
                sealed.discard(lba)   # newest version is RAM-only again
            for done in [b for b in buffered if b not in cache.dirty_buf]:
                buffered.discard(done)
                sealed.add(done)
            now = max(now, end) + 10e-6
            if rng.random() < 0.01:
                now += config.t_wait * 1.5   # idle: TWAIT path
    except PowerCutError:
        case.crashed = True

    # ------------------------------------------------------------------
    # the machine is dead; what is durable is what the metadata says.
    # ------------------------------------------------------------------
    torn_before = [(s.sg, s.segment) for s in metadata.all_summaries()
                   if not s.consistent]
    case.torn_at_crash = len(torn_before)
    for injector in ssds + spares + [origin]:
        injector.disarm()

    # Recover over the post-swap array: a slot whose member failed and
    # was taken by a hot spare mid-run holds the spare now.
    recovered, report = recover(list(cache.ssds), origin, config, metadata)
    case.segments_recovered = report.segments_recovered
    case.blocks_recovered = report.blocks_recovered

    # Invariant 1: every durably-acknowledged dirty block survived.
    assert origin.written_pages is not None
    for lba in sorted(sealed):
        entry = recovered.mapping.lookup(lba)
        if entry is not None and entry.dirty:
            continue
        if lba in origin.written_pages:
            continue   # destaged before the crash
        case.violations.append(
            f"acked dirty lba {lba} lost (not mapped, not destaged)")

    # Invariant 2: torn segments are discarded, never replayed.
    if report.segments_discarded != len(torn_before):
        case.violations.append(
            f"discarded {report.segments_discarded} segments, expected "
            f"{len(torn_before)} torn")
    for sg, segment in torn_before:
        if metadata.read_summary(sg, segment) is not None:
            case.violations.append(
                f"torn summary ({sg},{segment}) survived recovery")
        for lba, entry in recovered.mapping.sg_blocks(sg):
            if entry.location.segment == segment:
                case.violations.append(
                    f"lba {lba} mapped into torn segment ({sg},{segment})")

    # Invariant 3: mapping and group-state consistency.
    try:
        recovered.mapping.check_invariants()
    except AssertionError as exc:
        case.violations.append(f"mapping invariant: {exc}")
    mapped_sgs = {e.location.sg
                  for _, e in _all_entries(recovered)}
    for sg in sorted(mapped_sgs):
        if sg == 0:
            case.violations.append("block mapped into superblock SG 0")
        elif recovered.segments.groups[sg].state is not GroupState.CLOSED:
            case.violations.append(
                f"mapped SG {sg} is {recovered.segments.groups[sg].state}, "
                "not closed")
        elif sg not in report.groups_in_use:
            case.violations.append(f"mapped SG {sg} missing from report")
    return case


def _all_entries(cache: SrcCache):
    for sg in range(cache.layout.groups):
        yield from cache.mapping.sg_blocks(sg)


def run(es: ExperimentScale = DEFAULT_SCALE, seeds: int = 5,
        points: int = 50, demonstrate_break: bool = False,
        ) -> ExperimentResult:
    """The full torture matrix: ``seeds`` x ``points`` crash cases."""
    result = ExperimentResult(
        experiment="Faults",
        title=f"Crash-point torture: {seeds} seeds x {points} points "
              "(power cut mid-segment-write / mid-GC / mid-destage / "
              "mid-rebuild / mid-scrub-repair / mid-shard-migration)",
        columns=["Mode", "Cases", "Crashed", "Torn found",
                 "Blocks recovered", "Violations"],
    )
    per_mode: Dict[str, List[CaseResult]] = {m: [] for m in MODES}
    for seed_index in range(seeds):
        for point in range(points):
            case = run_case(es.seed + seed_index, point)
            per_mode[case.mode].append(case)
    total_violations = 0
    for mode in MODES:
        cases = per_mode[mode]
        violations = sum(len(c.violations) for c in cases)
        total_violations += violations
        result.add_row(
            mode, len(cases), sum(c.crashed for c in cases),
            sum(c.torn_at_crash for c in cases),
            sum(c.blocks_recovered for c in cases), violations)
    all_cases = [c for cases in per_mode.values() for c in cases]
    result.add_row("TOTAL", len(all_cases),
                   sum(c.crashed for c in all_cases),
                   sum(c.torn_at_crash for c in all_cases),
                   sum(c.blocks_recovered for c in all_cases),
                   total_violations)
    for case in all_cases:
        for violation in case.violations:
            result.notes.append(
                f"seed {case.seed} point {case.point} ({case.mode}): "
                f"{violation}")

    if demonstrate_break:
        caught = demonstrate_broken_seal(es.seed)
        result.notes.append(
            f"deliberate break (ME seal skipped): {caught} violation(s) "
            f"caught — harness is sensitive" if caught else
            "deliberate break (ME seal skipped): NOT caught — harness "
            "is blind!")
    return result


def demonstrate_broken_seal(seed: int, max_points: int = 30) -> int:
    """Skip the ME seal and count the violations the harness raises.

    Scans crash points until one actually fires mid-run with sealed
    data at stake; returns the violation count there (0 means the
    harness failed to notice a broken crash protocol).
    """
    for point in range(max_points):
        case = run_case(seed, point, break_seal=True)
        if case.crashed and case.violations:
            return len(case.violations)
    return 0


if __name__ == "__main__":
    print(run(seeds=2, points=12, demonstrate_break=True).render())
