"""The crash rig: tiny geometry, injector-wrapped stacks, cluster recovery.

Everything in :mod:`repro.chaos` that cuts power builds its stack here
and recovers it here: the crash-point explorer
(:mod:`repro.chaos.crashpoints`) and the composed-fault scheduler
(:mod:`repro.chaos.scheduler`) differ in *where* they cut, not in what
they cut or how the survivors come back.

* the geometry — deliberately minute, so GC, destage, rebuild and
  migration all fire within ~1600 operations;
* :func:`build_origin` / :func:`build_shard` — one SRC stack with every
  member and hot spare behind a
  :class:`~repro.faults.injector.FaultInjector` (``break_seal`` builds
  the deliberately broken crash protocol of the sensitivity proof);
* :class:`Cluster` — two such shards behind a router plus the third
  shard an online add brings in, with the durable witness of whether
  that add completed;
* :func:`recover_shard` / :func:`recover_cluster` — recovery by
  metadata scan with the checks on recovery's own output, then the
  router rebuilt over the surviving ledger, the interrupted hand-off
  resumed, drained and reconciled.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from repro.cluster import ClusterConfig, ShardRouter
from repro.common.units import GIB, KIB, MIB
from repro.core.config import SrcConfig
from repro.core.metadata import MetadataStore
from repro.core.recovery import recover
from repro.core.segments import GroupState
from repro.core.src import SrcCache
from repro.faults import FaultInjector
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskSpec
from repro.ssd.device import SSDDevice
from repro.ssd.spec import SsdSpec

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

OPS_PER_CASE = 1600
LBA_SPAN = 1024          # pages of origin address space the workload hits

# Fine-grained slabs and few vnodes keep the ring small enough that
# every arc sees traffic within one case's operations.
TORTURE_CLUSTER = ClusterConfig(
    n_shards=2, vnodes=8, slab_blocks=16,
    migration_rate=8 * MIB, migration_unit_blocks=16)

# Simulated time at which a recovered cluster resumes: past anything a
# dead run reached, fault windows included.
RESUME_AT = 100.0


def build_origin() -> FaultInjector:
    """Primary storage behind an injector that records destaged pages."""
    return FaultInjector(
        PrimaryStorage(n_disks=2, disk_spec=DiskSpec(capacity=2 * GIB)),
        name="fault-origin", record_writes=True)


def build_shard(origin: FaultInjector, config: SrcConfig = TORTURE_CONFIG,
                label: str = "", break_seal: bool = False,
                ) -> Tuple[SrcCache, List[FaultInjector]]:
    """One tiny SRC stack; returns it with its member injectors, the
    ``config.repair.hot_spares`` spare injectors last."""
    devices = ([f"{label}t{i}" for i in range(config.n_ssds)]
               + [f"{label}spare{i}"
                  for i in range(config.repair.hot_spares)])
    injectors = [FaultInjector(SSDDevice(TORTURE_SSD, name=device),
                               name=f"fault-{device}")
                 for device in devices]
    metadata = MetadataStore()
    if break_seal:
        # The deliberate protocol break: the trailing ME block is never
        # written, so every segment stays torn and recovery must throw
        # away data that was acknowledged.
        metadata.seal_summary = lambda sg, segment: None
    cache = SrcCache(injectors[:config.n_ssds], origin, config,
                     metadata=metadata,
                     spares=injectors[config.n_ssds:] or None)
    if label:
        cache.name = label
    return cache, injectors


def torn_summaries(shard: SrcCache) -> List[Tuple[int, int]]:
    """``(sg, segment)`` of every summary whose MS and ME disagree."""
    return [(s.sg, s.segment) for s in shard.metadata.all_summaries()
            if not s.consistent]


def recover_shard(shard: SrcCache, origin: FaultInjector,
                  ) -> Tuple[SrcCache, List[str]]:
    """Recover one dead shard from its metadata over its post-swap array
    (a slot a hot spare took mid-run holds the spare now).

    Returns the recovered cache and what recovery's own output got
    wrong: a torn segment that was kept or mapped into, a mapped group
    that is not closed and reported.
    """
    torn = torn_summaries(shard)
    recovered, report = recover(list(shard.ssds), origin, shard.config,
                                shard.metadata)
    recovered.name = shard.name
    problems = []
    if report.segments_discarded != len(torn):
        problems.append(f"discarded {report.segments_discarded} segments, "
                        f"expected {len(torn)} torn")
    for sg, segment in torn:
        if shard.metadata.read_summary(sg, segment) is not None:
            problems.append(
                f"torn summary ({sg},{segment}) survived recovery")
    mapped_sgs = set()
    for lba, entry in recovered.mapping.items():
        location = entry.location
        mapped_sgs.add(location.sg)
        if (location.sg, location.segment) in torn:
            problems.append(f"lba {lba} mapped into torn segment "
                            f"({location.sg},{location.segment})")
    for sg in sorted(mapped_sgs):
        state = recovered.segments.groups[sg].state
        if state is not GroupState.CLOSED:
            problems.append(f"mapped SG {sg} is {state}, not closed")
        elif sg not in report.groups_in_use:
            problems.append(f"mapped SG {sg} missing from report")
    return recovered, problems


class Cluster:
    """Two injector-wrapped shards behind a router, plus the shard an
    online add brings in (``shards[-1]``, see :meth:`add_shard`)."""

    def __init__(self, shard_config: SrcConfig = TORTURE_CONFIG,
                 name: str = "chaos-cluster") -> None:
        self.origin = build_origin()
        self.shards: List[SrcCache] = []
        self.members: List[List[FaultInjector]] = []
        for label in ("shard0", "shard1", "shard-new"):
            shard, injectors = build_shard(self.origin, shard_config, label)
            self.shards.append(shard)
            self.members.append(injectors)
        self.router = ShardRouter(self.shards[:TORTURE_CLUSTER.n_shards],
                                  self.origin, TORTURE_CLUSTER, name=name)
        # The durable record of the topology change is the ledger, not
        # the dead router's memory: ``add_shard`` puts the slot in its
        # shard table *before* ``ledger.begin``, so a cut in between
        # leaves it there while durably the add never happened.  And a
        # closed ledger looks the same before the add as after it, so
        # the witness that the add completed is that ``complete`` ran.
        self.add_completed = False
        complete = self.router.ledger.complete

        def counted() -> None:
            complete()
            self.add_completed = True

        self.router.ledger.complete = counted

    def add_shard(self, now: float) -> None:
        self.router.add_shard(self.shards[-1], now)

    def injectors(self) -> List[FaultInjector]:
        return [inj for group in self.members for inj in group] + [
            self.origin]


def recover_cluster(cluster: Cluster) -> Tuple[ShardRouter, List[str]]:
    """Bring a dead :class:`Cluster` back: disarm every injector,
    recover each shard, rebuild the router over the surviving ledger
    (over the pre-add topology unless the add completed), resume the
    interrupted hand-off, drain it and reconcile ownership.

    Returns the rebuilt router and the problems found on the way.
    """
    for injector in cluster.injectors():
        injector.disarm()
    dead = cluster.router
    # Read before anything resumes: the resumed hand-off runs the same
    # ``complete`` when it finishes.
    add_completed = cluster.add_completed
    recovered, problems = [], []
    for shard in cluster.shards:
        cache, shard_problems = recover_shard(shard, cluster.origin)
        recovered.append(cache)
        problems += [f"{shard.name}: {p}" for p in shard_problems]

    base = TORTURE_CLUSTER.n_shards
    n_shards = base + 1 if add_completed else base
    rebuilt = ShardRouter(recovered[:n_shards], cluster.origin,
                          replace(TORTURE_CLUSTER, n_shards=n_shards),
                          ledger=dead.ledger, name=dead.name)
    rebuilt.recover_interrupted(
        RESUME_AT, new_shard=recovered[base] if dead.ledger.active else None)
    t = RESUME_AT
    for _ in range(200_000):
        if rebuilt._migration is None:
            break
        rebuilt.pump(t)
        t += 1e-3
    else:
        problems.append("resumed migration did not complete")
    rebuilt.reconcile(t)
    return rebuilt, problems
