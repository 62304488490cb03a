"""Sharded cluster: ring properties, migration, failover, volumes."""

import copy

import numpy as np
import pytest

from repro.cluster import (ClusterConfig, HashRing, MigrationError,
                           ShardRouter, arc_contains)
from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.src import SrcCache
from repro.hdd.backend import PrimaryStorage
from repro.repair import DeviceHealth
from repro.ssd.device import SSDDevice

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD

# Small ring + fine slabs so a few thousand blocks exercise every arc.
CLUSTER = ClusterConfig(n_shards=2, vnodes=8, slab_blocks=16,
                        migration_rate=0)


def make_shard(label, origin):
    ssds = [SSDDevice(TINY_SSD, name=f"{label}-t{i}")
            for i in range(TINY_SRC.n_ssds)]
    shard = SrcCache(ssds, origin, TINY_SRC)
    shard.name = label
    return shard


def make_cluster(n_shards=2, config=CLUSTER):
    if config.n_shards != n_shards:
        from dataclasses import replace
        config = replace(config, n_shards=n_shards)
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    shards = [make_shard(f"shard{i}", origin) for i in range(n_shards)]
    return ShardRouter(shards, origin, config), origin


def write_blocks(router, blocks, now=0.0, step=1e-4):
    for block in blocks:
        end = router.submit(
            Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE), now)
        now = max(now, end) + step
    return now


def drain_migration(router, now, dt=1e-3, limit=200_000):
    for _ in range(limit):
        if router._migration is None:
            return now
        router.pump(now)
        now += dt
    raise AssertionError("migration did not complete")


def foreign_blocks(router):
    return [(slot, lba)
            for slot, shard in router.shards.items()
            if router.slot_serving(slot)
            for lba, _ in shard.cached_blocks()
            if router.owner_slot(lba) != slot]


# ======================================================================
# hash ring
# ======================================================================
def test_ring_deterministic_across_instances():
    a, b = HashRing(vnodes=16, seed=3), HashRing(vnodes=16, seed=3)
    for slot in range(4):
        a.add(slot)
        b.add(slot)
    for slab in range(5000):
        assert (a.owner_of_hash(a.key_hash(slab))
                == b.owner_of_hash(b.key_hash(slab)))


def test_add_arcs_describe_exact_ownership_changes():
    ring = HashRing(vnodes=8, seed=1)
    for slot in range(3):
        ring.add(slot)
    before = copy.deepcopy(ring)
    arcs = ring.add(3)
    assert arcs
    for slab in range(20_000):
        point = ring.key_hash(slab)
        old = before.owner_of_hash(point)
        new = ring.owner_of_hash(point)
        hit = [a for a in arcs if arc_contains(a[0], a[1], point)]
        if new != old:
            assert new == 3
            assert len(hit) == 1
            assert hit[0][2] == old
        else:
            assert not hit   # unmoved points lie in no returned arc


def test_remove_returns_arcs_to_successors():
    ring = HashRing(vnodes=8, seed=1)
    for slot in range(4):
        ring.add(slot)
    before = copy.deepcopy(ring)
    arcs = ring.remove(2)
    assert 2 not in ring
    for slab in range(20_000):
        point = ring.key_hash(slab)
        old = before.owner_of_hash(point)
        new = ring.owner_of_hash(point)
        if old == 2:
            hit = [a for a in arcs if arc_contains(a[0], a[1], point)]
            assert len(hit) == 1 and hit[0][2] == new
        else:
            assert new == old


def test_slab_owner_array_follows_every_ring_change():
    """``owner`` / ``owners`` answer from an array only the ring keeps:
    a slot added or removed — directly, or by the router resuming an
    interrupted add — leaves no stale entry and needs no call from
    outside."""
    from dataclasses import replace
    slabs = np.arange(3000)

    def check(ring):
        truth = [ring.owner_of_hash(ring.key_hash(s)) for s in slabs.tolist()]
        assert ring.owners(slabs).tolist() == truth
        assert [ring.owner(s) for s in slabs[::7].tolist()] == truth[::7]
        far = 10 * slabs.shape[0]          # past what owners() sized
        assert ring.owner(far) == ring.owner_of_hash(ring.key_hash(far))

    ring = HashRing(vnodes=8, seed=1)
    for slot in range(3):
        ring.add(slot)
    check(ring)
    ring.add(3)
    check(ring)
    ring.remove(1)
    check(ring)

    config = replace(CLUSTER, migration_rate=2 * MIB)
    router, origin = make_cluster(config=config)
    now = write_blocks(router, range(1500))
    new = make_shard("shard2", origin)
    router.add_shard(new, now)
    rebuilt = ShardRouter([router.shards[0], router.shards[1]], origin,
                          config, ledger=router.ledger)
    check(rebuilt.ring)                # filled over the pre-add topology
    rebuilt.recover_interrupted(now, new_shard=new)
    check(rebuilt.ring)
    assert 2 in set(rebuilt.ring.owners(slabs).tolist())


def test_arc_contains_wrap_and_full_circle():
    assert arc_contains(10, 20, 15)
    assert not arc_contains(10, 20, 10)    # half-open at lo
    assert arc_contains(10, 20, 20)        # closed at hi
    assert arc_contains(20, 10, 25)        # wrapping arc
    assert arc_contains(20, 10, 5)
    assert not arc_contains(20, 10, 15)
    assert arc_contains(7, 7, 123)         # lo == hi: full circle


def test_ring_errors():
    ring = HashRing(vnodes=4, seed=1)
    with pytest.raises(ConfigError):
        ring.owner_of_hash(1)              # empty ring
    ring.add(0)
    with pytest.raises(ConfigError):
        ring.add(0)                        # duplicate
    with pytest.raises(ConfigError):
        ring.remove(9)                     # absent


# ======================================================================
# routing
# ======================================================================
def test_requests_land_on_ring_owner():
    router, _ = make_cluster()
    write_blocks(router, range(2000))
    assert foreign_blocks(router) == []
    stats = router.clusterstats
    assert stats.routed_writes == 2000
    # Both shards took a share of the space.
    for shard in router.shards.values():
        assert len(shard.cached_blocks()) > 0


def test_straddling_request_is_split():
    router, _ = make_cluster()
    slab = next(s for s in range(1000)
                if (router.owner_slot(s * 16)
                    != router.owner_slot((s + 1) * 16)))
    offset = (slab * 16 + 15) * PAGE_SIZE
    router.submit(Request(Op.WRITE, offset, 2 * PAGE_SIZE), 0.0)
    assert router.clusterstats.straddled_requests == 1
    assert foreign_blocks(router) == []


def test_trim_broadcasts_to_all_shards():
    router, _ = make_cluster()
    write_blocks(router, range(64))
    router.submit(Request(Op.TRIM, 0, 64 * PAGE_SIZE), 1.0)
    for shard in router.shards.values():
        assert shard.cached_blocks() == []


# ======================================================================
# migration
# ======================================================================
def test_add_shard_rebalances_with_zero_lost_dirty():
    router, origin = make_cluster()
    now = write_blocks(router, range(1500))
    dirty_before = router.cluster_dirty()
    assert dirty_before > 0
    new = make_shard("shard2", origin)
    slot = router.add_shard(new, now)
    assert slot == 2
    now = drain_migration(router, now)
    assert router._migration is None
    assert router.clusterstats.migrations_completed == 1
    assert router.clusterstats.migration_blocks > 0
    assert foreign_blocks(router) == []
    assert router.cluster_dirty() == dirty_before
    assert len(new.cached_blocks()) > 0


def test_remove_shard_drains_and_retires():
    router, _ = make_cluster()
    now = write_blocks(router, range(1000))
    dirty_before = router.cluster_dirty()
    router.remove_shard(0, now)
    now = drain_migration(router, now)
    assert 0 not in router.shards
    assert router.health.state(0) is DeviceHealth.BYPASS
    assert foreign_blocks(router) == []
    assert router.cluster_dirty() == dirty_before


def test_throttled_migration_defers_and_completes():
    from dataclasses import replace
    config = replace(CLUSTER, migration_rate=1 * MIB)
    router, origin = make_cluster(config=config)
    now = write_blocks(router, range(1500))
    router.add_shard(make_shard("shard2", origin), now)
    drain_migration(router, now, dt=1e-4)
    assert router.clusterstats.migration_throttle_defers > 0
    assert foreign_blocks(router) == []


def test_one_topology_change_at_a_time():
    from dataclasses import replace
    config = replace(CLUSTER, migration_rate=1 * MIB)
    router, origin = make_cluster(config=config)
    now = write_blocks(router, range(500))
    router.add_shard(make_shard("shard2", origin), now)
    assert router._migration is not None
    with pytest.raises(MigrationError):
        router.remove_shard(0, now)


def test_interrupted_add_resumes_from_ledger():
    """A new router over the surviving ledger finishes the hand-off."""
    from dataclasses import replace
    config = replace(CLUSTER, migration_rate=2 * MIB)
    router, origin = make_cluster(config=config)
    now = write_blocks(router, range(1500))
    dirty_before = router.cluster_dirty()
    new = make_shard("shard2", origin)
    router.add_shard(new, now)
    # Let a few ranges commit, then abandon the router mid-migration.
    for _ in range(200):
        router.pump(now)
        now += 1e-3
    assert router._migration is not None
    assert router.ledger.active
    committed = len(router.ledger.moves) - len(router.ledger.pending_moves())

    shards = [router.shards[0], router.shards[1]]
    rebuilt = ShardRouter(shards, origin, config,
                          ledger=router.ledger)
    rebuilt.recover_interrupted(now, new_shard=new)
    assert rebuilt._migration is not None
    now = drain_migration(rebuilt, now)
    assert not rebuilt.ledger.active
    assert foreign_blocks(rebuilt) == []
    assert rebuilt.cluster_dirty() == dirty_before
    assert committed >= 0   # partial progress was preserved, not redone


def test_resume_add_requires_new_shard():
    from dataclasses import replace
    config = replace(CLUSTER, migration_rate=1 * MIB)
    router, origin = make_cluster(config=config)
    write_blocks(router, range(200))
    router.add_shard(make_shard("shard2", origin), 1.0)
    rebuilt = ShardRouter([router.shards[0], router.shards[1]],
                          origin, config, ledger=router.ledger)
    with pytest.raises(MigrationError):
        rebuilt.recover_interrupted(2.0)


def test_reconcile_evicts_foreign_copies():
    router, _ = make_cluster()
    write_blocks(router, range(256))
    block = 7
    owner = router.owner_slot(block)
    other = next(s for s in router.shards if s != owner)
    router.shards[other].admit_block(block, False, 1.0)
    assert foreign_blocks(router)
    evicted = router.reconcile(2.0)
    assert evicted >= 1
    assert foreign_blocks(router) == []


# ======================================================================
# failover and blast radius
# ======================================================================
def test_fail_shard_degrades_only_its_ranges():
    router, _ = make_cluster()
    now = write_blocks(router, range(1000))
    shard0 = router.shards[0]
    expect_lost = shard0.mapping.dirty_count + len(shard0.dirty_buf)
    lost = router.fail_shard(0, now)
    assert lost == expect_lost
    assert router.clusterstats.lost_dirty == lost
    assert router.health.state(0) is DeviceHealth.DEGRADED
    assert router.serving_slots() == [1]

    mine = [b for b in range(1000) if router.owner_slot(b) == 0]
    theirs = [b for b in range(1000) if router.owner_slot(b) == 1]
    routed_before = router.clusterstats.routed_reads
    for block in mine[:50]:
        router.submit(Request(Op.READ, block * PAGE_SIZE, PAGE_SIZE), now)
        router.submit(Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE), now)
    assert router.clusterstats.fallthrough_reads == 50
    assert router.clusterstats.write_arounds == 50
    for block in theirs[:50]:
        router.submit(Request(Op.READ, block * PAGE_SIZE, PAGE_SIZE), now)
    assert router.clusterstats.routed_reads == routed_before + 50


def test_attach_spare_warms_to_healthy():
    from dataclasses import replace
    config = replace(CLUSTER, spare_warm_s=0.5)
    router, origin = make_cluster(config=config)
    now = write_blocks(router, range(200))
    router.fail_shard(0, now)
    spare = make_shard("spare", origin)
    router.attach_spare(spare, 0, now)
    assert router.health.state(0) is DeviceHealth.REBUILDING
    assert router.slot_serving(0)      # rebuilding slots serve and warm
    router.pump(now + 0.6)
    assert router.health.state(0) is DeviceHealth.HEALTHY
    assert router.health.last_mttr == pytest.approx(0.6)
    assert router.clusterstats.spares_attached == 1


def test_spare_needs_degraded_slot():
    from repro.common.errors import ReproError
    router, origin = make_cluster()
    with pytest.raises(ReproError):
        router.attach_spare(make_shard("spare", origin), 0, 0.0)


def test_migration_freezes_range_when_endpoint_fails():
    from dataclasses import replace
    config = replace(CLUSTER, migration_rate=1 * MIB)
    router, origin = make_cluster(config=config)
    now = write_blocks(router, range(1000))
    router.add_shard(make_shard("shard2", origin), now)
    router.fail_shard(0, now)     # a migration source dies mid-flight
    for _ in range(500):
        router.pump(now)
        now += 1e-3
    # Moves sourced at the dead slot are frozen, not lost or corrupted.
    job = router._migration
    assert job is not None
    assert job.stats.frozen_skips > 0
    assert all(m.source == 0 for m in job.moves)


# ======================================================================
# tenant volumes
# ======================================================================
def test_cluster_volume_shifts_offsets_and_stamps_tenant():
    router, _ = make_cluster()
    router.create_volume("acme", 256 * PAGE_SIZE)
    vol = router.create_volume("beta", 256 * PAGE_SIZE)
    assert vol.base_block == 256       # carved after acme's window
    now = 0.0
    for block in range(128):
        end = vol.submit(
            Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE), now)
        now = max(now, end) + 1e-4
    # Volume block k landed at cluster block base+k, on its ring owner.
    for block in range(128):
        lba = 256 + block
        owner = router.shards[router.owner_slot(lba)]
        assert any(cached == lba for cached, _ in owner.cached_blocks())
        # ...and the forwarded request carried the tenant stamp.
        assert owner._active_tenant == "beta"
    assert foreign_blocks(router) == []
    # The contiguous window scatters across the whole cluster.
    owners = {router.owner_slot(256 + b) for b in range(128)}
    assert owners == {0, 1}


def test_cluster_volume_write_cap_throttles():
    router, _ = make_cluster()
    vol = router.create_volume("slow", 512 * PAGE_SIZE,
                               max_write_mb_s=0.5)
    now = 0.0
    for block in range(128):
        end = vol.submit(
            Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE), now)
        now = max(now, end)
    assert vol.account.throttle_waits > 0
    assert vol.account.throttle_wait_s > 0


def test_cluster_volume_accounts_its_tenant_io_and_latency():
    router, _ = make_cluster()
    router.create_volume("acme", 256 * PAGE_SIZE)
    vol = router.create_volume("beta", 256 * PAGE_SIZE)
    now = 0.0
    for block in range(64):
        now = vol.submit(Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE), now)
    assert vol.account.io.write_ops == 64
    assert vol.account.io.write_bytes == 64 * PAGE_SIZE
    assert vol.account.latency.count == 64
    # Each volume keeps its own account.
    assert router.volumes["acme"].account.io.write_ops == 0


def test_volume_allocation_checks():
    router, _ = make_cluster()
    router.create_volume("a", 256 * PAGE_SIZE)
    with pytest.raises(ConfigError):
        router.create_volume("a", 256 * PAGE_SIZE)   # duplicate tenant
    with pytest.raises(ConfigError):
        router.create_volume("huge", router.size * 2)


@pytest.mark.parametrize("size", [1, PAGE_SIZE + 1, 0, -PAGE_SIZE])
def test_volume_size_must_be_whole_pages(size):
    """As ``TenantRegistry.create_volume``: no silent round-up, and the
    refused size carves nothing."""
    router, _ = make_cluster()
    with pytest.raises(ConfigError, match="positive multiple"):
        router.create_volume("t", size)
    assert router.volumes == {}
    assert router.create_volume("t", PAGE_SIZE).blocks == 1


# ======================================================================
# config and construction
# ======================================================================
def test_cluster_config_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(n_shards=0)
    with pytest.raises(ConfigError):
        ClusterConfig(vnodes=0)
    with pytest.raises(ConfigError):
        ClusterConfig(slab_blocks=0)
    with pytest.raises(ConfigError):
        ClusterConfig(migration_rate=-1)
    round_trip = ClusterConfig.from_dict(CLUSTER.as_dict())
    assert round_trip == CLUSTER


def test_cluster_config_document_refuses_unknown_keys():
    """A misspelt knob must not load the default silently."""
    doc = CLUSTER.as_dict()
    assert ClusterConfig.from_dict(doc) == CLUSTER
    doc["migration_rat"] = doc.pop("migration_rate")
    with pytest.raises(ConfigError, match="migration_rat"):
        ClusterConfig.from_dict(doc)


def test_router_rejects_mismatched_origin():
    origin_a = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    origin_b = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    shards = [make_shard("s0", origin_a), make_shard("s1", origin_b)]
    with pytest.raises(ConfigError):
        ShardRouter(shards, origin_a, CLUSTER)


def test_collect_walks_shards_in_slot_order():
    from repro.obs import collect
    router, _ = make_cluster()
    write_blocks(router, range(64))
    doc = collect(router)
    assert doc["cluster"]["routed_writes"] == 64
    assert doc["health"]["states"] == ["healthy", "healthy"]
    kids = doc["children"]
    assert kids["shards[0]"]["name"] == "shard0"
    assert kids["shards[1]"]["name"] == "shard1"
    # The shared origin is harvested once (cycle-protected), under the
    # first shard that reaches it.
    assert "origin" in kids["shards[0]"]["children"]
    assert "origin" not in kids["shards[1]"].get("children", {})
