"""Multi-tenant volume layer: shares, borrowing, admission, stats."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import QosConfig, SrcConfig
from repro.tenancy import QosSpec, TenantRegistry, Volume

from _stacks import TINY_SRC, make_src


def _registry(**qos_kwargs) -> TenantRegistry:
    config = SrcConfig(
        erase_group_size=TINY_SRC.erase_group_size,
        segment_unit=TINY_SRC.segment_unit,
        cache_space=TINY_SRC.cache_space,
        t_wait=TINY_SRC.t_wait,
        qos=QosConfig(**qos_kwargs) if qos_kwargs else QosConfig(),
    )
    return TenantRegistry(make_src(config))


def _fill(volume: Volume, nbytes: int, now: float = 0.0) -> float:
    """Sequentially write ``nbytes`` of 4 KiB blocks through a volume."""
    for offset in range(0, nbytes, PAGE_SIZE):
        now = volume.submit(Request(Op.WRITE, offset, PAGE_SIZE), now)
    return now


# ----------------------------------------------------------------------
# QosSpec validation
# ----------------------------------------------------------------------
def test_qos_spec_validates_shares():
    with pytest.raises(ConfigError):
        QosSpec(min_share=-0.1)
    with pytest.raises(ConfigError):
        QosSpec(max_share=1.5)
    with pytest.raises(ConfigError):
        QosSpec(min_share=0.6, max_share=0.5)
    with pytest.raises(ConfigError):
        QosSpec(max_write_mb_s=-1)


# ----------------------------------------------------------------------
# volume carving
# ----------------------------------------------------------------------
def test_volumes_are_disjoint_tagged_windows():
    reg = _registry()
    a = reg.create_volume("a", 8 * MIB)
    b = reg.create_volume("b", 8 * MIB)
    assert a.base_block == 0
    assert b.base_block == a.blocks
    assert reg.tenant_of(0) == "a"
    assert reg.tenant_of(a.blocks) == "b"
    assert reg.tenant_of(a.blocks + b.blocks) is None

    # A volume write lands in the volume's window of the origin space.
    a.submit(Request(Op.WRITE, 0, PAGE_SIZE), 0.0)
    b.submit(Request(Op.WRITE, 0, PAGE_SIZE), 0.0)
    assert reg.occupancy("a") == 1
    assert reg.occupancy("b") == 1
    reg.check_invariants()


def test_volume_size_and_qos_conflicts_rejected():
    reg = _registry()
    with pytest.raises(ConfigError):
        reg.create_volume("a", PAGE_SIZE + 1)     # unaligned
    with pytest.raises(ConfigError):
        reg.create_volume("a", 0)                 # empty
    reg.create_volume("a", 4 * MIB, QosSpec(min_share=0.2))
    with pytest.raises(ConfigError):              # conflicting QoS class
        reg.create_volume("a", 4 * MIB, QosSpec(min_share=0.3))
    reg.create_volume("a", 4 * MIB)               # same tenant, no respec


def test_overcommitted_reservations_rejected():
    reg = _registry()
    reg.create_volume("a", 4 * MIB, QosSpec(min_share=0.7))
    with pytest.raises(ConfigError):
        reg.create_volume("b", 4 * MIB, QosSpec(min_share=0.5))


# ----------------------------------------------------------------------
# share enforcement
# ----------------------------------------------------------------------
def test_max_share_caps_occupancy_with_write_around():
    reg = _registry()
    whale = reg.create_volume("whale", 32 * MIB, QosSpec(max_share=0.10))
    _fill(whale, 32 * MIB)
    t = reg.stats()["whale"]
    assert t["cached_blocks"] <= t["max_blocks"]
    assert t["rejected_blocks"] > 0
    assert t["write_arounds"] == t["rejected_blocks"]
    reg.check_invariants()


def test_unenforced_registry_admits_everything():
    reg = _registry(enforce_shares=False)
    whale = reg.create_volume("whale", 16 * MIB, QosSpec(max_share=0.05))
    _fill(whale, 8 * MIB)
    t = reg.stats()["whale"]
    assert t["rejected_blocks"] == 0
    assert t["cached_blocks"] > t["max_blocks"]
    reg.check_invariants()


def test_min_share_reservation_always_admits():
    reg = _registry()
    vol = reg.create_volume("small", 4 * MIB, QosSpec(min_share=0.5,
                                                      max_share=0.5))
    _fill(vol, 4 * MIB)
    t = reg.stats()["small"]
    assert t["rejected_blocks"] == 0
    assert t["cached_blocks"] * PAGE_SIZE == 4 * MIB
    reg.check_invariants()


# ----------------------------------------------------------------------
# work-conserving borrowing
# ----------------------------------------------------------------------
def test_borrowing_takes_idle_but_not_reserved_capacity():
    # "idle" reserves 60% and issues nothing; "greedy" may borrow the
    # unreserved remainder beyond its own 10% reservation, but never
    # the idle tenant's untouched reservation.
    reg = _registry(work_conserving=True)
    reg.create_volume("idle", 4 * MIB, QosSpec(min_share=0.6))
    greedy = reg.create_volume("greedy", 64 * MIB,
                               QosSpec(min_share=0.1, max_share=1.0))
    _fill(greedy, 64 * MIB)
    stats = reg.stats()["greedy"]
    cap = reg.capacity_blocks
    reserved = reg.stats()["idle"]["min_blocks"]
    assert stats["cached_blocks"] > stats["min_blocks"]  # borrowed
    assert stats["cached_blocks"] <= cap - reserved      # not the reserve
    assert stats["rejected_blocks"] > 0
    reg.check_invariants()


def test_strict_partitioning_stops_at_reservation():
    reg = _registry(work_conserving=False)
    reg.create_volume("idle", 4 * MIB, QosSpec(min_share=0.6))
    greedy = reg.create_volume("greedy", 64 * MIB,
                               QosSpec(min_share=0.1, max_share=1.0))
    _fill(greedy, 64 * MIB)
    stats = reg.stats()["greedy"]
    # Without borrowing the tenant is pinned at its reservation (the
    # segment buffers may hold a handful of blocks above it in flight).
    slack = 2 * reg.cache.dirty_buf.capacity
    assert stats["cached_blocks"] <= stats["min_blocks"] + slack
    reg.check_invariants()


# ----------------------------------------------------------------------
# per-tenant stats isolation
# ----------------------------------------------------------------------
def test_stats_are_isolated_per_tenant():
    reg = _registry()
    a = reg.create_volume("a", 8 * MIB)
    reg.create_volume("b", 8 * MIB)
    now = _fill(a, 2 * MIB)
    for offset in range(0, MIB, PAGE_SIZE):
        now = a.submit(Request(Op.READ, offset, PAGE_SIZE), now)
    sa, sb = reg.stats()["a"], reg.stats()["b"]
    assert sa["io"]["write_ops"] == 2 * MIB // PAGE_SIZE
    assert sa["io"]["read_ops"] == MIB // PAGE_SIZE
    assert sa["latency"]["count"] > 0
    assert sb["io"]["total_ops"] == 0
    assert sb["latency"]["count"] == 0
    assert sb["cached_blocks"] == 0
    reg.check_invariants()


def test_write_rate_cap_throttles_and_accounts():
    reg = _registry()
    vol = reg.create_volume("capped", 8 * MIB,
                            QosSpec(max_write_mb_s=0.5))
    done = _fill(vol, 2 * MIB)
    # 2 MiB at 0.5 MiB/s cannot complete much before 4 simulated
    # seconds; an uncapped volume finishes in well under one.
    assert done > 3.0
    t = reg.stats()["capped"]
    assert t["throttle_waits"] > 0
    assert t["throttle_wait_s"] > 0


def test_rate_cap_idles_when_enforcement_off():
    reg = _registry(enforce_shares=False)
    vol = reg.create_volume("capped", 8 * MIB,
                            QosSpec(max_write_mb_s=0.5))
    done = _fill(vol, 2 * MIB)
    assert done < 3.0
    assert reg.stats()["capped"]["throttle_waits"] == 0


def _churn_reserved(enforce: bool) -> int:
    """12 MiB reserved footprint vs 128 MiB of churn; returns the
    reserved tenant's surviving occupancy."""
    reg = _registry(enforce_shares=enforce)
    reserved = reg.create_volume("reserved", 16 * MIB,
                                 QosSpec(min_share=0.2, max_share=0.5))
    churn = reg.create_volume("churn", 64 * MIB, QosSpec(max_share=1.0))
    now = _fill(reserved, 12 * MIB)
    for _ in range(2):
        now = _fill(churn, 64 * MIB, now)
    reg.check_invariants()
    return reg.stats()["reserved"]["cached_blocks"]


def test_reclaim_protects_reserved_occupancy():
    # Admission alone cannot uphold min_share: reclaim must not evict a
    # tenant sitting at/below its reservation.  The reserved tenant's
    # footprint (3072 blocks) fits its reservation, so with enforcement
    # every block survives 128 MiB of another tenant's churn; without
    # enforcement the tenant-blind log reclaim washes almost all of it
    # out.
    footprint = 12 * MIB // PAGE_SIZE
    assert _churn_reserved(enforce=True) == footprint
    assert _churn_reserved(enforce=False) < footprint // 2


def test_destage_attribution_reaches_owner():
    reg = _registry()
    vol = reg.create_volume("w", 32 * MIB)
    now = _fill(vol, 24 * MIB)
    reg.cache.flush(now)
    # Enough dirty data to force destage through the shared pipeline;
    # every destaged block must be billed to its owning tenant.
    total_destaged = sum(s["destaged_blocks"]
                        for s in reg.stats().values())
    assert total_destaged == reg.stats()["w"]["destaged_blocks"]
    reg.check_invariants()
    # An extent that runs across a volume boundary is cut there: one
    # origin write per owner, each carrying its tenant tag.
    other = reg.create_volume("x", 4 * MIB)
    edge = other.base_block
    for volume, block in ((vol, vol.blocks - 2), (vol, vol.blocks - 1),
                          (other, 0), (other, 1)):
        now = volume.submit(
            Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE), now)
    now = reg.cache.flush(now)
    assert all(lba in reg.cache.mapping for lba in range(edge - 2, edge + 2))
    writes = reg.cache.origin.stats.write_ops
    billed = reg.stats()["w"]["destaged_blocks"]
    reg.cache.reclaimer.destage(np.arange(edge - 2, edge + 2), now)
    assert reg.cache.origin.stats.write_ops == writes + 2
    assert reg.stats()["w"]["destaged_blocks"] == billed + 2
    assert reg.stats()["x"]["destaged_blocks"] == 2


# ----------------------------------------------------------------------
# array twins of the per-block hooks (the batch paths call these)
# ----------------------------------------------------------------------
def _three_tenants(**qos_kwargs):
    """Volumes a | b | (gap: unowned) with distinct reservations, plus a
    volume-less tenant whose reservation still counts as unmet."""
    reg = _registry(**qos_kwargs)
    reg.create_volume("a", 1 * MIB, QosSpec(min_share=0.002, max_share=0.004))
    reg.create_volume("b", 1 * MIB, QosSpec(min_share=0.001, max_share=1.0))
    reg.add_tenant("absent", QosSpec(min_share=0.01))
    return reg


def test_owner_index_matches_tenant_of():
    reg = _three_tenants()
    names = reg.tenant_names()
    blocks = np.arange(-2, 2 * (1 * MIB // PAGE_SIZE) + 5)
    want = [reg.tenant_of(int(b)) for b in blocks]
    got = [names[i] if i >= 0 else None for i in reg.owner_index(blocks)]
    assert got == want and None in got and "b" in got
    empty = _registry()
    assert empty.owner_index(blocks).tolist() == [-1] * len(blocks)


def test_batch_observers_match_the_scalar_pair():
    """Random cached / evicted batches, unowned blocks included: the
    array hooks land on the same occupancies, total and unmet reserve
    as the per-block ones (the reserve sum is recomputed, not stepped)."""
    scalar, batch = _three_tenants(), _three_tenants()
    rng = np.random.default_rng(51)
    resident = np.zeros(600, dtype=bool)        # blocks 512.. are unowned
    for _ in range(200):
        lbas = rng.choice(600, size=rng.integers(0, 40), replace=False)
        evict = rng.random() < 0.45
        lbas = lbas[resident[lbas] == evict]
        resident[lbas] = not evict
        for lba in lbas.tolist():
            (scalar.block_evicted if evict else scalar.block_cached)(lba)
        (batch.blocks_evicted if evict else batch.blocks_cached)(lbas)
        assert batch.as_dict() == scalar.as_dict()
        assert batch._total_unmet_reserve == scalar._total_unmet_reserve
        assert batch._total_unmet_reserve == sum(
            max(0, t.min_blocks - t.occupancy)
            for t in batch._tenants.values())
    assert scalar.occupancy("a") > scalar._tenants["a"].min_blocks


@pytest.mark.parametrize("qos_kwargs", [
    {}, {"work_conserving": False}, {"enforce_shares": False}],
    ids=["borrowing", "strict", "unenforced"])
def test_refusals_matches_sequential_admit(qos_kwargs):
    """``refusals`` opens with the row the per-block loop first
    refuses, from every starting occupancy a random walk reaches."""
    rng = np.random.default_rng(52)
    bounded = 0
    for trial in range(60):
        scalar, batch = _three_tenants(**qos_kwargs), \
            _three_tenants(**qos_kwargs)
        if trial % 2:   # squeeze the unreserved capacity: "no_free"
            scalar.capacity_blocks = batch.capacity_blocks = 400
        warm = rng.choice(600, size=rng.integers(0, 250), replace=False)
        scalar.blocks_cached(warm)
        batch.blocks_cached(warm)
        lbas = rng.choice(np.setdiff1d(np.arange(600), warm), size=64,
                          replace=False)
        asks = rng.random(64) < 0.7
        want = 64
        for i, lba in enumerate(lbas.tolist()):
            if asks[i] and not scalar.admit(lba):
                want = i
                break
            if asks[i]:
                scalar.block_cached(lba)
        owner = batch.owner_index(lbas)
        refused = batch.refusals(owner, asks)
        assert (int(refused[0]) if refused.shape[0] else 64) == want
        batch.count_admitted(owner[:want][asks[:want]])
        batch.blocks_cached(lbas[:want][asks[:want]])
        for name in ("a", "b"):
            assert (batch.stats()[name]["admitted_blocks"]
                    == scalar.stats()[name]["admitted_blocks"])
            assert batch.occupancy(name) == scalar.occupancy(name)
        bounded += want < 64
    assert (bounded == 0) == (qos_kwargs == {"enforce_shares": False})


@pytest.mark.parametrize("enforce", [True, False])
def test_reserved_mask_matches_keep_for_reserve(enforce):
    rng = np.random.default_rng(53)
    kept = 0
    for trial in range(40):
        reg = _three_tenants(enforce_shares=enforce)
        reg.blocks_cached(rng.choice(600, size=rng.integers(0, 400),
                                     replace=False))
        lbas = rng.choice(600, size=rng.integers(0, 200), replace=False)
        tally = {}
        want = [reg.keep_for_reserve(lba, tally) for lba in lbas.tolist()]
        assert reg.reserved_mask(lbas).tolist() == want
        kept += sum(want)
    assert (kept > 0) == enforce


def test_rejection_reasons_name_the_clause_that_refused():
    """``max_share`` at the cap, ``no_borrow`` past the reservation with
    borrowing off (it is *not* at its cap), ``no_free`` when nothing
    unreserved is left."""
    from repro.obs import ObsRecorder, attach
    from repro.obs.events import AdmissionRejected

    def reasons(reg, volume, nbytes):
        attach(reg.cache, ObsRecorder())
        _fill(volume, nbytes)
        events = reg.cache.obs.trace.of_type(AdmissionRejected)
        assert len(events) == reg.stats()[volume.tenant]["rejected_blocks"]
        return {e.reason for e in events}

    reg = _registry()
    whale = reg.create_volume("whale", 32 * MIB, QosSpec(max_share=0.10))
    assert reasons(reg, whale, 32 * MIB) == {"max_share"}

    reg = _registry(work_conserving=False)
    strict = reg.create_volume("strict", 32 * MIB,
                               QosSpec(min_share=0.05, max_share=1.0))
    assert reasons(reg, strict, 16 * MIB) == {"no_borrow"}
    t = reg.stats()["strict"]
    assert t["min_blocks"] <= t["cached_blocks"] < t["max_blocks"]

    reg = _registry()
    reg.create_volume("idle", 4 * MIB, QosSpec(min_share=0.9))
    greedy = reg.create_volume("greedy", 64 * MIB, QosSpec(max_share=1.0))
    assert reasons(reg, greedy, 32 * MIB) == {"no_free"}


# ----------------------------------------------------------------------
# recovery (registry occupancy survives a power cut exactly)
# ----------------------------------------------------------------------
def _window_occupancy(cache, base: int, blocks: int) -> int:
    """Ground truth: blocks resident anywhere in [base, base+blocks)."""
    count = 0
    for lba in range(base, base + blocks):
        if (cache.mapping.lookup(lba) is not None
                or lba in cache.dirty_buf or lba in cache.clean_buf):
            count += 1
    return count


def test_occupancy_rebuilt_exactly_after_power_cut_recovery():
    """A registry attached to a recovered cache must account every
    surviving block — per tenant and in total — with no drift from the
    pre-crash population (RAM-buffered blocks are legitimately lost)."""
    from repro.core.recovery import recover

    reg = _registry()
    vol_a = reg.create_volume("alice", 8 * MIB)
    vol_b = reg.create_volume("bob", 8 * MIB)
    now = _fill(vol_a, 4 * MIB)
    _fill(vol_b, 2 * MIB, now)
    cache = reg.cache
    assert reg.occupancy("alice") > 0

    # Power cut: RAM (buffers, mapping, registry) is gone; only the
    # durable metadata survives and recovery replays it.
    recovered, _ = recover(cache.ssds, cache.origin, cache.config,
                           cache.metadata)
    reg2 = TenantRegistry(recovered)
    v2a = reg2.create_volume("alice", 8 * MIB)
    v2b = reg2.create_volume("bob", 8 * MIB)
    assert (v2a.base_block, v2b.base_block) == (vol_a.base_block,
                                               vol_b.base_block)

    truth_a = _window_occupancy(recovered, v2a.base_block,
                                8 * MIB // PAGE_SIZE)
    truth_b = _window_occupancy(recovered, v2b.base_block,
                                8 * MIB // PAGE_SIZE)
    assert reg2.occupancy("alice") == truth_a > 0
    assert reg2.occupancy("bob") == truth_b > 0
    total_truth = (recovered.mapping.valid_blocks()
                   + len(recovered.dirty_buf) + len(recovered.clean_buf))
    assert truth_a + truth_b == total_truth
    reg2.check_invariants()

    # And the rebuilt accounting keeps working: new writes land on the
    # exact recovered baseline.
    end = v2a.submit(Request(Op.WRITE, 8 * MIB - PAGE_SIZE, PAGE_SIZE),
                     10.0)
    assert end > 10.0
    reg2.check_invariants()
