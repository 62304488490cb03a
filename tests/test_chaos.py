"""Chaos verification layer: oracle, monitors, explorer, scheduler."""

import json

import pytest

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD
from repro.chaos import (ChaosScheduler, CrashFrontier, CrashPointExplorer,
                         IntegrityOracle, InvariantSuite, InvariantViolation,
                         SCENARIOS, rig)
from repro.chaos.invariants import (check_group_accounting, check_ledger,
                                    check_residency)
from repro.common.checksum import block_checksum
from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.arrays import B_NONE
from repro.core.mapping import CacheEntry
from repro.core.src import SrcCache
from repro.hdd.backend import PrimaryStorage
from repro.ssd.device import SSDDevice


def _tiny_src():
    ssds = [SSDDevice(TINY_SSD, name=f"tiny{i}")
            for i in range(TINY_SRC.n_ssds)]
    return SrcCache(ssds, PrimaryStorage(n_disks=4, disk_spec=TINY_DISK),
                    TINY_SRC)


def _drive(cache, ops=300, seed=7):
    import random
    rng = random.Random(seed)
    now = 0.0
    for _ in range(ops):
        lba = rng.randrange(256)
        draw = rng.random()
        if draw < 0.7:
            req = Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE)
        elif draw < 0.95:
            req = Request(Op.READ, lba * PAGE_SIZE, PAGE_SIZE)
        else:
            req = Request(Op.FLUSH)
        end = cache.submit(req, now)
        now = max(now, end) + 10e-6
    return now


# ----------------------------------------------------------------------
# integrity oracle
# ----------------------------------------------------------------------
def test_oracle_absorbed_rewrite_does_not_advance_version():
    oracle = IntegrityOracle()
    oracle.note_write(5)
    oracle.note_write(5)          # still RAM-buffered: absorbed
    assert oracle.expected[5] == 1
    oracle.sweep_sealed(lambda b: False)   # left the dirty buffer
    assert oracle.durable[5] == 1
    oracle.note_write(5)          # fresh insertion after the seal
    assert oracle.expected[5] == 2
    assert 5 not in oracle.durable   # newest version is RAM-only again


def test_oracle_bounds_versions_by_writes_issued():
    # A rewrite the oracle takes for absorbed is a new version when
    # TWAIT seals the buffer inside that very submit; the bound on a
    # mapped version is the writes issued, not the oracle's guess.
    oracle = IntegrityOracle()
    oracle.note_write(9)
    oracle.note_write(9)
    assert oracle.expected[9] == 1 and oracle.issued[9] == 2
    entry = CacheEntry.__new__(CacheEntry)
    entry.version, entry.checksum = 2, block_checksum(9, 2)
    assert oracle.verify_entry(9, entry) == []
    entry.version, entry.checksum = 3, block_checksum(9, 3)
    assert any("exceeds" in p for p in oracle.verify_entry(9, entry))


def test_oracle_flags_checksum_and_version_mismatches():
    oracle = IntegrityOracle()
    oracle.note_write(9)
    entry = CacheEntry.__new__(CacheEntry)
    entry.checksum = block_checksum(9, 1)
    entry.version = 1
    entry.dirty = True
    assert oracle.verify_entry(9, entry) == []
    entry.checksum ^= 0xFF        # bit-rot
    assert any("checksum" in p for p in oracle.verify_entry(9, entry))
    entry.checksum = block_checksum(9, 3)
    entry.version = 3             # more versions than app writes
    assert any("exceeds" in p for p in oracle.verify_entry(9, entry))


def test_oracle_detects_silent_loss_and_accepts_destage_proof():
    oracle = IntegrityOracle()
    oracle.note_write(4)
    oracle.sweep_sealed(lambda b: False)

    class Gone:
        dirty_buf = {}

        class mapping:
            @staticmethod
            def lookup(lba):
                return None

    missing = oracle.verify_durability([Gone()], set())
    assert any("silent data loss" in p for p in missing)
    # The same loss with destage proof is not a violation...
    assert oracle.verify_durability([Gone()], {4}) == []
    # ...and neither is a declared (forgiven) loss.
    oracle.forgive([4])
    assert oracle.verify_durability([Gone()], set()) == []


def test_oracle_clean_against_real_stack():
    cache = _tiny_src()
    oracle = IntegrityOracle()
    import random
    rng = random.Random(3)
    now = 0.0
    for _ in range(400):
        lba = rng.randrange(128)
        if rng.random() < 0.7:
            oracle.note_write(lba)
            req = Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE)
        else:
            req = Request(Op.READ, lba * PAGE_SIZE, PAGE_SIZE)
        end = cache.submit(req, now)
        oracle.sweep_sealed(lambda b: b in cache.dirty_buf)
        if req.op is Op.READ:
            assert oracle.verify_read(cache, lba) == []
        now = max(now, end) + 10e-6
    assert oracle.verify_cache(cache) == []
    assert oracle.blocks_audited > 0


# ----------------------------------------------------------------------
# invariant monitors
# ----------------------------------------------------------------------
def test_invariant_suite_clean_on_live_stack():
    cache = _tiny_src()
    _drive(cache)
    suite = InvariantSuite(caches=[cache])
    assert suite.check_all() == []
    assert suite.checks_run == 1 and suite.violations == []


def test_group_accounting_catches_cooked_books():
    cache = _tiny_src()
    _drive(cache)
    assert check_group_accounting(cache) == []
    victim = cache.segments._free.pop()    # free group vanishes from the list
    problems = check_group_accounting(cache)
    assert any(f"group {victim}" in p for p in problems)
    cache.segments._free.append(victim)
    assert check_group_accounting(cache) == []


def test_residency_monitor_catches_stray_code():
    cache = _tiny_src()
    _drive(cache)
    assert check_residency(cache) == []
    lba = next(b for b in range(256) if b in cache.dirty_buf)
    cache._state.a[lba] = B_NONE  # residency array lies now
    assert any("dirty-buffered" in p for p in check_residency(cache))


def test_check_all_raises_when_asked():
    cache = _tiny_src()
    _drive(cache)
    cache.segments._free.pop()
    with pytest.raises(InvariantViolation):
        InvariantSuite(caches=[cache]).check_all(raise_on_violation=True)


def test_ledger_monitor_bounds():
    from repro.cluster.migration import MigrationLedger, RangeMove
    ledger = MigrationLedger()
    assert check_ledger(ledger) == []
    ledger.begin("add", 2, [RangeMove(0, 10, 0, 2)])
    assert check_ledger(ledger) == []
    ledger._committed.add((99, 100))   # commit outside the intent
    assert any("outside" in p for p in check_ledger(ledger))


# ----------------------------------------------------------------------
# crash-point explorer
# ----------------------------------------------------------------------
def test_discovery_enumerates_both_scenarios(tmp_path):
    frontier = CrashFrontier(str(tmp_path / "frontier.json"))
    explorer = CrashPointExplorer(seed=0, ops=400, frontier=frontier)
    total = 0
    for scenario in SCENARIOS:
        points = explorer.discover(scenario)
        assert len(points) == len(set(points))
        total += len(points)
    # The acceptance floor: well over 100 distinct deterministic
    # crash points even at reduced op count.
    assert total >= 100
    sites = {explorer.parse_point(p)[0]
             for p in frontier.scenario("cluster")["discovered"]}
    assert "ledger-begin" in sites and "ledger-commit" in sites
    assert any(s.endswith("ms-write") for s in sites)


def test_exploration_is_clean_and_resumable(tmp_path):
    path = str(tmp_path / "frontier.json")
    explorer = CrashPointExplorer(seed=0, ops=400,
                                  frontier=CrashFrontier(path))
    first = explorer.explore("src", budget=6)
    assert first.ok and first.explored_now == 6
    assert first.remaining == first.discovered - 6

    # A brand-new process picks up where the frontier left off.
    resumed = CrashPointExplorer(seed=0, ops=400,
                                 frontier=CrashFrontier(path))
    second = resumed.explore("src", budget=6)
    assert second.ok and second.explored_now == 6
    assert second.explored_total == 12
    data = json.load(open(path))
    assert len(data["scenarios"]["src"]["explored"]) == 12
    assert all(v["ok"] for v in
               data["scenarios"]["src"]["explored"].values())


def test_seed_change_resets_scenario_frontier(tmp_path):
    path = str(tmp_path / "frontier.json")
    CrashPointExplorer(seed=0, ops=400,
                       frontier=CrashFrontier(path)).explore("src", budget=2)
    other = CrashPointExplorer(seed=1, ops=400,
                               frontier=CrashFrontier(path))
    report = other.explore("src", budget=2)
    assert report.explored_total == 2   # old verdicts dropped
    assert other.frontier.scenario("src")["seed"] == 1


def test_armed_cluster_points_cover_migration(tmp_path):
    explorer = CrashPointExplorer(
        seed=0, ops=400,
        frontier=CrashFrontier(str(tmp_path / "frontier.json")))
    explorer.discover("cluster")
    ledger_points = [p for p in explorer.frontier.unexplored("cluster")
                     if p.startswith("ledger-")][:4]
    assert ledger_points
    for point in ledger_points:
        result = explorer.explore_point("cluster", point)
        assert result.ok, result.violations
        assert result.crashed


# ----------------------------------------------------------------------
# the default-ops crash space (what ``repro chaos --budget 0`` explores)
# ----------------------------------------------------------------------
def _family(point: str) -> str:
    """``shard0t1.member-write#3:pre`` -> ``member-write``."""
    return CrashPointExplorer.parse_point(point)[0].rpartition(".")[2]


@pytest.fixture(scope="module")
def default_space():
    """One explorer over both default-ops pilots: scenario -> site
    family -> its points in firing order."""
    explorer = CrashPointExplorer(seed=0)
    space = {}
    for scenario in SCENARIOS:
        families = space.setdefault(scenario, {})
        for point in explorer.discover(scenario):
            families.setdefault(_family(point), []).append(point)
    return explorer, space


def test_small_matrix_has_zero_violations(default_space):
    # The first, middle and last cut of every site family, in both
    # scenarios: each must fire and each must recover clean.
    explorer, space = default_space
    for scenario, families in space.items():
        for points in families.values():
            for point in {points[0], points[len(points) // 2], points[-1]}:
                result = explorer.explore_point(scenario, point)
                assert result.crashed, (scenario, point)
                assert result.ok, (scenario, point, result.violations)


def test_every_site_family_fires_with_its_window_open(default_space):
    explorer, space = default_space
    assert set(space["src"]) == {"ms-write", "me-seal", "member-write",
                                 "destage-ack", "spare-attach"}
    assert set(space["cluster"]) == {"ms-write", "me-seal", "member-write",
                                     "ledger-begin", "ledger-commit",
                                     "ledger-complete"}
    # Cuts land on migration copies: the shard the add brings in only
    # ever sees those.
    assert any(p.startswith("shard-new") for p in
               space["cluster"]["member-write"])
    # The scrubber reaches the seeded corruption and repairs it, so
    # some member-write cuts land on its repair writes.
    _, pilot = explorer._run_src(None)
    assert pilot.scrub_repairs > 0
    # A cut on the hot spare's first write lands mid-rebuild.
    result = explorer.explore_point("src", "spare0.member-write#0:pre")
    assert result.crashed and result.ok, result.violations
    assert result.rebuilds_open >= 1


def test_torn_segments_are_found_and_discarded(default_space):
    # A cut right after an MS write is mid-segment-write: the summary
    # is torn at the cut, and recovery discards it (``ok`` covers the
    # discard count, the survivors and the mappings).
    explorer, space = default_space
    point = next(p for p in space["src"]["ms-write"] if p.endswith(":post"))
    result = explorer.explore_point("src", point)
    assert result.crashed and result.torn_at_crash >= 1
    assert result.ok, result.violations


def test_deliberate_protocol_break_is_caught():
    # Skipping the trailing ME write must produce violations — an
    # explorer that cannot see a broken crash protocol proves nothing.
    assert CrashPointExplorer(seed=1).broken_seal_caught() > 0


def test_recovery_survives_cut_at_the_free_space_floor(monkeypatch):
    # src me-seal#112:post (seed 0, default ops): the cache dies with
    # an empty free list and a partly written active group — mid-GC, a
    # state it runs on from.  Recovery raised ConfigError("no free
    # segment groups") here.
    in_use = []
    recover = rig.recover

    def spy(*args, **kwargs):
        cache, report = recover(*args, **kwargs)
        in_use.append((len(report.groups_in_use), cache.layout.groups - 1))
        return cache, report

    monkeypatch.setattr(rig, "recover", spy)
    result = CrashPointExplorer(seed=0).explore_point("src",
                                                      "me-seal#112:post")
    assert result.crashed and result.ok, result.violations
    # The point still is what it says: every group but the superblock's
    # held recovered segments, so there was no free one to open.
    assert in_use == [(7, 7)]


def test_exception_in_recovery_is_a_verdict(monkeypatch):
    explorer = CrashPointExplorer(seed=0, ops=400)
    explorer.discover("src")

    def boom(*args, **kwargs):
        raise ConfigError("no free segment groups")

    monkeypatch.setattr(rig, "recover", boom)
    report = explorer.explore("src", budget=3)
    # Exploration went on past the first bad point; every verdict is
    # recorded.
    assert report.explored_now == 3 and not report.ok
    assert len(report.violations) == 3
    assert all(v.endswith("recovery raised ConfigError: "
                          "no free segment groups")
               for v in report.violations)
    assert len(explorer.frontier.violations("src")) == 3


# ----------------------------------------------------------------------
# composed-fault scheduler
# ----------------------------------------------------------------------
def test_scheduler_composes_faults_with_monitors_green():
    report = ChaosScheduler(seed=0, ops=1500, check_every=128).run()
    assert report.ok, report.violations
    assert report.differential_ok
    assert set(report.faults_composed) >= {
        "fail-slow", "transient", "rebalance", "gc-storm", "power-cut"}
    assert report.ops_before_cut < report.ops   # the cut really fired
    assert report.invariant_checks > 0
    assert report.gc_collections > 0            # GC storm was real
    assert report.migration_began
    assert report.limp_injected > 0 and report.transient_injected > 0
    payload = report.as_dict()
    assert payload["differential_ok"] and not payload["violations"]


# ----------------------------------------------------------------------
# nightly-depth sweeps (deselected from the tier-1 run)
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_exhaustive_src_exploration():
    explorer = CrashPointExplorer(seed=0, ops=400)
    report = explorer.explore("src", budget=None)
    assert report.ok, report.violations[:5]
    assert report.remaining == 0


@pytest.mark.chaos
def test_exhaustive_cluster_exploration():
    explorer = CrashPointExplorer(seed=0, ops=400)
    report = explorer.explore("cluster", budget=None)
    assert report.ok, report.violations[:5]
    assert report.remaining == 0


@pytest.mark.chaos
def test_scheduler_seed_sweep():
    for seed in range(4):
        report = ChaosScheduler(seed=seed).run()
        assert report.ok, (seed, report.violations[:5])
