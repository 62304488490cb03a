"""Systematic crash-point exploration (chaos pillar 2).

This is the only code in the repository that cuts power on purpose.
Every durability site in a scenario — each metadata summary write
(MS), each segment seal (ME), each WRITE reaching a member SSD or hot
spare, each destage ack reaching the origin, each migration-ledger
transition, each hot-spare attach — is instrumented; a **pilot run**
of the deterministic workload counts how often each site fires, which
defines the exact crash-point space:

    ``site#ordinal:pre``   power cut *just before* the site's Nth firing
    ``site#ordinal:post``  power cut *just after* it completed

An **armed run** replays the identical workload and raises
:class:`~repro.common.errors.PowerCutError` at exactly one point, then
recovery runs (:mod:`repro.chaos.rig`) and the integrity oracle plus
the invariant monitors audit the survivors.  Because pilot and armed
runs share one seed and the instrumentation is count-based,
exploration is exactly reproducible point by point.  Durable state
only changes at sites and nothing between a member and the explorer
catches the cut, so a cut raised from a READ or a FLUSH, or at a
wall-clock time, would hand recovery the same input as the adjacent
enumerated point.

``python -m repro chaos --budget 0`` explores every point of both
scenarios in memory; CI does that on every run.  A
:class:`CrashFrontier` given a path persists the discovered space and
each point's verdict to JSON, which makes a budgeted local exploration
resumable.

:meth:`CrashPointExplorer.broken_seal_caught` is the explorer's proof
of its own sensitivity: with the ME seal deliberately skipped, a cut
must surface violations — an explorer that cannot see a broken crash
protocol proves nothing.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.invariants import (check_cluster_ownership,
                                    check_group_accounting, check_ledger,
                                    check_repair, check_residency)
from repro.chaos.oracle import IntegrityOracle
from repro.chaos.rig import (LBA_SPAN, OPS_PER_CASE, TORTURE_CONFIG, Cluster,
                             build_origin, build_shard, recover_cluster,
                             recover_shard, torn_summaries)
from repro.common.errors import PowerCutError
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import RepairConfig
from repro.faults import FaultPlan

SCENARIOS = ("src", "cluster")

# The src scenario runs with one hot spare, a deterministic early
# member fail-stop and a deliberately slow rebuild, so the spare-attach
# site exists and the rebuild's window is wide; the scrubber's period
# is short, so its passes reach the latent corruption seeded a third
# of the way in.
SRC_CHAOS_CONFIG = replace(TORTURE_CONFIG, repair=RepairConfig(
    hot_spares=1, rebuild_rate=2 * MIB, scrub_interval=0.02))


def _is_write(req: Request, now: float) -> bool:
    return req.op is Op.WRITE


def _seed_corruption(cache, rng: random.Random) -> None:
    """Corrupt a few sealed, still-mapped blocks; the damage sits latent
    until the periodic scrub (or a foreground read) reaches it."""
    live = [entry for summary in cache.metadata.all_summaries()
            for lba in summary.lbas
            if (entry := cache.mapping.lookup(lba)) is not None
            and (entry.location.sg, entry.location.segment)
            == (summary.sg, summary.segment)]
    for entry in rng.sample(live, min(4, len(live))):
        cache.ssds[entry.location.ssd].inject_corruption(
            entry.location.offset, PAGE_SIZE)


def point_id(site: str, ordinal: int, flavor: str) -> str:
    return f"{site}#{ordinal}:{flavor}"


class _Instrument:
    """Count durability-site firings; optionally trip a power cut.

    ``site()`` shadows a bound method with a counting wrapper.  The
    wrapper is pure bookkeeping until ``armed`` names one
    ``(site, ordinal, flavor)``; then the matching firing raises
    :class:`PowerCutError` before (``pre``) or after (``post``) the
    wrapped call runs.  Counting is identical either way, which is
    what makes pilot and armed runs comparable.
    """

    def __init__(self, armed: Optional[Tuple[str, int, str]]) -> None:
        self.counts: Dict[str, int] = {}
        # Every crash point the run exposed, in firing order.  A firing
        # whose wrapped call raised (a WRITE to a fail-stopped member)
        # has no ``post``: there is no "after it completed" to cut at.
        self.discovered: List[str] = []
        self.armed = armed
        # Set once the workload window closes: recovery and resumed
        # migrations drive the same methods, but those firings belong
        # to the recovery path, not the explorable crash space.
        self.disabled = False

    def site(self, obj, attr: str, site: str,
             only: Optional[Callable] = None) -> None:
        inner = getattr(obj, attr)

        def wrapped(*args, **kwargs):
            if self.disabled or (only is not None
                                 and not only(*args, **kwargs)):
                return inner(*args, **kwargs)
            ordinal = self.counts.get(site, 0)
            self.counts[site] = ordinal + 1
            self.discovered.append(point_id(site, ordinal, "pre"))
            if self.armed == (site, ordinal, "pre"):
                raise PowerCutError(f"chaos: cut before {site}#{ordinal}")
            result = inner(*args, **kwargs)
            self.discovered.append(point_id(site, ordinal, "post"))
            if self.armed == (site, ordinal, "post"):
                raise PowerCutError(f"chaos: cut after {site}#{ordinal}")
            return result

        setattr(obj, attr, wrapped)

    @property
    def point(self) -> str:
        """The armed point's id; the unarmed run is the pilot."""
        return point_id(*self.armed) if self.armed else "(pilot)"

    def member_sites(self, injectors) -> None:
        """A ``<device>.member-write`` site on every WRITE submitted to
        each member or spare injector."""
        for injector in injectors:
            self.site(injector, "submit",
                      f"{injector.lower.name}.member-write", only=_is_write)


@dataclass
class PointResult:
    """One explored crash point's verdict."""

    point: str
    crashed: bool
    ops_before_crash: int
    torn_at_crash: int
    # What the repair machinery was doing when the machine died: open
    # rebuild jobs, and scrub repairs made so far.
    rebuilds_open: int = 0
    scrub_repairs: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"ok": self.ok, "crashed": self.crashed,
                "ops": self.ops_before_crash,
                "torn": self.torn_at_crash,
                "rebuilds_open": self.rebuilds_open,
                "scrub_repairs": self.scrub_repairs,
                "violations": self.violations}


@dataclass
class ExplorationReport:
    """What one budgeted exploration pass covered."""

    scenario: str
    discovered: int = 0
    explored_total: int = 0
    explored_now: int = 0
    remaining: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class CrashFrontier:
    """Resumable record of the crash-point space and its verdicts."""

    VERSION = 1

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.data = {"version": self.VERSION, "scenarios": {}}
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if loaded.get("version") == self.VERSION:
                self.data = loaded

    def scenario(self, name: str) -> dict:
        return self.data["scenarios"].setdefault(
            name, {"seed": None, "discovered": [], "explored": {}})

    def set_discovered(self, name: str, seed: int,
                       points: List[str]) -> None:
        entry = self.scenario(name)
        if entry["seed"] is not None and entry["seed"] != seed:
            # A different workload seed defines a different space:
            # start that scenario's frontier over.
            entry.update({"seed": seed, "discovered": [], "explored": {}})
        entry["seed"] = seed
        entry["discovered"] = list(points)
        # Points that vanished from the space (harness change) are
        # dropped so `remaining` stays truthful.
        entry["explored"] = {p: v for p, v in entry["explored"].items()
                             if p in set(points)}

    def unexplored(self, name: str) -> List[str]:
        entry = self.scenario(name)
        return [p for p in entry["discovered"]
                if p not in entry["explored"]]

    def record(self, name: str, result: PointResult) -> None:
        self.scenario(name)["explored"][result.point] = result.as_dict()
        self.save()

    def explored_count(self, name: str) -> int:
        return len(self.scenario(name)["explored"])

    def violations(self, name: Optional[str] = None) -> List[str]:
        out = []
        names = [name] if name else list(self.data["scenarios"])
        for scenario_name in names:
            entry = self.scenario(scenario_name)
            for point, verdict in entry["explored"].items():
                for violation in verdict.get("violations", []):
                    out.append(f"{scenario_name}:{point}: {violation}")
        return out

    def save(self) -> None:
        if self.path is None:
            return
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)


class CrashPointExplorer:
    """Enumerate and explore the crash-point space of each scenario."""

    def __init__(self, seed: int = 0, ops: int = OPS_PER_CASE,
                 frontier: Optional[CrashFrontier] = None) -> None:
        self.seed = seed
        self.ops = ops
        self.frontier = frontier if frontier is not None else CrashFrontier()

    # ------------------------------------------------------------------
    # deterministic workload
    # ------------------------------------------------------------------
    def _drive(self, submit, oracle: IntegrityOracle, in_dirty,
               read_verify=None, events=None) -> Tuple[int, bool, List[str]]:
        """The one seeded op loop; returns (ops, crashed, problems)."""
        rng = random.Random((self.seed << 16) ^ 0x5EED)
        problems: List[str] = []
        now = 0.0
        completed = 0
        try:
            for op_index in range(self.ops):
                if events is not None:
                    events(op_index, now)
                lba = rng.randrange(LBA_SPAN)
                draw = rng.random()
                if draw < 0.70:
                    req = Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE)
                elif draw < 0.95:
                    req = Request(Op.READ, lba * PAGE_SIZE, PAGE_SIZE)
                else:
                    req = Request(Op.FLUSH)
                if req.op is Op.WRITE:
                    # Issued before submit: the cache bumps the block's
                    # version while handling the request, so a crash
                    # mid-op may durably seal this very version.
                    oracle.note_write(lba)
                end = submit(req, now)
                oracle.sweep_sealed(in_dirty)
                if req.op is Op.READ and read_verify is not None:
                    problems.extend(oracle.verify_read(read_verify, lba))
                completed += 1
                now = max(now, end) + 10e-6
                if rng.random() < 0.01:
                    # Idle: TWAIT seals a partial segment, and the
                    # rebuild and the scrubber get time to themselves.
                    now += TORTURE_CONFIG.t_wait * 1.5
        except PowerCutError:
            return completed, True, problems
        return completed, False, problems

    @staticmethod
    def _judge(result: PointResult,
               autopsy: Callable[[], List[str]]) -> PointResult:
        """Recover and audit a dead stack.  Whatever escapes recovery or
        the audit is this point's verdict, not the explorer's crash."""
        try:
            result.violations += autopsy()
        except Exception as exc:
            result.violations.append(
                f"recovery raised {type(exc).__name__}: {exc}")
        return result

    # ------------------------------------------------------------------
    # scenario: single SRC stack (spare, rebuild and scrub in play)
    # ------------------------------------------------------------------
    def _run_src(self, armed: Optional[Tuple[str, int, str]],
                 break_seal: bool = False) -> Tuple[_Instrument, PointResult]:
        origin = build_origin()
        cache, members = build_shard(origin, SRC_CHAOS_CONFIG,
                                     break_seal=break_seal)
        inst = _Instrument(armed)
        inst.site(cache.metadata, "write_summary", "ms-write")
        inst.site(cache.metadata, "seal_summary", "me-seal")
        inst.site(origin, "submit", "destage-ack", only=_is_write)
        inst.site(cache.repair, "_try_attach", "spare-attach")
        inst.member_sites(members)
        # Deterministic early member loss: every run exercises the
        # spare attach and the rebuild's durability sites.
        members[0].plan = FaultPlan(seed=self.seed).fail_stop(at=0.004)

        def events(op_index: int, now: float) -> None:
            if op_index == self.ops // 3:
                _seed_corruption(cache, random.Random(self.seed))

        oracle = IntegrityOracle()
        completed, crashed, live_problems = self._drive(
            cache.submit, oracle, lambda b: b in cache.dirty_buf,
            read_verify=cache, events=events)

        # The machine is dead; only durable state may speak now.
        inst.disabled = True
        for injector in members + [origin]:
            injector.disarm()

        def autopsy() -> List[str]:
            recovered, problems = recover_shard(cache, origin)
            return (problems
                    + oracle.verify_cache(recovered)
                    + oracle.verify_durability([recovered],
                                               origin.written_pages)
                    + check_group_accounting(recovered)
                    + check_residency(recovered)
                    + check_repair(recovered))

        return inst, self._judge(PointResult(
            point=inst.point, crashed=crashed, ops_before_crash=completed,
            torn_at_crash=len(torn_summaries(cache)),
            rebuilds_open=len(cache.repair.jobs),
            scrub_repairs=cache.srcstats.scrub_repairs,
            violations=live_problems), autopsy)

    # ------------------------------------------------------------------
    # scenario: 2-shard cluster with an online shard add mid-run
    # ------------------------------------------------------------------
    def _run_cluster(self, armed: Optional[Tuple[str, int, str]],
                     ) -> Tuple[_Instrument, PointResult]:
        cluster = Cluster()
        router = cluster.router
        inst = _Instrument(armed)
        for shard, members in zip(cluster.shards, cluster.members):
            inst.site(shard.metadata, "write_summary",
                      f"{shard.name}.ms-write")
            inst.site(shard.metadata, "seal_summary", f"{shard.name}.me-seal")
            inst.member_sites(members)
        inst.site(router.ledger, "begin", "ledger-begin")
        inst.site(router.ledger, "record", "ledger-commit")
        inst.site(router.ledger, "complete", "ledger-complete")
        inst.site(cluster.origin, "submit", "destage-ack", only=_is_write)

        def events(op_index: int, now: float) -> None:
            if op_index == self.ops // 3:
                cluster.add_shard(now)

        oracle = IntegrityOracle()
        completed, crashed, live_problems = self._drive(
            router.submit, oracle,
            lambda b: any(b in s.dirty_buf for s in cluster.shards),
            events=events)
        inst.disabled = True

        def autopsy() -> List[str]:
            rebuilt, problems = recover_cluster(cluster)
            # Cross-shard audits.  Versions are shard-local (migration
            # re-logs a block under the target's counter), so the oracle
            # checks checksum self-consistency and dirty survival, not
            # exact version equality.
            problems += oracle.verify_durability(
                rebuilt.shards.values(), cluster.origin.written_pages,
                exact_versions=False)
            for shard in rebuilt.shards.values():
                for problem in (oracle.verify_cache(shard,
                                                    exact_versions=False)
                                + check_group_accounting(shard)
                                + check_residency(shard)):
                    problems.append(f"{shard.name}: {problem}")
            return (problems + check_ledger(rebuilt.ledger)
                    + check_cluster_ownership(rebuilt))

        return inst, self._judge(PointResult(
            point=inst.point, crashed=crashed, ops_before_crash=completed,
            torn_at_crash=sum(len(torn_summaries(shard))
                              for shard in cluster.shards),
            violations=live_problems), autopsy)

    # ------------------------------------------------------------------
    # enumeration + budgeted, resumable exploration
    # ------------------------------------------------------------------
    def _runner(self, scenario: str):
        if scenario == "src":
            return self._run_src
        if scenario == "cluster":
            return self._run_cluster
        raise ValueError(f"unknown chaos scenario {scenario!r}; "
                         f"have {SCENARIOS}")

    @staticmethod
    def parse_point(point: str) -> Tuple[str, int, str]:
        site, _, rest = point.rpartition("#")
        ordinal, _, flavor = rest.partition(":")
        return site, int(ordinal), flavor

    def discover(self, scenario: str) -> List[str]:
        """Pilot run: enumerate the scenario's crash-point space.

        The pilot also acts as the no-fault control: its own recovery
        and oracle audit must already be clean, otherwise the scenario
        is broken before any crash is injected.
        """
        inst, pilot = self._runner(scenario)(None)
        if pilot.violations:
            raise AssertionError(
                f"chaos pilot for {scenario!r} is not clean: "
                + "; ".join(pilot.violations[:5]))
        self.frontier.set_discovered(scenario, self.seed, inst.discovered)
        self.frontier.save()
        return inst.discovered

    def explore_point(self, scenario: str, point: str) -> PointResult:
        """Run one armed crash point end to end and record the verdict."""
        _, result = self._runner(scenario)(self.parse_point(point))
        self.frontier.record(scenario, result)
        return result

    def broken_seal_caught(self) -> int:
        """Skip the ME seal and count the violations that surface.

        Walks the ``src`` scenario's first seals with ``break_seal`` set
        until a cut lands with sealed data at stake; returns the
        violation count there (0: the explorer is blind to a broken
        crash protocol).
        """
        for ordinal in range(8):
            _, result = self._run_src(("me-seal", ordinal, "post"),
                                      break_seal=True)
            if result.crashed and result.violations:
                return len(result.violations)
        return 0

    def explore(self, scenario: str,
                budget: Optional[int] = None) -> ExplorationReport:
        """Explore up to ``budget`` unexplored points (None = all)."""
        entry = self.frontier.scenario(scenario)
        if not entry["discovered"] or entry["seed"] != self.seed:
            self.discover(scenario)
        pending = self.frontier.unexplored(scenario)
        take = pending if budget is None else pending[:budget]
        report = ExplorationReport(
            scenario=scenario,
            discovered=len(entry["discovered"]))
        for point in take:
            result = self.explore_point(scenario, point)
            report.explored_now += 1
            for violation in result.violations:
                report.violations.append(f"{point}: {violation}")
        report.explored_total = self.frontier.explored_count(scenario)
        report.remaining = len(self.frontier.unexplored(scenario))
        return report
