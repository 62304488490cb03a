"""Composed-fault chaos runs over the batched cluster stack.

The crash-point explorer answers "does recovery survive a cut at every
single durability site?".  The scheduler answers the orthogonal
question: "do the books stay balanced while *several* fault types are
live at once?".  One run composes, over a 2-shard cluster driven
through the batched engine path:

* **fail-slow** — a limp window on one shard's member SSD;
* **transient I/O errors** — a seeded probability window on another
  member (exercising the deadline-aware retry path);
* **rebalance** — a third shard added online mid-run, so consistent-
  hash migration runs concurrently with the faults;
* **GC storm** — the workload span exceeds the tiny cache geometry,
  keeping garbage collection continuously active;
* **power cut** — a write-count cut late in the run, followed by full
  recovery (shard metadata scan + migration-ledger resume).

While all of that is live, the :class:`InvariantSuite` monitors run
every ``check_every`` operations, the :class:`IntegrityOracle` tracks
every write, and the entire composition is executed twice — once
through the scalar loop, once through the batched engine — with the
two runs required to agree exactly (ops before the cut, injected fault
counts, recovered mapping contents, destaged page set).  Faults are
armed at *operation-count* boundaries, and the batched run's vector
windows are capped at those boundaries, so both runs observe the same
schedule by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np

from repro.chaos.invariants import InvariantSuite
from repro.chaos.oracle import IntegrityOracle
from repro.chaos.rig import (LBA_SPAN, TORTURE_CONFIG, Cluster,
                             recover_cluster)
from repro.cluster import ShardRouter
from repro.common.chunks import OP_READ, make_chunk
from repro.common.errors import PowerCutError
from repro.common.units import MIB, PAGE_SIZE
from repro.faults import FaultPlan
from repro.sim.engine import run_chunk_streams

# Shards get half of the rig's cache so the seeded workload's
# write volume laps each shard's capacity several times — garbage
# collection is then continuously active ("GC storm") rather than an
# occasional event, which is the composition the scheduler promises.
CHAOS_SHARD_CONFIG = replace(TORTURE_CONFIG, cache_space=4 * MIB)


@dataclass
class ChaosReport:
    """Outcome of one composed-fault chaos run (both paths)."""

    ops: int
    ops_before_cut: int = 0
    faults_composed: List[str] = field(default_factory=list)
    invariant_checks: int = 0
    gc_collections: int = 0
    migration_began: bool = False
    limp_injected: int = 0
    transient_injected: int = 0
    differential_ok: bool = False
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and self.differential_ok

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "ops_before_cut": self.ops_before_cut,
            "faults_composed": self.faults_composed,
            "invariant_checks": self.invariant_checks,
            "gc_collections": self.gc_collections,
            "migration_began": self.migration_began,
            "limp_injected": self.limp_injected,
            "transient_injected": self.transient_injected,
            "differential_ok": self.differential_ok,
            "violations": self.violations,
        }


class ChaosScheduler:
    """Compose simultaneous faults; monitor invariants; diff the paths."""

    FAULTS = ("fail-slow", "transient", "rebalance", "gc-storm",
              "power-cut")

    CHUNK_ROWS = 256        # rows per workload chunk

    def __init__(self, seed: int = 0, ops: int = 4000,
                 check_every: int = 256) -> None:
        self.seed = seed
        self.ops = ops
        self.check_every = check_every
        # Operation-count schedule: identical in both paths.
        self.limp_at = ops // 8
        self.transient_at = ops // 6
        self.rebalance_at = ops // 3
        self.cut_at = (2 * ops) // 3

    # ------------------------------------------------------------------
    # deterministic chunked workload
    # ------------------------------------------------------------------
    def _chunks(self) -> List[np.ndarray]:
        rng = np.random.default_rng(self.seed + 0xC4A05)
        chunks = []
        produced = 0
        while produced < self.ops:
            n = min(self.CHUNK_ROWS, self.ops - produced)
            offsets = rng.integers(0, LBA_SPAN, size=n) * PAGE_SIZE
            rows = make_chunk(offsets, PAGE_SIZE)
            rows["op"][rng.random(n) >= 0.70] = OP_READ
            chunks.append(rows)
            produced += n
        return chunks

    # ------------------------------------------------------------------
    # fault schedule (op-count keyed; `now` comes from the engine)
    # ------------------------------------------------------------------
    def _fire_events(self, stack: Cluster, state: dict,
                     now: float) -> None:
        ops = state["ops"]
        if ops >= self.limp_at and "fail-slow" not in state["armed"]:
            state["armed"].add("fail-slow")
            stack.members[0][0].plan = FaultPlan(
                seed=self.seed).limp_window(now, now + 30.0, 4.0)
        if ops >= self.transient_at and "transient" not in state["armed"]:
            state["armed"].add("transient")
            stack.members[1][1].plan = FaultPlan(
                seed=self.seed + 1).transient_window(
                    now, now + 30.0, 0.02, detect_s=200e-6)
        if ops >= self.rebalance_at and "rebalance" not in state["armed"]:
            state["armed"].add("rebalance")
            stack.add_shard(now)
        if ops >= self.cut_at and "power-cut" not in state["armed"]:
            state["armed"].add("power-cut")
            victim = stack.members[0][1]
            victim.plan = FaultPlan(
                seed=self.seed + 2,
                power_cut_after_writes=victim.writes_seen + 8)
        if ops - state["last_check"] >= self.check_every:
            state["last_check"] = ops
            state["suite"].check_all()

    def _next_boundary(self, ops: int) -> int:
        """Ops until the next scheduled event or invariant check."""
        upcoming = [b for b in (self.limp_at, self.transient_at,
                                self.rebalance_at, self.cut_at)
                    if b > ops]
        next_check = (ops // self.check_every + 1) * self.check_every
        upcoming.append(next_check)
        return min(upcoming) - ops

    # ------------------------------------------------------------------
    # one run (scalar or batched) through the engine
    # ------------------------------------------------------------------
    def _run_one(self, batched: bool) -> Tuple[Cluster, dict]:
        stack = Cluster(CHAOS_SHARD_CONFIG, name="chaos-composed")
        oracle = IntegrityOracle()
        suite = InvariantSuite(caches=stack.shards, router=stack.router)
        state = {"ops": 0, "armed": set(), "last_check": 0,
                 "suite": suite, "oracle": oracle, "cut": False}
        router = stack.router

        def in_dirty(block: int) -> bool:
            return any(block in s.dirty_buf for s in stack.shards)

        def issue(req, now):
            self._fire_events(stack, state, now)
            if req.op.name == "WRITE":
                oracle.note_write(req.offset // PAGE_SIZE)
            end = router.submit(req, now)
            state["ops"] += 1
            oracle.sweep_sealed(in_dirty)
            return end

        def issue_chunk(rows, start, think, deadline, limit):
            self._fire_events(stack, state, start)
            cap = self._next_boundary(state["ops"])
            bounded = cap if limit == 0 else min(limit, cap)
            try:
                issue_t, done_t, n = router.submit_chunk(
                    rows, start, think, deadline, bounded)
            except PowerCutError:
                # Unknown how many rows landed before the cut; note
                # the whole window so `issued` stays an upper bound.
                oracle.note_chunk(rows)
                raise
            if n:
                oracle.note_chunk(rows, n)
                state["ops"] += n
                oracle.sweep_sealed(in_dirty)
            return issue_t, done_t, n

        sources = [iter(self._chunks())]
        try:
            run_chunk_streams(issue, sources,
                              issue_chunk=issue_chunk if batched else None,
                              think_time=10e-6)
        except PowerCutError:
            state["cut"] = True
        return stack, state

    # ------------------------------------------------------------------
    # recovery + audit of one cut stack
    # ------------------------------------------------------------------
    def _recover_and_audit(self, stack: Cluster, state: dict) -> Tuple[
            ShardRouter, List[str]]:
        rebuilt, violations = recover_cluster(stack)
        oracle = state["oracle"]
        violations += oracle.verify_durability(
            rebuilt.shards.values(), stack.origin.written_pages,
            exact_versions=False)
        for shard in rebuilt.shards.values():
            for problem in oracle.verify_cache(shard,
                                               exact_versions=False):
                violations.append(f"{shard.name}: {problem}")
        post = InvariantSuite(router=rebuilt)
        violations += post.check_all()
        return rebuilt, violations

    @staticmethod
    def _fingerprint(rebuilt: ShardRouter, stack: Cluster,
                     state: dict) -> dict:
        """Everything the two paths must agree on, bit for bit."""
        mappings = {}
        for slot, shard in sorted(rebuilt.shards.items()):
            mappings[slot] = sorted(
                (lba, entry.version, entry.dirty, entry.checksum)
                for lba, entry in shard.mapping.items())
        # state["ops"] is deliberately absent: a cut that lands inside
        # a batched window loses that window's partial row count, so
        # the op counter is path-dependent at the cut by construction.
        # The per-device write streams are the real identity — if they
        # match, the two paths issued the same I/O in the same order.
        return {
            "cut": state["cut"],
            "mappings": mappings,
            "destaged": sorted(stack.origin.written_pages or ()),
            "injected": [dict(inj.injected)
                         for inj in stack.injectors()],
            "writes_seen": [inj.writes_seen
                            for inj in stack.injectors()],
        }

    # ------------------------------------------------------------------
    # the composed run
    # ------------------------------------------------------------------
    def run(self) -> ChaosReport:
        report = ChaosReport(ops=self.ops,
                             faults_composed=list(self.FAULTS))
        fingerprints = {}
        for batched in (False, True):
            stack, state = self._run_one(batched)
            label = "batched" if batched else "scalar"
            if not state["cut"]:
                report.violations.append(
                    f"{label}: power cut never fired "
                    f"(ops={state['ops']})")
            missing = [f for f in ("fail-slow", "transient", "rebalance",
                                   "power-cut")
                       if f not in state["armed"]]
            if missing:
                report.violations.append(
                    f"{label}: faults never armed: {missing}")
            suite = state["suite"]
            for violation in suite.violations:
                report.violations.append(f"{label} (live): {violation}")
            rebuilt, violations = self._recover_and_audit(stack, state)
            for violation in violations:
                report.violations.append(f"{label}: {violation}")
            fingerprints[batched] = self._fingerprint(rebuilt, stack,
                                                      state)
            if not batched:
                report.ops_before_cut = state["ops"]
                report.invariant_checks = suite.checks_run
                # GC stats live on the pre-cut shards; recovery starts
                # the counters over.
                report.gc_collections = sum(
                    s.srcstats.s2s_collections + s.srcstats.s2d_collections
                    for s in stack.shards)
                report.migration_began = "rebalance" in state["armed"]
                report.limp_injected = sum(
                    inj.injected.get("limp", 0)
                    for inj in stack.injectors())
                report.transient_injected = sum(
                    inj.injected.get("transient", 0)
                    for inj in stack.injectors())
        report.differential_ok = fingerprints[False] == fingerprints[True]
        if not report.differential_ok:
            report.violations.append(
                "scalar and batched composed runs diverged")
        return report
