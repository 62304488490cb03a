"""The fault-injecting device wrapper.

:class:`FaultInjector` is a transparent :class:`~repro.block.device.
BlockDevice` that executes a :class:`~repro.faults.plan.FaultPlan`
against the requests flowing into a lower device.  It composes exactly
like :class:`~repro.block.device.StatsDevice`: wrap any SSD, RAID
array or backend and hand the wrapper to the layer above — the
``failed`` property and the corruption hooks keep SRC's and the RAID
layer's existing ``getattr(dev, "failed"/"corrupted_in", ...)``
introspection working through the wrapper.
"""

from __future__ import annotations

import random
from typing import Optional, Set

from repro.block.device import BlockDevice
from repro.common.errors import (DeviceFailedError, PowerCutError,
                                 TransientIOError)
from repro.common.types import Op, Request
from repro.faults.plan import FaultPlan
from repro.obs.events import FaultInjected


class FaultInjector(BlockDevice):
    """Wrap a device and inject the faults a :class:`FaultPlan` schedules.

    ``record_writes`` keeps the set of page numbers every successful
    WRITE touched — crash harnesses use it to decide whether destaged
    data made it to the origin before a power cut.
    """

    def __init__(self, lower: BlockDevice, plan: Optional[FaultPlan] = None,
                 name: str = "", record_writes: bool = False):
        super().__init__(lower.size, name or f"faulty({lower.name})")
        self.lower = lower
        # A plain attribute: every reader (``_service``, the fast
        # paths' "no armed fault" checks) loads it where it is used, so
        # assigning a plan and arming the attached one in place through
        # its chainable builders are seen alike.
        self.plan = plan if plan is not None else FaultPlan()
        self._rng = random.Random(self.plan.seed)
        self._failed = False
        self._limp_emitted = False
        self.writes_seen = 0
        self.injected = {"transient": 0, "fail-stop": 0, "power-cut": 0,
                         "limp": 0, "corruption": 0}
        self.written_pages: Optional[Set[int]] = (
            set() if record_writes else None)
        for offset, length in self.plan.corruption:
            self.inject_corruption(offset, length)
            self.injected["corruption"] += 1

    # ------------------------------------------------------------------
    # fail-stop surface (mirrors SSDDevice so callers can't tell)
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        return self._failed or getattr(self.lower, "failed", False)

    def fail(self) -> None:
        self._failed = True
        if hasattr(self.lower, "fail"):
            self.lower.fail()

    def repair(self, wipe: bool = True) -> None:
        self._failed = False
        self.plan.fail_at = None
        if hasattr(self.lower, "repair"):
            self.lower.repair(wipe=wipe)

    def disarm(self) -> None:
        """Clear every armed fault (post-crash: let recovery run clean)."""
        self.plan = FaultPlan(seed=self.plan.seed)

    # ------------------------------------------------------------------
    # corruption delegation (latent sector errors live in the lower dev)
    # ------------------------------------------------------------------
    def inject_corruption(self, offset: int, length: int) -> None:
        if hasattr(self.lower, "inject_corruption"):
            self.lower.inject_corruption(offset, length)

    def corrupted_in(self, offset: int, length: int):
        if hasattr(self.lower, "corrupted_in"):
            return self.lower.corrupted_in(offset, length)
        return set()

    def clear_corruption(self, offset: int, length: int) -> None:
        if hasattr(self.lower, "clear_corruption"):
            self.lower.clear_corruption(offset, length)

    # ------------------------------------------------------------------
    def _emit(self, kind: str, now: float, op: str = "") -> None:
        self.injected[kind] += 1
        if self.obs.enabled:
            self.obs.emit(FaultInjected(t=now, device=self.name,
                                        fault=kind, op=op))

    def _service(self, req: Request, now: float) -> float:
        plan = self.plan
        # Scheduled fail-stop: the drive dies the first time it is
        # touched at or after fail_at.
        if (plan.fail_at is not None and now >= plan.fail_at
                and not self._failed):
            self._failed = True
            self._emit("fail-stop", now, req.op.name)
        if self.failed:
            raise DeviceFailedError(f"{self.name} has failed")
        # Power cuts halt the machine, not just this device.
        if plan.power_cut_at is not None and now >= plan.power_cut_at:
            self._emit("power-cut", now, req.op.name)
            raise PowerCutError(
                f"power lost at t={now:.6f} ({self.name}, {req.op.name})")
        if req.op is Op.WRITE:
            self.writes_seen += 1
            if (plan.power_cut_after_writes is not None
                    and self.writes_seen >= plan.power_cut_after_writes):
                self._emit("power-cut", now, req.op.name)
                raise PowerCutError(
                    f"power lost on write #{self.writes_seen} "
                    f"({self.name})")
        # Transient, retryable failures.
        if req.op in (Op.READ, Op.WRITE):
            probability = plan.transient_probability(now)
            if probability > 0.0 and self._rng.random() < probability:
                self._emit("transient", now, req.op.name)
                # The failure is observed after the device's report
                # latency, stretched like any completion while limping.
                detect = plan.transient_detect_latency(now)
                raise TransientIOError(
                    f"{self.name}: transient {req.op.name} error "
                    f"at t={now:.6f}",
                    at=now + detect * plan.slowdown(now))
        done = self.lower.submit(req, now)
        if self.written_pages is not None and req.op is Op.WRITE:
            self.written_pages.update(req.pages())
        # Fail-slow: stretch the completion while limping.
        slowdown = plan.slowdown(now)
        if slowdown > 1.0:
            if not self._limp_emitted:
                self._limp_emitted = True
                self._emit("limp", now, req.op.name)
            done = now + (done - now) * slowdown
        elif self._limp_emitted:
            self._limp_emitted = False   # window over; re-emit next time
        return done
