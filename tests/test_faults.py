"""The fault-injection layer: plans, injector, retry policy, fail-slow."""

import pytest

from repro.block.device import BlockDevice, NullDevice
from repro.chaos.rig import build_origin, build_shard
from repro.common.errors import (DeviceFailedError, PowerCutError,
                                 RequestTimeoutError, TransientIOError)
from repro.common.types import Op, Request
from repro.common.units import MIB
from repro.faults import (FaultInjector, FaultPlan, FailSlowDetector,
                          RetryPolicy, submit_with_retry)
from repro.obs import ObsRecorder
from repro.obs.recorder import attach


# ------------------------------------------------------------------
# FaultPlan: builders, validation, window combination
# ------------------------------------------------------------------
def test_plan_builder_validation():
    with pytest.raises(ValueError):
        FaultPlan().power_cut_on_write(0)
    with pytest.raises(ValueError):
        FaultPlan().transient_window(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        FaultPlan().transient_window(0.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        FaultPlan().transient_window(0.0, 1.0, 0.5, detect_s=-1.0)
    with pytest.raises(ValueError):
        FaultPlan().limp_window(0.0, 1.0, 0.5)


def test_plan_armed_tracks_scheduled_faults():
    assert not FaultPlan().armed
    assert FaultPlan().fail_stop(1.0).armed
    assert FaultPlan().power_cut(1.0).armed
    assert FaultPlan().power_cut_on_write(3).armed
    assert FaultPlan().transient_window(0.0, 1.0, 0.5).armed
    assert FaultPlan().limp_window(0.0, 1.0, 2.0).armed
    # Latent corruption alone does not arm the plan: it is injected
    # into the lower device at wrap time and fires via checksums, not
    # via the request path.
    assert not FaultPlan().corrupt(0, 4096).armed


def test_transient_detect_latency_combines_as_max():
    plan = (FaultPlan().transient_window(0.0, 2.0, 0.5, detect_s=1e-3)
                       .transient_window(1.0, 3.0, 0.5, detect_s=4e-3))
    assert plan.transient_detect_latency(0.5) == pytest.approx(1e-3)
    assert plan.transient_detect_latency(1.5) == pytest.approx(4e-3)
    assert plan.transient_detect_latency(5.0) == 0.0


def test_transient_windows_combine_independently():
    plan = (FaultPlan().transient_window(0.0, 2.0, 0.5)
                       .transient_window(1.0, 3.0, 0.5))
    assert plan.transient_probability(0.5) == pytest.approx(0.5)
    assert plan.transient_probability(1.5) == pytest.approx(0.75)
    assert plan.transient_probability(2.5) == pytest.approx(0.5)
    assert plan.transient_probability(5.0) == 0.0


def test_limp_windows_combine_as_max():
    plan = (FaultPlan().limp_window(0.0, 2.0, 2.0)
                       .limp_window(1.0, 3.0, 8.0))
    assert plan.slowdown(0.5) == 2.0
    assert plan.slowdown(1.5) == 8.0
    assert plan.slowdown(5.0) == 1.0


# ------------------------------------------------------------------
# FaultInjector: execution of each taxonomy entry
# ------------------------------------------------------------------
def test_fail_stop_at_time():
    inj = FaultInjector(NullDevice(1 * MIB), FaultPlan().fail_stop(1.0))
    inj.read(0, 4096, 0.5)                 # before T: healthy
    assert not inj.failed
    with pytest.raises(DeviceFailedError):
        inj.read(0, 4096, 1.0)
    assert inj.failed
    assert inj.injected["fail-stop"] == 1
    with pytest.raises(DeviceFailedError):
        inj.read(0, 4096, 2.0)             # dead stays dead, no re-count
    assert inj.injected["fail-stop"] == 1


def test_power_cut_at_time():
    inj = FaultInjector(NullDevice(1 * MIB), FaultPlan().power_cut(1.0))
    inj.write(0, 4096, 0.5)
    with pytest.raises(PowerCutError):
        inj.read(0, 4096, 1.5)
    assert inj.injected["power-cut"] == 1


def test_power_cut_on_nth_write_never_lands():
    inj = FaultInjector(NullDevice(1 * MIB),
                        FaultPlan().power_cut_on_write(2),
                        record_writes=True)
    inj.write(0, 4096, 0.0)                # write #1 lands
    with pytest.raises(PowerCutError):
        inj.write(8192, 4096, 0.1)         # write #2 trips the cut
    assert inj.writes_seen == 2
    assert inj.written_pages == {0}        # the fatal write never landed


def test_transient_window_raises_retryable_error():
    inj = FaultInjector(NullDevice(1 * MIB),
                        FaultPlan().transient_window(0.0, 1.0, 1.0))
    with pytest.raises(TransientIOError):
        inj.read(0, 4096, 0.5)
    with pytest.raises(TransientIOError):
        inj.write(0, 4096, 0.5)
    inj.flush(0.5)                         # FLUSH is never made transient
    inj.read(0, 4096, 2.0)                 # window over: healthy again
    assert inj.injected["transient"] == 2


def test_transient_draws_are_deterministic():
    def drive(seed):
        plan = FaultPlan(seed=seed).transient_window(0.0, 1.0, 0.5)
        inj = FaultInjector(NullDevice(1 * MIB), plan)
        outcomes = []
        for i in range(32):
            try:
                inj.read(0, 4096, i / 64.0)
                outcomes.append(True)
            except TransientIOError:
                outcomes.append(False)
        return outcomes

    assert drive(7) == drive(7)
    assert drive(7) != drive(8)            # seeded, not constant


def test_limp_window_stretches_completions():
    inj = FaultInjector(NullDevice(1 * MIB, latency=1e-3),
                        FaultPlan().limp_window(0.0, 1.0, 10.0))
    assert inj.read(0, 4096, 0.0) == pytest.approx(10e-3)
    assert inj.injected["limp"] == 1
    assert inj.read(0, 4096, 2.0) == pytest.approx(2.0 + 1e-3)


def test_disarm_clears_armed_faults():
    inj = FaultInjector(NullDevice(1 * MIB),
                        FaultPlan().power_cut_on_write(1))
    inj.disarm()
    inj.write(0, 4096, 0.0)                # no cut: plan was cleared


class _CorruptibleNull(NullDevice):
    """NullDevice with the SSD corruption surface, for delegation tests."""

    def __init__(self, size):
        super().__init__(size)
        self.bad = set()

    def inject_corruption(self, offset, length):
        self.bad.add((offset, length))

    def corrupted_in(self, offset, length):
        return {r for r in self.bad if r[0] >= offset
                and r[0] + r[1] <= offset + length}

    def clear_corruption(self, offset, length):
        self.bad.discard((offset, length))


def test_corruption_delegates_to_lower_device():
    lower = _CorruptibleNull(1 * MIB)
    inj = FaultInjector(lower, FaultPlan().corrupt(4096, 4096))
    assert inj.injected["corruption"] == 1
    assert inj.corrupted_in(0, 1 * MIB) == {(4096, 4096)}
    inj.clear_corruption(4096, 4096)
    assert inj.corrupted_in(0, 1 * MIB) == set()


def test_injector_reports_transient_observation_time():
    inj = FaultInjector(
        NullDevice(1 * MIB),
        FaultPlan().transient_window(0.0, 1.0, 1.0, detect_s=2e-3)
                   .limp_window(0.0, 1.0, 3.0))
    with pytest.raises(TransientIOError) as err:
        inj.read(0, 4096, 0.5)
    # The report latency is stretched while limping, like a completion.
    assert err.value.at == pytest.approx(0.5 + 2e-3 * 3.0)


def test_repair_disarms_in_place_and_reopens_the_window():
    """``repair()`` clears ``plan.fail_at`` on the attached plan; the
    vector window's "no armed fault" clause must see that, as it sees
    ``disarm()`` replacing the plan."""
    shard, members = build_shard(build_origin())
    assert not shard.window.closed_clause(0.0)
    members[0].plan = FaultPlan().fail_stop(at=5.0)   # not yet reached
    assert shard.window.closed_clause(0.0)
    members[0].repair()
    assert not members[0].plan.armed
    assert not shard.window.closed_clause(0.0)
    members[1].plan.limp_window(0.0, 1.0, 2.0)        # armed in place
    assert shard.window.closed_clause(0.0)
    members[1].disarm()
    assert not shard.window.closed_clause(0.0)


def test_injector_emits_fault_events():
    rec = ObsRecorder()
    inj = attach(FaultInjector(NullDevice(1 * MIB),
                               FaultPlan().transient_window(0.0, 1.0, 1.0)),
                 rec)
    with pytest.raises(TransientIOError):
        inj.read(0, 4096, 0.5)
    assert rec.trace.counts().get("FaultInjected") == 1


# ------------------------------------------------------------------
# submit_with_retry: bounded retry with backoff and a time budget
# ------------------------------------------------------------------
class _FlakyDevice(BlockDevice):
    """Fails the first ``failures`` submits with a transient error."""

    def __init__(self, failures, latency=1e-4):
        super().__init__(1 * MIB, "flaky")
        self.failures = failures
        self.latency = latency
        self.attempts = 0

    def _service(self, req, now):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransientIOError("flaky")
        return now + self.latency


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)


def test_retry_succeeds_within_budget_and_advances_time():
    dev = _FlakyDevice(failures=2)
    policy = RetryPolicy(max_attempts=4, backoff=200e-6, timeout=50e-3)
    retries = []
    done = submit_with_retry(dev, Request(Op.READ, 0, 4096), 0.0, policy,
                             on_retry=retries.append)
    # Two backoffs (200us, then 400us) before the third attempt lands.
    assert done == pytest.approx(600e-6 + dev.latency)
    assert retries == [1, 2]
    assert dev.attempts == 3


def test_retry_exhaustion_raises_timeout():
    dev = _FlakyDevice(failures=100)
    policy = RetryPolicy(max_attempts=3, backoff=200e-6, timeout=50e-3)
    with pytest.raises(RequestTimeoutError):
        submit_with_retry(dev, Request(Op.WRITE, 0, 4096), 0.0, policy)
    assert dev.attempts == 3


def test_retry_gives_up_when_budget_runs_out_before_attempts():
    dev = _FlakyDevice(failures=100)
    policy = RetryPolicy(max_attempts=10, backoff=1e-3, timeout=2.5e-3)
    with pytest.raises(RequestTimeoutError):
        submit_with_retry(dev, Request(Op.READ, 0, 4096), 0.0, policy)
    assert dev.attempts < 10               # the clock, not the count, won


def test_retry_emits_attempt_and_timeout_events():
    rec = ObsRecorder()
    dev = _FlakyDevice(failures=100)
    policy = RetryPolicy(max_attempts=3, backoff=200e-6, timeout=50e-3)
    with pytest.raises(RequestTimeoutError):
        submit_with_retry(dev, Request(Op.READ, 0, 4096), 0.0, policy,
                          obs=rec)
    counts = rec.trace.counts()
    assert counts.get("RetryAttempt") == 2
    assert counts.get("TimeoutExpired") == 1


class _SlowFailDevice(BlockDevice):
    """Always fails, observing each failure ``detect`` seconds late."""

    def __init__(self, detect):
        super().__init__(1 * MIB, "slowfail")
        self.detect = detect
        self.attempts = 0

    def _service(self, req, now):
        self.attempts += 1
        raise TransientIOError("slow report", at=now + self.detect)


def test_retry_charges_failure_observation_time_against_deadline():
    from repro.obs.events import TimeoutExpired

    rec = ObsRecorder()
    dev = _SlowFailDevice(detect=4e-3)
    policy = RetryPolicy(max_attempts=10, backoff=1e-3,
                         backoff_multiplier=1.0, timeout=12e-3)
    with pytest.raises(RequestTimeoutError):
        submit_with_retry(dev, Request(Op.READ, 0, 4096), 0.0, policy,
                          obs=rec)
    # Per-attempt accounting (backoff only: 1 ms per retry) would have
    # run all 10 attempts inside the 12 ms budget; charging the 4 ms
    # failure-observation time gives up after 3.
    assert dev.attempts == 3
    expired = rec.trace.of_type(TimeoutExpired)
    assert len(expired) == 1
    # Cumulative wait: issues at 0/5/10 ms, last failure observed 14 ms
    # after first issue.
    assert expired[0].waited == pytest.approx(14e-3)


def test_non_transient_errors_propagate_untouched():
    class _Dead(BlockDevice):
        def _service(self, req, now):
            raise DeviceFailedError("gone")

    with pytest.raises(DeviceFailedError):
        submit_with_retry(_Dead(1 * MIB, "dead"),
                          Request(Op.READ, 0, 4096), 0.0)


# ------------------------------------------------------------------
# FailSlowDetector: rolling-p99 limping detection
# ------------------------------------------------------------------
def test_failslow_detector_validation():
    with pytest.raises(ValueError):
        FailSlowDetector(p99_threshold=0.0)
    with pytest.raises(ValueError):
        FailSlowDetector(p99_threshold=1e-3, window=2, min_samples=4)


def test_failslow_flags_slow_device_after_full_window():
    det = FailSlowDetector(p99_threshold=1e-3, window=4, min_samples=2)
    flags = [det.observe("ssd0", 50e-3) for _ in range(4)]
    assert flags == [False, False, False, True]
    assert det.is_flagged("ssd0")
    assert det.observe("ssd0", 50e-3) is False   # latched, never re-flags


def test_failslow_ignores_fast_device_and_resets_window():
    det = FailSlowDetector(p99_threshold=1e-3, window=4, min_samples=2)
    for _ in range(16):
        assert det.observe("ssd0", 10e-6) is False
    assert not det.is_flagged("ssd0")
    # A device that *starts* limping later is still caught: the window
    # reset means the fast epoch cannot dilute the slow one.
    flags = [det.observe("ssd0", 50e-3) for _ in range(4)]
    assert flags[-1] is True


def test_failslow_tracks_devices_independently():
    det = FailSlowDetector(p99_threshold=1e-3, window=4, min_samples=2)
    for _ in range(4):
        det.observe("fast", 10e-6)
        det.observe("slow", 50e-3)
    assert det.is_flagged("slow") and not det.is_flagged("fast")
