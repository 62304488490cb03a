"""Bounded retry with exponential backoff and a timeout budget.

The resilience half of the fault layer: hot paths (SRC's SSD submits,
RAID member I/O) route through :func:`submit_with_retry`, which absorbs
:class:`~repro.common.errors.TransientIOError` up to a
:class:`RetryPolicy`'s attempt and time budgets.  When the budget runs
out a :class:`~repro.common.errors.RequestTimeoutError` is raised and
the caller converts the device to fail-stop — the standard "a drive
that keeps erroring is a dead drive" escalation.

Backoff advances *simulated* time: each retry reissues the request
``delay`` seconds later, so retried I/O correctly lands behind other
traffic on the device timelines.

The budget is a *deadline*, not a per-attempt allowance: every second
of simulated time that elapses inside a failed attempt (a drive that
takes milliseconds to report a command timeout — the error's ``at``
field) is charged against it, exactly like the backoff delays.  A slow
failer therefore exhausts the budget in fewer attempts than a fast
one, and the ``TimeoutExpired`` event reports the cumulative wait from
first issue to last failure observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.block.device import BlockDevice
from repro.common.errors import RequestTimeoutError, TransientIOError
from repro.common.types import Request
from repro.obs.events import RetryAttempt, TimeoutExpired
from repro.obs.recorder import NULL_RECORDER


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters (defaults follow SCSI-midlayer shape)."""

    max_attempts: int = 4        # total tries, including the first
    backoff: float = 200e-6      # delay before the first retry
    backoff_multiplier: float = 2.0
    timeout: float = 50e-3       # per-request wall budget (simulated s)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.timeout <= 0:
            raise ValueError("backoff must be >= 0 and timeout > 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")


DEFAULT_RETRY = RetryPolicy()


def submit_with_retry(device: BlockDevice, req: Request, now: float,
                      policy: RetryPolicy = DEFAULT_RETRY,
                      obs=NULL_RECORDER,
                      on_retry: Optional[Callable[[int], None]] = None
                      ) -> float:
    """Submit ``req``, retrying transient errors with backoff.

    Returns the completion time.  Raises
    :class:`~repro.common.errors.RequestTimeoutError` once
    ``policy.max_attempts`` tries were spent or the next retry would
    start past ``now + policy.timeout``; other exceptions (fail-stop,
    power cut, address errors) propagate untouched on the first raise.

    Deadline-aware: simulated time that elapsed *inside* a failed
    attempt (the error's observation time, ``TransientIOError.at``) is
    charged against the budget along with the backoff delays, so the
    give-up decision and the ``TimeoutExpired`` event's cumulative
    ``waited`` both reflect real elapsed simulated time.
    """
    issue_at, delay, attempt = now, policy.backoff, 1
    while True:
        try:
            return device.submit(req, issue_at)
        except TransientIOError as exc:
            if on_retry is not None:
                on_retry(attempt)
            # When the failure was observed after issue (a slow error
            # report), the elapsed time counts against the deadline.
            observed_at = getattr(exc, "at", None)
            failed_at = (issue_at if observed_at is None
                         else max(issue_at, observed_at))
            next_issue = failed_at + delay
            if (attempt >= policy.max_attempts
                    or next_issue > now + policy.timeout):
                if obs.enabled:
                    obs.emit(TimeoutExpired(
                        t=failed_at, device=device.name, attempts=attempt,
                        waited=failed_at - now))
                raise RequestTimeoutError(
                    f"{device.name}: {req.op.name} gave up after "
                    f"{attempt} attempts ({failed_at - now:.6f}s of "
                    f"{policy.timeout:.6f}s budget)") from exc
            if obs.enabled:
                obs.emit(RetryAttempt(t=failed_at, device=device.name,
                                      attempt=attempt, op=req.op.name,
                                      delay=delay))
            issue_at = next_issue
            delay *= policy.backoff_multiplier
            attempt += 1
