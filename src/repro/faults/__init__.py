"""repro.faults — deterministic fault injection and resilience policies.

Three composable pieces:

* :mod:`repro.faults.plan` / :mod:`repro.faults.injector` — a seeded
  :class:`FaultPlan` (fail-stop, transient errors, latent corruption,
  fail-slow limping, power cuts) executed by a :class:`FaultInjector`
  device wrapper that stacks like any other
  :class:`~repro.block.device.BlockDevice`;
* :mod:`repro.faults.policy` — :class:`RetryPolicy` and
  :func:`submit_with_retry`, bounded retry with exponential backoff and
  a per-request timeout budget (raises
  :class:`~repro.common.errors.RequestTimeoutError` when exhausted);
* :mod:`repro.faults.failslow` — :class:`FailSlowDetector`, rolling-p99
  limping detection that lets SRC convert a slow drive to fail-stop.

The crash-point explorer that drives all of this lives in
:mod:`repro.chaos` (CLI: ``python -m repro chaos``).  See
``docs/fault_model.md`` for the taxonomy and the recovery invariants
it enforces.
"""

from repro.faults.failslow import FailSlowDetector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LimpWindow, TransientWindow
from repro.faults.policy import (DEFAULT_RETRY, RetryPolicy,
                                 submit_with_retry)

__all__ = [
    "DEFAULT_RETRY",
    "FailSlowDetector",
    "FaultInjector",
    "FaultPlan",
    "LimpWindow",
    "RetryPolicy",
    "TransientWindow",
    "submit_with_retry",
]
