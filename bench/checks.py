"""Output checks, run after every timed window and outside the timing.

Each check returns ``None`` when it holds and a one-line problem
otherwise; one failed check fails every op of the workload.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.chaos.invariants import InvariantSuite
from repro.chaos.oracle import IntegrityOracle


def _completed(timed: int, completed: int, lat: np.ndarray) -> Optional[str]:
    if completed != timed or len(lat) != timed:
        return (f"attempted {timed}, completed {completed}, "
                f"timed {len(lat)}")
    early = int(np.count_nonzero(lat < 0.0))
    return f"{early} requests complete before their issue time" if early \
        else None


def _ftl(stack) -> Optional[str]:
    for ssd in stack.ssds:
        ssd.ftl.check_invariants()      # raises AssertionError
    return None


def _invariants(stack) -> Optional[str]:
    problems = InvariantSuite(caches=stack.caches,
                              router=stack.router).check_all()
    return "; ".join(problems[:3]) if problems else None


def _tenants(stack) -> Optional[str]:
    if stack.registry is not None:
        stack.registry.check_invariants()   # raises AssertionError
    return None


def _integrity(stack) -> Optional[str]:
    oracle = IntegrityOracle()
    problems = [p for cache in stack.caches
                for p in oracle.verify_cache(cache, exact_versions=False)]
    return "; ".join(problems[:3]) if problems else None


def _app_bytes(window, delta: dict) -> Optional[str]:
    own = delta["io"]["total_bytes"]
    return (f"issued {window.app_bytes} app bytes, target counted {own}"
            if own != window.app_bytes else None)


# How deep a pass checks.  The state checks walk every mapping entry,
# the deep ones every FTL (0.5 s per SSD); a caller that has proven its
# passes identical by digest may spend that on one pass only.
WINDOW, STATE, DEEP = "window", "state", "deep"


def run_all(stack, window, timed: int, completed: int, lat: np.ndarray,
            delta: dict, depth: str) -> Dict[str, str]:
    """Every check of ``depth`` by name: ``"ok"`` or the problem found."""
    todo: Dict[str, Callable[[], Optional[str]]] = {
        "completed": lambda: _completed(timed, completed, lat),
        "app_bytes": lambda: _app_bytes(window, delta),
    }
    if depth in (STATE, DEEP):
        todo.update({
            "cache_invariants": lambda: _invariants(stack),
            "tenant_invariants": lambda: _tenants(stack),
            "integrity_oracle": lambda: _integrity(stack),
        })
    if depth == DEEP:
        todo["ftl_invariants"] = lambda: _ftl(stack)
    verdicts = {}
    for name, check in todo.items():
        try:
            problem = check()
        except AssertionError as exc:
            problem = f"AssertionError: {exc}"
        verdicts[name] = "ok" if problem is None else problem
    return verdicts
