"""Process-parallel sweep execution.

Every figure and table in the paper is a sweep: a grid of independent
(config, workload) points, each of which builds its own device stack
from a seed and replays a workload against it.  Points share no
mutable state, so they parallelize perfectly across processes — and
because each point is a pure function of its inputs (all randomness
flows from explicit seeds), the results are *identical* whether the
grid runs serially in-process or fanned out over a pool.

:func:`parallel_map` is the single primitive: an ordered ``map`` over
sweep points.  ``jobs <= 1`` short-circuits to a plain in-process list
comprehension — byte-for-byte the serial path, with ambient
observability (the process-local recorder) intact.  ``jobs > 1``
dispatches points to a ``multiprocessing`` pool and reassembles results
in submission order.

Determinism contract
--------------------
Workers inherit nothing mutable from the parent that a sweep point
reads: every point re-seeds its own ``numpy`` Generator and builds
fresh devices.  The only observable difference from a serial run is
that the ambient obs recorder does not span process boundaries, so
``--format json`` telemetry covers in-process work only; the
*results* (the ``ExperimentResult`` rows) are identical.  CI enforces
this with ``scripts/check_parallel_identity.py``.
"""

from __future__ import annotations

import multiprocessing as mp
from functools import partial
from typing import Any, Callable, Iterable, List, Sequence, Tuple, TypeVar

from repro.common.errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")


def _pool_context() -> mp.context.BaseContext:
    """Prefer fork (cheap, no import re-execution); fall back to spawn.

    Both give identical results — the worker function and its arguments
    are self-contained — fork just avoids re-importing the package per
    worker on platforms that have it.
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 jobs: int = 1) -> List[R]:
    """Ordered map of ``fn`` over ``items`` across ``jobs`` processes.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one) and pure with respect to process
    state: every sweep worker in this package derives all randomness
    from seeds carried in its arguments.  Results come back in input
    order regardless of completion order, so a parallel sweep fills an
    :class:`~repro.harness.results.ExperimentResult` exactly like the
    serial loop it replaces.
    """
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    processes = min(jobs, len(items))
    ctx = _pool_context()
    pool = ctx.Pool(processes=processes)
    try:
        # chunksize=1: sweep points are seconds-long, so scheduling
        # granularity beats batching; ordered map keeps determinism.
        # map_async + a finite get() timeout keeps the parent
        # interruptible: a bare pool.map blocks in a C-level wait that
        # swallows KeyboardInterrupt until every worker finishes.
        async_result = pool.map_async(fn, items, chunksize=1)
        while True:
            try:
                results = async_result.get(timeout=1.0)
                break
            except mp.TimeoutError:
                continue
    except BaseException:
        # Worker exception or parent-side interrupt: tear the pool
        # down hard so no live workers outlast the sweep, then
        # re-raise the original failure unchanged.
        pool.terminate()
        pool.join()
        raise
    pool.close()
    pool.join()
    return results


def call(run: Callable[[], R]) -> R:
    """``run()``: ``parallel_map(call, runs)`` fans a list of unlike
    runs, each a ``functools.partial`` of a module-level function."""
    return run()


def grid(*axes: Sequence) -> List[tuple]:
    """Row-major cartesian product of sweep axes.

    ``grid(rows, cols)`` yields ``(row, col)`` points in the same order
    the serial nested-for loops iterate them, which is what lets
    :func:`sweep` reshape the flat result list back into table rows.
    """
    points: List[tuple] = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]
    return points


def _visit(point: tuple, cell: Callable, es: Any) -> Any:
    row, build = point
    return cell(row, build, es)


def sweep(rows: Sequence, columns: Sequence[Tuple[str, Any]],
          cell: Callable[[Any, Any, Any], R], es: Any,
          jobs: int = 1) -> List[List[R]]:
    """``cell(row, build, es)`` at every grid point, one list per row.

    ``columns`` are ``(label, build)`` pairs; only the builds reach the
    cells.  Points are visited row-major — each row's columns in order
    before the next row — which is the order the experiments' nested
    loops ran in, so a serial sweep builds and replays its stacks in
    exactly that sequence.  ``jobs > 1`` fans the points over
    :func:`parallel_map`: ``cell`` and every build must then be
    picklable, and whatever a cell returns crosses the pool.
    """
    builds = [build for _, build in columns]
    flat = parallel_map(partial(_visit, cell=cell, es=es),
                        grid(rows, builds), jobs=jobs)
    width = len(builds)
    return [flat[i:i + width] for i in range(0, len(flat), width)]
