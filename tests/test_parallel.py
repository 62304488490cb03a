"""Process-parallel sweep runner: ordering, determinism, CLI wiring."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.harness.context import ExperimentScale
from repro.harness.experiments import REGISTRY
from repro.harness.parallel import grid, parallel_map


def _square(x):
    return x * x


def _seeded_value(point):
    # Pure function of the point, as every sweep cell must be.
    import numpy as np
    row, col = point
    return float(np.random.default_rng(1000 * row + col).random())


def test_parallel_map_serial_path():
    assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]
    assert parallel_map(_square, [1, 2, 3], jobs=0) == [1, 4, 9]
    assert parallel_map(_square, [], jobs=4) == []
    assert parallel_map(_square, [5], jobs=4) == [25]


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


def test_parallel_map_matches_serial_for_seeded_points():
    points = grid(range(4), range(3))
    assert (parallel_map(_seeded_value, points, jobs=3)
            == parallel_map(_seeded_value, points, jobs=1))


def test_negative_jobs_rejected():
    with pytest.raises(ConfigError):
        parallel_map(_square, [1], jobs=-1)


def test_grid_is_row_major():
    assert grid((1, 2), ("a", "b", "c")) == [
        (1, "a"), (1, "b"), (1, "c"),
        (2, "a"), (2, "b"), (2, "c"),
    ]
    assert grid((1, 2)) == [(1,), (2,)]


def test_fig2_parallel_identical_to_serial():
    # The real acceptance property at test scale: the registry's fig2
    # sweep fanned over processes serializes to exactly the serial one.
    es = ExperimentScale(scale=1 / 128, warmup=1.0, duration=1.0, seed=11)
    fig2 = REGISTRY["fig2"].sweep.only(rows=(0.0, 0.3),
                                       columns=("32MB", "128MB"))
    serial = fig2.run(es, jobs=1)
    parallel = fig2.run(es, jobs=2)
    assert len(serial.rows) == 2 and len(serial.columns) == 3
    assert (json.dumps(serial.as_dict(), sort_keys=True)
            == json.dumps(parallel.as_dict(), sort_keys=True))


def _boom(x):
    if x == 7:
        raise ValueError("sweep point 7 exploded")
    return x


def _assert_no_leftover_children(before, deadline_s=10.0):
    # terminate()/join() (or close()/join()) must leave no pool worker
    # behind.  Poll briefly: children reap asynchronously on some
    # platforms even after join() returns.
    import multiprocessing as mp
    import time
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        leftover = [p for p in mp.active_children() if p not in before]
        if not leftover:
            return
        time.sleep(0.05)
    raise AssertionError(f"pool workers outlived parallel_map: {leftover}")


def test_worker_exception_propagates_and_pool_is_torn_down():
    import multiprocessing as mp
    before = mp.active_children()
    with pytest.raises(ValueError, match="sweep point 7"):
        parallel_map(_boom, list(range(16)), jobs=4)
    _assert_no_leftover_children(before)


def test_successful_run_leaves_no_children():
    import multiprocessing as mp
    before = mp.active_children()
    assert parallel_map(_boom, [1, 2, 3, 4], jobs=4) == [1, 2, 3, 4]
    _assert_no_leftover_children(before)


def test_cli_jobs_flag_parses():
    from repro.cli import build_parser
    args = build_parser().parse_args(["run", "fig2", "--jobs", "4"])
    assert args.jobs == 4
    args = build_parser().parse_args(["run", "fig2"])
    assert args.jobs == 1
