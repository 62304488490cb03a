"""Harness runner helpers (FIO drivers, the sweep over cells)."""

import pytest

from repro.block.device import NullDevice
from repro.common.units import KIB, MIB
from repro.harness.context import ExperimentScale
from repro.harness.parallel import sweep
from repro.harness.runner import (run_fio_random_write,
                                  run_fio_sequential_write,
                                  run_trace_group, TRACE_GROUPS)

TINY_ES = ExperimentScale(scale=1 / 512, warmup=0.05, duration=0.3,
                          fio_iodepth=4, fio_threads=1)


def test_fio_random_write_reports_rate():
    device = NullDevice(64 * MIB, latency=1e-4)
    rate = run_fio_random_write(device, TINY_ES, span=16 * MIB)
    # 4 streams, 0.1ms latency -> 40k IOPS -> ~160 MB/s of 4K writes.
    assert rate == pytest.approx(163.84, rel=0.2)


def test_fio_random_write_flush_interleave_slows_device():
    class FlushyNull(NullDevice):
        def _service(self, req, now):
            from repro.common.types import Op
            if req.op is Op.FLUSH:
                return now + 5e-3
            return now + 1e-4

    free = run_fio_random_write(NullDevice(64 * MIB, latency=1e-4),
                                TINY_ES, span=16 * MIB)
    flushy = run_fio_random_write(FlushyNull(64 * MIB), TINY_ES,
                                  span=16 * MIB, flush_every=8)
    assert flushy < free


def test_fio_sequential_write_single_stream():
    device = NullDevice(64 * MIB, latency=1e-3)
    rate = run_fio_sequential_write(device, TINY_ES,
                                    request_size=128 * KIB)
    # One stream at 1ms per 128 KiB -> 128 KiB/ms ~ 131 MB/s.
    assert rate == pytest.approx(131.0, rel=0.2)


def test_run_trace_group_aliases_replay():
    from _stacks import make_src
    result = run_trace_group(make_src(), "write", TINY_ES)
    assert result.group == "write"
    assert result.throughput_mb_s > 0


def test_sweep_builds_fresh_targets_row_major():
    from _stacks import make_src
    visits, targets = [], []

    def build(tag):
        def make(es):
            target = make_src()
            targets.append(target)
            return tag, target
        return make

    def cell(group, build, es):
        tag, _ = build(es)
        visits.append((group, tag))
        return group, tag

    columns = (("first", build("a")), ("second", build("b")))
    cells = sweep(TRACE_GROUPS, columns, cell, TINY_ES)
    # Every row's columns in order before the next row: the order the
    # experiments' nested loops ran their stacks in.
    assert visits == [(g, t) for g in TRACE_GROUPS for t in ("a", "b")]
    assert cells == [[(g, "a"), (g, "b")] for g in TRACE_GROUPS]
    # One fresh target per cell, never a reused one.
    assert len({id(t) for t in targets}) == len(TRACE_GROUPS) * 2
