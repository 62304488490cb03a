"""Bench: Table 11 — flush per segment vs per segment group."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, amp = cell.split(" (")
    return float(tput), float(amp.rstrip(")"))


def test_table11_flush_control(benchmark, es):
    result = run_once(benchmark, REGISTRY["table11"].sweep.run, es)
    emit(result)
    for row in result.rows:
        group = row[0]
        per_seg, _ = parse(row[1])
        per_sg, _ = parse(row[2])
        # Paper: issuing flushes per segment costs throughput (~10% on
        # Write, >40% on Read) vs the per-SG default.
        assert per_sg >= per_seg * 0.95, \
            f"{group}: per-SG flush must not lose to per-segment"
