"""Bench: Figure 5 — the UMAX threshold sweep for Sel-GC."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, amp = cell.split(" (")
    return float(tput), float(amp.rstrip(")"))


def test_fig5_umax_sweep(benchmark, es):
    fig5 = REGISTRY["fig5"].sweep.only(columns=("30%", "70%", "90%"))
    result = run_once(benchmark, fig5.run, es)
    emit(result)
    for row in result.rows:
        group = row[0]
        low_tput, low_amp = parse(row[1])    # UMAX 30%
        high_tput, high_amp = parse(row[3])  # UMAX 90%
        # Paper shape: throughput rises toward the 90% peak...
        assert high_tput >= low_tput * 0.9, \
            f"{group}: UMAX 90% should not lose to 30%"
        # ...and amplification grows with UMAX (more S2S copying).
        assert high_amp >= low_amp * 0.9, \
            f"{group}: amplification should grow with UMAX"
