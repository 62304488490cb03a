"""Bench: design-choice ablations (hotness bitmap, hot/clean split)."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, amp = cell.split(" (")
    return float(tput), float(amp.rstrip(")"))


def test_ablations(benchmark, es):
    result = run_once(benchmark, REGISTRY["ablation"].sweep.run, es)
    emit(result)
    for row in result.rows:
        group = row[0]
        aware_tput, aware_amp = parse(row[1])
        blind_tput, blind_amp = parse(row[2])
        sep_tput, _ = parse(row[3])
        # Hotness awareness must not lose: blind S2S recopies cold clean
        # blocks for no benefit.
        assert aware_tput >= blind_tput * 0.9, \
            f"{group}: hotness bitmap must pay for itself"
        # The future-work hot/clean split stays in the same ballpark.
        assert sep_tput >= aware_tput * 0.7
