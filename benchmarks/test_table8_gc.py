"""Bench: Table 8 — S2D vs Sel-GC x FIFO/Greedy victim selection."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, amp = cell.split(" (")
    return float(tput), float(amp.rstrip(")"))


def test_table8_free_space_management(benchmark, es):
    result = run_once(benchmark, REGISTRY["table8"].sweep.run, es)
    emit(result)
    for row in result.rows:
        group = row[0]
        s2d_best = max(parse(row[1])[0], parse(row[2])[0])
        sel_best = max(parse(row[3])[0], parse(row[4])[0])
        # Paper: Sel-GC considerably outperforms S2D on every group.
        assert sel_best >= s2d_best * 0.9, \
            f"{group}: Sel-GC must be at least competitive with S2D"
        # Paper: S2D has lower amplification (it copies nothing).
        s2d_amp = min(parse(row[1])[1], parse(row[2])[1])
        sel_amp = max(parse(row[3])[1], parse(row[4])[1])
        assert s2d_amp <= sel_amp * 1.05, \
            f"{group}: S2D must not amplify more than Sel-GC"
