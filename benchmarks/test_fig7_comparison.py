"""Bench: Figure 7 — SRC vs SRC-S2D vs Bcache5 vs Flashcache5.

The headline result: "SRC performs at least 2 times better in terms of
throughput than existing open source solutions."
"""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, amp, hit = cell.split(" | ")
    return float(tput), float(amp), float(hit)


def test_fig7_src_vs_existing(benchmark, es):
    result = run_once(benchmark, REGISTRY["fig7"].sweep.run, es)
    emit(result)
    for i, group in enumerate(("write", "mixed", "read"), start=1):
        src_tput, src_amp, src_hit = parse(result.cell("SRC", group))
        s2d_tput, s2d_amp, s2d_hit = parse(result.cell("SRC-S2D", group))
        bc_tput, _, _ = parse(result.cell("Bcache5", group))
        fc_tput, _, _ = parse(result.cell("Flashcache5", group))
        # Headline: SRC at least 2x over both baselines.
        assert src_tput >= 2.0 * bc_tput, \
            f"{group}: SRC must be >=2x Bcache5 ({src_tput} vs {bc_tput})"
        assert src_tput >= 2.0 * fc_tput, \
            f"{group}: SRC must be >=2x Flashcache5 ({src_tput} vs {fc_tput})"
        # Sel-GC vs S2D: SRC does better with higher amp and hit ratio.
        assert src_tput >= s2d_tput * 0.9, \
            f"{group}: SRC (Sel-GC) must not trail SRC-S2D"
        assert src_hit >= s2d_hit * 0.95, \
            f"{group}: Sel-GC must hold hit ratio at least as high"
