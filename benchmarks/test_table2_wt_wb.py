"""Bench: Table 2 — write-through vs write-back on a single SSD."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def test_table2_wt_vs_wb(benchmark, es):
    result = run_once(benchmark, REGISTRY["table2"].sweep.run, es)
    emit(result)
    for cache in ("Bcache", "Flashcache"):
        wt = result.cell(cache, "WT")
        wb = result.cell(cache, "WB")
        assert wb > wt, f"{cache}: write-back must beat write-through"
    # Flashcache gains more from WB than Bcache does (17.5x vs 4.3x):
    # its WT path is the slowest of the four cells.
    assert result.cell("Flashcache", "WT") <= result.cell("Bcache", "WB")
