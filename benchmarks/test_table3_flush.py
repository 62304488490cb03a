"""Bench: Table 3 — flush command impact on a raw SSD."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def test_table3_flush_impact(benchmark, es):
    result = run_once(benchmark, REGISTRY["table3"].sweep.run, es)
    emit(result)
    for pattern in ("Sequential", "Random"):
        free = result.cell(pattern, "No flush")
        flushed = result.cell(pattern, "flush")
        assert free > 2.0 * flushed, \
            f"{pattern}: flush must cost at least 2x (paper: 4-8x)"
    # Random suffers more than sequential in relative terms (8.3 vs 4.1).
    seq_cut = result.cell("Sequential", "Reduction (x)")
    rand_cut = result.cell("Random", "Reduction (x)")
    assert rand_cut > 0 and seq_cut > 0
