"""Bench: Figure 2 — erase group size emerges from the FTL model."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def test_fig2_erase_group_size(benchmark, es):
    fig2 = REGISTRY["fig2"].sweep.only(
        rows=(0.0, 0.2, 0.5), columns=("32MB", "128MB", "256MB", "512MB"))
    result = run_once(benchmark, fig2.run, es)
    emit(result)
    # Throughput grows with write-unit size at every OPS level.
    for row in result.rows:
        small, big = float(row[1]), float(row[-2])   # 32MB vs 256MB
        assert big > small, f"OPS {row[0]}: big units must sustain more"
    # At the 256MB erase group, OPS barely matters (convergence).
    at_256 = [float(row[3]) for row in result.rows]
    assert max(at_256) / min(at_256) < 1.25, \
        "throughput at the erase group size must be OPS-independent"
    # At small units, OPS matters a lot.
    at_32 = [float(row[1]) for row in result.rows]
    assert max(at_32) / min(at_32) > 1.5, \
        "small write units must be OPS-sensitive"
