"""Bench: Tables 4, 6, 12 — input data reproduction and validation."""

import pytest

from repro.harness.experiments import table4, table6, table12

from _bench_utils import emit, run_once


def test_table4_and_12_product_sheets(benchmark):
    def build():
        return table4(), table12()

    t4, t12 = benchmark.pedantic(build, rounds=1, iterations=1)
    emit(t4)
    emit(t12)
    # Paper observation: price proportional to capacity within a line,
    # interface the key price factor.
    assert t12.cell("B-TLC(SATA)", "GB/$") > t12.cell("C-MLC(NVMe)", "GB/$")


def test_table6_trace_characteristics(benchmark, es):
    result = run_once(benchmark, table6, es, sample=2000)
    emit(result)
    for row in result.rows:
        name, group, spec_kb, meas_kb, spec_r, meas_r = row
        assert meas_kb == pytest.approx(spec_kb, rel=0.35), \
            f"{name}: request size off spec"
        assert meas_r == pytest.approx(spec_r, abs=5.0), \
            f"{name}: read ratio off spec"
