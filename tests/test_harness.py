"""Harness plumbing: builders, result tables, tiny experiment runs."""

import pytest

from repro.baselines.bcache import BcacheDevice
from repro.baselines.flashcache import FlashcacheDevice
from repro.core.src import SrcCache
from repro.harness.context import (CACHE_SPACE, ExperimentScale,
                                   build_bcache, build_cache_window,
                                   build_flashcache, build_src, build_ssds)
from repro.harness.results import ExperimentResult, ratio

TINY = ExperimentScale(scale=1 / 512, warmup=0.1, duration=0.4)


# ------------------------------------------------------------------
# results container
# ------------------------------------------------------------------
def test_result_add_and_lookup():
    result = ExperimentResult("T", "title", ["a", "b"])
    result.add_row("x", 1.0)
    result.add_row("y", 2.0)
    assert result.column("b") == [1.0, 2.0]
    assert result.cell("y", "b") == 2.0


def test_result_wrong_arity_rejected():
    result = ExperimentResult("T", "title", ["a", "b"])
    with pytest.raises(ValueError):
        result.add_row("only-one")


def test_result_missing_row_rejected():
    result = ExperimentResult("T", "title", ["a"])
    with pytest.raises(KeyError):
        result.cell("nope", "a")


def test_result_render_contains_data():
    result = ExperimentResult("T", "My Title", ["name", "val"])
    result.add_row("alpha", 3.14159)
    result.notes.append("a note")
    text = result.render()
    assert "My Title" in text
    assert "alpha" in text
    assert "3.14" in text
    assert "note: a note" in text


def test_ratio_guards_zero():
    assert ratio(1.0, 0.0) == float("inf")
    assert ratio(6.0, 3.0) == 2.0


# ------------------------------------------------------------------
# builders
# ------------------------------------------------------------------
def test_build_ssds_preconditioned():
    ssds = build_ssds(1 / 512, n=2)
    assert len(ssds) == 2
    assert all(s.ftl.utilization() > 0.8 for s in ssds)
    shard = build_ssds(1 / 512, n=2, prefix="shard3-")    # a shard's names
    assert [s.name for s in shard] == [f"shard3-{s.name}" for s in ssds]


def test_build_src_default_geometry():
    cache = build_src(1 / 512)
    assert isinstance(cache, SrcCache)
    assert cache.config.n_ssds == 4
    assert cache.config.cache_space == int(CACHE_SPACE / 512) // 4096 * 4096


def test_build_cache_window_respects_cache_space():
    window, ssds = build_cache_window(1 / 512, raid_level=5)
    assert window.size <= int(CACHE_SPACE / 512)
    assert len(ssds) == 4


def test_build_cache_window_single_device():
    window, ssds = build_cache_window(1 / 512, raid_level=-1)
    assert window.lower is ssds[0]


def test_build_baselines():
    assert isinstance(build_bcache(1 / 512), BcacheDevice)
    assert isinstance(build_flashcache(1 / 512), FlashcacheDevice)


def test_experiment_scale_quickened():
    quick = ExperimentScale().quickened()
    assert quick.scale < ExperimentScale().scale
    assert quick.duration < ExperimentScale().duration


# ------------------------------------------------------------------
# tiny experiment smoke runs (full runs live in benchmarks/)
# ------------------------------------------------------------------
def test_exp_tables4_12_static():
    from repro.api import run_experiment
    t4, t12 = run_experiment("tables4-12", TINY)
    assert len(t4.rows) == 7
    assert len(t12.rows) == 5


def test_exp_table6_characteristics():
    from repro.harness.experiments import table6
    result = table6(TINY, sample=500)
    assert len(result.rows) == 22


def test_exp_table2_tiny_run():
    from repro.harness.experiments import REGISTRY
    result = REGISTRY["table2"].sweep.run(TINY)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row[2] > 0   # WB throughput positive


def test_exp_fig2_tiny_run():
    from repro.harness.experiments import REGISTRY
    fig2 = REGISTRY["fig2"].sweep.only(rows=(0.0, 0.5),
                                       columns=("32MB", "256MB"))
    result = fig2.run(TINY)
    assert len(result.rows) == 2
    small_0 = float(result.rows[0][1])
    big_0 = float(result.rows[0][2])
    assert big_0 > small_0   # larger write units sustain more
