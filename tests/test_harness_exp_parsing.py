"""Cross-cutting checks on the registry entries' table contracts."""

from repro.harness.experiments import REGISTRY
from repro.harness.runner import TRACE_GROUPS


def _labels(exp_id):
    return [label for label, _ in REGISTRY[exp_id].sweep.columns]


def _configs(exp_id):
    # SRC column builds are partial(build, SrcConfig): the config is data.
    return [build.args[0] for _, build in REGISTRY[exp_id].sweep.columns]


def test_trace_groups_canonical_order():
    assert TRACE_GROUPS == ("write", "mixed", "read")
    for exp_id in ("fig4", "table8", "fig5", "table9", "table10",
                   "table11", "fig6", "fig7", "ablation", "writeboost",
                   "latency"):
        assert REGISTRY[exp_id].sweep.rows == TRACE_GROUPS, exp_id


def test_fig7_schemes_cover_paper_lineup():
    assert _labels("fig7") == ["SRC", "SRC-S2D", "Bcache5", "Flashcache5"]
    # The latency table replays the same lineup, builds and all.
    assert REGISTRY["latency"].sweep.columns == REGISTRY["fig7"].sweep.columns


def test_table8_combos_cover_design_space():
    assert _labels("table8") == ["S2D/FIFO", "S2D/Greedy", "Sel-GC/FIFO",
                                 "Sel-GC/Greedy"]
    reclaims = [c.reclaim for c in _configs("table8")]
    assert [(r.gc_scheme.name, r.victim_policy.name) for r in reclaims] == [
        ("S2D", "FIFO"), ("S2D", "GREEDY"),
        ("SEL_GC", "FIFO"), ("SEL_GC", "GREEDY")]
    assert {r.u_max for r in reclaims} == {0.90}


def test_fig5_levels_include_paper_peak():
    levels = [c.reclaim.u_max for c in _configs("fig5")]
    assert 0.90 in levels
    assert 0.95 in levels


def test_fig2_sweeps_cover_the_erase_group():
    fig2 = REGISTRY["fig2"].sweep
    assert "256MB" in _labels("fig2")
    assert 0.0 in fig2.rows and 0.5 in fig2.rows


def test_fig4_sweeps_include_default_erase_group():
    assert 256 * 2**20 in [c.erase_group_size for c in _configs("fig4")]


def test_table10_levels():
    assert tuple(c.raid_level for c in _configs("table10")) == (0, 4, 5)


def test_fig1_raid_levels():
    levels = tuple(level for _, (level, _) in REGISTRY["fig1"].sweep.columns)
    assert levels == (0, 1, 4, 5)


def test_runner_modules_expose_run():
    for exp_id, entry in REGISTRY.items():
        assert (entry.sweep is None) != (entry.suite is None), exp_id
        assert callable(entry.run), exp_id
