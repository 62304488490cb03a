"""``scripts/bench_pairs.py``: the folding of driver output into a pair
table, fed canned ``bench/run.py --workload`` stdout (the script itself
only spawns the driver)."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _stdout(req_per_s, setup_s=0.1, rss=140.0, digest="9d8b90dc", failed=0,
            correct=True):
    """What the driver prints: the report, then one line of JSON."""
    metrics = {"host_req_per_s": (req_per_s, "1/s"), "setup_s": (setup_s, "s"),
               "peak_rss_mb": (rss, "MB"), "sim_mb_per_s": (744.4, "MB/s")}
    return (f"== tenants-write-hot: attempted 262500, failed {failed}, "
            f"sim_digest {digest}\n"
            f"   host_req_per_s   {req_per_s} 1/s   [1 .. 2]\n"
            + json.dumps({"correct": correct, "attempted": 262500,
                          "failed": failed,
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}})
            + "\n")


def test_fold_reports_medians_quartiles_and_the_ahead_count():
    parent = [300e3, 340e3, 320e3, 360e3, 350e3]
    change = [400e3, 330e3, 420e3, 360e3, 450e3]     # behind once, tied once
    folded = bench_pairs.fold([
        (_stdout(p, setup_s=0.11, rss=164.0), _stdout(c, setup_s=0.09,
                                                       rss=131.0))
        for p, c in zip(parent, change)])
    assert folded["problems"] == [] and folded["pairs"] == 5
    assert folded["sim_digests"] == ["9d8b90dc"]
    speed = folded["metrics"]["host_req_per_s"]
    assert speed["parent"] == {"median": 340e3, "q1": 320e3, "q3": 350e3,
                               "min": 300e3, "max": 360e3}
    assert speed["change"]["median"] == 400e3
    assert speed["ahead"] == 3
    assert speed["ratio"] == 400 / 340
    # Lower is better for the other two: ahead means smaller.
    assert folded["metrics"]["setup_s"]["ahead"] == 5
    assert folded["metrics"]["peak_rss_mb"]["ahead"] == 5
    assert "sim_mb_per_s" not in folded["metrics"]
    text = bench_pairs.render(folded)
    assert "change ahead 3 / 5 (1.176x by medians)" in text
    assert "PROBLEM" not in text


def test_fold_fails_a_moved_digest_a_failed_op_and_a_failed_check():
    folded = bench_pairs.fold([
        (_stdout(300e3), _stdout(400e3, digest="deadbeef")),
        (_stdout(300e3), _stdout(400e3, failed=2)),
        (_stdout(300e3, correct=False), _stdout(400e3))])
    assert len(folded["problems"]) == 3
    assert "sim_digest 9d8b90dc != deadbeef" in folded["problems"][0]
    assert folded["problems"][1].startswith("pair 2 change")
    assert folded["problems"][2].startswith("pair 3 parent")
    assert bench_pairs.render(folded).count("PROBLEM") == 3
